"""Algebraic Birkhoff decomposition and renormalized values.

For a character chi with values in Laurent series and the projection
pi = pole_part (a Rota-Baxter operator of weight -1), every word splits as

    chi_bar(w)   = chi(w) + sum_{reduced coproduct} chi_minus(w') chi(w'')
    chi_minus(w) = -pi(chi_bar(w))
    chi_plus(w)  = (Id - pi)(chi_bar(w))

with chi_minus(e) = chi_plus(e) = 1.  chi_minus is purely polar away from e,
chi_plus is pole-free, and chi_plus = chi_minus * chi (convolution with
respect to the full coproduct); equivalently chi_plus - chi_minus = chi_bar.

The recursion runs over the reduced coproduct at the lambda matching the
character: lambda = 0 for phi (the polylogarithm limit), lambda = -1 for psi
(the modified q-sums).  It reads the coproduct grouped by right leg
(coproduct.reduced_legs), which turns the bar sum into

    chi_bar(w) = chi(w) + sum_{w''} M(w'') chi(w''),
    M(w'') = sum_{w'} c(w', w'') chi_minus(w'),

one product per distinct right leg w'' instead of one per term; M(w'') is
an exact Laurent polynomial, a sum of counterterms.

One atom window per call.  The grading g additive across that coproduct
(weight at lambda = 0, depth at lambda = -1) is also the pole order of chi,
and chi_minus(w') has order -g(w').  So if w is read through P_w, its right
leg w'' is needed through P_w - ord M(w'') = P_w + g(w) - g(w''): reading
every word u through V + 1 - g(u) with one V serves the whole recursion.
A call for W through z^P takes V = P + g(W) - 1 (the characters' own atom
window, see realizations), and each word's character is built once, at V.
V lives in a ContextVar for the duration of a _bar call; the counterterms'
bars run under it, and take the larger window when their own z^-1 needs
more.

Renormalized values:
  * zeta_plus(k) reads the constant term of phi_plus at the word of
    (-k_1, ..., -k_n), from a table whose rows end at z^0.
  * qzeta_plus(k) reads (-1)^{|k|} times the z^{|k|} coefficient of psi_plus
    (|k| = k_1 + ... + k_n, the cost of the (1-q)^{-|k|} rescaling before
    q -> 1); all lower coefficients must vanish, enforced here.
  * zeta_plus_via_primitives(k) bypasses the counterterm calculus for
    depth >= 2: iterating the phi-realized product identity on the constant
    terms gives value(w) = (sum over the reduced coproduct at lambda 0 of
    value(w') value(w'')) / (2^{dpt(w)} - 2).
"""

from __future__ import annotations

import operator
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .coproduct import reduced_legs
from .errors import DepthOne, NonvanishingLowerTerm
from .realizations import phi, psi
from .series import LaurentSeries, pole_part, regular_part, series_scale
from .series import series_slice, series_sum
from .words import depth, indices_to_word, memo, weight, word_to_indices

__all__ = [
    "CharacterTable",
    "RenormValue",
    "qzeta_plus",
    "zeta_plus",
    "zeta_plus_via_primitives",
]

_KINDS = {
    # kind -> (character, lambda of the compatible coproduct)
    "phi": (phi, Fraction(0)),
    "psi": (psi, Fraction(-1)),
}
# kind -> the grading additive across that coproduct: chi's pole order
_GRADINGS = {"phi": weight, "psi": depth}

# The atom window V of the running _bar call; unset outside one.
_WINDOW: ContextVar[int] = ContextVar("atom_window")


# Both memos look the character up in _KINDS on every miss rather than
# binding it at import, so a caller that rebinds _KINDS is seen.
@memo
def _counterterm(kind: str, w: str) -> LaurentSeries:
    """chi_minus(w) = -pi(chi_bar(w)) for a nonempty admissible word.

    An exact Laurent polynomial once chi_bar(w) is known through z^-1, so it
    is computed once, at the running call's window, whatever window is asked
    for later; read further out, its coefficients are known zeros.  That
    z^-1 bar is not memoized: only its pole part is ever read again.
    """
    return series_scale(pole_part(_bar.__wrapped__(kind, w, -1)), -1)


@memo
def _bar(kind: str, w: str, P: int) -> LaurentSeries:
    """chi_bar(w) for a nonempty admissible word, valid through exactly z^P.

    Every character is read at one atom window V: u through V + 1 - g(u),
    g the kind's grading.  chi(w) is sliced to P; each M(w'') chi(w'') is
    valid through at least P, and series_sum narrows the sum to P.
    """
    (char, lam), grade = _KINDS[kind], _GRADINGS[kind]
    V = P + grade(w) - 1
    V = max(V, _WINDOW.get(V))  # a counterterm keeps the call's wider window
    token = _WINDOW.set(V)

    def terms():
        yield 1, series_slice(char(w, V + 1 - grade(w)), P)
        for w2, lefts in reduced_legs(w, lam):
            minus = [(c, _counterterm(kind, w1)) for w1, c in lefts]
            yield minus, char(w2, V + 1 - grade(w2))

    try:
        return series_sum(terms())
    finally:
        _WINDOW.reset(token)


class CharacterTable:
    """The Birkhoff data (chi, chi_bar, chi_minus, chi_plus) of one kind.

    Every row is valid through exactly z^prec; the empty word's rows are all
    chi("", prec).  The table holds no state of its own: chi_bar and the
    counterterms are process-wide memos shared by every table of the kind,
    so a second table (or a second zeta_plus call) reuses them.
    """

    def __init__(self, kind: str, *, prec: int = 1):
        if kind not in _KINDS:
            raise ValueError(f"unknown character kind {kind!r}")
        self.kind = kind
        self.prec = prec

    @property
    def lam(self) -> Fraction:
        return _KINDS[self.kind][1]

    def chi(self, w: str) -> LaurentSeries:
        return _KINDS[self.kind][0](w, self.prec)

    def chi_bar(self, w: str) -> LaurentSeries:
        return _bar(self.kind, w, self.prec) if w else self.chi(w)

    def chi_minus(self, w: str) -> LaurentSeries:
        return series_scale(pole_part(self.chi_bar(w)), -1) if w else self.chi(w)

    def chi_plus(self, w: str) -> LaurentSeries:
        return regular_part(self.chi_bar(w)) if w else self.chi(w)


@dataclass(frozen=True)
class RenormValue:
    k: tuple[int, ...]
    value: Fraction
    provenance: str


def _validate_indices(k: tuple[int, ...]) -> tuple[int, ...]:
    try:
        k = tuple(operator.index(v) for v in k)
    except TypeError:
        raise ValueError(f"index vector entries must be integers: {k!r}") from None
    if not k:
        raise ValueError("index vector must have length >= 1")
    if any(v < 0 for v in k):
        raise ValueError("this package evaluates non-positive arguments: k_i >= 0")
    return k


def zeta_plus(k: tuple[int, ...]) -> RenormValue:
    """Renormalized multiple zeta value at (-k_1, ..., -k_n).

    Constant term of phi_plus at the corresponding word.
    """
    k = _validate_indices(k)
    table = CharacterTable("phi", prec=0)
    value = table.chi_plus(indices_to_word(k)).coefficient(0)
    return RenormValue(k, value, "phi-constant-term")


def qzeta_plus(k: tuple[int, ...]) -> RenormValue:
    """Renormalized q-side value at (-k_1, ..., -k_n) after the q -> 1 limit.

    Reads (-1)^{|k|} [z^{|k|}] psi_plus; coefficients below z^{|k|} must
    vanish (they would blow up under the (1-q)^{-|k|} rescaling otherwise).
    """
    k = _validate_indices(k)
    w = indices_to_word(k)
    weight_sum = sum(k)
    plus = CharacterTable("psi", prec=weight_sum).chi_plus(w)
    for m in range(weight_sum):
        c = plus.coefficient(m)
        if c != 0:
            raise NonvanishingLowerTerm(
                f"psi_plus({w!r}) has z^{m} coefficient {c} != 0; "
                f"the q -> 1 limit does not exist at this vector"
            )
    value = (-1) ** weight_sum * plus.coefficient(weight_sum)
    return RenormValue(k, value, "psi-rescaled-limit")


def zeta_plus_via_primitives(k: tuple[int, ...]) -> RenormValue:
    """Depth >= 2 cross-check that never builds counterterms.

    The phi-realized product identity forces, on constant terms,
    value(w) * 2^{dpt} = 2 value(w) + sum_{reduced} value(w') value(w'');
    solving gives the recursion used here, anchored at depth-1 values from
    the standard decomposition.
    """
    k = _validate_indices(k)
    if len(k) == 1:
        raise DepthOne("the primitive-decomposition route needs depth >= 2")
    return RenormValue(k, _primitive_value(indices_to_word(k)), "primitive-decomposition")


@memo
def _primitive_value(u: str) -> Fraction:
    if depth(u) == 1:  # d^m y <-> single index (m)
        return zeta_plus(word_to_indices(u)).value
    acc = Fraction(0)
    for u2, lefts in reduced_legs(u, Fraction(0)):
        acc += _primitive_value(u2) * sum(c * _primitive_value(u1) for u1, c in lefts)
    return acc / (2 ** depth(u) - 2)

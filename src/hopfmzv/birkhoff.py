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

Windows from the grading.  The grading g additive across that coproduct
(weight at lambda = 0, depth at lambda = -1) is also the pole order of chi,
and chi_minus(w') has order -g(w'), so M(w'') has order -g(w') =
g(w'') - g(w).  For chi_bar(w) through z^P, M(w'') is read through
P + g(w'') (series_pad: its exponents past z^-1 are zeros) and chi(w'')
through P + g(w) - g(w''); each product is then valid through exactly z^P.
A counterterm is computed once, from its bar through z^-1.

Renormalized values.  The characters form an abelian group and Z = log chi
lives on depth one (README: "Renormalized values by placements"), so
chi_plus = exp((1 - pi) Z) is a placement sum of depth-one data:
  * zeta_plus(k) is the constant term of phi_plus at the word of
    (-k_1, ..., -k_n): the lambda = 0 sum of zeta(-a) = mero_depth1(a).
  * qzeta_plus(k) is (-1)^{|k|} times the z^{|k|} coefficient of psi_plus
    (|k| = k_1 + ... + k_n, the cost of the (1-q)^{-|k|} rescaling before
    q -> 1): the lambda = -1 sum of the regular parts of psi(d^a y), whose
    placements with a shared d start above z^{|k|}, so the lambda = 0 sum
    gives the value.  All lower coefficients must vanish, enforced here.
  * _zeta_plus_birkhoff / _qzeta_plus_birkhoff (oracles) read CharacterTable.
  * zeta_plus_via_primitives(k) bypasses the counterterm calculus for
    depth >= 2: iterating the phi-realized product identity on the constant
    terms gives value(w) = (sum over the reduced coproduct at lambda 0 of
    value(w') value(w'')) / (2^{dpt(w)} - 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .coproduct import reduced_legs
from .errors import DepthOne, NonvanishingLowerTerm
from .realizations import mero_depth1, phi, psi
from .series import LaurentSeries, pole_part, regular_part, series_mul
from .series import series_pad, series_scale, series_sum
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


# Both memos look the character up in _KINDS on every miss rather than
# binding it at import, so a caller that rebinds _KINDS is seen.
@memo
def _counterterm(kind: str, w: str) -> LaurentSeries:
    """chi_minus(w) = -pi(chi_bar(w)) for a nonempty admissible word.

    An exact Laurent polynomial once chi_bar(w) is known through z^-1, so it
    is computed once, through z^-1, whatever window is asked for later; read
    further out (series_pad), its coefficients are known zeros.  That z^-1
    bar is not memoized: only its pole part is ever read again.
    """
    return series_scale(pole_part(_bar.__wrapped__(kind, w, -1)), -1)


@memo
def _bar(kind: str, w: str, P: int) -> LaurentSeries:
    """chi_bar(w) for a nonempty admissible word, valid through exactly z^P.

    With g the kind's grading, M(w2) has order -g(w1) = g(w2) - g(w) and
    chi(w2) order -g(w2), so M(w2) read through P + g(w2) and chi(w2) read
    through P + g(w) - g(w2) make a product valid through exactly P.
    """
    (char, lam), grade = _KINDS[kind], _GRADINGS[kind]
    g = grade(w)
    terms = [(1, char(w, P))]
    for w2, lefts in reduced_legs(w, lam):
        M = series_sum((c, _counterterm(kind, w1)) for w1, c in lefts)
        chi2 = char(w2, P + g - grade(w2))
        terms.append((1, series_mul(series_pad(M, P + grade(w2)), chi2)))
    return series_sum(terms)


class CharacterTable:
    """The Birkhoff data (chi, chi_bar, chi_minus, chi_plus) of one kind.

    Every row is valid through exactly z^prec; the empty word's rows are all
    chi("", prec).  The table holds no state of its own: chi_bar and the
    counterterms are process-wide memos shared by every table of the kind,
    so a second table reuses them.
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


def _placements(ks: tuple[int, ...], lam: int, f):
    """sum over placements of prod_j f(a_j) for w = d^{k_1}y ... d^{k_n}y.

    Leg j is headed by the j-th y; each d of block i joins a nonempty set S
    of the legs j >= i, weight lam^{|S| - 1}; a_j counts leg j's d's.  After
    block j, u of the d's seen are in no leg and s = seen - u in some.  Leg
    j takes a1 of the u and a2 of the s, C(u, a1) C(s, a2) lam^{a2} ways;
    the last leg takes all u.  The a2-sum is formed once per (s, a1), so a
    state costs u + 1 products.  f's values need + and * (Fraction, series).
    """
    fs = [f(a) for a in range(sum(ks) + 1)]

    @cache
    def leg(s, a1):  # sum over a2 of C(s, a2) lam^a2 f(a1 + a2)
        shared = range(1, s + 1 if lam else 1)
        return sum((fs[a1 + a2] * (comb(s, a2) * lam**a2) for a2 in shared), fs[a1])

    states, seen = {0: 1}, 0
    for j, k in enumerate(ks):
        seen += k
        nxt: dict = {}
        for u, acc in states.items():
            u += k
            for a1 in range(u + 1) if j < len(ks) - 1 else (u,):
                term = leg(seen - u, a1) * acc * comb(u, a1)
                nxt[u - a1] = nxt[u - a1] + term if u - a1 in nxt else term
        states = nxt
    return states[0]


def zeta_plus(k: tuple[int, ...]) -> RenormValue:
    """Renormalized multiple zeta value at (-k_1, ..., -k_n).

    The lambda = 0 placement sum of the depth-one values zeta(-a).
    """
    ks = word_to_indices(indices_to_word(k))
    return RenormValue(ks, _placements(ks, 0, mero_depth1), "phi-placement-dp")


def qzeta_plus(k: tuple[int, ...]) -> RenormValue:
    """Renormalized q-side value at (-k_1, ..., -k_n) after the q -> 1 limit.

    psi_plus is the lambda = -1 placement sum of the regular parts of
    psi(d^a y), read at (-1)^{|k|} [z^{|k|}]; coefficients below z^{|k|}
    must vanish (they would blow up under the (1-q)^{-|k|} rescaling
    otherwise).  Only the lambda = 0 placements reach z^{|k|}: the regular
    part of psi(d^a y) starts at z^a, and a d that two legs share counts in
    both legs' a, so a placement with a shared d starts above z^{|k|}.
    """
    w = indices_to_word(k)
    ks = word_to_indices(w)
    N = sum(ks)

    def regular(a):
        return LaurentSeries(0, [psi("d" * a + "y", N).coefficient(m) for m in range(N + 1)])

    plus = _placements(ks, 0, regular)
    return RenormValue(ks, _rescaled_limit(w, plus, N), "psi-placement-dp")


def _rescaled_limit(w: str, plus: LaurentSeries, N: int) -> Fraction:
    """(-1)^N [z^N] of psi_plus(w), once every lower coefficient is checked 0."""
    for m in range(N):
        c = plus.coefficient(m)
        if c != 0:
            raise NonvanishingLowerTerm(
                f"psi_plus({w!r}) has z^{m} coefficient {c} != 0; "
                f"the q -> 1 limit does not exist at this vector"
            )
    return (-1) ** N * plus.coefficient(N)


def _zeta_plus_birkhoff(k: tuple[int, ...]) -> RenormValue:
    """zeta_plus by the Birkhoff recursion: the constant term of phi_plus."""
    w = indices_to_word(k)
    value = CharacterTable("phi", prec=0).chi_plus(w).coefficient(0)
    return RenormValue(word_to_indices(w), value, "phi-constant-term")


def _qzeta_plus_birkhoff(k: tuple[int, ...]) -> RenormValue:
    """qzeta_plus by the Birkhoff recursion on psi."""
    w = indices_to_word(k)
    N = weight(w) - depth(w)
    plus = CharacterTable("psi", prec=N).chi_plus(w)
    return RenormValue(word_to_indices(w), _rescaled_limit(w, plus, N), "psi-rescaled-limit")


def zeta_plus_via_primitives(k: tuple[int, ...]) -> RenormValue:
    """Depth >= 2 cross-check that never builds counterterms.

    The phi-realized product identity forces, on constant terms,
    value(w) * 2^{dpt} = 2 value(w) + sum_{reduced} value(w') value(w'');
    solving gives the recursion used here, anchored at the depth-1 values
    zeta_plus((m,)) = zeta(-m).
    """
    w = indices_to_word(k)
    if depth(w) == 1:
        raise DepthOne("the primitive-decomposition route needs depth >= 2")
    return RenormValue(word_to_indices(w), _primitive_value(w), "primitive-decomposition")


@memo
def _primitive_value(u: str) -> Fraction:
    if depth(u) == 1:  # d^m y <-> single index (m)
        return zeta_plus(word_to_indices(u)).value
    acc = Fraction(0)
    for u2, lefts in reduced_legs(u, Fraction(0)):
        acc += _primitive_value(u2) * sum(c * _primitive_value(u1) for u1, c in lefts)
    return acc / (2 ** depth(u) - 2)

"""Algebraic Birkhoff decomposition and renormalized values.

For a character chi with values in Laurent series, the projection
pi = pole_part (a Rota-Baxter operator of weight -1) and the coproduct at the
character's lambda (0 for phi, the polylogarithm limit; -1 for psi, the
modified q-sums), chi_plus = chi_minus * chi with chi_minus purely polar and
chi_plus pole-free off e, where both are 1; chi_bar = chi_plus - chi_minus.

Rows and values from depth one.  The characters form an abelian group and
Z = log chi lives on depth one (README: "Rows and values from depth one"), so
chi_minus = exp(-pi Z) and chi_plus = exp((1 - pi) Z) are placement sums of
depth-one data (the commutative Spitzer identity):
  * CharacterTable rows: the character's own construction on its split atom,
    phi's chain on -pi x or (1 - pi) x, psi's l-sum on -pi or (1 - pi) f(L z).
  * zeta_plus(k) is the constant term of phi_plus at the word of
    (-k_1, ..., -k_n), and qzeta_plus(k) is (-1)^{|k|} [z^{|k|}] psi_plus,
    |k| = k_1 + ... + k_n (the (1-q)^{-|k|} rescaling before q -> 1).  Both
    are the lambda = 0 sum of zeta(-a) = mero_depth1(a) (see qzeta_plus),
    which _value runs on ints over zeta(0) and the odd a only (zeta(-a) = 0
    at even a >= 2), reduced by a gcd after a block while two blocks remain.

The paper's Bogoliubov recursion is the oracle of both; it is exponential in
depth.  _zeta_plus_birkhoff and _qzeta_plus_birkhoff run it, and so do the
tests and verify's birkhoff/qzeta-equals-zeta-spots:

    chi_bar(w)   = chi(w) + sum_{reduced coproduct} chi_minus(w') chi(w'')
    chi_minus(w) = -pi(chi_bar(w)),   chi_plus(w) = (Id - pi)(chi_bar(w)).

It groups the reduced coproduct by right leg, one product per distinct
right leg w'': M(w'') = sum_{w'} c(w', w'') chi_minus(w'),
an exact Laurent polynomial, times chi(w''), each read at the window the
grading gives it (weight at lambda = 0, depth at lambda = -1; see _bar).

zeta_plus_via_primitives(k), for depth >= 2, is a third value route that
builds no counterterms: the phi-realized product identity on constant terms.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple

from .coproduct import reduced_coproduct
from .errors import DepthOne, NonvanishingLowerTerm
from .realizations import _chain, _lsum, mero_depth1, phi, psi, psi_factor, x_series
from .series import LaurentSeries, pole_part, regular_part, series_mul
from .series import series_diff, series_pad, series_scale, series_sum, zero_series
from .words import depth, indices_to_word, memo, weight, word_to_indices

__all__ = [
    "CharacterTable",
    "RenormValue",
    "qzeta_plus",
    "zeta_plus",
    "zeta_plus_via_primitives",
]

_KINDS = {
    # kind -> (character, lambda of the compatible coproduct); _bar and
    # CharacterTable.chi look it up on each call, so a rebound _KINDS is seen
    "phi": (phi, 0),
    "psi": (psi, -1),
}
# kind -> the grading additive across that coproduct: chi's pole order
_GRADINGS = {"phi": weight, "psi": depth}


@memo
def _rows(kind: str, w: str, prec: int) -> tuple[LaurentSeries, ...]:
    """(chi_minus, chi_plus, chi_bar) of a nonempty admissible word through
    exactly z^prec: the character's loop (phi's chain, psi's l-sum), not the
    character, on the split atom -pi a or (1 - pi) a, a the atom (x, f(L z))
    through the character's V = prec + g(w) - 1, g the kind's grading.  Below
    the leading pole z^{-g(w)} all three rows are zero.

    Why.  chi_minus = exp(-pi Z) and chi_plus = exp((1 - pi) Z) are sums over
    placements of prod_j part(chi(d^{a_j} y)): leg j is headed by the j-th y,
    each d of block i joins a nonempty set S of the legs j >= i with weight
    lam^{|S| - 1}, and a_j counts leg j's d's.
      * lambda = 0: no d is shared, and pi commutes with D = d/dz (negative
        exponents stay negative, z^0 goes to 0), so part(D^a x) = D^a part(x)
        and the placement sum is the Leibniz expansion of the chain.
      * lambda = -1: in psi's depth-one l-sum each d is taken (sign -1, level
        + 1) or not.  For one d of block i, summing (-1)^{|S| - 1} over the S
        and each leg's take-or-not leaves 1 - prod_{j >= i} t_j, t_j raising
        leg j's level: no leg takes the d, or every leg j >= i at once, as in
        psi's cumulative level L_j = 1 + l_1 + ... + l_j.
    Neither argument reads the atoms, so both hold for any atom family.
    """
    ks, g = word_to_indices(w), _GRADINGS[kind](w)
    if prec < -g:  # below the leading pole
        return (zero_series(prec),) * 3
    V = prec + g - 1

    def split(part):
        if kind == "phi":
            return _chain(ks, part(x_series(V)), series_mul, series_diff)
        return _lsum(ks, lambda L: part(psi_factor(L, V)))

    minus, plus = split(lambda s: -pole_part(s)), split(regular_part)
    return minus, plus, plus - minus


@memo
def _counterterm(kind: str, w: str) -> LaurentSeries:
    """chi_minus(w) = -pi(chi_bar(w)) by the recursion, for a nonempty word.

    An exact Laurent polynomial once chi_bar(w) is known through z^-1, so it
    is computed once, through z^-1, whatever window is asked for later; read
    further out (series_pad), its coefficients are known zeros.
    """
    return series_scale(pole_part(_bar(kind, w, -1)), -1)


def _bar(kind: str, w: str, P: int) -> LaurentSeries:
    """chi_bar(w) by the recursion for nonempty w, valid through exactly z^P.

    With g the kind's grading, M(w2) has order -g(w1) = g(w2) - g(w) and
    chi(w2) order -g(w2), so M(w2) read through P + g(w2) and chi(w2) read
    through P + g(w) - g(w2) make a product valid through exactly P.
    """
    (char, lam), grade = _KINDS[kind], _GRADINGS[kind]
    g = grade(w)
    lefts: dict = {}  # right leg w2 -> [(c, chi_minus(w1)), ...]
    for (w1, w2), c in reduced_coproduct(w, lam).items():
        lefts.setdefault(w2, []).append((c, _counterterm(kind, w1)))
    terms = [(1, char(w, P))]
    for w2, minus in lefts.items():
        M = series_sum(minus)
        chi2 = char(w2, P + g - grade(w2))
        terms.append((1, series_mul(series_pad(M, P + grade(w2)), chi2)))
    return series_sum(terms)


class CharacterTable:
    """The Birkhoff data (chi, chi_bar, chi_minus, chi_plus) of one kind.

    Every row is valid through exactly z^prec; the empty word's rows are all
    chi("", prec).  The table holds no state of its own: the three split
    rows of a word come together from the character's construction on its
    split atom (_rows), memoized once per (kind, word, prec) for every table
    of the kind.
    """

    def __init__(self, kind: str, *, prec: int = 1):
        if kind not in _KINDS:
            raise ValueError(f"unknown character kind {kind!r}")
        try:
            operator.index(prec)  # no float, str or Fraction
        except TypeError:
            raise ValueError(f"prec must be an integer, not {prec!r}") from None
        self.kind = kind
        self.prec = prec

    @property
    def lam(self) -> int:
        return _KINDS[self.kind][1]

    def chi(self, w: str) -> LaurentSeries:
        return _KINDS[self.kind][0](w, self.prec)

    def chi_bar(self, w: str) -> LaurentSeries:
        return _rows(self.kind, w, self.prec)[2] if w else self.chi(w)

    def chi_minus(self, w: str) -> LaurentSeries:
        return _rows(self.kind, w, self.prec)[0] if w else self.chi(w)

    def chi_plus(self, w: str) -> LaurentSeries:
        return _rows(self.kind, w, self.prec)[1] if w else self.chi(w)


class RenormValue(NamedTuple):
    k: tuple[int, ...]
    value: Fraction
    provenance: str


def _value(ks: tuple[int, ...]) -> Fraction:
    """The lambda = 0 placement sum (see _rows) of the zeta(-a) on ints: of the
    u d's in no leg after block j, leg j takes a1, C(u, a1) ways (the last all).
    zeta(0) and the odd zeta(-a), read once (0 at even a >= 2), are numerators over
    their lcm D; den * D and the states drop their gcd while two blocks remain."""
    if len(ks) == 1:
        return mero_depth1(ks[0])
    fs = {a: mero_depth1(a) for a in reversed((0, *range(1, sum(ks) + 1, 2)))}  # B grows once
    D = lcm(*(v.denominator for v in fs.values()))
    nums = {a: v.numerator * (D // v.denominator) for a, v in fs.items()}
    legs, states, den = sorted(nums), {0: 1}, 1
    for j, k in enumerate(ks[:-1]):
        nxt: dict = {}
        for u, acc in states.items():
            u += k
            for a1 in legs[: (u + 3) // 2]:  # 0 and the odd a1 <= u
                nxt[u - a1] = nxt.get(u - a1, 0) + acc * (comb(u, a1) * nums[a1])
        g = gcd(den * D, *nxt.values()) if j < len(ks) - 2 else 1
        states, den = {u: c // g for u, c in nxt.items()} if g > 1 else nxt, den * D // g
    n = ks[-1]
    return Fraction(sum(c * nums[u + n] for u, c in states.items() if u + n in nums), den * D)


def zeta_plus(k: tuple[int, ...]) -> RenormValue:
    """Renormalized multiple zeta value at (-k_1, ..., -k_n).

    The lambda = 0 placement sum of zeta(-a) at a = 0 and the odd a <= |k|:
    the trivial zeros zeta(-a), a >= 2 even, are skipped (see _value)."""
    ks = word_to_indices(indices_to_word(k))
    return RenormValue(ks, _value(ks), "phi-placement-dp")


def qzeta_plus(k: tuple[int, ...]) -> RenormValue:
    """Renormalized q-side value at (-k_1, ..., -k_n) after the q -> 1 limit.

    (-1)^{|k|} [z^{|k|}] of psi_plus.  The regular part of psi(d^a y) starts
    at z^a, and the a_j of a placement sum to |k| only when no d is shared,
    so this is the lambda = 0 sum of the leading coefficients (-1)^a [z^a]
    psi(d^a y).  psi's l-sum gives [z^j] psi(d^a y) = -B_{j+1}/(j+1)! sum_l
    (-1)^l C(a, l) (l + 1)^j, and sum_l (-1)^l C(a, l) p(l), an a-th finite
    difference, is 0 when deg p < a and (-1)^a a! lead(p) when deg p = a.
    So each leading coefficient is -B_{a+1}/(a+1) = zeta(-a), as in zeta_plus:
    the same zeta(0) and odd zeta(-a) are read, the even trivial zeros skipped."""
    ks = word_to_indices(indices_to_word(k))
    return RenormValue(ks, _value(ks), "psi-placement-dp")


def _rescaled_limit(w: str, plus: LaurentSeries, N: int) -> Fraction:
    """(-1)^N [z^N] of psi_plus(w), once z^0 .. z^{N-1} are checked 0."""
    for m in range(N):
        c = plus.coefficient(m)
        if c != 0:
            raise NonvanishingLowerTerm(
                f"psi_plus({w!r}) has z^{m} coefficient {c} != 0; "
                "the q -> 1 limit does not exist"
            )
    return (-1) ** N * plus.coefficient(N)


def _zeta_plus_birkhoff(k: tuple[int, ...]) -> RenormValue:
    """zeta_plus by the Birkhoff recursion: the constant term of phi_plus."""
    w = indices_to_word(k)
    value = regular_part(_bar("phi", w, 0)).coefficient(0)
    return RenormValue(word_to_indices(w), value, "phi-constant-term")


def _qzeta_plus_birkhoff(k: tuple[int, ...]) -> RenormValue:
    """qzeta_plus by the Birkhoff recursion on psi."""
    w = indices_to_word(k)
    N = weight(w) - depth(w)
    plus = regular_part(_bar("psi", w, N))
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
    acc = sum(
        c * _primitive_value(u1) * _primitive_value(u2)
        for (u1, u2), c in reduced_coproduct(u, 0).items()
    )
    return acc / (2 ** depth(u) - 2)

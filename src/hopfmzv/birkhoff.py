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
(the modified q-sums).

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

import threading
from dataclasses import dataclass
from fractions import Fraction

from .coproduct import reduced_coproduct
from .errors import DepthOne, NonvanishingLowerTerm
from .realizations import phi, psi
from .series import (
    LaurentSeries,
    pole_part,
    regular_part,
    series_add,
    series_mul,
    series_pad,
    series_scale,
)
from .words import depth, indices_to_word

Fr = Fraction

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


class CharacterTable:
    """Memoized Birkhoff data (chi, chi_bar, chi_minus, chi_plus) per word.

    Every row is valid through exactly z^prec.  A counterterm
    chi_minus(w) = -pi(chi_bar(w)) is an exact Laurent polynomial once
    chi_bar(w) is known through z^-1, so each one is computed once at that
    window and memoized; read further out, its coefficients are known zeros.
    A bar term c * chi_minus(w') * chi(w'') is then valid through P when
    chi(w'') is taken through P - ord(chi_minus(w')) and the counterterm is
    padded to P - ord(chi(w'')).

    Thread-safe: a single lock protects the memos, and the recursion only
    ever descends to strictly shorter words, so re-entry terminates.
    """

    def __init__(self, kind: str, *, prec: int = 1, lam: Fraction | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown character kind {kind!r}")
        char, default_lam = _KINDS[kind]
        self.kind = kind
        self.prec = prec
        self.lam = default_lam if lam is None else Fraction(lam)
        self._char = char
        self._memo: dict[str, tuple[LaurentSeries, ...]] = {}
        self._minus: dict[str, LaurentSeries] = {}
        self._lock = threading.RLock()

    def _bar(self, w: str, P: int) -> tuple[LaurentSeries, LaurentSeries]:
        """chi(w) and chi_bar(w), both valid through exactly z^P."""
        chi = self._char(w, P)
        bar = chi
        for (w1, w2), c in reduced_coproduct(w, self.lam).items():
            minus1 = self._counterterm(w1)
            chi2 = self._char(w2, P - minus1.ord)
            term = series_mul(series_pad(minus1, P - chi2.ord), chi2)
            bar = series_add(bar, series_scale(term, c))
        return chi, bar

    def _counterterm(self, w: str) -> LaurentSeries:
        with self._lock:
            minus = self._minus.get(w)
            if minus is None:
                bar = self._bar(w, -1)[1]
                minus = self._minus[w] = series_scale(pole_part(bar), -1)
            return minus

    def _entry(self, w: str) -> tuple[LaurentSeries, ...]:
        with self._lock:
            hit = self._memo.get(w)
            if hit is not None:
                return hit
            if w == "":
                unit = self._char("", self.prec)
                row = (unit, unit, unit, unit)
            else:
                chi, bar = self._bar(w, self.prec)
                minus = series_scale(pole_part(bar), -1)
                row = (chi, bar, minus, regular_part(bar))
            self._memo[w] = row
            return row

    def chi(self, w: str) -> LaurentSeries:
        return self._entry(w)[0]

    def chi_bar(self, w: str) -> LaurentSeries:
        return self._entry(w)[1]

    def chi_minus(self, w: str) -> LaurentSeries:
        return self._entry(w)[2]

    def chi_plus(self, w: str) -> LaurentSeries:
        return self._entry(w)[3]


@dataclass(frozen=True)
class RenormValue:
    k: tuple[int, ...]
    value: Fraction
    provenance: str


def _validate_indices(k: tuple[int, ...]) -> tuple[int, ...]:
    k = tuple(int(v) for v in k)
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
    w = indices_to_word(k)
    cache: dict[str, Fraction] = {}

    def value(u: str) -> Fraction:
        hit = cache.get(u)
        if hit is not None:
            return hit
        if depth(u) == 1:
            # d^m y <-> single index (m)
            v = zeta_plus((u.count("d"),)).value
        else:
            acc = Fr(0)
            for (u1, u2), c in reduced_coproduct(u, Fraction(0)).items():
                acc += c * value(u1) * value(u2)
            v = acc / (2 ** depth(u) - 2)
        cache[u] = v
        return v

    return RenormValue(k, value(w), "primitive-decomposition")

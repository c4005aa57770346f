"""Bernoulli numbers, B(1) = +1/2 convention.

This module fixes the generating function

    t*exp(t)/(exp(t) - 1) = sum_{m >= 0} B_m t^m / m!,

i.e. B_0 = 1, B_1 = +1/2, B_2 = 1/6, B_4 = -1/30, and B_{2l+1} = 0 for
l >= 1.  B_{2m} = (-1)^{m-1} 2m T_m / (4^m (4^m - 1)), T_m the tangent
numbers (tan t = sum T_m t^{2m-1}/(2m-1)!), which Brent and Harvey's
in-place triangle (arXiv:1108.0286) builds in O(M^2) products of a big
integer by a small one.  By von Staudt-Clausen den(B_{2m}) is the product of
the primes p with p - 1 | 2m; a new entry off it raises ArithmeticError.  An
odd n >= 3 returns 0 before the table grows.  The one process-wide table
(next to the seven `words.memo` caches) grows in place under a lock, each
entry a Fraction built once, and each growth at least doubles it: a caller
asking for B_0, B_1, ... in turn builds the triangle O(log n) times.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from math import factorial, isqrt, prod

__all__ = ["bernoulli"]

_cache: list[Fraction] = [Fraction(1), Fraction(1, 2)]
_lock = threading.Lock()


def _tangents(M: int) -> list[int]:
    """[0, T_1, ..., T_M]: T_k = (k - 1)!, swept by Brent and Harvey's triangle."""
    T = [0] + [factorial(k - 1) for k in range(1, M + 1)]
    for k in range(2, M + 1):
        for j in range(k, M + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def _grow(size: int) -> None:
    """Extend the table, which holds B_0 and B_1, through B_{size - 1}."""
    T = _tangents((size - 1) // 2)
    primes = [p for p in range(2, size + 1) if all(p % q for q in range(2, isqrt(p) + 1))]
    for j in range(len(_cache), size):
        m, odd = divmod(j, 2)
        B = Fraction(0) if odd else Fraction((-1) ** (m - 1) * j * T[m], 4**m * (4**m - 1))
        if not odd and B.denominator != prod(p for p in primes if j % (p - 1) == 0):
            raise ArithmeticError(f"B_{j} = {B} breaks von Staudt-Clausen")
        _cache.append(B)


def bernoulli(n: int) -> Fraction:
    """Return B_n exactly (B_1 = +1/2).

    >>> bernoulli(1)
    Fraction(1, 2)
    >>> bernoulli(4)
    Fraction(-1, 30)
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"a Bernoulli index must be an integer, not {n!r}") from None
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    if n >= 3 and n % 2:  # B_n = 0: the table need not grow to it
        return Fraction(0)
    if n >= len(_cache):
        with _lock:
            if n >= len(_cache):  # another thread may have grown it meanwhile
                _grow(max(n + 1, 2 * len(_cache)))
    return _cache[n]

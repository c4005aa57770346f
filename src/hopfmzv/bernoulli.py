"""Bernoulli numbers, B(1) = +1/2 convention.

This module fixes the generating function

    t*exp(t)/(exp(t) - 1) = sum_{m >= 0} B_m t^m / m!,

i.e. B_0 = 1, B_1 = +1/2, B_2 = 1/6, B_4 = -1/30, and B_{2l+1} = 0 for
l >= 1.  B_{2m} = (-1)^{m-1} 2m T_m / (4^m (4^m - 1)), T_m the tangent
numbers (tan t = sum T_m t^{2m-1}/(2m-1)!), read off Brent and Harvey's
triangle (arXiv:1108.0286) one column at a time: A[1][m] = (m-1)!,
A[k][m] = (m-k) A[k][m-1] + (m-k+2) A[k-1][m] and T_m = A[m][m], so column m
costs m - 1 multiply-adds of a big integer by small ones and needs only
column m - 1.  By von Staudt-Clausen den(B_{2m}) is the product of the
primes p with p - 1 | 2m; a new entry off it raises ArithmeticError and
leaves the table as it was.  An odd n returns before the table is read.
The one process-wide table (next to the nine `words.memo` caches) holds
B_0, B_2, ..., B_{2m} and column m, and grows under a lock exactly to the
index asked for, each T_m and each entry computed once per process,
whatever the read order.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial, gcd, isqrt, prod

from .words import integer

__all__ = ["bernoulli"]

_cache: list[Fraction] = [Fraction(1)]  # B_0, B_2, ..., B_{2m}
_column: list[int] = []  # A[1][m] .. A[m][m], m = len(_column): T_m is the last
_lock = threading.Lock()


def _step(column: list[int]) -> list[int]:
    """Column m of the triangle from column m - 1 = len(column); its last entry is T_m."""
    m = len(column) + 1
    new = [(m - 1) * column[0] if column else 1]
    for k, a in zip(range(2, m + 1), column[1:] + [0]):
        new.append((m - k) * a + (m - k + 2) * new[-1])
    return new


def _grow(n: int) -> None:
    """Extend the table through the even index n, one column per entry."""
    while len(_cache) <= n // 2:
        column = _step(_column)
        m = len(column)
        B = Fraction((-1) ** (m - 1) * 2 * m * column[-1], 4**m * (4**m - 1))
        # p - 1 | 2m, and p is prime when gcd(p, isqrt(p)!) = 1
        ps = {e + 1 for d in range(1, isqrt(2 * m) + 1) if 2 * m % d == 0 for e in (d, 2 * m // d)}
        if B.denominator != prod(p for p in ps if gcd(p, factorial(isqrt(p))) == 1):
            raise ArithmeticError(f"B_{2 * m} = {B} breaks von Staudt-Clausen")
        _column[:] = column
        _cache.append(B)


def bernoulli(n: int) -> Fraction:
    """Return B_n exactly (B_1 = +1/2).

    >>> bernoulli(1)
    Fraction(1, 2)
    >>> bernoulli(4)
    Fraction(-1, 30)
    """
    n = integer(n, "Bernoulli index", 0)
    if n % 2:  # B_1, and B_n = 0 for odd n >= 3: the table holds the even ones
        return Fraction(1, 2) if n == 1 else Fraction(0)
    if n // 2 >= len(_cache):
        with _lock:  # _grow rereads the length: another thread may have grown it
            _grow(n)
    return _cache[n // 2]

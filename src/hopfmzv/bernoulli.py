"""Bernoulli numbers, B(1) = +1/2 convention.

This module fixes the generating function

    t*exp(t)/(exp(t) - 1) = sum_{m >= 0} B_m t^m / m!,

i.e. B_0 = 1, B_1 = +1/2, B_2 = 1/6, B_4 = -1/30, and B_{2l+1} = 0 for
l >= 1.  Comparing coefficients of t^N in t*exp(t) = (exp(t)-1) * sum B_m
t^m/m! gives the convolution recurrence

    sum_{j=0}^{N-1} binom(N, j) B_j = N        (N >= 1),

which determines B_{N-1} from its predecessors.  It runs on the integers
D*B_j, with D = lcm(1..n+1) when the table grows through B_n: by von
Staudt-Clausen den(B_m) is the product of the primes p with p - 1 | m, so
it divides D for every m <= n.  The vanishing odd B_j (j >= 3) are
skipped, and each division by m + 1 must be exact: a remainder raises
ArithmeticError instead of returning a wrong value.  An odd n >= 3 returns
0 before the table grows.  Values are cached in one process-wide table,
next to the seven `words.memo` caches of the other layers.  The table grows
in place under a lock, each new entry a Fraction built once, so concurrent
character evaluations can share it.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, lcm

__all__ = ["bernoulli"]

_cache: list[Fraction] = [Fraction(1)]
_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Return B_n exactly (B_1 = +1/2).

    >>> bernoulli(1)
    Fraction(1, 2)
    >>> bernoulli(4)
    Fraction(-1, 30)
    """
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    if n >= 3 and n % 2:  # B_n = 0: the table need not grow to it
        return Fraction(0)
    if n >= len(_cache):
        with _lock:
            D = lcm(*range(1, n + 2))
            # D*B_j; another thread may have extended the table past n meanwhile
            b = [B.numerator * (D // B.denominator) for B in _cache[: n + 1]]
            for m in range(len(b), n + 1):
                acc = sum(comb(m + 1, j) * b[j] for j in range(m) if j == 1 or j % 2 == 0)
                q, r = divmod(D * (m + 1) - acc, m + 1)
                if r:
                    raise ArithmeticError(f"B_{m} is not a multiple of 1/{D}")
                b.append(q)
                _cache.append(Fraction(q, D))
    return _cache[n]

"""Bernoulli numbers, B(1) = +1/2 convention.

This module fixes the generating function

    t*exp(t)/(exp(t) - 1) = sum_{m >= 0} B_m t^m / m!,

i.e. B_0 = 1, B_1 = +1/2, B_2 = 1/6, B_4 = -1/30, and B_{2l+1} = 0 for
l >= 1.  Comparing coefficients of t^N in t*exp(t) = (exp(t)-1) * sum B_m
t^m/m! gives the convolution recurrence

    sum_{j=0}^{N-1} binom(N, j) B_j = N        (N >= 1),

which determines B_{N-1} from its predecessors.  Values are cached in one
process-wide table, next to the seven `words.memo` caches of the other
layers.  The table grows in place, one entry from the ones before it, so
it is extended under a lock and concurrent character evaluations can
share it.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

Fr = Fraction  # local binding, also keeps the recurrence below readable

__all__ = ["bernoulli"]

_cache: list[Fraction] = [Fr(1)]
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
    if n >= len(_cache):
        with _lock:
            # re-check under the lock; another thread may have extended it
            while len(_cache) <= n:
                m = len(_cache)
                acc = sum(comb(m + 1, j) * _cache[j] for j in range(m))
                _cache.append(Fr(m + 1 - acc, m + 1))
    return _cache[n]

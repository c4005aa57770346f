import doctest
import importlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, strategies as st

from hopfmzv.bernoulli import bernoulli
from hopfmzv.birkhoff import zeta_plus
from hopfmzv.realizations import mero_depth1, mero_depth2

# the package re-exports the function under the submodule's name
bernoulli_module = importlib.import_module("hopfmzv.bernoulli")


@cache
def _fraction_recurrence(n):
    """B_0..B_n by the recurrence one Fraction at a time: the oracle."""
    table = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, j) * table[j] for j in range(m))
        table.append(Fraction(m + 1 - acc, m + 1))
    return table


def test_first_values():
    expected = {
        0: Fraction(1),
        1: Fraction(1, 2),  # the t e^t/(e^t - 1) convention, not -1/2
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, v in expected.items():
        assert bernoulli(n) == v


def test_odd_values_vanish():
    for n in range(3, 40, 2):
        assert bernoulli(n) == 0


@given(st.integers(min_value=1, max_value=60))
def test_defining_recurrence(n):
    # sum_{j<n} C(n, j) B_j = n in this convention
    assert sum(comb(n, j) * bernoulli(j) for j in range(n)) == n


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_cache_is_consistent_after_big_jump():
    big = bernoulli(80)
    assert bernoulli(80) == big
    assert bernoulli(2) == Fraction(1, 6)


def _fresh_table(monkeypatch):
    # clear_caches() leaves the Bernoulli table alone: start from B_0, B_1
    monkeypatch.setattr(bernoulli_module, "_cache", bernoulli_module._cache[:2])


@pytest.mark.parametrize("calls", [(400,), (3, 26, 27, 80, 150, 400)])
def test_integer_table_equals_the_fraction_recurrence(monkeypatch, calls):
    # each growth at least doubles the table, so only B_0 .. B_n are asked for
    _fresh_table(monkeypatch)
    for n in calls:
        bernoulli(n)
    assert bernoulli_module._cache[: n + 1] == _fraction_recurrence(n)


def test_a_denominator_off_the_common_one_raises(monkeypatch):
    # T_M + 1 in place of the last tangent number: B_{2M} leaves the von
    # Staudt-Clausen denominator, and the table refuses to grow instead of
    # returning a value
    tangents = bernoulli_module._tangents

    def planted(M):
        T = tangents(M)
        T[-1] += 1
        return T

    monkeypatch.setattr(bernoulli_module, "_tangents", planted)
    for n in (4, 40, 400):
        _fresh_table(monkeypatch)
        with pytest.raises(ArithmeticError, match="von Staudt-Clausen"):
            bernoulli(n)
        assert len(bernoulli_module._cache) < n + 1


def test_the_triangle_is_built_once_per_doubling(monkeypatch):
    builds, tangents = [], bernoulli_module._tangents
    _fresh_table(monkeypatch)
    monkeypatch.setattr(bernoulli_module, "_tangents", lambda M: builds.append(M) or tangents(M))
    values = [bernoulli(n) for n in range(401)]
    assert builds == [1, 3, 7, 15, 31, 63, 127, 255]  # B_3, B_7, ..., B_511
    assert values == _fraction_recurrence(400)


def test_concurrent_growth_builds_one_table(monkeypatch):
    # more threads than cores ask for B_n out of order while the table grows;
    # a lost or doubled entry would shift every index after it
    _fresh_table(monkeypatch)
    jobs = list(range(301)) * 4
    random.Random(11).shuffle(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda n: (n, bernoulli(n)), jobs))
    finally:
        sys.setswitchinterval(interval)
    table = _fraction_recurrence(300)
    assert all(v == table[n] for n, v in values)
    assert bernoulli_module._cache[:301] == table


@pytest.mark.parametrize("bad", [2.0, 3.0, 4.0, Fraction(4), "4"])
def test_a_non_integer_index_is_refused_cold_and_warm(monkeypatch, bad):
    # the check runs before the odd-index return and before the table is read
    calls = (bernoulli, mero_depth1, lambda a: mero_depth2(a, 1), lambda b: mero_depth2(1, b))
    _fresh_table(monkeypatch)
    for _ in ("cold", "warm"):
        for call in calls:
            with pytest.raises(ValueError):
                call(bad)
        assert (bernoulli(10), mero_depth1(3), mero_depth2(1, 2)) == (
            Fraction(5, 66), Fraction(1, 120), Fraction(-1, 240)
        )


def test_an_odd_index_does_not_grow_the_table():
    size = len(bernoulli_module._cache)
    assert bernoulli(2001) == 0
    assert len(bernoulli_module._cache) == size
    assert zeta_plus((2000,)).value == 0


def test_docstring_examples_run():
    failed, attempted = doctest.testmod(bernoulli_module)
    assert attempted and not failed

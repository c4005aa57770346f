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

from hopfmzv import clear_caches
from hopfmzv.bernoulli import bernoulli
from hopfmzv.birkhoff import zeta_plus
from hopfmzv.realizations import mero_depth1, mero_depth2, psi_factor

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
    # clear_caches() leaves the table alone: swap in B_0 and no column
    # together, and return the m of each column of the triangle computed
    steps, step = [], bernoulli_module._step
    monkeypatch.setattr(bernoulli_module, "_cache", bernoulli_module._cache[:1])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    monkeypatch.setattr(bernoulli_module, "_step", lambda c: steps.append(len(c) + 1) or step(c))
    return steps


@pytest.mark.parametrize("calls", [(400,), (3, 26, 27, 80, 150, 400)])
def test_integer_table_equals_the_fraction_recurrence(monkeypatch, calls):
    _fresh_table(monkeypatch)
    for n in calls:
        bernoulli(n)
    assert bernoulli_module._cache == _fraction_recurrence(n)[::2]  # exactly to B_n


def test_a_denominator_off_the_common_one_raises(monkeypatch):
    # T_m + 1 in place of the new tangent number: B_n leaves the von Staudt-
    # Clausen denominator, and the table refuses it, entries and column kept
    step = bernoulli_module._step
    for n in (4, 40, 400):
        _fresh_table(monkeypatch)
        bernoulli(n - 2)
        entries, column = list(bernoulli_module._cache), list(bernoulli_module._column)
        monkeypatch.setattr(bernoulli_module, "_step", lambda c: (t := step(c))[:-1] + [t[-1] + 1])
        with pytest.raises(ArithmeticError, match="von Staudt-Clausen"):
            bernoulli(n)
        assert (bernoulli_module._cache, bernoulli_module._column) == (entries, column)
        monkeypatch.setattr(bernoulli_module, "_step", step)
        assert bernoulli(n) == _fraction_recurrence(n)[n]


@pytest.mark.parametrize(
    "order",
    [range(401), range(400, -1, -1), random.Random(5).sample(range(401), 401)],
    ids=["ascending", "descending", "shuffled"],
)
def test_each_tangent_number_is_computed_once_in_any_read_order(monkeypatch, order):
    steps = _fresh_table(monkeypatch)
    values = {n: bernoulli(n) for n in order}
    assert steps == list(range(1, 201))  # T_1 .. T_200 for B_2 .. B_400
    assert [values[n] for n in range(401)] == _fraction_recurrence(400)


def test_a_cold_wide_atom_computes_each_tangent_number_once(monkeypatch):
    warm = psi_factor(1, 600)
    steps = _fresh_table(monkeypatch)
    clear_caches()
    cold = psi_factor(1, 600)
    assert steps == list(range(1, 301))
    assert (cold.ord, cold.nums, cold.den) == (warm.ord, warm.nums, warm.den)


def test_concurrent_growth_builds_one_table(monkeypatch):
    # more threads than cores ask for B_n out of order while the table grows;
    # a lost or doubled entry would shift every index after it
    steps = _fresh_table(monkeypatch)
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
    assert bernoulli_module._cache == table[::2]
    assert steps == list(range(1, 151))  # one grower at a time, each column once


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

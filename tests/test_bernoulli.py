import doctest
import importlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from hopfmzv.bernoulli import bernoulli
from hopfmzv.birkhoff import zeta_plus

# the package re-exports the function under the submodule's name
bernoulli_module = importlib.import_module("hopfmzv.bernoulli")


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


@pytest.mark.parametrize("calls", [(150,), (3, 26, 27, 80, 150)])
def test_integer_table_equals_the_fraction_recurrence(monkeypatch, calls):
    # clear_caches() leaves the Bernoulli table alone, so start a fresh one
    monkeypatch.setattr(bernoulli_module, "_cache", [Fraction(1)])
    for n in calls:
        bernoulli(n)
    assert bernoulli_module._cache == _fraction_recurrence(150)


def test_a_denominator_off_the_common_one_raises(monkeypatch):
    # B_2 = -1/11 is no multiple of 1/lcm(1..5): the division by m + 1 is
    # inexact, and the table refuses to grow instead of returning a value
    table = [Fraction(1), Fraction(1, 2), Fraction(-1, 11)]
    monkeypatch.setattr(bernoulli_module, "_cache", table)
    with pytest.raises(ArithmeticError):
        bernoulli(4)


def test_an_odd_index_does_not_grow_the_table():
    size = len(bernoulli_module._cache)
    assert bernoulli(2001) == 0
    assert len(bernoulli_module._cache) == size
    assert zeta_plus((2000,)).value == 0


def test_docstring_examples_run():
    failed, attempted = doctest.testmod(bernoulli_module)
    assert attempted and not failed

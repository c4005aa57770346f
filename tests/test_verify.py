"""The verify oracles still catch a planted fault.

Each fault named here is an entry of the catalogue in tests/test_faults.py;
check() compares the entry's pinned failing set across all four suites with
the catalogue's shared run.
"""

import pytest

from hopfmzv import verify
from test_faults import check


@pytest.mark.parametrize(
    "suite, name",
    [
        ("hopf", "coproduct-recursive-equals-combinatorial"),
        ("hopf", "coassociativity"),
        ("qseries", "psi-vs-constant-oracle"),
    ],
)
def test_unpatched_checks_pass(suite, name):
    assert dict(verify.SUITES[suite]())[name]() == (True, "")


def test_a_wrong_lambda_power_in_the_subset_formula_is_caught():
    check("subset-lambda-power")


def test_one_wrong_coefficient_breaks_coassociativity():
    check("coproduct-dydy-coefficient")


def test_a_constant_off_by_one_at_one_m_is_caught():
    check("psi-C-off-by-one")


def test_a_wrong_atom_numerator_is_caught():
    check("atom-numerator")


def test_a_wrong_sign_in_the_shared_l_sum_is_caught():
    check("lsum-sign")


def test_a_nested_sum_off_by_one_is_caught():
    check("li-nested-off-by-one")


def test_a_wrong_J_numerator_is_caught():
    check("J-numerator")


def test_a_q_sum_off_by_one_is_caught():
    check("qz-series-off-by-one")


def test_a_wrong_q_difference_coefficient_is_caught():
    check("Dq-coefficient")


def test_a_wrong_q_summation_coefficient_is_caught():
    check("Pq-coefficient")


def test_one_wrong_shuffle_coefficient_breaks_squaring():
    check("shuffle-dy-dy-coefficient")

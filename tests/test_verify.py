"""The verify oracles still catch a planted fault.

Each fault named here is an entry of the catalogue in tests/test_faults.py;
check() compares the entry's pinned failing set across all four suites with
the catalogue's shared run.
"""

import pytest

from hopfmzv import birkhoff, clear_caches, realizations, verify
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


def test_the_suites_read_one_row_window_and_one_phi_window():
    # all four suites in one process.  phi: the empty word and the 63 words
    # to weight 6 at _CHAR_PREC, and the empty word's row at _ROW_PREC (a row
    # of e is chi(e)); psi: the same 65 and the 73 windows the recursion in
    # qzeta-equals-zeta-spots plans itself; _rows: the 63 words of both kinds
    # at _ROW_PREC, the 7 d^k y, k = 6 .. 12, of closed-form-compatibility at
    # _ROW_PREC and the 8 spots at their N
    clear_caches()
    assert all(r["ok"] for suite in verify.SUITES for r in verify.run_suite(suite))
    assert realizations.phi.cache_info().currsize == 65
    assert realizations.psi.cache_info().currsize == 138
    assert birkhoff._rows.cache_info().currsize == 141


@pytest.mark.parametrize("lam", verify._LAMS_COP)
def test_rescaled_coassociativity_coefficients_are_ints(lam):
    cops = verify._rescaled_cops(lam)
    assert len(cops) == 64  # the empty word and every admissible word to weight 6
    for u, cop in cops.items():
        assert cop and all(type(c) is int for c in cop.values()), u


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

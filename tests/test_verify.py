"""The verify oracles still catch a planted fault.

Each test swaps one of verify's imports for a faulty copy and runs the one
named check that the import feeds; unpatched, the same check passes.
"""

from fractions import Fraction

import pytest

from hopfmzv import verify

Fr = Fraction


def _check(suite: str, name: str):
    return dict(verify.SUITES[suite]())[name]


@pytest.mark.parametrize(
    "suite, name",
    [
        ("hopf", "coproduct-recursive-equals-combinatorial"),
        ("hopf", "coassociativity"),
        ("qseries", "psi-vs-constant-oracle"),
    ],
)
def test_unpatched_checks_pass(suite, name):
    assert _check(suite, name)() == (True, "")


def test_a_wrong_lambda_power_in_the_subset_formula_is_caught(monkeypatch):
    real = verify.coproduct_combinatorial

    def faulty(w, lam):
        # lambda^(|J| + 1) in place of lambda^|J|: the J-terms, which are
        # the full sum minus its lambda = 0 part, get one more factor lambda
        plain, full = real(w, 0), real(w, lam)
        terms = {k: plain.get(k, 0) + lam * (c - plain.get(k, 0)) for k, c in full.items()}
        return {k: Fr(c) for k, c in terms.items() if c}

    monkeypatch.setattr(verify, "coproduct_combinatorial", faulty)
    ok, detail = _check("hopf", "coproduct-recursive-equals-combinatorial")()
    assert not ok and "routes disagree" in detail


def test_one_wrong_coefficient_breaks_coassociativity(monkeypatch):
    real = verify.coproduct_recursive

    def faulty(w, lam):
        cop = real(w, lam)
        if w == "dydy" and lam == 3:
            cop = {**cop, ("dy", "dy"): cop[("dy", "dy")] + 1}
        return cop

    monkeypatch.setattr(verify, "coproduct_recursive", faulty)
    ok, detail = _check("hopf", "coassociativity")()
    assert not ok and "lambda=3" in detail


def test_a_constant_off_by_one_at_one_m_is_caught(monkeypatch):
    real = verify.psi_C
    monkeypatch.setattr(verify, "psi_C", lambda k, m: real(k, m) + (m == (2,)))
    ok, detail = _check("qseries", "psi-vs-constant-oracle")()
    assert not ok and "psi coefficient" in detail

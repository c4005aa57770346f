"""The verify oracles still catch a planted fault.

Each test swaps one of verify's imports for a faulty copy and runs the one
named check that the import feeds; unpatched, the same check passes.
"""

from fractions import Fraction

import pytest

from hopfmzv import clear_caches, realizations, verify
from hopfmzv.series import LaurentSeries, _make, series_sum

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
    # the check enumerates each word once and builds every lambda from the
    # counts, so the fault goes into that per-lambda build
    real = verify._subset_scalars

    def faulty(counts, lam):
        # lambda^(|J| + 1) in place of lambda^|J|: the J-terms, which are
        # the full sum minus its lambda = 0 part, get one more factor lambda
        plain, full = real(counts, 0), real(counts, lam)
        terms = {k: plain.get(k, 0) + lam * (c - plain.get(k, 0)) for k, c in full.items()}
        return {k: Fr(c) for k, c in terms.items() if c}

    monkeypatch.setattr(verify, "_subset_scalars", faulty)
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


def _off_by_one_at(coeffs, m):
    return coeffs[:m] + (coeffs[m] + 1,) + coeffs[m + 1 :]


def test_a_wrong_atom_numerator_is_caught(monkeypatch):
    # psi_C shares no code with the atoms, so a fault in psi_factor shows
    real = realizations.psi_factor

    def faulty(level, V):
        s = real(level, V)
        if level != 2 or V < 2:
            return s
        return LaurentSeries(s.ord, [Fr(x, s.den) for x in _off_by_one_at(s.nums, 3)])

    monkeypatch.setattr(realizations, "psi_factor", faulty)
    clear_caches()
    ok, detail = _check("qseries", "psi-vs-constant-oracle")()
    assert not ok and "psi coefficient" in detail
    monkeypatch.undo()
    clear_caches()
    assert _check("qseries", "psi-vs-constant-oracle")() == (True, "")


def test_a_wrong_sign_in_the_shared_l_sum_is_caught(monkeypatch):
    # psi and qz_rational both run realizations._lsum; psi_C and the nested
    # q-sum do not, so one term of the wrong sign fails both checks
    real = realizations._lsum

    def faulty(ks, atom, times):
        leaf = atom(1)  # the l = 0 term, (-1)^n atom(1)^n
        for _ in ks[1:]:
            leaf = times(1, leaf)
        return series_sum(((1, real(ks, atom, times)), (2 * (-1) ** (len(ks) + 1), leaf)))

    checks = ["psi-vs-constant-oracle", "qz-nested-equals-rational"]
    monkeypatch.setattr(realizations, "_lsum", faulty)
    clear_caches()
    for name in checks:
        ok, detail = _check("qseries", name)()
        assert not ok and "k=(0,)" in detail, name
    monkeypatch.undo()
    clear_caches()
    for name in checks:
        assert _check("qseries", name)() == (True, ""), name


def test_a_nested_sum_off_by_one_is_caught(monkeypatch):
    real = verify.li_nested

    def faulty(k, T):
        s = real(k, T)
        return _make(s.ord, _off_by_one_at(s.nums, 17), s.den) if k == (2, -1) else s

    monkeypatch.setattr(verify, "li_nested", faulty)
    ok, detail = _check("rota-baxter", "li-route-agreement")()
    assert not ok and "k=(2, -1)" in detail
    monkeypatch.undo()
    assert _check("rota-baxter", "li-route-agreement")() == (True, "")


def test_a_wrong_J_numerator_is_caught(monkeypatch):
    # li_J composes the public op_J, so a fault in it reaches the route
    # check as well as the Rota-Baxter identity
    real = realizations.op_J

    def faulty(s):
        r = real(s)
        return _make(r.ord, _off_by_one_at(r.nums, 2), r.den) if len(r.nums) > 2 else r

    monkeypatch.setattr(realizations, "op_J", faulty)
    monkeypatch.setattr(verify, "op_J", faulty)
    ok, detail = _check("rota-baxter", "li-route-agreement")()
    assert not ok and "k=(1,)" in detail
    ok, detail = _check("rota-baxter", "J-weight0-rota-baxter")()
    assert not ok and "Rota-Baxter" in detail
    monkeypatch.undo()
    assert _check("rota-baxter", "li-route-agreement")() == (True, "")
    assert _check("rota-baxter", "J-weight0-rota-baxter")() == (True, "")


def test_a_q_sum_off_by_one_is_caught(monkeypatch):
    real = verify.qz_series

    def faulty(k, Q):
        return _off_by_one_at(real(k, Q), 11) if k == (2, 0, 1) else real(k, Q)

    monkeypatch.setattr(verify, "qz_series", faulty)
    ok, detail = _check("qseries", "qz-operator-realization")()
    assert not ok and "k=(2, 0, 1)" in detail
    monkeypatch.undo()
    assert _check("qseries", "qz-operator-realization")() == (True, "")


def _off_by_one_at_t_q(op):
    """op with the coefficient of t q in its result one too large."""

    def faulty(s):
        rows = op(s)
        return (_off_by_one_at(rows[0], 1),) + rows[1:]

    return faulty


def test_a_wrong_q_difference_coefficient_is_caught(monkeypatch):
    # qchar_realization composes the public operators, so a fault in op_Dq
    # reaches the realization route as well as the identity check
    faulty = _off_by_one_at_t_q(realizations.op_Dq)
    monkeypatch.setattr(realizations, "op_Dq", faulty)
    monkeypatch.setattr(verify, "op_Dq", faulty)
    ok, detail = _check("qseries", "qz-operator-realization")()
    assert not ok and "k=(1,)" in detail
    ok, detail = _check("rota-baxter", "q-operator-identities")()
    assert not ok and "Leibniz" in detail
    monkeypatch.undo()
    assert _check("qseries", "qz-operator-realization")() == (True, "")
    assert _check("rota-baxter", "q-operator-identities")() == (True, "")


def test_a_wrong_q_summation_coefficient_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "op_Pq", _off_by_one_at_t_q(verify.op_Pq))
    ok, detail = _check("rota-baxter", "q-operator-identities")()
    assert not ok and "P_q" in detail
    monkeypatch.undo()
    assert _check("rota-baxter", "q-operator-identities")() == (True, "")


def test_one_wrong_shuffle_coefficient_breaks_squaring(monkeypatch):
    real = verify.shuffle_lambda

    def faulty(u, v, lam):
        out = real(u, v, lam)
        if (u, v, lam) == ("dy", "dy", 2):
            out = {**out, "dyy": out["dyy"] + 1}
        return out

    monkeypatch.setattr(verify, "shuffle_lambda", faulty)
    ok, detail = _check("hopf", "squaring-identity")()
    assert not ok and "lambda=2" in detail
    monkeypatch.undo()
    assert _check("hopf", "squaring-identity")() == (True, "")

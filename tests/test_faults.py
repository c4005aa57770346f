"""The fault catalogue: every planted fault and the verify checks it fails.

Each entry of FAULTS replaces one binding, or the same binding in several
modules, by a faulty copy and pins the exact set of `suite/check` names that
fail across all four verify suites.  check(name) runs every suite with the
fault planted (see planted()) and compares the failing set with the pin; on
a mismatch it prints the fault's row of the fault x check matrix.  The run
is shared: older tests that name a catalogue fault call check(name) too.
`PYTHONPATH=src python tests/test_faults.py` prints the whole matrix.
"""

import importlib
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, gcd, lcm
from operator import add
from typing import Callable, NamedTuple

import pytest

from hopfmzv import birkhoff, clear_caches, coproduct, realizations, shuffle, verify, words
from hopfmzv.realizations import mero_depth1
from hopfmzv.series import _make, constant, monomial, series_add, series_scale, series_sum
from hopfmzv.words import depth, project_T

Fr = Fraction

# the package re-exports the function under the submodule's name
bernoulli_module = importlib.import_module("hopfmzv.bernoulli")

CHECKS = [f"{suite}/{name}" for suite, checks in verify.SUITES.items() for name, _ in checks()]


class Fault(NamedTuple):
    where: tuple  # the (module, attribute) bindings the plant replaces
    plant: Callable  # the real binding (of the first) -> the faulty one
    fails: str  # every suite/check that fails with the fault planted
    details: dict = {}  # suite/check -> a substring of its detail


def _changed(change, when=lambda *args: True):
    """A plant: the real function with its result passed through change
    wherever when(*args) holds."""

    def plant(real):
        def faulty(*args):
            out = real(*args)
            return change(out) if when(*args) else out

        return faulty

    return plant


def _bumped(key):
    return lambda terms: {**terms, key: terms[key] + 1}


def _off_by_one_at(coeffs, m):
    return coeffs[:m] + (coeffs[m] + 1,) + coeffs[m + 1 :]


def _nums_off_by_one_at(m):
    return lambda s: _make(s.ord, _off_by_one_at(s.nums, m), s.den)


def _off_by_one_at_t_q(rows):
    return (_off_by_one_at(rows[0], 1),) + rows[1:]


def _subset_lambda_power(real):
    def faulty(counts, lam):
        # lambda^(|J| + 1) in place of lambda^|J|: the J-terms, which are
        # the full sum minus its lambda = 0 part, get one more factor lambda
        plain, full = real(counts, 0), real(counts, lam)
        terms = {k: plain.get(k, 0) + lam * (c - plain.get(k, 0)) for k, c in full.items()}
        return {k: Fr(c) for k, c in terms.items() if c}

    return faulty


def _scaled_lambda_power(real):
    def faulty(w, p, q):
        # lambda^(j + 1) in place of lambda^j, at non-integral lambda only
        coeffs = real(w, p, q)
        return coeffs if q == 1 else tuple(c * Fr(p, q) for c in coeffs)

    return faulty


def _short_tail(terms):
    # the y-term's right factor d^k v in place of d^(k+1) v: one d lost
    if not terms:
        return terms
    prefix, left, right, c = terms[-1]
    return terms[:-1] + ((prefix, left, right[1:], c),)


def lift(ks):
    # the zeta(-a) birkhoff._value reads, as numerators over their lcm D
    fs = {a: mero_depth1(a) for a in (range(sum(ks) + 1) if len(ks) > 1 else ks)}
    D = lcm(*(v.denominator for v in fs.values()))
    return {a: v.numerator * (D // v.denominator) for a, v in fs.items()}, D


def reduced_with(fault):
    """birkhoff._value with one planted fault in its loop (None: no fault)."""

    def value(ks):
        if len(ks) == 1:
            return mero_depth1(ks[0])
        nums, D = lift(ks)
        legs = [a for a in nums if a == 0 or a % 2 and (a, fault) != (1, "skips-a1-1")]
        states, den = {0: 1}, 1
        for j, k in enumerate(ks[:-1]):
            nxt: dict = {}
            for u, acc in states.items():
                u += k
                for a1 in (a for a in legs if a <= u):
                    nxt[u - a1] = nxt.get(u - a1, 0) + acc * comb(u, a1) * nums[a1]
            lifted = den if fault == "first-block-skips-D" and j == 0 else den * D
            g = gcd(lifted, *nxt.values()) if j < len(ks) - 2 else 1
            states = {u: c // g for u, c in nxt.items()}
            den = lifted if fault == "den-not-divided" else lifted // g
        n = ks[-1]
        last = sum(c * nums[u + n] for u, c in states.items() if u + n == 0 or (u + n) % 2)
        return Fr(last, den * D)

    return value


def _lsum_sign(real):
    # psi and qz_rational both run realizations._lsum; psi_C and the nested
    # q-sum do not: the l = 0 term, (-1)^n atom(1)^n, with the wrong sign
    def faulty(ks, atom, times):
        leaf = atom(1)
        for _ in ks[1:]:
            leaf = times(1, leaf)
        return series_sum(((1, real(ks, atom, times)), (2 * (-1) ** (len(ks) + 1), leaf)))

    return faulty


def _times_y_with_current(s):
    return _make(0, list(accumulate(s.nums)), s.den)


def _times_y_rows_with_current(rows):
    return tuple(accumulate(rows, lambda r, s: tuple(map(add, r, s))))


def _times_qatom_with_current(L, s):
    h = [0] * len(s.nums)
    for i in range(len(h)):
        h[i] = (h[i - L] if i >= L else 0) - s.nums[i]
    return _make(0, h, s.den)


def _padded(real):
    # t = q on a t-truncation shorter than the q-truncation: padded with
    # zero rows instead of refused
    def faulty(rows):
        Q = len(rows[0]) - 1 if rows else 0
        return real(rows + ((0,) * (Q + 1),) * (Q - len(rows)))

    return faulty


_ROUTES = "hopf/coproduct-recursive-equals-combinatorial"
_VALUE_CHECKS = (
    "birkhoff/primitive-decomposition-agreement birkhoff/qzeta-equals-zeta-spots "
    "birkhoff/renormalized-relations-qzeta birkhoff/renormalized-relations-zeta"
)
_PSI_CHECKS = (
    "birkhoff/convolution-reconstruction birkhoff/psi-multiplicative-on-shuffle-minus1 "
    "birkhoff/qzeta-equals-zeta-spots birkhoff/renormalized-relations-qzeta "
    "qseries/psi-vs-constant-oracle"
)

FAULTS = {
    # ---------------------------------------------- coproducts and shuffles
    "subset-lambda-power": Fault(
        ((verify, "_subset_scalars"),), _subset_lambda_power, _ROUTES, {_ROUTES: "routes disagree"}
    ),
    "scaled-lambda-power": Fault(
        ((coproduct, "_scaled"),),
        _scaled_lambda_power,
        f"{_ROUTES} hopf/bialgebra-compatibility hopf/squaring-identity",
        {_ROUTES: "lambda=-1/2"},
    ),
    "scaled-misaligned": Fault(  # the right coefficients, one key late
        ((coproduct, "_scaled"),),
        _changed(lambda coeffs: coeffs[1:] + coeffs[:1]),
        f"{_ROUTES} hopf/coassociativity hopf/cocommutativity hopf/bialgebra-compatibility "
        "hopf/squaring-identity hopf/squaring-identity-lambda0-realized "
        "birkhoff/convolution-reconstruction birkhoff/kstar-primitive-identity "
        "birkhoff/primitive-decomposition-agreement birkhoff/qzeta-equals-zeta-spots",
        {_ROUTES: "routes disagree"},
    ),
    "counit-right-dropped": Fault(  # no w (x) e in the full coproduct
        ((coproduct, "coproduct_recursive"), (verify, "coproduct_recursive")),
        _changed(lambda cop: {(l, r): c for (l, r), c in cop.items() if r or not l}),
        f"{_ROUTES} hopf/coassociativity hopf/cocommutativity hopf/counit "
        "hopf/bialgebra-compatibility hopf/squaring-identity "
        "hopf/squaring-identity-lambda0-realized birkhoff/convolution-reconstruction",
    ),
    "reduced-drops-diagonal": Fault(  # no w' (x) w' in the public reduced coproduct
        tuple((module, "reduced_coproduct") for module in (coproduct, birkhoff, verify)),
        _changed(lambda t: {(l, r): c for (l, r), c in t.items() if l != r}),
        "birkhoff/kstar-primitive-identity birkhoff/primitive-decomposition-agreement "
        "birkhoff/quarter-not-three-eighths birkhoff/qzeta-equals-zeta-spots",
    ),
    "coproduct-dydy-coefficient": Fault(
        ((verify, "coproduct_recursive"),),
        _changed(_bumped(("dy", "dy")), lambda w, lam: (w, lam) == ("dydy", 3)),
        f"{_ROUTES} hopf/coassociativity",
        {"hopf/coassociativity": "lambda=3"},
    ),
    "shuffle-dy-dy-coefficient": Fault(
        ((verify, "shuffle_lambda"),),
        _changed(_bumped("dyy"), lambda *args: args == ("dy", "dy", 2)),
        "hopf/shuffle-associativity hopf/bialgebra-compatibility hopf/squaring-identity",
        {"hopf/squaring-identity": "lambda=2"},
    ),
    "shuffle-y-dy-coefficient": Fault(  # one order of the pair only
        ((verify, "shuffle_lambda"),),
        _changed(_bumped("ydy"), lambda *args: args == ("y", "dy", -1)),
        "hopf/shuffle-commutativity hopf/shuffle-associativity hopf/bialgebra-compatibility "
        "hopf/squaring-identity hopf/independent-minus-one-recursion",
    ),
    "shuffle-projects-trailing-d": Fault(
        ((verify, "shuffle_lambda"),), _changed(project_T), "hopf/independent-minus-one-recursion"
    ),
    "scalar-drops-denominators": Fault(
        ((words, "scalar"), (shuffle, "scalar")),
        lambda real: lambda c: Fr(c).numerator,
        "hopf/bialgebra-compatibility hopf/squaring-identity",
    ),
    "zero-rule-short-tail": Fault(
        ((shuffle, "_zero_rule"),),
        _changed(_short_tail),
        "hopf/shuffle-commutativity hopf/shuffle-associativity hopf/grading-bookkeeping "
        "birkhoff/phi-multiplicative-on-shuffle0 birkhoff/renormalized-relations-zeta",
    ),
    "phi-iso-one-j-short": Fault(
        ((verify, "phi_iso"),),
        _changed(lambda w: w.replace("jy", "y")),
        "hopf/positive-sector-isomorphism",
    ),
    # --------------------------------------- values, recursion and the rows
    # no gcd runs at depth two (one block remains after the first), so the
    # depth-two closed forms cannot see a fault in the reduction alone
    "den-not-divided": Fault(
        ((birkhoff, "_value"),), lambda real: reduced_with("den-not-divided"), _VALUE_CHECKS
    ),
    "first-block-skips-D": Fault(
        ((birkhoff, "_value"),),
        lambda real: reduced_with("first-block-skips-D"),
        f"{_VALUE_CHECKS} birkhoff/closed-form-compatibility birkhoff/quarter-not-three-eighths",
    ),
    "skips-a1-1": Fault(
        ((birkhoff, "_value"),),
        lambda real: reduced_with("skips-a1-1"),
        f"{_VALUE_CHECKS} birkhoff/closed-form-compatibility",
    ),
    "lift-off-by-one": Fault(  # the sum over D^(n-1) (D + 1) instead of D^n
        ((birkhoff, "_value"),),
        lambda real: lambda ks: real(ks) * Fr(lift(ks)[1], lift(ks)[1] + 1),
        f"{_VALUE_CHECKS} birkhoff/closed-form-compatibility birkhoff/quarter-not-three-eighths",
    ),
    "value-three-eighths": Fault(  # the value quarter-not-three-eighths names
        ((birkhoff, "_value"),),
        _changed(lambda v: Fr(3, 8), lambda ks: ks == (0, 0)),
        "birkhoff/renormalized-relations-zeta birkhoff/renormalized-relations-qzeta "
        "birkhoff/primitive-decomposition-agreement birkhoff/quarter-not-three-eighths "
        "birkhoff/qzeta-equals-zeta-spots",
        {"birkhoff/quarter-not-three-eighths": "rejected value 3/8"},
    ),
    # the recursion on psi: a pole in the counterterm of dyy, a left leg of
    # the spot ydyy, and a constant in the bar of the spot yy itself
    "bar-counterterm": Fault(
        ((birkhoff, "_bar"),),
        _changed(
            lambda s: series_add(s, monomial(-1, 1, s.valid_through)),
            lambda kind, w, P: (kind, w) == ("psi", "dyy"),
        ),
        "birkhoff/qzeta-equals-zeta-spots",
    ),
    "bar-top": Fault(
        ((birkhoff, "_bar"),),
        _changed(
            lambda s: series_add(s, constant(1, s.valid_through)) if s.valid_through >= 0 else s,
            lambda kind, w, P: (kind, w) == ("psi", "yy"),
        ),
        "birkhoff/qzeta-equals-zeta-spots",
    ),
    # birkhoff's binding of _build, which only the rows call
    "psi-row": Fault(
        ((birkhoff, "_build"),),
        _changed(lambda s: series_scale(s, 2), lambda k, w, P, part: (k, depth(w)) == ("psi", 2)),
        "birkhoff/convolution-reconstruction birkhoff/renormalized-relations-qzeta "
        "birkhoff/qzeta-equals-zeta-spots",
    ),
    "phi-row": Fault(
        ((birkhoff, "_build"),),
        _changed(lambda s: series_scale(s, 2), lambda k, w, P, part: (k, depth(w)) == ("phi", 2)),
        "birkhoff/convolution-reconstruction",
    ),
    "bar-row-plus-plus-minus": Fault(  # chi_bar = chi_plus + chi_minus
        ((birkhoff, "_rows"),),
        _changed(lambda rows: (rows[0], rows[1], rows[1] + rows[0])),
        "birkhoff/minus-polar-plus-regular-and-bar",
    ),
    # ------------------------------------------- atoms, psi and its l-sum
    "psi-C-off-by-one": Fault(
        ((verify, "psi_C"),),
        _changed(lambda c: c + 1, lambda k, m: m == (2,)),
        "qseries/psi-vs-constant-oracle",
        {"qseries/psi-vs-constant-oracle": "psi coefficient"},
    ),
    "atom-numerator": Fault(
        ((realizations, "psi_factor"),),
        _changed(_nums_off_by_one_at(3), lambda level, V: level == 2 and V >= 2),
        _PSI_CHECKS,
        {"qseries/psi-vs-constant-oracle": "psi coefficient"},
    ),
    "lsum-sign": Fault(
        ((realizations, "_lsum"),),
        _lsum_sign,
        f"{_PSI_CHECKS} qseries/qz-nested-equals-rational qseries/atom-pins",
        {"qseries/psi-vs-constant-oracle": "k=(0,)", "qseries/qz-nested-equals-rational": "k=(0,)"},
    ),
    # psi(dydy) and qz_rational((1, 1)) gain 1 at the last coefficient; the
    # psi rows run the l-sum too, so psi_minus(dydy) gains a constant
    "lsum-one-at-dydy": Fault(
        ((realizations, "_lsum"),),
        _changed(
            lambda s: series_add(s, constant(1, s.valid_through)),
            lambda ks, atom, times: ks == (1, 1),
        ),
        f"{_PSI_CHECKS} qseries/qz-nested-equals-rational "
        "birkhoff/minus-polar-plus-regular-and-bar",
    ),
    # T_3 one 4^3 (4^3 - 1) too large: B_6 moves by 6 and keeps its
    # denominator, but column 4 inherits the change, so B_8 breaks
    # von Staudt-Clausen and every check that reads it raises
    "tangent-number": Fault(
        ((bernoulli_module, "_step"),),
        _changed(lambda col: col[:-1] + [col[-1] + 4**3 * 63], lambda col: len(col) == 2),
        "hopf/shuffle-commutativity hopf/shuffle-associativity "
        "hopf/squaring-identity-lambda0-realized birkhoff/minus-polar-plus-regular-and-bar "
        "birkhoff/convolution-reconstruction birkhoff/phi-multiplicative-on-shuffle0 "
        "birkhoff/psi-multiplicative-on-shuffle-minus1 birkhoff/renormalized-relations-qzeta "
        "birkhoff/kstar-primitive-identity birkhoff/closed-form-compatibility "
        "birkhoff/qzeta-equals-zeta-spots qseries/psi-vs-constant-oracle qseries/atom-pins",
        {"qseries/atom-pins": "von Staudt-Clausen"},
    ),
    # T_2 plus a multiple of every 4^j (4^j - 1), j <= 30: B_4 gains an integer,
    # and so does each later entry through B_60 (every later T_m moves by a
    # multiple of the same lcm), every denominator kept, so only the
    # recurrence in atom-pins sees it
    "bernoulli-shifted-by-integers": Fault(
        ((bernoulli_module, "_step"),),
        _changed(
            lambda col: col[:-1] + [col[-1] + lcm(*(4**j * (4**j - 1) for j in range(1, 31)))],
            lambda col: len(col) == 1,
        ),
        "qseries/atom-pins",
        {"qseries/atom-pins": "B_0 .. B_4 break"},
    ),
    # ------------------------------------------------------ t-side, q-side
    "li-nested-off-by-one": Fault(
        ((verify, "li_nested"),),
        _changed(_nums_off_by_one_at(17), lambda k, T: k == (2, -1)),
        "rota-baxter/li-route-agreement",
        {"rota-baxter/li-route-agreement": "k=(2, -1)"},
    ),
    "J-numerator": Fault(  # li_J composes the public op_J
        ((realizations, "op_J"), (verify, "op_J")),
        _changed(_nums_off_by_one_at(2), lambda s: len(s.nums) > 2),
        "rota-baxter/J-delta-inverse-pair rota-baxter/J-weight0-rota-baxter "
        "rota-baxter/li-route-agreement",
        {
            "rota-baxter/li-route-agreement": "k=(1,)",
            "rota-baxter/J-weight0-rota-baxter": "Rota-Baxter",
        },
    ),
    "J-delta-guard-off": Fault(
        ((realizations, "_operand"),),
        lambda real: lambda op, s: None,
        "rota-baxter/J-delta-inverse-pair",
        {"rota-baxter/J-delta-inverse-pair": "nonzero constant term"},
    ),
    # the three running sums, each adding the current term as well
    "times-y-with-current": Fault(
        ((realizations, "_times_y"),),
        lambda real: _times_y_with_current,
        "rota-baxter/li-route-agreement rota-baxter/li-closed-forms",
        {"rota-baxter/li-route-agreement": "k="},
    ),
    "times-y-rows-with-current": Fault(
        ((realizations, "_times_y_rows"),),
        lambda real: _times_y_rows_with_current,
        "qseries/qz-operator-realization",
        {"qseries/qz-operator-realization": "k="},
    ),
    # verify imports the first two itself, to compare them with the product
    "times-y-with-current-in-verify": Fault(
        ((verify, "_times_y"),),
        lambda real: _times_y_with_current,
        "rota-baxter/J-weight0-rota-baxter",
        {"rota-baxter/J-weight0-rota-baxter": "running sum"},
    ),
    "times-y-rows-with-current-in-verify": Fault(
        ((verify, "_times_y_rows"),),
        lambda real: _times_y_rows_with_current,
        "rota-baxter/q-operator-identities",
        {"rota-baxter/q-operator-identities": "running sum"},
    ),
    "times-qatom-with-current": Fault(
        ((realizations, "_times_qatom"),),
        lambda real: _times_qatom_with_current,
        "qseries/qz-nested-equals-rational",
        {"qseries/qz-nested-equals-rational": "k="},
    ),
    "qz-series-off-by-one": Fault(
        ((verify, "qz_series"),),
        _changed(lambda t: _off_by_one_at(t, 11), lambda k, Q: k == (2, 0, 1)),
        "qseries/qz-nested-equals-rational qseries/qz-operator-realization",
        {"qseries/qz-operator-realization": "k=(2, 0, 1)"},
    ),
    "Dq-coefficient": Fault(  # qchar_realization composes the public op_Dq
        ((realizations, "op_Dq"), (verify, "op_Dq")),
        _changed(_off_by_one_at_t_q),
        "rota-baxter/q-operator-identities qseries/qz-operator-realization",
        {
            "qseries/qz-operator-realization": "k=(1,)",
            "rota-baxter/q-operator-identities": "Leibniz",
        },
    ),
    "Pq-coefficient": Fault(
        ((verify, "op_Pq"),),
        _changed(_off_by_one_at_t_q),
        "rota-baxter/q-operator-identities",
        {"rota-baxter/q-operator-identities": "P_q"},
    ),
    "guard-pads-short-t": Fault(
        ((realizations, "eval_t_eq_q"), (verify, "eval_t_eq_q")),
        _padded,
        "rota-baxter/truncation-guard",
    ),
}


@contextmanager
def planted(name=None):
    """The fault `name` (none if None) planted on a fresh Bernoulli table
    (clear_caches() leaves the table alone) and empty caches; on exit the
    plant and the table are undone and the caches emptied again."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bernoulli_module, "_cache", bernoulli_module._cache[:1])
            mp.setattr(bernoulli_module, "_column", [])
            if name is not None:
                fault = FAULTS[name]
                faulty = fault.plant(getattr(*fault.where[0]))
                for module, attr in fault.where:
                    mp.setattr(module, attr, faulty)
            clear_caches()
            yield
    finally:
        clear_caches()


@cache
def failing(name=None) -> dict:
    """suite/check -> detail of every check that fails with the fault planted."""
    with planted(name):
        return {
            f"{suite}/{r['name']}": r["detail"]
            for suite in verify.SUITES
            for r in verify.run_suite(suite)
            if not r["ok"]
        }


def _row(failed) -> str:
    """The matrix row: per suite, X for each failing check and . for a pass."""
    marks = iter("X" if name in failed else "." for name in CHECKS)
    return " ".join("".join(next(marks) for _ in checks()) for checks in verify.SUITES.values())


def check(name):
    """The fault fails exactly its pinned checks, each detail as pinned."""
    fault, failed = FAULTS[name], failing(name)
    pinned = set(fault.fails.split())
    assert set(failed) == pinned, (
        f"{name}: {_row(failed)}, pinned {_row(pinned)}\n"
        f"  fails, not pinned: {sorted(set(failed) - pinned)}\n"
        f"  pinned, passes: {sorted(pinned - set(failed))}"
    )
    for suite_check, part in fault.details.items():
        assert part in failed[suite_check], (suite_check, failed[suite_check])


def test_the_unpatched_suites_pass():
    assert failing() == {}


@pytest.mark.parametrize("name", FAULTS)
def test_a_planted_fault_fails_its_checks(name):
    check(name)


def test_every_fault_fails_a_check_and_every_check_fails_under_a_fault():
    assert all(fault.fails for fault in FAULTS.values())
    assert {c for fault in FAULTS.values() for c in fault.fails.split()} == set(CHECKS)


if __name__ == "__main__":
    for name in FAULTS:
        print(f"{_row(failing(name))}  {name}")

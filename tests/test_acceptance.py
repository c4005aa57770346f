"""Acceptance gate: one test per release criterion, exact equality throughout.

Run `pytest tests/test_acceptance.py -v` to get one PASS/FAIL line per
criterion; `-s` additionally prints a [criterion N] summary line each.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

from hopfmzv.birkhoff import CharacterTable, qzeta_plus, zeta_plus, zeta_plus_via_primitives
from hopfmzv.realizations import mero_depth1, mero_depth2, phi, psi
from hopfmzv.series import series_from_json, series_slice
from hopfmzv.verify import run_suite

Fr = Fraction


def _fixture(name):
    return json.loads(
        resources.files("hopfmzv").joinpath(f"fixtures/{name}").read_text()
    )


def _suite_green(names):
    failures = []
    for suite in names:
        for check in run_suite(suite):
            if not check["ok"]:
                failures.append(f"[{suite}] {check['name']}: {check['detail']}")
    return failures


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    r = subprocess.run(
        [sys.executable, "-m", "hopfmzv", "table", "--depth", "2", "--max-k", "3", "--check"],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - t0
    assert r.returncode == 0, r.stdout + r.stderr
    assert "checked 16 entries: 16 pass, 0 fail" in r.stdout
    # same 16 values again, in-process, against the packaged reference
    for entry in _fixture("table1.json"):
        k = tuple(entry["k"])
        assert zeta_plus(k).value == Fr(entry["value"]), k
    assert elapsed < 5.0, f"table check took {elapsed:.2f}s"
    print(f"\n[criterion 1] table reproduction (16 exact entries, {elapsed:.2f}s): PASS")


def test_criterion_2_worked_series_fixtures():
    entries = _fixture("example_series.json")
    assert len(entries) == 9
    for entry in entries:
        char = phi if entry["kind"] == "phi" else psi
        want = series_from_json(entry["series"])
        got = series_slice(char(entry["word"], want.valid_through), want.valid_through)
        assert got.ord == want.ord and got.coeffs == want.coeffs, (
            entry["kind"],
            entry["word"],
        )
    # spot-check the two headline expansions coefficient by coefficient
    p = phi("dydy", 3)
    assert [p.coefficient(n) for n in range(-4, 4)] == [
        Fr(3), Fr(1), Fr(0), Fr(0), Fr(1, 240), Fr(-1, 240), Fr(-1, 1008), Fr(1, 3024),
    ]
    q = psi("dydy", 4)
    assert [q.coefficient(n) for n in range(-2, 5)] == [
        Fr(5, 12), Fr(1, 6), Fr(-1, 36), Fr(0), Fr(1, 216), Fr(-1, 120), Fr(-19, 9072),
    ]
    print("\n[criterion 2] worked-series fixtures (9 series, all coefficients): PASS")


def test_criterion_3_closed_form_compatibility():
    table = CharacterTable("phi", prec=0)  # zeta_plus((k,)) is mero_depth1(k)
    for k in range(21):
        assert table.chi_plus("d" * k + "y").coefficient(0) == mero_depth1(k), k
    pairs = 0
    for a in range(8):
        for b in range(8):
            if (a + b) % 2 == 1:
                assert zeta_plus((a, b)).value == mero_depth2(a, b), (a, b)
                pairs += 1
    assert pairs == 32
    print("\n[criterion 3] closed-form compatibility (depth 1 k<=20, depth 2 odd weight): PASS")


def test_criterion_4_q_to_classical_equality():
    t0 = time.monotonic()
    count = 0
    for n in (1, 2, 3):
        for k in itertools.product(range(4), repeat=n):
            # qzeta_plus itself asserts the lower z-coefficients vanish
            assert qzeta_plus(k).value == zeta_plus(k).value, k
            count += 1
    elapsed = time.monotonic() - t0
    assert count == 84
    assert elapsed < 60.0, f"q-side sweep took {elapsed:.2f}s"
    print(f"\n[criterion 4] q-to-classical equality (84 vectors, {elapsed:.2f}s): PASS")


def test_criterion_5_hopf_suite():
    failures = _suite_green(["hopf"])
    assert failures == [], "\n".join(failures)
    print("\n[criterion 5] Hopf suite: PASS")


def test_criterion_6_birkhoff_suite():
    failures = _suite_green(["birkhoff"])
    assert failures == [], "\n".join(failures)
    # the counterterm-free recomputation, spot-checked here as well
    for k in [(0, 0), (1, 1), (2, 3), (3, 3)]:
        assert zeta_plus_via_primitives(k).value == zeta_plus(k).value
    assert zeta_plus((0, 0)).value == Fr(1, 4) != Fr(3, 8)
    print("\n[criterion 6] Birkhoff suite: PASS")


def test_criterion_7_rota_baxter_and_realization_suite():
    failures = _suite_green(["rota-baxter", "qseries"])
    assert failures == [], "\n".join(failures)
    print("\n[criterion 7] Rota-Baxter / realization suite: PASS")

"""End-to-end checks of the command-line interface via subprocess."""

import json
import subprocess
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hopfmzv", *args],
        capture_output=True,
        text=True,
    )


def test_zeta_plus_value():
    r = run_cli("zeta-plus", "--", "-1", "-1")
    assert r.returncode == 0
    assert r.stdout.strip() == "1/144"


def test_zeta_plus_rejects_positive_arguments():
    r = run_cli("zeta-plus", "1")
    assert r.returncode == 2


def test_bad_word_is_a_usage_error():
    r = run_cli("phi", "dxy")
    assert r.returncode == 2


def test_inadmissible_vector_is_a_domain_error():
    r = run_cli("qz", "--k", "-1", "--trunc", "4")
    assert r.returncode == 1


def test_negative_truncation_is_a_domain_error():
    for command in ("li", "qz"):
        r = run_cli(command, "--k", "1", "--trunc", "-3")
        assert r.returncode == 1, command
        assert r.stdout == ""
        assert r.stderr.startswith("error: truncation must be >= 0")


def test_table_check_against_packaged_reference():
    r = run_cli("table", "--check")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 16
    assert "PASS k=(3, 3)  107/100800" in lines
    assert lines[-1] == "checked 16 entries: 16 pass, 0 fail"


def test_table_check_flags_a_corrupt_reference(tmp_path):
    ref = json.loads((PKG_ROOT / "fixtures" / "table1.json").read_text())
    ref[0]["value"] = "3/8"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ref))
    r = run_cli("table", "--check", str(bad))
    assert r.returncode == 1
    assert "1 fail" in r.stdout


def test_table_json_shape():
    r = run_cli("table", "--json", "--max-k", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["depth"] == 2 and doc["max_k"] == 1
    entries = {tuple(e["k"]): e["value"] for e in doc["entries"]}
    assert entries[(0, 0)] == "1/4"
    assert entries[(1, 1)] == "1/144"
    assert len(entries) == 4


def test_shuffle_output():
    r = run_cli("shuffle", "dy", "dy", "--lambda", "-1")
    assert r.returncode == 0
    assert r.stdout.strip() == "-dyy + 2*ydy"


def test_shuffle_at_lambda_zero():
    r = run_cli("shuffle", "dy", "ddy", "--lambda", "0")
    assert r.returncode == 0
    assert r.stdout.strip() == "dyddy - ydddy"


def test_reduced_coproduct_listing():
    r = run_cli("coproduct", "dydy", "--lambda", "-1", "--reduced")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "1  y (x) ddy",
        "2  dy (x) dy",
        "-1  dy (x) ddy",
        "1  ddy (x) y",
        "-1  ddy (x) dy",
    ]


_DYDDYDY_REDUCED_AT_MINUS_ONE = (
    "y dddydy 1, y dydddy 1, dy ddydy 1, dy dyddy 3, dy ydddy 1, dy dddydy -1, "
    "dy dydddy -3, yy ddddy 1, ddy dydy 3, ddy yddy 3, ddy dyddy -7, "
    "ddy ydddy -2, ddy dydddy 3, dyy dddy 1, dyy ddddy -1, ydy dddy 3, "
    "ydy ddddy -2, dddy dyy 1, dddy ydy 3, dddy dydy -5, dddy yddy -4, "
    "dddy dyddy 5, dddy ydddy 1, dddy dydddy -1, dydy ddy 3, dydy dddy -5, "
    "dydy ddddy 2, yddy ddy 3, yddy dddy -4, yddy ddddy 1, ddddy yy 1, "
    "ddddy dyy -1, ddddy ydy -2, ddddy dydy 2, ddddy yddy 1, ddddy dyddy -1, "
    "ddydy dy 1, dyddy dy 3, dyddy ddy -7, dyddy dddy 5, dyddy ddddy -1, "
    "ydddy dy 1, ydddy ddy -2, ydddy dddy 1, dddydy y 1, dddydy dy -1, "
    "dydddy y 1, dydddy dy -3, dydddy ddy 3, dydddy dddy -1"
)


def test_reduced_coproduct_json_golden():
    r = run_cli("coproduct", "dyddydy", "--lambda", "-1", "--reduced", "--json")
    assert r.returncode == 0, r.stderr
    terms = [
        dict(zip(("left", "right", "coeff"), t.split()))
        for t in _DYDDYDY_REDUCED_AT_MINUS_ONE.split(", ")
    ]
    assert r.stdout == json.dumps({"terms": terms}, indent=2) + "\n"


def test_coproduct_methods_agree_as_json():
    a = run_cli("coproduct", "ddydy", "--lambda", "3", "--json", "--method", "recursive")
    b = run_cli(
        "coproduct", "ddydy", "--lambda", "3", "--json", "--method", "combinatorial"
    )
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_phi_series_line():
    r = run_cli("phi", "dydy", "--prec", "3")
    assert r.returncode == 0
    assert (
        r.stdout.strip()
        == "3*z^-4 + z^-3 + 1/240 - 1/240*z - 1/1008*z^2 + 1/3024*z^3 + O(z^4)"
    )


def test_psi_series_json():
    r = run_cli("psi", "dy", "--prec", "6", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["ord"] == -1
    assert doc["valid_through"] == 6
    assert doc["coeffs"] == ["-1/2", "0", "1/12", "0", "-7/720", "0", "31/30240", "0"]


def test_li_line():
    r = run_cli("li", "--k", "-1", "--trunc", "6")
    assert r.returncode == 0
    assert r.stdout.strip() == "t + 2*t^2 + 3*t^3 + 4*t^4 + 5*t^5 + 6*t^6 + O(t^7)"


def test_qz_line():
    r = run_cli("qz", "--k", "1,1", "--trunc", "8")
    assert r.returncode == 0
    assert r.stdout.strip() == "q^2 + q^3 + q^4 + 3*q^5 + q^6 + 4*q^7 + 2*q^8 + O(q^9)"


def test_birkhoff_block():
    r = run_cli("birkhoff", "dydy", "--kind", "phi", "--prec", "1")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "chi       = 3*z^-4 + z^-3 + 1/240 - 1/240*z + O(z^2)",
        "chi_bar   = -3*z^-4 + 1/144 - 1/240*z + O(z^2)",
        "chi_minus = 3*z^-4 + O(z^2)",
        "chi_plus  = 1/144 - 1/240*z + O(z^2)",
    ]


def test_birkhoff_rows_reach_the_requested_window():
    r = run_cli("birkhoff", "dyddydy", "--kind", "phi", "--prec", "3")
    assert r.returncode == 0, r.stderr
    plus = [ln for ln in r.stdout.splitlines() if ln.startswith("chi_plus")]
    assert plus[0].startswith("chi_plus  = 1/576 ")  # zeta_plus((1, 2, 1))
    assert plus[0].endswith("+ O(z^4)")


def _series(ord_, coeffs):
    return {"ord": ord_, "valid_through": ord_ + len(coeffs) - 1, "coeffs": coeffs}


def test_birkhoff_psi_json_golden():
    r = run_cli("birkhoff", "ddydy", "--kind", "psi", "--json")
    assert r.returncode == 0, r.stderr
    want = {
        "word": "ddydy",
        "kind": "psi",
        "chi": _series(-2, ["13/36", "1/8", "-1/48", "0", "1/2880"]),
        "chi_bar": _series(-2, ["-13/36", "0", "0", "0", "0"]),
        "chi_minus": _series(-2, ["13/36", "0", "0", "0", "0"]),
        "chi_plus": _series(-2, ["0", "0", "0", "0", "0"]),
    }
    assert r.stdout == json.dumps(want, indent=2) + "\n"


def test_birkhoff_empty_word_golden():
    r = run_cli("birkhoff", "", "--kind", "phi")
    assert r.returncode == 0, r.stderr
    assert r.stdout == (
        "chi       = 1 + O(z^3)\n"
        "chi_bar   = 1 + O(z^3)\n"
        "chi_minus = 1 + O(z^3)\n"
        "chi_plus  = 1 + O(z^3)\n"
    )


def test_verify_suite_runs_clean():
    r = run_cli("verify", "--suite", "rota-baxter")
    assert r.returncode == 0
    assert "FAIL" not in r.stdout
    assert r.stdout.splitlines()[-1].endswith("checks passed")


def test_output_is_deterministic():
    a = run_cli("table", "--json")
    b = run_cli("table", "--json")
    assert a.stdout == b.stdout


def test_packaged_fixtures_match_repo_copies():
    for name in ("table1.json", "example_series.json"):
        repo = (PKG_ROOT / "fixtures" / name).read_bytes()
        packaged = (PKG_ROOT / "src" / "hopfmzv" / "fixtures" / name).read_bytes()
        assert repo == packaged, name

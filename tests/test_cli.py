"""End-to-end checks of the command-line interface.

Single commands run `python -m hopfmzv` in a subprocess; the golden
transcripts run many commands through cli.main in this process.
"""

import io
import json
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources
from itertools import product
from pathlib import Path

import pytest

from hopfmzv import cli, verify
from hopfmzv.cli import main
from hopfmzv.words import admissible_words, weight
from test_faults import check, planted


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hopfmzv", *args],
        capture_output=True,
        text=True,
    )


def transcript(argvs) -> str:
    """Run each argv through cli.main in turn, each after a "$ hopfmzv ..."
    header, and return everything printed."""
    out = io.StringIO()
    with redirect_stdout(out):
        for argv in argvs:
            print("$ hopfmzv " + shlex.join(argv))
            assert main(argv) == 0, argv
    return out.getvalue()


def assert_golden(name: str, argvs) -> None:
    golden = Path(__file__).with_name("golden") / f"{name}.txt"
    assert transcript(argvs) == golden.read_text()


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang block of README.md's `## heading` section."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index(f"\n## {heading}\n") :]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_the_readme_command_line_tour_replays():
    # the tour without blank lines or its commands' "# ..." comments; a
    # "..." line stands for any lines
    lines = [
        re.sub(r"\s+#.*", "", line) if line.startswith("$ ") else line
        for line in readme_block("Command-line tour", "text").splitlines()
        if line
    ]
    argvs = [shlex.split(line)[2:] for line in lines if line.startswith("$ hopfmzv ")]
    pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in lines)
    out = transcript(argvs)
    assert re.fullmatch(pattern, out), out


def test_the_readme_library_sketch_gives_its_results():
    # every "code  # result" line whose result is a Python value; the one
    # result in words, qzeta_plus's, is skipped
    namespace: dict = {}
    checked = 0
    for line in readme_block("Library sketch", "python").splitlines():
        code, _, result = line.partition("#")
        if not result:
            exec(code, namespace)
            continue
        try:
            expected = eval(result, namespace)
        except SyntaxError:
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked == 5


def test_zeta_plus_value():
    r = run_cli("zeta-plus", "--", "-1", "-1")
    assert r.returncode == 0
    assert r.stdout.strip() == "1/144"


def test_zeta_plus_rejects_positive_arguments():
    r = run_cli("zeta-plus", "1")
    assert r.returncode == 2


# Every k in {0..5}^n for n <= 3, then deep, heavy and high-weight vectors.
def test_zeta_plus_golden():
    ks = [k for n in (1, 2, 3) for k in product(range(6), repeat=n)]
    ks += [(1,) * 30, (12, 13), (50,) * 3, (200, 201)]
    assert_golden("zeta_plus", (["zeta-plus", "--", *(str(-a) for a in k)] for k in ks))


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


def test_table_rejects_bounds_that_build_no_vectors():
    for args in (
        ["--max-k", "-1"],
        ["--max-k", "-1", "--check"],
        ["--depth", "-1"],
        ["--depth", "0", "--json"],
    ):
        r = run_cli("table", *args)
        assert r.returncode == 1, args
        assert r.stdout == "", args
        assert r.stderr.startswith("error: table needs --depth >= 1"), args


def test_table_depth_three_golden():
    r = run_cli("table", "--depth", "3", "--max-k", "3")
    assert r.returncode == 0, r.stderr
    golden = Path(__file__).with_name("golden") / "table_depth3_maxk3.txt"
    assert r.stdout == golden.read_text()


def test_table_check_against_packaged_reference():
    r = run_cli("table", "--check")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 16
    assert "PASS k=(3, 3)  107/100800" in lines
    assert lines[-1] == "checked 16 entries: 16 pass, 0 fail"


def test_table_check_flags_a_corrupt_reference(tmp_path):
    ref = json.loads(
        resources.files("hopfmzv").joinpath("fixtures/table1.json").read_text()
    )
    ref[0]["value"] = "3/8"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ref))
    r = run_cli("table", "--check", str(bad))
    assert r.returncode == 1
    assert "1 fail" in r.stdout


def _write_text(directory, text):
    path = directory / "ref.json"
    path.write_text(text)
    return path


def _write(directory, doc):
    return _write_text(directory, json.dumps(doc))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda d: d / "missing.json", "cannot read reference table"),
        (lambda d: d, "cannot read reference table"),
        (lambda d: _write(d, {"k": [0, 0], "value": "1/4"}), "is not a JSON list"),
        (lambda d: _write(d, [{"value": "1/4"}]), 'every entry needs "k"'),
        (lambda d: _write(d, [{"k": [0, 0], "value": "1/0"}]), 'a rational "value"'),
        (lambda d: _write(d, [{"k": [0, 0], "value": "abc"}]), 'a rational "value"'),
        (lambda d: _write(d, [{"k": [0, 0], "value": float("inf")}]), 'a rational "value"'),
        (lambda d: _write_text(d, "not json"), "cannot read reference table"),
    ],
    ids=[
        "missing",
        "directory",
        "object",
        "entry-without-k",
        "zero-denominator",
        "non-rational-value",
        "infinite-value",
        "not-json",
    ],
)
def test_table_check_rejects_an_unreadable_reference(tmp_path, make, message):
    path = make(tmp_path)
    r = run_cli("table", "--check", str(path))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert str(path) in r.stderr
    assert "Traceback" not in r.stderr


def test_table_json_and_check_are_exclusive():
    # --json keeps stdout one JSON document, so it takes no PASS/FAIL lines
    for args in (["--json", "--check"], ["--check", "--json"]):
        r = run_cli("table", *args)
        assert r.returncode == 2, args
        assert r.stdout == "", args
        assert "not allowed with argument" in r.stderr, args


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


# Every ordered pair of admissible words, the empty word included, of total
# weight at most 4, at six lambdas, projected, raw and as JSON.
def _shuffle_argvs():
    basis = list(admissible_words(4, include_empty=True))
    return (
        ["shuffle", u, v, "--lambda", lam, *extra]
        for u in basis
        for v in basis
        if weight(u) + weight(v) <= 4
        for lam in ("-1", "0", "1", "2", "-1/3", "1/2")
        for extra in ([], ["--raw"], ["--json"])
    )


def test_shuffle_golden():
    assert_golden("shuffle", _shuffle_argvs())


def test_a_scalar_that_drops_denominators_is_caught():
    # both coproducts split lambda = p/q on their own, so only the shuffle
    # sees the fault: its 1/lambda at lambda = 2 becomes 1
    check("scalar-drops-denominators")
    with planted("scalar-drops-denominators"), pytest.raises(AssertionError):
        test_shuffle_golden()


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


# Every admissible word to weight 4 and the empty word, at four lambdas, full
# and reduced, by both methods, as text and (to weight 3) as JSON.  The
# reduced coproduct of the empty word is an error, pinned below.
def test_coproduct_golden():
    assert_golden("coproduct", (
        ["coproduct", w, "--lambda", lam, *reduced, "--method", method, *extra]
        for w in admissible_words(4, include_empty=True)
        for lam in ("0", "-1", "3", "-1/2")
        for reduced in (([], ["--reduced"]) if w else ([],))
        for method in ("recursive", "combinatorial")
        for extra in (([], ["--json"]) if weight(w) <= 3 else ([],))
    ))


def test_reduced_coproduct_needs_a_nonempty_admissible_word():
    for method in ("recursive", "combinatorial"):
        for w in ("", "yd"):
            r = run_cli("coproduct", w, "--reduced", "--method", method)
            assert r.returncode == 1, (w, method)
            assert r.stdout == "", (w, method)
            assert r.stderr == (
                f"error: reduced coproduct needs a nonempty admissible word, got {w!r}\n"
            ), (w, method)


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


# Every admissible word of weight <= 5, the empty word included, at a polar,
# the constant and a regular window, as text and as JSON.
def test_psi_golden():
    assert_golden("psi", (
        ["psi", w, "--prec", prec, *extra]
        for w in admissible_words(5, include_empty=True)
        for prec in ("-3", "0", "4")
        for extra in ([], ["--json"])
    ))


def test_li_line():
    r = run_cli("li", "--k", "-1", "--trunc", "6")
    assert r.returncode == 0
    assert r.stdout.strip() == "t + 2*t^2 + 3*t^3 + 4*t^4 + 5*t^5 + 6*t^6 + O(t^7)"


def test_qz_line():
    r = run_cli("qz", "--k", "1,1", "--trunc", "8")
    assert r.returncode == 0
    assert r.stdout.strip() == "q^2 + q^3 + q^4 + 3*q^5 + q^6 + 4*q^7 + 2*q^8 + O(q^9)"


def test_li_json_golden():
    r = run_cli("li", "--k", "1,2", "--trunc", "5", "--json")
    assert r.returncode == 0, r.stderr
    want = {"var": "t", "trunc": 5, "coeffs": ["0", "0", "1/2", "5/12", "49/144", "41/144"]}
    assert r.stdout == json.dumps(want, indent=2) + "\n"


# Every k in {-2..3}^n for n <= 2 and three depth-three vectors, at
# truncations 0, 1 and 12, as text and as JSON.
def test_li_golden():
    ks = [k for n in (1, 2) for k in product(range(-2, 4), repeat=n)]
    assert_golden("li", (
        ["li", "--k", ",".join(map(str, k)), "--trunc", trunc, *extra]
        for k in ks + [(1, 1, 1), (-1, 2, 0), (2, -1, 1)]
        for trunc in ("0", "1", "12")
        for extra in ([], ["--json"])
    ))


def test_qz_json_golden():
    r = run_cli("qz", "--k", "1,1", "--trunc", "6", "--json")
    assert r.returncode == 0, r.stderr
    want = {"var": "q", "trunc": 6, "coeffs": ["0", "0", "1", "1", "1", "3", "1"]}
    assert r.stdout == json.dumps(want, indent=2) + "\n"


# Every k in {0..3}^n for n <= 2 and three depth-three vectors, at truncations
# 0, 1 and 12, as text and as JSON.
def test_qz_golden():
    ks = [k for n in (1, 2) for k in product(range(4), repeat=n)]
    assert_golden("qz", (
        ["qz", "--k", ",".join(map(str, k)), "--trunc", trunc, *extra]
        for k in ks + [(0, 0, 0), (1, 1, 1), (2, 0, 1)]
        for trunc in ("0", "1", "12")
        for extra in ([], ["--json"])
    ))


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


def test_birkhoff_rows_below_the_leading_pole():
    # z^-6 is below both poles of yy, z^-2 (phi) and z^-2 (psi): zero rows
    for kind in ("phi", "psi"):
        r = run_cli("birkhoff", "yy", "--kind", kind, "--prec", "-6")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == [
            "chi       = 0 + O(z^-5)",
            "chi_bar   = 0 + O(z^-5)",
            "chi_minus = 0 + O(z^-5)",
            "chi_plus  = 0 + O(z^-5)",
        ]


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


# Every row of both kinds at a polar, the constant and a regular window, for
# words from the empty word to dy^8, as text and as JSON.
def test_birkhoff_golden():
    words = ["", "y", "dy", "yddy", "dydy", "ddydy", "dy" * 4, "dy" * 8]
    assert_golden("birkhoff", (
        ["birkhoff", w, "--kind", kind, "--prec", prec, *extra]
        for kind in ("phi", "psi")
        for prec in ("-5", "0", "3")
        for w in words
        for extra in ([], ["--json"])
    ))


def test_verify_suite_runs_clean():
    r = run_cli("verify", "--suite", "rota-baxter")
    assert r.returncode == 0
    assert "FAIL" not in r.stdout
    assert r.stdout.splitlines()[-1].endswith("checks passed")


def test_verify_golden():
    # every check name, in suite order: the benchmark's reference keys on them
    r = run_cli("verify")
    assert r.returncode == 0, r.stderr
    golden = Path(__file__).with_name("golden") / "verify.txt"
    assert r.stdout == golden.read_text()


def test_the_suite_choices_are_the_verify_suites(capsys):
    # the CLI spells the names out so that only `hopfmzv verify` loads verify
    assert cli.SUITE_CHOICES == sorted(verify.SUITES) + ["all"]
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "none"])
    choices = ", ".join(map(repr, cli.SUITE_CHOICES))
    assert f"(choose from {choices})" in capsys.readouterr().err
    code = "import sys, hopfmzv, hopfmzv.cli; print('hopfmzv.verify' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_output_is_deterministic():
    a = run_cli("table", "--json")
    b = run_cli("table", "--json")
    assert a.stdout == b.stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process that pays for each module the
    # package imports; dataclasses alone pulls in inspect, ast, dis, tokenize
    code = (
        "import sys, hopfmzv, hopfmzv.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"

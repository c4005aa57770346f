"""Command-line interface.

Subcommands:
  zeta-plus ARGS...      renormalized value at non-positive integer arguments
  table                  depth-n table of renormalized values, optional check
  verify                 run the property suites
  shuffle U V            product of two words at a given lambda
  coproduct W            (reduced) coproduct at a given lambda
  phi W / psi W          regularized character expansions
  li / qz                one-variable polylogarithm / nested q-sum truncations
  birkhoff W             chi, chi_bar, chi_minus, chi_plus for one word

Exit codes: 0 success, 1 domain error or failed check, 2 usage error.
Output is deterministic byte-for-byte for a fixed command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import product
from pathlib import Path

from .birkhoff import CharacterTable, zeta_plus
from .coproduct import coproduct_combinatorial, coproduct_recursive
from .errors import NotAdmissible, PrecisionExceeded
from .realizations import li_J, phi, psi, qz_series
from .series import series_to_json
from .shuffle import shuffle_lambda, shuffle_zero
from .verify import SUITES, run_suite
from .words import (
    is_admissible,
    parse_word,
    project_T,
    word_key,
    wordsum_to_json,
    tensorsum_to_json,
)

# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _pow_label(var: str, n: int) -> str:
    if n == 0:
        return ""
    if n == 1:
        return var
    return f"{var}^{n}"


def _format_terms(pairs) -> str:
    """Signed sum like `2*ydy - dyy` from [(label, Fraction), ...]."""
    if not pairs:
        return "0"
    parts = []
    for i, (label, c) in enumerate(pairs):
        mag = abs(c)
        if not label:
            body = str(mag)
        elif mag == 1:
            body = label
        else:
            body = f"{mag}*{label}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts)


def _format_wordsum(s: dict) -> str:
    pairs = [(w or "e", c) for w, c in sorted(s.items(), key=lambda kv: word_key(kv[0]))]
    return _format_terms(pairs)


def _format_truncated(start: int, coeffs, var: str) -> str:
    """The coefficients of var^start, var^(start + 1), ... and their O-term."""
    pairs = [(_pow_label(var, start + i), c) for i, c in enumerate(coeffs) if c != 0]
    return f"{_format_terms(pairs)} + O({var}^{start + len(coeffs)})"


def _print_tensorsum(t: dict) -> None:
    for (l, r), c in sorted(t.items(), key=lambda kv: (word_key(kv[0][0]), word_key(kv[0][1]))):
        print(f"{c}  {l or 'e'} (x) {r or 'e'}")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SyntaxError(f"bad rational {text!r} for --lambda") from exc


def _parse_kvec(text: str) -> tuple[int, ...]:
    try:
        k = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SyntaxError(f"bad index vector {text!r}; expected e.g. 1,0,2") from exc
    if not k:
        raise SyntaxError("index vector must be nonempty")
    return k


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Turn `--k -1,2` into `--k=-1,2` so argparse survives leading dashes."""
    valued = {"--k", "--trunc", "--lambda", "--prec", "--max-k", "--depth"}
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in valued and i + 1 < len(argv):
            out.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_zeta_plus(args) -> int:
    k = tuple(-a for a in args.args)
    print(zeta_plus(k).value)
    return 0


def _load_table_reference(path: str):
    """{k: value} from a JSON list of {"k": [...], "value": "p/q"} entries
    (the packaged fixture for path ""); ValueError for anything else."""
    fixture = resources.files("hopfmzv") / "fixtures/table1.json"
    source = fixture if path == "" else Path(path)
    try:
        entries = json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read reference table: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError(f"reference table {path!r} is not a JSON list")
    try:
        return {tuple(e["k"]): Fraction(e["value"]) for e in entries}
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(
            f'reference table {path!r}: every entry needs "k" and a rational "value"'
        ) from exc


def _cmd_table(args) -> int:
    if args.depth < 1 or args.max_k < 0:
        raise ValueError("table needs --depth >= 1 and --max-k >= 0")
    reference = None if args.check is None else _load_table_reference(args.check)
    vectors = list(product(range(args.max_k + 1), repeat=args.depth))
    computed = [(k, zeta_plus(k).value) for k in vectors]
    if args.json:
        entries = [{"k": list(k), "value": str(v)} for k, v in computed]
        payload = {"depth": args.depth, "max_k": args.max_k, "entries": entries}
        print(json.dumps(payload, indent=2))
        return 0
    if reference is None:
        for k, v in computed:
            print(f"k={k}  {v}")
        return 0
    failures = 0
    for k, v in computed:
        ref = reference.get(k)
        if ref is None:
            failures += 1
            print(f"FAIL k={k}  computed {v}, missing from reference")
        elif ref != v:
            failures += 1
            print(f"FAIL k={k}  computed {v}, reference {ref}")
        else:
            print(f"PASS k={k}  {v}")
    total = len(computed)
    print(f"checked {total} entries: {total - failures} pass, {failures} fail")
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    total = 0
    for name in names:
        for res in run_suite(name):
            total += 1
            if res["ok"]:
                print(f"PASS [{name}] {res['name']}")
            else:
                failed += 1
                print(f"FAIL [{name}] {res['name']}: {res['detail']}")
    print(f"{total - failed}/{total} checks passed")
    return 1 if failed else 0


def _cmd_shuffle(args) -> int:
    u = parse_word(args.u)
    v = parse_word(args.v)
    lam = _parse_lambda(args.lam)
    if lam == 0:
        s = shuffle_zero(u, v)
    else:
        s = shuffle_lambda(u, v, lam)
    if not args.raw:
        s = project_T(s)
    if args.json:
        print(json.dumps(wordsum_to_json(s), indent=2))
    else:
        print(_format_wordsum(s))
    return 0


def _cmd_coproduct(args) -> int:
    w = parse_word(args.word)
    lam = _parse_lambda(args.lam)
    if args.reduced and not (w and is_admissible(w)):
        raise NotAdmissible(f"reduced coproduct needs a nonempty admissible word, got {w!r}")
    full = coproduct_recursive if args.method == "recursive" else coproduct_combinatorial
    t = full(w, lam)
    if args.reduced:  # drop e (x) w and w (x) e, the terms with an empty leg
        t = {(l, r): c for (l, r), c in t.items() if l and r}
    if args.json:
        print(json.dumps(tensorsum_to_json(t), indent=2))
    else:
        _print_tensorsum(t)
    return 0


def _character_command(char):
    def run(args) -> int:
        s = char(parse_word(args.word), args.prec)
        if args.json:
            print(json.dumps(series_to_json(s), indent=2))
        else:
            print(_format_truncated(s.ord, s.coeffs, "z"))
        return 0

    return run


def _truncation_command(expand, var: str):
    def run(args) -> int:
        coeffs = expand(_parse_kvec(args.k), args.trunc)
        if args.json:
            payload = {"var": var, "trunc": len(coeffs) - 1, "coeffs": list(map(str, coeffs))}
            print(json.dumps(payload, indent=2))
        else:
            print(_format_truncated(0, coeffs, var))
        return 0

    return run


def _cmd_birkhoff(args) -> int:
    w = parse_word(args.word)
    table = CharacterTable(args.kind, prec=args.prec)
    rows = [
        ("chi", table.chi(w)),
        ("chi_bar", table.chi_bar(w)),
        ("chi_minus", table.chi_minus(w)),
        ("chi_plus", table.chi_plus(w)),
    ]
    if args.json:
        payload = {"word": w, "kind": args.kind}
        payload.update({name: series_to_json(s) for name, s in rows})
        print(json.dumps(payload, indent=2))
    else:
        for name, s in rows:
            print(f"{name:9s} = {_format_truncated(s.ord, s.coeffs, 'z')}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@cache  # one parser per process: in-process callers run main many times
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfmzv",
        description="Exact renormalized multiple zeta values at non-positive "
        "integers, their q-analogues, and the word-algebra machinery behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "zeta-plus", help="renormalized value at non-positive integer arguments"
    )
    p.add_argument(
        "args",
        type=int,
        nargs="+",
        metavar="N",
        help="arguments, all <= 0 (use `-- -1 -2` to stop flag parsing)",
    )
    p.set_defaults(func=_cmd_zeta_plus)

    p = sub.add_parser("table", help="tabulate renormalized values")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--max-k", type=int, default=3)
    out = p.add_mutually_exclusive_group()  # --json keeps stdout one JSON document
    out.add_argument("--json", action="store_true")
    out.add_argument(
        "--check",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="compare against a reference table (packaged fixture by default)",
    )
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shuffle", help="product of two words")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--lambda", dest="lam", default="-1", metavar="Q")
    p.add_argument("--raw", action="store_true", help="keep words ending in d")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_shuffle)

    p = sub.add_parser("coproduct", help="(reduced) coproduct of a word")
    p.add_argument("word")
    p.add_argument("--lambda", dest="lam", default="-1", metavar="Q")
    p.add_argument("--reduced", action="store_true")
    p.add_argument(
        "--method", choices=["recursive", "combinatorial"], default="recursive"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_coproduct)

    for name, char, text in (
        ("phi", phi, "polylogarithm-limit character of a word"),
        ("psi", psi, "modified q-sum character of a word"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("word")
        p.add_argument("--prec", type=int, default=4)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_character_command(char))

    for name, expand, var, text in (
        ("li", lambda k, T: li_J(k, T).coeffs, "t", "one-variable polylogarithm truncation"),
        ("qz", qz_series, "q", "nested q-sum truncation at arguments -k_i"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--k", required=True, metavar="K1,K2,...")
        p.add_argument("--trunc", type=int, default=12)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_truncation_command(expand, var))

    p = sub.add_parser("birkhoff", help="decomposition data for one word")
    p.add_argument("word")
    p.add_argument("--kind", choices=["phi", "psi"], default="phi")
    p.add_argument("--prec", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_birkhoff)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_merge_value_flags(list(argv)))
    if args.command == "zeta-plus" and any(a > 0 for a in args.args):
        parser.error("zeta-plus takes non-positive arguments")
    try:
        return args.func(args)
    except SyntaxError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, PrecisionExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

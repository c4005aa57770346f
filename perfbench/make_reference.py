"""Write reference.json: every benchmark item with its value from an independent route.

    python3 perfbench/make_reference.py          # rewrite reference.json
    python3 perfbench/make_reference.py --check  # exit 1 if it would change

The timed code computes zeta_plus / qzeta_plus through the Birkhoff
decomposition of phi and psi.  The references come from elsewhere:

* depth 1: the closed form mero_depth1, zeta(-k) = -B_{k+1}/(k+1);
* depth >= 2: zeta_plus_via_primitives, which never builds counterterms;
  depth-2 values must also equal the packaged table1.json, and
  (12,13) must also equal the closed form mero_depth2;
* verify checks: "ok".

The q-side values of the ladder and the sweep are checked against the same
classical references, since the two sides must agree.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import REFERENCE, WORKLOADS, result_hash, split_call  # noqa: E402

LADDER = (
    "zeta_plus(1,1,1,1,1,1)",
    "zeta_plus(3,3,3,3)",
    "zeta_plus(9,9)",
    "zeta_plus(12,13)",
    "qzeta_plus(2,2,2,2)",
    "qzeta_plus(7,7)",
)
SWEEP = tuple(k for n in (1, 2, 3) for k in product(range(4), repeat=n))


def reference_value(k: tuple[int, ...]) -> tuple[str, str]:
    """(value, route) for the renormalized value at (-k_1, ..., -k_n)."""
    from hopfmzv import EvenWeight, mero_depth1, mero_depth2, zeta_plus_via_primitives

    if len(k) == 1:
        return str(mero_depth1(k[0])), "mero_depth1"
    value = zeta_plus_via_primitives(k).value
    route = "zeta_plus_via_primitives"
    if len(k) == 2:
        table = _table1()
        if k in table:
            _agree(k, value, table[k], "table1.json")
            route += " = table1.json"
        try:
            closed = mero_depth2(*k)
        except EvenWeight:
            pass
        else:
            _agree(k, value, closed, "mero_depth2")
            route += " = mero_depth2"
    return str(value), route


def _agree(k, value, other, name) -> None:
    if value != other:
        raise SystemExit(f"reference routes disagree at {k}: {value} vs {name} {other}")


def _table1() -> dict:
    from fractions import Fraction

    text = resources.files("hopfmzv").joinpath("fixtures/table1.json").read_text()
    return {tuple(e["k"]): Fraction(e["value"]) for e in json.loads(text)}


def build() -> dict:
    from hopfmzv.verify import SUITES

    items = {
        "ladder": [(name, *reference_value(split_call(name)[1])) for name in LADDER],
        "sweep": [
            ("(" + ",".join(map(str, k)) + ")", *reference_value(k)) for k in SWEEP
        ],
        "verify": [
            (f"{suite}/{check}", "ok", "verify")
            for suite, make in SUITES.items()
            for check, _fn in make()
        ],
    }
    return {
        w: {
            "sha256": result_hash({name: value for name, value, _ in items[w]}),
            "items": [list(item) for item in items[w]],
        }
        for w in WORKLOADS
    }


def render(data: dict) -> str:
    lines = ["{"]
    for i, w in enumerate(WORKLOADS):
        lines.append(f'  "{w}": {{')
        lines.append(f'    "sha256": "{data[w]["sha256"]}",')
        lines.append('    "items": [')
        rows = [f"      {json.dumps(item)}" for item in data[w]["items"]]
        lines.append(",\n".join(rows))
        lines.append("    ]")
        lines.append("  }" + ("," if i < len(WORKLOADS) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    text = render(build())
    if "--check" in argv:
        if REFERENCE.read_text() != text:
            print("reference.json is stale", file=sys.stderr)
            return 1
        return 0
    REFERENCE.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

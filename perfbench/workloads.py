"""The three workloads, their reference values and how results are judged.

Item lists and reference values live in reference.json (written by
make_reference.py from routes independent of the code being timed), so the
workloads stay fixed while the package changes.

Every item yields one result string: an exact value ("p/q"), "ok" for a
verify check, or a marker for what went wrong.  An item is failed unless its
result equals the reference; a failed item is charged at LIMIT_S.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
WORKLOADS = ("ladder", "sweep", "verify")

LIMIT_S = 30.0  # fixed per-item time limit

# The shared host switches between its normal speed and a state about 1.75x
# slower, many times a second and in proportions that drift over minutes.
# Workers time probe() just before and just after every item, for about 2 %
# of the item's time; the item's time is scaled by PROBE_REF_S / (mean probe),
# its host factor.  PROBE_REF_S is the mean probe at normal speed on the
# reference host (2 cores, CPython 3.11.7).
PROBE_REF_S = 0.001

# statuses a worker reports; every one but "done" is a failure without a value
DONE = "done"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def ordered_items(reference: dict, workload: str, seed: int) -> list[str]:
    """Item names of a workload in the order the seed picks."""
    names = [name for name, _value, _route in reference[workload]["items"]]
    random.Random(seed).shuffle(names)
    return names


def expected(reference: dict, workload: str) -> dict[str, str]:
    return {name: value for name, value, _route in reference[workload]["items"]}


def parse_vector(text: str) -> tuple[int, ...]:
    """'(1,2)' -> (1, 2)."""
    return tuple(int(v) for v in text.strip("()").split(","))


def split_call(name: str) -> tuple[str, tuple[int, ...]]:
    """'zeta_plus(9,9)' -> ('zeta_plus', (9, 9))."""
    fn, _, args = name.partition("(")
    return fn, parse_vector(args)


def result_hash(results: dict[str, str]) -> str:
    """SHA-256 of the exact results keyed by item name (order-free)."""
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verdict(record: dict, reference_value: str) -> str:
    """'ok', 'wrong' (a result that disagrees with the reference) or 'failed'."""
    if record["status"] != DONE:
        return "failed"
    return "ok" if record["result"] == reference_value else "wrong"


def charged_seconds(records: list[dict], verdicts: list[str]) -> float:
    """An item's time over a run's passes: its fastest pass, each scaled by
    its host factor, or the limit if it failed in any of them."""
    if any(v != "ok" for v in verdicts):
        return LIMIT_S
    return min(r["seconds"] * PROBE_REF_S / r["probe_s"] for r in records)


def probe() -> float:
    """Seconds for a fixed exact-arithmetic loop that uses no hopfmzv code."""
    n = 24
    a = [Fraction((-1) ** i * (i * i + 3), factorial(i + 1)) for i in range(n)]
    b = [Fraction(i + 1, factorial(i) * (i % 5 + 1)) for i in range(n)]
    out = [0] * n
    t0 = time.perf_counter()
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return time.perf_counter() - t0



def probe_mean(seconds: float) -> float:
    """Mean of probe() over at least two probes and about `seconds`."""
    samples = [probe(), probe()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(probe())
    return sum(samples) / len(samples)

"""Run benchmark items in this process, one JSON line per item.

    python3 perfbench/worker.py WORKLOAD TRACE BUDGET_S SPANS_PATH < names.json

Reads a JSON list of item names on stdin, runs them in that order and prints
one line {"name", "result", "status", "seconds"} per item as it finishes,
then one line {"summary": ...} with the process's peak RSS, the kernel
backend and, when TRACE is 1, the per-layer figures.  Each item line also
carries "probe_s", the mean host probe just before and just after the item.
hopfmzv is imported before any item is timed.  An item stops at the per-item
limit (SIGALRM), and items that would start after BUDGET_S seconds are not
run.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

from workloads import DONE, LIMIT_S, parse_vector, probe_mean, split_call


class ItemTimeout(BaseException):
    """Raised by the alarm; BaseException so no `except Exception` eats it."""


def _alarm(signum, frame):
    raise ItemTimeout


def prepare(workload: str, name: str):
    """A zero-argument callable computing the item's result string."""
    import hopfmzv
    from hopfmzv.verify import SUITES

    if workload == "ladder":
        fn, k = split_call(name)
        if fn not in ("zeta_plus", "qzeta_plus"):
            raise ValueError(f"unknown ladder item {name!r}")
        return lambda: str(getattr(hopfmzv, fn)(k).value)
    if workload == "sweep":
        k = parse_vector(name)

        def both():
            q = hopfmzv.qzeta_plus(k).value
            z = hopfmzv.zeta_plus(k).value
            return str(z) if q == z else f"q-side {q} != classical {z}"

        return both
    if workload == "verify":
        suite, _, check = name.partition("/")
        fn = dict(SUITES[suite]())[check]

        def run_check():
            ok, detail = fn()
            return "ok" if ok else f"not ok: {detail}"

        return run_check
    raise ValueError(f"unknown workload {workload!r}")


def run_item(workload: str, name: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return {"name": name, "result": None, "status": "deadline", "seconds": 0.0}
    try:
        call = prepare(workload, name)
    except (KeyError, ValueError) as exc:
        return {"name": name, "result": None, "status": f"unknown item: {exc}", "seconds": 0.0}
    result, status = None, DONE
    signal.setitimer(signal.ITIMER_REAL, min(LIMIT_S, remaining))
    t0 = time.perf_counter()
    try:
        result = call()
    except ItemTimeout:
        status = "timeout"
    except Exception as exc:  # a domain error fails the item, not the run
        status = f"error: {type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
    return {"name": name, "result": result, "status": status, "seconds": seconds}


def main(argv: list[str]) -> int:
    workload, trace, budget, spans_path = argv[0], argv[1] == "1", float(argv[2]), argv[3]
    deadline = time.monotonic() + budget
    names = json.loads(sys.stdin.read())

    import hopfmzv
    import hopfmzv.cli  # noqa: F401  (the CLI namespace is traced too)
    import hopfmzv.series
    import hopfmzv.verify  # noqa: F401

    recorder = None
    if trace:
        import tracer

        recorder = tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    before = probe_mean(0.05)
    for name in names:
        record = run_item(workload, name, deadline)
        after = probe_mean(0.02 * record["seconds"])
        record["probe_s"] = (before + after) / 2
        before = after
        print(json.dumps(record), flush=True)

    summary = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": getattr(hopfmzv.series, "KERNEL_BACKEND", "n/a"),
        "module": hopfmzv.__file__,
    }
    if recorder is not None:
        summary["layers"] = recorder.layer_metrics()
        recorder.rec.dump(spans_path)
    print(json.dumps({"summary": summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark harness for hopfmzv: workloads ladder, sweep and verify.

    python3 perfbench/run.py --workload ladder|sweep|verify|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it times the package in ./src.
Each run measures the set-up time, then repeats whole passes over the
workload's items, each pass in fresh worker processes, until S seconds have
passed.  Every result is compared exactly with reference.json.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

With --trace 1 each pass is run twice, untraced and then traced (see
tracer.py); spans are written to .perfbench_out/ and the traced results must
hash the same as the untraced ones.  See README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
HARD_DEADLINE_S = 150.0  # a run never starts work it cannot finish by then
SETUP_PER_PASS = 5  # set-up samples taken before each pass
OUT_DIR = ".perfbench_out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "geomean_item_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "series.mul.calls", "series.mul.self_s", "series.mul.madds",
    "series.mul.max_window", "series.mul.max_den_bits",
    "series.add.calls", "series.add.self_s", "series.scale.calls",
    "series.scale.self_s", "series.diff.calls", "series.self_s",
    "realizations.phi.calls", "realizations.phi.self_s",
    "realizations.psi.calls", "realizations.psi.self_s",
    "realizations.psi_factor.hits", "realizations.psi_factor.misses",
    "realizations.planned.hits", "realizations.planned.misses",
    "realizations.qlab.calls", "realizations.qlab.self_s",
    "coproduct.calls", "coproduct.self_s", "coproduct.terms",
    "coproduct.memo.hits", "coproduct.memo.misses",
    "shuffle.calls", "shuffle.self_s", "shuffle.terms",
    "shuffle.memo.hits", "shuffle.memo.misses",
    "birkhoff.values", "birkhoff.tables_built", "birkhoff.memo_rows",
    "birkhoff.self_s",
    "bernoulli.calls", "bernoulli.self_s", "bernoulli.max_index",
    "verify.hopf_s", "verify.birkhoff_s", "verify.rota-baxter_s",
    "verify.qseries_s",
    "trace.overhead_s",
)


class HarnessError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bits" if metric.endswith("_bits") else "count"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(root: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing hopfmzv and its CLI."""
    cmd = [sys.executable, "-c", "import hopfmzv, hopfmzv.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise HarnessError(f"importing hopfmzv failed:\n{proc.stderr.decode()}")
    return times


def run_worker(root, workload, names, trace, budget, spans_path):
    """Run names in one worker process; returns ({name: record}, summary)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(int(trace)),
           f"{budget:.3f}", str(spans_path)]
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(names).encode(), cwd=root, env=child_env(root),
            capture_output=True, timeout=budget + wl.LIMIT_S + 15,
        )
        out, status = proc.stdout, f"exit {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out, status = exc.stdout or b"", "killed"
    records, summary = {}, None
    for line in out.decode().splitlines():
        obj = json.loads(line)
        if "summary" in obj:
            summary = obj["summary"]
        else:
            records[obj["name"]] = obj
    for name in names:  # items a crashed or killed worker never reported
        records.setdefault(name, {"name": name, "result": None, "status": status, "seconds": 0.0})
    if summary is None:
        summary = {"peak_rss_kb": 0}
    elif not Path(summary["module"]).resolve().is_relative_to((root / "src").resolve()):
        raise HarnessError(f"hopfmzv was imported from {summary['module']}, not from {root / 'src'}")
    return records, summary


def run_pass(root, workload, names, trace, deadline) -> dict:
    """One pass over the items: ladder runs each item in its own process."""
    groups = [[n] for n in names] if workload == "ladder" else [names]
    records, rss, layers, backend = {}, 0, [], None
    for i, group in enumerate(groups):
        budget = max(deadline - time.monotonic(), 0.0)
        spans = root / OUT_DIR / f"{workload}-{i}.spans.json" if trace else "-"
        recs, summary = run_worker(root, workload, group, trace, budget, spans)
        records.update(recs)
        rss = max(rss, summary["peak_rss_kb"])
        backend = summary.get("backend", backend)
        if "layers" in summary:
            layers.append(summary["layers"])
    return {"records": records, "peak_rss_kb": rss, "backend": backend, "layers": merge_layers(layers)}


def merge_layers(per_process: list[dict]) -> dict:
    """Sum counts and times over processes; maxima take the maximum."""
    out: dict = {}
    for layers in per_process:
        for k, v in layers.items():
            out[k] = max(out.get(k, 0), v) if ".max_" in k else out.get(k, 0) + v
    return out


def summarize(passes: list[dict], expected: dict) -> dict:
    """Verdicts of every item run and the end-to-end figures of the passes.

    An item's time is its fastest pass (host noise only ever adds time),
    scaled by its host factor, or the limit if it failed in any pass.
    """
    names = list(passes[0]["records"])
    verdicts = [{n: wl.verdict(p["records"][n], expected[n]) for n in names} for p in passes]
    best = {
        n: wl.charged_seconds([p["records"][n] for p in passes], [v[n] for v in verdicts])
        for n in names
    }
    probes = [r["probe_s"] for p in passes for r in p["records"].values() if "probe_s" in r]
    host_factor = wl.PROBE_REF_S / statistics.fmean(probes) if probes else 1.0
    return {
        "verdicts": verdicts,
        "best": best,
        "host_factor": host_factor,
        "wall_s": sum(best.values()),
        "geomean_item_s": math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in best.values())),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "hashes": [
            wl.result_hash({n: r["result"] or r["status"] for n, r in p["records"].items()})
            for p in passes
        ],
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = wl.load_reference()
    expected = wl.expected(reference, workload)
    names = wl.ordered_items(reference, workload, seed)
    deadline = time.monotonic() + HARD_DEADLINE_S
    measure_setup(root, 1)  # warms the bytecode cache
    setup = []
    if trace:
        (root / OUT_DIR).mkdir(exist_ok=True)

    plain, traced = [], []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        setup += measure_setup(root, SETUP_PER_PASS)
        plain.append(run_pass(root, workload, names, False, deadline))
        if trace:
            traced.append(run_pass(root, workload, names, True, deadline))
        now = time.monotonic()
        if now - t_measure >= seconds or now + (now - t0) > deadline:
            break

    j = summarize(plain, expected)
    jt = summarize(traced, expected) if trace else {"verdicts": [], "hashes": []}
    all_verdicts = [(n, v) for vs in j["verdicts"] + jt["verdicts"] for n, v in vs.items()]
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "items": len(names),
        "attempted": len(all_verdicts),
        "failed": sum(v != "ok" for _, v in all_verdicts),
        "wrong": sorted({n for n, v in all_verdicts if v == "wrong"}),
        "failed_items": sorted({n for n, v in all_verdicts if v == "failed"}),
        "result_sha256": j["hashes"][0],
        "reference_sha256": reference[workload]["sha256"],
        "hashes_agree": len(set(j["hashes"] + jt["hashes"])) == 1,
        "backend": plain[0]["backend"],
        "metrics": {
            "setup_s": statistics.median(setup) * j["host_factor"],
            "wall_s": j["wall_s"],
            "geomean_item_s": j["geomean_item_s"],
            "peak_rss_mb": j["peak_rss_mb"],
        },
        "item_s": j["best"],
        "host_factor": j["host_factor"],
    }
    result["correct"] = not result["wrong"] and result["hashes_agree"]
    if trace:
        result["layers"] = layer_metrics(traced, jt, j)
    return result


def layer_metrics(traced: list[dict], jt: dict, j: dict) -> dict:
    """Counts from the first traced pass; times from the fastest pass."""
    out = {}
    for m in PER_LAYER:
        if m.startswith("verify."):
            suite = m[len("verify."):-len("_s")]
            out[m] = sum(t for n, t in j["best"].items() if n.startswith(suite + "/"))
        elif m == "trace.overhead_s":
            out[m] = jt["wall_s"] - j["wall_s"]
        elif m.endswith("_s"):
            out[m] = min(p["layers"].get(m, 0.0) for p in traced)
        else:
            out[m] = traced[0]["layers"].get(m, 0)
    return out


def metadata(root: Path, backend) -> dict:
    src = sorted((root / "src" / "hopfmzv").glob("*.py"))
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "kernel_backend": backend,
        "git_commit": commit,
        "src_py_lines": sum(len(p.read_text().splitlines()) for p in src),
        "limit_s": wl.LIMIT_S,
    }


def report(r: dict, trace: bool) -> None:
    print(f"== workload {r['workload']}  seed {r['seed']}  passes {r['passes']}  "
          f"items {r['items']}  trace {int(trace)}")
    for name, value in r["metrics"].items():
        print(f"  {name:<16} {value:12.6f} {END_TO_END[name]}")
    print(f"  {'failed_frac':<16} {r['failed'] / r['attempted']:12.6f} "
          f"({r['failed']}/{r['attempted']} item runs)")
    for name in r["failed_items"]:
        print(f"  failed item      {name}")
    for name in r["wrong"]:
        print(f"  WRONG RESULT     {name}")
    print(f"  host_factor      {r['host_factor']:12.6f} (mean over the run's items)")
    match = "matches" if r["result_sha256"] == r["reference_sha256"] else "differs from"
    print(f"  result_sha256    {r['result_sha256']} ({match} reference)")
    slowest = sorted(r["item_s"].items(), key=lambda kv: -kv[1])[:6]
    for name, s in slowest:
        print(f"  item             {name:<40} {s:10.6f} s")
    for name, value in r.get("layers", {}).items():
        print(f"  {name:<32} {value:14.6f} {layer_unit(name)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "hopfmzv" / "__init__.py").is_file():
        print(f"no hopfmzv sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    chosen = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(root, w, args.seed, args.seconds, trace) for w in chosen]
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    for r in results:
        report(r, trace)
    print("meta " + json.dumps(metadata(root, results[0]["backend"])))

    def named(r, m):
        return m if len(results) == 1 else f"{r['workload']}.{m}"

    metrics = {}
    for r in results:
        if trace:
            for m, v in r["layers"].items():
                metrics[named(r, m)] = {"value": v, "unit": layer_unit(m)}
        else:
            for m, v in r["metrics"].items():
                metrics[named(r, m)] = {"value": v, "unit": END_TO_END[m]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import make_reference
import run
import tracer
import worker
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]


def _record(name, result, seconds=0.5, status=wl.DONE, probe_s=wl.PROBE_REF_S):
    return {"name": name, "result": result, "status": status, "seconds": seconds,
            "probe_s": probe_s}


def _pass(records):
    return {"records": {r["name"]: r for r in records}, "peak_rss_kb": 1024}


def test_reference_file_is_current():
    assert make_reference.main(["--check"]) == 0


def test_perturbed_reference_marks_item_failed():
    reference = wl.load_reference()
    expected = wl.expected(reference, "sweep")
    records = [_record(n, v) for n, v in expected.items()]
    assert set(run.summarize([_pass(records)], expected)["verdicts"][0].values()) == {"ok"}

    perturbed = dict(expected)
    perturbed["(1,1)"] = "1/145"  # true value 1/144
    j = run.summarize([_pass(records)], perturbed)
    assert j["verdicts"][0]["(1,1)"] == "wrong"
    assert sum(v != "ok" for v in j["verdicts"][0].values()) == 1
    assert j["best"]["(1,1)"] == wl.LIMIT_S


def test_item_past_limit_fails_and_is_charged_at_limit(monkeypatch):
    def spin():
        while True:
            pass

    monkeypatch.setattr(worker, "LIMIT_S", 0.2)
    monkeypatch.setattr(worker, "prepare", lambda workload, name: spin)
    worker.signal.signal(worker.signal.SIGALRM, worker._alarm)
    t0 = time.monotonic()
    rec = worker.run_item("sweep", "(0)", time.monotonic() + 60)
    assert time.monotonic() - t0 < 5
    assert rec["status"] == "timeout"
    verdict = wl.verdict(rec, "-1/2")
    assert verdict == "failed"
    fast = _record("(0)", "-1/2", seconds=0.01)
    assert wl.charged_seconds([fast, rec], ["ok", verdict]) == wl.LIMIT_S
    assert wl.charged_seconds([fast], ["ok"]) == 0.01


def test_slow_host_scales_measured_times_not_the_limit():
    expected = {"(0)": "-1/2", "(1)": "-1/12"}
    slow = 2 * wl.PROBE_REF_S
    normal = [_record("(0)", "-1/2", seconds=2.0), _record("(1)", "wrong", seconds=1.0)]
    hosted = [_record("(0)", "-1/2", seconds=3.0, probe_s=slow),
              _record("(1)", "wrong", seconds=1.0, probe_s=slow)]
    assert run.summarize([_pass(normal)], expected)["best"] == {"(0)": 2.0, "(1)": wl.LIMIT_S}
    assert run.summarize([_pass(hosted)], expected)["best"] == {"(0)": 1.5, "(1)": wl.LIMIT_S}
    # the fastest scaled pass wins
    assert run.summarize([_pass(hosted), _pass(normal)], expected)["best"]["(0)"] == 1.5


def test_deadline_fails_items_without_running_them():
    rec = worker.run_item("sweep", "(0)", time.monotonic() - 1)
    assert rec["status"] == "deadline"
    assert wl.verdict(rec, "-1/2") == "failed"


def _worker_results(names):
    records, _summary = run.run_worker(ROOT, "sweep", names, False, 60, "-")
    return {n: r["result"] for n, r in records.items()}


def test_seed_changes_order_not_result_hash():
    reference = wl.load_reference()
    a = wl.ordered_items(reference, "sweep", 1)
    b = wl.ordered_items(reference, "sweep", 2)
    assert a != b and sorted(a) == sorted(b)
    small = [n for n in a if n.count(",") < 2 and "3" not in n][:6]
    first = _worker_results(small)
    second = _worker_results(list(reversed(small)))
    assert list(first) != list(second)
    assert wl.result_hash(first) == wl.result_hash(second)
    expected = wl.expected(reference, "sweep")
    assert first == {n: expected[n] for n in small}


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert tracer.self_times(parent, start, end) == [3.0, 3.0, 3.0, 1.0]


def test_recorder_nests_spans_and_counts():
    rec = tracer.Recorder()
    inner = rec.wrap("layer.inner", lambda x: x + 1)
    outer = rec.wrap("layer.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert list(rec.parent) == [-1, 0, 0]
    totals = rec.span_totals()
    assert totals["layer.outer"]["calls"] == 1
    assert totals["layer.inner"]["calls"] == 2
    assert all(t["self_s"] >= 0 for t in totals.values())


def test_madds_skips_zero_coefficients():
    # a = (1, 0, 2), b = (3, 4), n = 3: pairs (0,0) (0,1) (2,0) -> 3
    assert tracer._madds((1, 0, 2), (3, 4), 3) == 3
    assert tracer._madds((1, 1, 1), (1, 1, 1), 3) == 6


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(m) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

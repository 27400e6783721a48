"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import bubbleforge as bf  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())


def _thm_a_op(tmp_path):
    ops = workloads.build_ops("scan", workloads.DEFAULT_SEED, str(tmp_path))
    return next(op for op in ops if op.name.startswith("cli verify thm-a"))


def test_clean_operation_passes(tmp_path):
    _, failures = run._run_pass([_thm_a_op(tmp_path)], REFERENCE["scan"], workloads.DEFAULT_SEED)
    assert failures == []


def test_one_corrupted_value_counts_as_a_failed_operation(tmp_path):
    op = _thm_a_op(tmp_path)

    def corrupted(raw):
        values = op.check(raw)
        key = next(k for k in values if k.startswith("thm-a/bound"))
        values[key] *= 1.0 + 1e-6  # beyond the 1e-8 analytic tolerance
        return values

    _, failures = run._run_pass([op, replace(op, check=corrupted)],
                                REFERENCE["scan"], workloads.DEFAULT_SEED)
    assert len(failures) == 1 and "thm-a/bound" in failures[0]


def test_raising_operation_counts_as_failed(tmp_path):
    def boom():
        raise bf.errors.FitDiverged("planted")

    op = replace(_thm_a_op(tmp_path), run=boom)
    _, failures = run._run_pass([op], REFERENCE["scan"], workloads.DEFAULT_SEED)
    assert len(failures) == 1 and "FitDiverged" in failures[0]


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    produced = dict(layertrace.layer_metrics(layertrace.Tracer(), 1))
    produced.update(dict.fromkeys(
        ["import.bubbleforge_s", "import.scipy_special_s", "import.numpy_s",
         "trace.overhead_frac"], 0.0))
    assert sorted(produced) == sorted(m["name"] for m in spec["per_layer"])
    assert all(run._unit(m["name"]) == m["unit"] for m in spec["per_layer"])


def test_union_of_overlapping_children():
    assert layertrace._union_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert layertrace._union_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_threaded_scan_self_time_stays_non_negative():
    f = bf.sum_field(bf.Bubble(1.0, [1.0, 0, 0], 3), bf.Bubble(0.5, [-1.0, 0, 0], 3))
    gs = bf.GridSpec(points_per_axis=40, chunk=4096, threads=2)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        bf.sup_scan(f, bf.Box(np.full(3, -2.0), np.full(3, 2.0)), gs)
    finally:
        tracer.uninstall()
    assert not hasattr(bf.sup_scan, "__wrapped__")  # uninstall restored the package
    assert tracer.calls["bounds.sup_scan"] == 1
    assert tracer.calls["field_core.k_function"] > 2
    scan_self = tracer.self_s["bounds.sup_scan"]
    assert 0.0 <= scan_self <= tracer.total_s["bounds.sup_scan"]
    assert tracer.counts["bounds.sup_scan.refine_s"] > 0.0


def test_worker_span_attaches_to_the_installing_thread():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        parent = layertrace._Span("bounds.sup_scan", time.perf_counter())
        tracer._stack().append(parent)
        seen = []
        worker = threading.Thread(target=lambda: seen.append(tracer._parent(tracer._stack())))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer._stack().pop()
    finally:
        tracer.uninstall()
    assert seen == [parent]

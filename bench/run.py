"""bubbleforge benchmark.

    python3 bench/run.py --workload {scan,quadrature,blowup} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` it runs rounds, one after another, until the run's time is
spent (at least three; the last may end up to half a round late).  A round
is a fresh process that imports the package, runs one pass over the
workload's operations and then one more, with a short calibration before,
between and after the passes.  It reports the end-to-end metrics, each a
median over the rounds:

- ``setup_s``: time of ``import bubbleforge.cli`` in the fresh interpreter.
- ``cold_pass_s``: time of the first pass, right after that import.
- ``pass_s``: time of the second pass, after the first as warm-up.
- ``peak_rss_mb``: peak resident memory of the process.

The times are in reference seconds: wall time scaled by how much slower the
machine ran than the reference machine, as the calibrations next to each
pass gauge it.  The speed of the shared host drifts by up to 40% within
minutes, and this removes most of that drift from the metrics while a change
to the package still moves them in full.  The wall times are on the line
before the result.

With ``--trace 1`` a long-lived process alternates untraced and traced
passes and reports the per-layer metrics of ``layertrace.py`` per traced pass,
the tracing overhead, and ``import.*`` from ``python -X importtime``.

Every operation's output is checked (see ``workloads.py``); an operation
that raises or fails a check counts in ``failed``.  Only one benchmark
process runs at a time, with numpy's BLAS on one thread, so
``thm-b --threads 2`` is the only multi-threaded operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s, even if a child hangs
# Wall time of ``_calibration_s`` on the reference machine (see README), so
# that a time in reference seconds reads about as its wall time did there.
CALIBRATION_REF_S = 0.17
# One BLAS thread: with two, OpenBLAS spin-waits on the second vCPU, which
# made quadrature passes slower (3.48 s against 3.29 s) and their spread
# wider (9.7% against 6.0% interquartile) on the 2-vCPU machine.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


# --- child side: runs inside the process that imports bubbleforge ---------------


def _import_package() -> float:
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    t0 = time.perf_counter()
    import bubbleforge.cli  # noqa: F401  (timed: this is the set-up cost)
    return time.perf_counter() - t0


def _run_pass(ops, reference: dict, seed: int, tracer=None) -> tuple[float, list[str]]:
    """Run every operation once; returns (seconds in the operations, failure messages)."""
    import workloads

    seconds, failures = 0.0, []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a raising operation is counted, the pass goes on
            seconds += time.perf_counter() - t0
            failures.append(f"{op.name}: raised {exc!r}")
            continue
        seconds += time.perf_counter() - t0
        try:
            values = op.check(raw)
            if seed == workloads.DEFAULT_SEED or not op.seeded:
                _compare(op, values, reference.get(op.name, {}))
        except Exception as exc:  # a wrong output, or a check that broke on it
            failures.append(f"{op.name}: {exc}")
    return seconds, failures


def _compare(op, values: dict, ref: dict) -> None:
    import workloads

    for key, expected in ref.items():
        rel = op.tol(key)
        if rel is None:
            continue
        if key not in values:
            raise workloads.OpFailed(f"missing value {key!r}")
        if not workloads.close(values[key], expected, rel):
            raise workloads.OpFailed(f"{key} = {values[key]!r}, reference {expected!r}")


def _calibration_s() -> float:
    """Wall time of a fixed mix of interpreter, numpy and page-fault work.

    It calls nothing of the package, so only the machine's speed moves it.
    Its 4 MiB of arrays are mapped and unmapped directly, not through
    glibc, so it leaves the heap and the mmap threshold that the passes use
    as they were; and the passes' own peak memory lies above it.
    """
    import mmap

    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    n = 1 << 18
    with mmap.mmap(-1, 16 * n) as buf:
        x = np.frombuffer(buf, dtype=np.float64, count=n)
        y = np.frombuffer(buf, dtype=np.float64, count=n, offset=8 * n)
        y.fill(4.0 / n)
        for _ in range(25):
            np.cumsum(y, out=x)
            np.sin(x, out=y)
            np.exp(y, out=y)
            np.multiply(y, 1.0 / n, out=y)
        del x, y  # the map closes only once no array uses it
    return time.perf_counter() - t0


def _child(args) -> dict:
    import_s = _import_package()
    import resource

    import layertrace
    import workloads

    out_dir = tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]
    ops = workloads.build_ops(args.workload, args.seed, out_dir.name)
    passes, untraced, failures = [], [], []
    result = {"import_s": import_s}
    tracer = layertrace.Tracer() if args.child == "traced" else None

    def one_pass(active_tracer=None) -> float:
        seconds, failed = _run_pass(ops, reference, args.seed, active_tracer)
        failures.extend(failed)
        result["attempted"] = result.get("attempted", 0) + len(ops)
        return seconds

    def traced_pass() -> float:
        tracer.install()
        try:
            return one_pass(tracer)
        finally:
            tracer.uninstall()

    try:
        if args.child == "round":
            # calibrations on either side of each pass gauge the machine's speed
            calibration = [_calibration_s()]
            passes.append(one_pass())  # cold: the first pass after import
            calibration.append(_calibration_s())
            passes.append(one_pass())  # warm: the cold pass was its warm-up
            calibration.append(_calibration_s())
            result["calibration"] = calibration
        else:
            deadline = time.perf_counter() + args.budget
            t0 = time.perf_counter()
            one_pass()  # warm-up
            step = time.perf_counter() - t0
            # stop before a round that would overrun the budget
            while len(passes) < MIN_PASSES or time.perf_counter() + step < deadline:
                t0 = time.perf_counter()
                if len(passes) % 2:
                    # alternate the order within a round, so that the
                    # overhead estimate does not pick up an order effect
                    untraced.append(one_pass())
                    passes.append(traced_pass())
                else:
                    passes.append(traced_pass())
                    untraced.append(one_pass())
                step = time.perf_counter() - t0
            result["layers"] = layertrace.layer_metrics(tracer, len(passes))
            result["layers"]["trace.overhead_frac"] = (
                statistics.median(passes) / statistics.median(untraced) - 1.0)
    finally:
        out_dir.cleanup()
    result.update(passes=passes, failures=failures,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


# --- parent side: orchestrates fresh processes and reports ------------------------


def _spawn(args, mode: str, timeout: float, budget: float = 0.0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--budget", str(budget)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT, env=CHILD_ENV)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times(timeout: float) -> dict[str, float]:
    """Cumulative import times from ``-X importtime`` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bubbleforge.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT,
                          env=CHILD_ENV)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed:\n{proc.stderr}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    # a module the package no longer imports costs nothing
    return {"import.bubbleforge_s": cumulative["bubbleforge"],
            "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
            "import.numpy_s": cumulative.get("numpy", 0.0)}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report(args) -> dict:
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start

    results = []
    metrics = {}
    detail = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        imports = [_import_times(RUN_LIMIT_S - elapsed()) for _ in range(3)]
        for key in imports[0]:
            metrics[key] = _metric(statistics.median([m[key] for m in imports]), "s")
        traced = _spawn(args, "traced", RUN_LIMIT_S - elapsed(), args.seconds - elapsed())
        results.append(traced)
        for key, value in traced["layers"].items():
            metrics[key] = _metric(value, _unit(key))
        detail["traced_passes"] = len(traced["passes"])
        # per-layer values are means per traced pass; so is this, for shares
        detail["traced_pass_mean_s"] = statistics.fmean(traced["passes"])
    else:
        rounds, step = [], 0.0
        # start a round only if it would end less than half a round late, so
        # that runs last about --seconds on average and no round is cut
        while len(rounds) < MIN_ROUNDS or elapsed() + step / 2 < args.seconds:
            t0 = time.perf_counter()
            rounds.append(_spawn(args, "round", RUN_LIMIT_S - elapsed()))
            step = time.perf_counter() - t0
        results += rounds
        wall = {"setup_s": [r["import_s"] for r in rounds],
                "cold_pass_s": [r["passes"][0] for r in rounds],
                "pass_s": [r["passes"][1] for r in rounds]}
        # how much slower than the reference machine the machine ran: for a
        # pass, the mean of the calibrations on either side of it; for set-up,
        # which no calibration precedes, the mean of the round's three
        slowness = {"setup_s": [sum(r["calibration"]) / 3 for r in rounds],
                    "cold_pass_s": [sum(r["calibration"][:2]) / 2 for r in rounds],
                    "pass_s": [sum(r["calibration"][1:]) / 2 for r in rounds]}
        for name, v in wall.items():
            reference = [t * CALIBRATION_REF_S / c for t, c in zip(v, slowness[name])]
            metrics[name] = _metric(statistics.median(reference), "s")
            detail[name] = {"samples": len(v),
                            "quartiles": statistics.quantiles(reference, n=4),
                            "wall_median": statistics.median(v), "wall": v}
        metrics["peak_rss_mb"] = _metric(statistics.median(r["rss_mb"] for r in rounds), "MB")
        detail["calibration_s"] = [r["calibration"] for r in rounds]
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    detail["failed_frac"] = len(failures) / attempted
    detail["failures"] = failures[:20]
    detail["wall_s"] = elapsed()
    print(json.dumps(detail))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def _unit(key: str) -> str:
    if "mpts_s" in key:
        return "Mpts/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "quadrature", "blowup"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("round", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "bubbleforge" / "__init__.py").is_file():
        print(f"no bubbleforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    try:
        report = _report(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

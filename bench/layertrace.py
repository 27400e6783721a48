"""Outside-in layer trace of ``bubbleforge``.

The tracer replaces every public function of each layer module, wherever
the package binds it, by a wrapper that records a span: its name, start
and end, and the span that caused it.  The program itself is unchanged.

A span's self time is its duration minus the length of the union of its
child spans' intervals.  Each thread keeps its own span stack.  A span
opened on a worker thread with an empty stack is a child of the innermost
open span of the thread that installed the tracer: ``sup_scan`` with
``threads > 1`` evaluates ``k_function`` chunks on pool threads, and their
intervals overlap, so subtracting their summed durations would go negative.

Spans are aggregated as they close, per name: calls, total (inclusive)
time, self time and work counts taken from arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("field_core", "kelvin", "glue", "bounds", "potential", "blowup", "cli")

# field class -> name used in the throughput metrics
FIELD_KINDS = {
    "Bubble": "bubble",
    "SumField": "sum",
    "ConcentricGlueField": "concentric",
    "DisjointGlueField": "disjoint",
    "InsertGlueField": "insert",
    "KelvinField": "kelvin",
}


def _points(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim <= 1 else int(np.prod(arr.shape[:-1]))


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class _Span:
    __slots__ = ("name", "start", "end", "children", "marks")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end = start
        self.children: list[tuple[float, float]] = []
        self.marks: list[float] = []


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_thread = None
        self._root_stack: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = ""  # label of the benchmark operation being run
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    # --- spans -------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._root_thread:
                self._root_stack = stack
        return stack

    def _parent(self, stack: list[_Span]):
        if stack:
            return stack[-1]
        if threading.current_thread() is not self._root_thread and self._root_stack:
            return self._root_stack[-1]
        return None

    def _close(self, span: _Span, parent, end: float) -> float:
        """Record a finished span; returns its duration."""
        span.end = end
        dur = end - span.start
        with self._lock:
            covered = _union_length(span.children, span.start, end)
            self.calls[span.name] += 1
            self.total_s[span.name] += dur
            self.self_s[span.name] += dur - covered
            if parent is not None:
                parent.children.append((span.start, end))
        return dur

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span = _Span(name, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = self._close(span, parent, end)
            if counter is not None:
                counter(self, span, dur, args, result)
            return result

        return traced

    def _mark(self, fn):
        """No span: stamp the end of the call on an enclosing sup_scan span."""

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = self._stack()
            if stack and stack[-1].name == "bounds.sup_scan":
                stack[-1].marks.append(time.perf_counter())
            return result

        return marked

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        pkg_modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "bubbleforge" or name.startswith("bubbleforge."))]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"bubbleforge.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[obj] = self._wrap(f"{layer}.{attr}", obj)
        grid_points = sys.modules["bubbleforge.regions"].grid_points
        replace[grid_points] = self._mark(grid_points)
        for mod in pkg_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replace[obj])
        self._root_thread = threading.current_thread()
        self._root_stack = self._stack()

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


# --- work counts taken at layer boundaries ---------------------------------------


def _count_k(tr: Tracer, span, dur, args, result):
    pts = _points(args[1])
    kind = FIELD_KINDS.get(type(args[0]).__name__)
    tr.count("field_core.k_function.points", pts)
    if kind is not None:
        tr.count(f"k.{kind}.points", pts)
        tr.count(f"k.{kind}.s", dur)
        # the closed-form image sum that kelvin.overhead_ratio compares against
        if kind == "sum" and tr.op == "api sup_scan images":
            tr.count("k.images.points", pts)
            tr.count("k.images.s", dur)


def _count_points(key: str):
    """Count the points of the second argument, as in ``f(field, x)``."""
    def counter(tr, span, dur, args, result):
        tr.count(key, _points(args[1]))
    return counter


def _count_sup_scan(tr, span, dur, args, result):
    tr.count("bounds.sup_scan.samples", result.n_samples)
    if len(span.marks) >= 2:  # the second grid built is the refinement grid
        tr.count("bounds.sup_scan.refine_s", span.end - span.marks[1])


def _count_result(key: str, get):
    def counter(tr, span, dur, args, result):
        tr.count(key, get(result))
    return counter


_COUNTERS = {
    "field_core.k_function": _count_k,
    "field_core.inv_root_grad_sq": _count_points("field_core.inv_root_grad_sq.points"),
    "potential.h_eval": _count_points("potential.h_eval.points"),
    "blowup.weighted_u": _count_points("blowup.weighted_u.points"),
    "bounds.sup_scan": _count_sup_scan,
    "potential.adaptive_radial": _count_result("potential.adaptive_radial.n_evals",
                                               lambda r: r[2]),
    "potential.weighted_grad_integral": _count_result(
        "potential.weighted_grad_integral.n_evals", lambda r: r.n_evals),
    "potential.sphere_rule": _count_result("potential.sphere_rule.nodes",
                                           lambda r: r[0].shape[0]),
    "blowup.detect": _count_result("blowup.detect.hits", lambda r: r is not None),
}


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass; a layer a workload never calls reads 0."""

    def per(value: float) -> float:
        return value / passes

    def rate(points: float, seconds: float) -> float:
        return points / seconds / 1e6 if seconds > 0 else 0.0

    c = tr.counts
    out = {
        "field_core.k_function.calls": per(tr.calls["field_core.k_function"]),
        "field_core.k_function.points": per(c["field_core.k_function.points"]),
        "field_core.k_function.self_s": per(tr.self_s["field_core.k_function"]),
    }
    for kind, key in (("bubble", "field_core.k_mpts_s.bubble"), ("sum", "field_core.k_mpts_s.sum"),
                      ("concentric", "glue.k_mpts_s.concentric"),
                      ("disjoint", "glue.k_mpts_s.disjoint"), ("insert", "glue.k_mpts_s.insert"),
                      ("kelvin", "kelvin.k_mpts_s")):
        out[key] = rate(c[f"k.{kind}.points"], c[f"k.{kind}.s"])
    kelvin_rate, images_rate = out["kelvin.k_mpts_s"], rate(c["k.images.points"], c["k.images.s"])
    out["kelvin.overhead_ratio"] = images_rate / kelvin_rate if kelvin_rate > 0 else 0.0

    irg = "field_core.inv_root_grad_sq"
    out[f"{irg}.points"] = per(c[f"{irg}.points"])
    out[f"{irg}.self_s"] = per(tr.self_s[irg])
    out[f"{irg}.mpts_s"] = rate(c[f"{irg}.points"], tr.total_s[irg])

    scan = "bounds.sup_scan"
    out[f"{scan}.calls"] = per(tr.calls[scan])
    out[f"{scan}.total_s"] = per(tr.total_s[scan])
    out[f"{scan}.self_s"] = per(tr.self_s[scan])
    out[f"{scan}.samples"] = per(c[f"{scan}.samples"])
    out[f"{scan}.refine_share"] = (c[f"{scan}.refine_s"] / tr.total_s[scan]
                                   if tr.total_s[scan] > 0 else 0.0)

    out["potential.rep_formula_report.total_s"] = per(tr.total_s["potential.rep_formula_report"])
    for fn in ("rep_identity_report", "weighted_grad_integral"):
        out[f"potential.{fn}.total_s"] = per(tr.total_s[f"potential.{fn}"])
    out["potential.rep_identity_report.self_s"] = per(tr.self_s["potential.rep_identity_report"])
    out["potential.weighted_grad_integral.n_evals"] = per(
        c["potential.weighted_grad_integral.n_evals"])
    for fn, work in (("adaptive_radial", "n_evals"), ("sphere_rule", "nodes")):
        out[f"potential.{fn}.calls"] = per(tr.calls[f"potential.{fn}"])
        out[f"potential.{fn}.self_s"] = per(tr.self_s[f"potential.{fn}"])
        out[f"potential.{fn}.{work}"] = per(c[f"potential.{fn}.{work}"])
    out["potential.h_eval.points"] = per(c["potential.h_eval.points"])
    out["potential.h_eval.self_s"] = per(tr.self_s["potential.h_eval"])

    wm = "blowup.weighted_max"
    out[f"{wm}.calls"] = per(tr.calls[wm])
    out[f"{wm}.total_s"] = per(tr.total_s[wm])
    out[f"{wm}.points"] = per(c["blowup.weighted_u.points"])
    out[f"{wm}.mpts_s"] = rate(c["blowup.weighted_u.points"], tr.total_s[wm])
    out["blowup.fit_bubble.calls"] = per(tr.calls["blowup.fit_bubble"])
    out["blowup.fit_bubble.total_s"] = per(tr.total_s["blowup.fit_bubble"])
    out["blowup.detect.total_s"] = per(tr.total_s["blowup.detect"])
    detects = tr.calls["blowup.detect"]
    out["blowup.detect.hit_ratio"] = c["blowup.detect.hits"] / detects if detects else 0.0

    # experiment dispatch: cli.run for verify/blowup, cli.sweep for sweeps
    out["cli.run.self_s"] = per(tr.self_s["cli.run"] + tr.self_s["cli.sweep"])
    out["cli.write_report.total_s"] = per(tr.total_s["cli.write_report"])
    return out

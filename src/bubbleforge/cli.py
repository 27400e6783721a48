"""Command line entry point: verification experiments, sweeps and reports.

Each experiment runs a construction from this package, measures the
relevant quantity (a deviation sup, a quadrature value, a residual) and
compares it against the theoretical bound.  Machine reports are CSV with
the fixed header ``experiment,params,measured,bound,pass,seconds`` (or the
JSON equivalent); floats carry 12 significant digits.  ``EXPERIMENTS``
declares each experiment once; kinds, flags and parameter checks come from it.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .blowup import BlowupInput, detect
from .bounds import ThmBParams, lower_bound_4_4, sup_scan, thmA_conditions, thmB_chain_bound, thmB_condition
from .errors import BubbleforgeError
from .field_core import Bubble, CallableRadialField, SumField, k_function, k_sum_limit
from .glue import ConcentricGlueField, DisjointGlueField, InsertGlueField, insert_annulus, solve_rho_M
from .potential import Kernel, SingularProfile, int_absH_ball, rep_formula_report, rep_identity_report
from .regions import Ball, Box, GridSpec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Invalid experiment configuration (schema or parameter errors)."""


# --- global options --------------------------------------------------------------


def _dimensions(raw: str) -> list[int]:
    """A dimension, or a sweep range of them."""
    dims = parse_range(raw)
    if not all(d.is_integer() for d in dims):
        raise ValueError("dimension must be integral")
    return [int(d) for d in dims]


def _option(default, help: str, convert: Callable[[str], object],
            ok: Callable[[object], bool] = lambda v: True, must: str = ""):
    """A global option: the flag --<name> and the [experiment] key <name>.  A
    flag overrides the file, the file the default.  The cast converts a value
    from either and refuses one that is not ok."""
    def cast(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"must be {must}")
        return value
    return field(default=default, metadata={"cast": cast, "help": help})


@dataclass
class ExperimentConfig:
    kind: str
    n: int = _option(3, "ambient dimension; sweeps accept ranges", _dimensions,
                     lambda dims: dims and min(dims) >= 3, "one or more integers >= 3")
    params: dict = field(default_factory=dict)
    tol: float = _option(1e-6, "pass tolerance", float, lambda t: 0 <= t < math.inf, "finite and >= 0")
    grid: int | None = _option(None, "scan points per axis", int, lambda k: k >= 2, "an integer >= 2")
    out: str | None = _option(None, "machine report path", str)
    format: str = _option("csv", "machine report format, csv or json", str,
                          lambda f: f in ("csv", "json"), "csv or json")
    threads: int = _option(1, "scan threads", int, lambda k: k >= 1, "an integer >= 1")
    seed: int = _option(0, "seed for randomized placements", int, lambda k: k >= 0, "an integer >= 0")

    def grid_spec(self) -> GridSpec:
        kw = {"threads": self.threads}
        if self.grid is not None:
            kw["points_per_axis"] = self.grid
            kw["radial_points"] = max(self.grid, 256)
        return GridSpec(**kw)


_OPTIONS = [f for f in dataclasses.fields(ExperimentConfig) if "cast" in f.metadata]


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    params: str
    measured: float
    bound: float
    passed: bool
    seconds: float = math.nan  # stamped by _timed


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _params_str(p: dict, *hidden: str) -> str:
    """'k=v;...' in key order, without the hidden keys; a vector reads 'x:y:z'."""
    def one(v):
        if isinstance(v, np.ndarray):
            return ":".join(_fmt(x) for x in v)  # keep the CSV free of embedded commas
        return _fmt(v)
    return ";".join(f"{k}={one(v)}" for k, v in sorted(p.items()) if k not in hidden)


def _axis_point(n: int, s: float) -> np.ndarray:
    """The point s * e1 of R^n."""
    x = np.zeros(n)
    x[0] = s
    return x


# --- experiments -------------------------------------------------------------
# A runner takes the config and the parsed parameters p (n plus every
# parameter its table entry declares) and yields its report rows; _timed
# stamps each row with the time spent producing it.


def _thm_a_checks(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    """Theorem A's sufficient conditions and the lower bound (4.4)."""
    n, l1, l2, rho, R = p["n"], p["lambda1"], p["lambda2"], p["rho"], p["R"]
    pstr = _params_str(p)
    c1, c2 = thmA_conditions(l1, l2, rho, R, n)
    yield ReportRow("thm-a/conditions", pstr, float(c1 or c2), 1.0, bool(c1 or c2))
    lb = lower_bound_4_4(l1, l2, rho, R, n)
    target = (n + 2) / n
    yield ReportRow("thm-a/bound", pstr, lb, target, lb >= target - cfg.tol)


def _run_thm_a(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    yield from _thm_a_checks(cfg, p)
    n, target = p["n"], (p["n"] + 2) / p["n"]
    u = ConcentricGlueField(Bubble(p["lambda1"], np.zeros(n), n),
                            Bubble(p["lambda2"], np.zeros(n), n), p["rho"], p["R"])
    rep = sup_scan(u, Ball(np.zeros(n), p["R"]), cfg.grid_spec())
    yield ReportRow("thm-a/scan", _params_str(p), rep.sup_abs_dev, target,
                    rep.sup_abs_dev >= target - cfg.tol)


def _sweep_thm_a(cfg: ExperimentConfig, p: dict) -> list[ReportRow]:
    """The bound row as an implication: it must clear (n+2)/n whenever a
    sufficient condition holds; otherwise the row is vacuous."""
    cond, bound = _thm_a_checks(cfg, p)
    return [dataclasses.replace(bound, passed=not cond.passed or bound.passed)]


def _disjoint_field(b1: Bubble, r1: float, b2: Bubble, a: float) -> DisjointGlueField:
    """Outward transitions when separation allows, inward otherwise."""
    sep = float(np.linalg.norm(b1.center - b2.center))
    if sep >= 2.0 * (r1 + a):
        return DisjointGlueField(b1, r1, b2, a)
    return DisjointGlueField(b1, r1, b2, a, width1=0.2, width2=0.2, inward=True)


def _run_thm_b(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    n, l1, l2, r1, a, sigma = p["n"], p["lambda1"], p["lambda2"], p["r1"], p["a"], p["sigma"]
    pstr = _params_str(p)
    xi1 = _axis_point(n, p["sep"])
    params = ThmBParams(l1, l2, r1, a, xi1, np.zeros(n), sigma)
    target = (n + 2) / (2.0 * n) * sigma**2
    ok = thmB_condition(params)
    yield ReportRow("thm-b/condition", pstr, float(ok), 1.0, bool(ok))
    chain = thmB_chain_bound(params)
    yield ReportRow("thm-b/chain", pstr, chain, target, chain >= target - cfg.tol)
    u = _disjoint_field(Bubble(l1, xi1, n), r1, Bubble(l2, np.zeros(n), n), a)
    pad = 0.6 * max(r1, a)
    lo = np.minimum(xi1 - r1, -a) - pad
    hi = np.maximum(xi1 + r1, np.full(n, a)) + pad
    rep = sup_scan(u, Box(lo, hi), cfg.grid_spec())
    yield ReportRow("thm-b/scan", pstr, rep.sup_abs_dev, target,
                    rep.sup_abs_dev >= target - cfg.tol)


def _example_525_far(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    """K far from both bubbles against its limit; the row a sweep keeps."""
    n, l1, l2 = p["n"], p["lambda1"], p["lambda2"]
    u = SumField(Bubble(l1, _axis_point(n, p["sep"]), n), Bubble(l2, np.zeros(n), n))
    kfar = float(k_function(u, _axis_point(n, 1e6 * max(l1, l2))))
    limit = k_sum_limit(l1, l2, n)
    yield ReportRow("example-525/far-limit", _params_str(p, "lambda"), kfar, limit,
                    abs(kfar - limit) <= max(cfg.tol, 1e-4))


def _run_example_525(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    n, l1, l2 = p["n"], p["lambda1"], p["lambda2"]
    pstr = _params_str(p, "lambda")
    xi1 = _axis_point(n, p["sep"])
    u = SumField(Bubble(l1, xi1, n), Bubble(l2, np.zeros(n), n))
    equal_mass = 2.0 ** (4.0 / (2.0 - n))
    if l1 == l2:
        kmid = float(k_function(u, xi1 / 2.0))
        yield ReportRow("example-525/midplane", pstr, kmid, equal_mass,
                        abs(kmid - equal_mass) <= max(cfg.tol, 1e-6))
    cap = 1.0 - equal_mass
    pad = 2.0 * max(l1, l2)
    lo = np.minimum(np.zeros(n), xi1) - pad
    hi = np.maximum(np.zeros(n), xi1) + pad
    rep = sup_scan(u, Box(lo, hi), cfg.grid_spec())
    yield ReportRow("example-525/sup", pstr, rep.sup_abs_dev, cap,
                    rep.sup_abs_dev <= cap + max(cfg.tol, 1e-6))
    yield from _example_525_far(cfg, p)


def _cos_perturbation(n: int, lam: float, delta: float) -> CallableRadialField:
    amp = delta * lam ** ((2 - n) / 2.0)
    return CallableRadialField(
        n,
        lambda r: amp * np.cos(r / lam),
        lambda r: -amp / lam * np.sin(r / lam),
        lambda r: -amp / lam**2 * np.cos(r / lam),
    )


def measure_insert_quality(n: int, delta: float, alpha: float, lam: float = 1.0,
                           grid_spec: GridSpec | None = None):
    """Glue a bubble into a delta-perturbed copy of itself; measure C.

    Returns (C, sup_dev, host_eps, scale): sup_dev is the deviation sup over
    the transition annulus, host_eps the host's own deviation over the glue
    ball, scale = max(host_eps, dbar^alpha), and C = sup_dev / scale.
    """
    sol = solve_rho_M(delta, alpha, n)
    bubble = Bubble(lam, np.zeros(n), n)
    host = SumField(bubble, _cos_perturbation(n, lam, delta))
    w = InsertGlueField(host, bubble, np.zeros(n), rho_M=sol.rho_m_big)
    gs = grid_spec or GridSpec()
    sup_dev = sup_scan(w, insert_annulus(w), gs).sup_abs_dev
    host_eps = sup_scan(host, Ball(np.zeros(n), lam * sol.rho_m_big), gs).sup_abs_dev
    scale = max(host_eps, sol.delta_bar**alpha)
    return sup_dev / scale, sup_dev, host_eps, scale


def _run_glue_insert(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    n, delta, alpha, lam = p["n"], p["delta"], p["alpha"], p["lambda"]
    if alpha <= 0 or 2 * (1 + alpha) >= n:
        raise ConfigError("glue-insert needs alpha in (0, (n-2)/2); with the "
                          "default alpha=(n-4)/4 that means n >= 5")
    gs = cfg.grid_spec()
    c_hi, *_ = measure_insert_quality(n, delta, alpha, lam, gs)
    c_lo, *_ = measure_insert_quality(n, delta / 10.0, alpha, lam, gs)
    yield ReportRow("glue-insert/C", _params_str(p), c_hi, 2.0 * c_lo,
                    c_hi <= 2.0 * c_lo + cfg.tol)
    yield ReportRow("glue-insert/C", _params_str({**p, "delta": delta / 10.0}), c_lo,
                    2.0 * c_hi, c_lo <= 2.0 * c_hi + cfg.tol)


def _run_lemma_37(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    n, R, xi = p["n"], p["R"], p["xi"]
    pstr = _params_str(p)
    bound = R**2 / (2.0 * (n - 2))
    q = int_absH_ball(Kernel(n), R, xi)
    yield ReportRow("lemma-37/bound", pstr, q.value, bound,
                    q.value <= bound + q.err_est + cfg.tol)
    if float(np.linalg.norm(xi)) == 0.0:
        yield ReportRow("lemma-37/equality", pstr, q.value, bound,
                        abs(q.value - bound) <= max(cfg.tol, 1e-6))


def _run_rep_identity(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    n = p["n"]
    u2 = Bubble(p["lambda2"], np.zeros(n), n)
    u_c = ConcentricGlueField(Bubble(p["lambda1"], np.zeros(n), n), u2, p["rho"], p["R"])
    rep = rep_identity_report(u_c, u2, Ball(np.zeros(n), p["R"]), p["xi"])
    residual = abs(rep["residual"])
    bound = 1e-3 * max(abs(rep["lhs"]), abs(rep["rhs"]))
    yield ReportRow("rep-identity/residual", _params_str(p, "xi"), residual, bound,
                    residual <= bound)


def _power_field(n: int, beta: float) -> CallableRadialField:
    """The field |x|^beta, with f' = beta f / r and f'' = (beta - 1) f' / r."""
    return CallableRadialField(n, lambda r: r**beta, lambda r: beta * r**beta / r,
                               lambda r: (beta - 1.0) * (beta * r**beta / r) / r)


def _run_rep_singular(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    n, nut, R = p["n"], p["nu"], p["R"]
    if not 0 < nut < 1:
        raise ConfigError("rep-singular needs nu in (0, 1)")
    beta = 2.0 - n + nut
    u = _power_field(n, beta)
    prof = SingularProfile(p=np.zeros(n), mu=1.0 - nut, nu=nut,
                           c1=abs(beta * nut) * 1.01, c2=abs(beta) * 1.01, delta=0.3)
    pstr = _params_str(p)
    rep = rep_formula_report(u, prof, Ball(np.zeros(n), R), _axis_point(n, R / 3.0))
    tol = max(cfg.tol, 1e-4)
    yield ReportRow("rep-singular/extrapolated", pstr, abs(rep["extrapolated"]), tol,
                    abs(rep["extrapolated"]) <= tol)
    res = [abs(r) for r in rep["residuals"]]
    decreasing = all(b < a for a, b in zip(res[:-1], res[1:]))
    yield ReportRow("rep-singular/decreasing", pstr, float(decreasing), 1.0, decreasing)
    terms = [abs(v) for v in rep["p_boundary_terms"]]
    eps = rep["eps"]
    ok = True
    worst = 0.0
    for i in range(len(eps) - 1):
        expected = (eps[i] / eps[i + 1]) ** nut
        ratio = terms[i] / terms[i + 1]
        worst = max(worst, ratio / expected, expected / ratio)
        ok &= 0.5 * expected <= ratio <= 2.0 * expected
    yield ReportRow("rep-singular/boundary-scaling", pstr, worst, 2.0, bool(ok))


def _run_blowup(cfg: ExperimentConfig, p: dict) -> Iterator[ReportRow]:
    n, mu, target = p["n"], p["mu"], p["delta-target"]
    pstr = _params_str({**p, "seed": cfg.seed})
    direction = np.random.default_rng(cfg.seed).normal(size=n)
    planted = Bubble(mu, p["center-radius"] * (direction / np.linalg.norm(direction)), n)
    report = detect(BlowupInput(field=planted, epsilon=p["epsilon"], R=p["R"],
                                delta_target=target))
    yield ReportRow("blowup/detected", pstr, float(report is not None), 1.0,
                    report is not None)
    if report is None:
        return
    rel = abs(report.scale_original - mu) / mu
    yield ReportRow("blowup/mu-rel-err", pstr, rel, 1e-6, rel <= 1e-6)
    yield ReportRow("blowup/delta", pstr, report.delta_measured, target,
                    report.delta_measured < target)


# --- the experiment table --------------------------------------------------------

REQUIRED = object()  # default of a parameter that must be given


@dataclass(frozen=True)
class Experiment:
    """One experiment: its parameters, its runner and the rows a sweep keeps.

    params maps each parameter to its default: a value, REQUIRED, or a
    function of the parameters declared before it (and n).  A sweep keeps
    every row of run(cfg, p) for each parameter tuple unless sweep is given.
    """

    params: dict
    run: Callable[[ExperimentConfig, dict], Iterable[ReportRow]]
    sweep: Callable[[ExperimentConfig, dict], Iterable[ReportRow]] | None = None


EXPERIMENTS: dict[str, Experiment] = {
    "thm-a": Experiment({"lambda1": REQUIRED, "lambda2": REQUIRED, "rho": REQUIRED,
                         "R": REQUIRED}, _run_thm_a, _sweep_thm_a),
    "thm-b": Experiment({"lambda1": REQUIRED, "lambda2": REQUIRED, "r1": REQUIRED,
                         "a": REQUIRED, "sep": REQUIRED, "sigma": 1.0}, _run_thm_b),
    "example-525": Experiment({"lambda": 1.0, "lambda1": lambda p: p["lambda"],
                               "lambda2": lambda p: p["lambda"], "sep": REQUIRED},
                              _run_example_525, _example_525_far),
    "glue-insert": Experiment({"delta": 1e-3, "alpha": lambda p: (p["n"] - 4) / 4.0,
                               "lambda": 1.0}, _run_glue_insert),
    "lemma-37": Experiment({"R": REQUIRED, "xi": lambda p: np.zeros(p["n"])}, _run_lemma_37,
                           lambda cfg, p: list(_run_lemma_37(cfg, p))[-1:]),
    "rep-identity": Experiment({"lambda1": REQUIRED, "lambda2": REQUIRED, "rho": REQUIRED,
                                "R": REQUIRED, "xi": lambda p: np.zeros(p["n"])}, _run_rep_identity),
    "rep-singular": Experiment({"nu": 0.5, "R": 1.5}, _run_rep_singular),
    "blowup": Experiment({"mu": 1e-3, "center-radius": 0.3, "epsilon": 0.1, "R": 5.0,
                          "delta-target": 0.01}, _run_blowup),
}

_VECTOR_PARAMS = {"xi"}


def _experiment(cfg: ExperimentConfig, *also: str) -> Experiment:
    """The table entry of cfg.kind; rejects parameters it does not declare."""
    spec = EXPERIMENTS.get(cfg.kind)
    if spec is None:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    unknown = sorted(set(cfg.params) - set(spec.params) - set(also))
    if unknown:
        raise ConfigError(f"{cfg.kind} has no parameter {', '.join(map(repr, unknown))}; "
                          f"it takes {', '.join(spec.params)}")
    return spec


def _vector(key: str, raw, n: int) -> np.ndarray:
    """'x,y,z' or one number x (read as x * e1) as a vector of R^n."""
    vals = [float(t) for t in raw.split(",") if t != ""] if isinstance(raw, str) else [float(raw)]
    if len(vals) == 1:
        vals = vals + [0.0] * (n - 1)
    if len(vals) != n:
        raise ConfigError(f"{key} must have {n} components")
    return np.asarray(vals)


def _params(cfg: ExperimentConfig, spec: Experiment) -> dict:
    """n plus every parameter spec declares, parsed from cfg or defaulted."""
    p = {"n": cfg.n}
    for key, default in spec.params.items():
        if key not in cfg.params:
            if default is REQUIRED:
                raise ConfigError(f"{cfg.kind}: missing required parameter {key!r}")
            p[key] = default(p) if callable(default) else default
            continue
        raw = cfg.params[key]
        try:
            p[key] = _vector(key, raw, cfg.n) if key in _VECTOR_PARAMS else float(raw)
        except ValueError as exc:
            raise ConfigError(f"{cfg.kind}: bad value {raw!r} for {key!r}") from exc
    return p


def _exit_code(rows: list[ReportRow]) -> int:
    if any(not math.isfinite(r.measured) for r in rows):
        return EXIT_NUMERIC
    return EXIT_OK if all(r.passed for r in rows) else EXIT_FAIL


def _timed(runner: Callable[[ExperimentConfig, dict], Iterable[ReportRow]],
           cfg: ExperimentConfig, p: dict) -> list[ReportRow]:
    """The rows of runner(cfg, p), each stamped with the wall time since the
    previous row was handed over: work a later row reuses counts on the
    earlier row, and work behind rows the runner drops on the row it keeps."""
    rows = []
    t0 = time.perf_counter()
    for row in runner(cfg, p):
        t1 = time.perf_counter()
        rows.append(dataclasses.replace(row, seconds=t1 - t0))
        t0 = t1
    return rows


def run(cfg: ExperimentConfig) -> tuple[int, list[ReportRow]]:
    """Execute one experiment; returns (exit_code, rows)."""
    spec = _experiment(cfg)
    rows = _timed(spec.run, cfg, _params(cfg, spec))
    return _exit_code(rows), rows


# --- sweeps -------------------------------------------------------------------


_MAX_SWEEP = 10_000  # values of one range, and parameter tuples of one sweep, at most


def parse_range(raw: str) -> list[float]:
    """Sweep values: 'a,b,c', 'lin:start:stop:count' or 'log:start:stop:count'.

    A count above _MAX_SWEEP raises ValueError before any value is built."""
    raw = str(raw)
    if raw.startswith("lin:") or raw.startswith("log:"):
        kind, a, b, c = raw.split(":")
        count = int(c)
        if count > _MAX_SWEEP:
            raise ValueError(f"{count} values exceed the cap of {_MAX_SWEEP}")
        if count < 1:
            return []
        if kind == "lin":
            return [float(v) for v in np.linspace(float(a), float(b), count)]
        return [float(v) for v in np.geomspace(float(a), float(b), count)]
    return [float(t) for t in raw.split(",") if t != ""]


def sweep(cfg: ExperimentConfig) -> tuple[int, list[ReportRow]]:
    """Cartesian sweep over any range-valued parameters, deterministic order.

    n varies slowest, then the other parameters in sorted key order.  An
    empty range, which would check nothing, and more than _MAX_SWEEP
    parameter tuples raise ConfigError before any experiment runs."""
    spec = _experiment(cfg, "n")
    keep = spec.sweep or spec.run
    axes: dict[str, list] = {"n": [cfg.n]}
    for key in sorted(cfg.params):
        raw = cfg.params[key]
        if key in _VECTOR_PARAMS or not isinstance(raw, str):
            axes[key] = [raw]
            continue
        try:
            axes[key] = parse_range(raw)
        except ValueError as exc:
            raise ConfigError(f"{cfg.kind}: bad range {raw!r} for {key!r}: {exc}") from exc
        if not axes[key]:
            raise ConfigError(f"{cfg.kind}: range {raw!r} for {key!r} is empty")
    tuples = math.prod(map(len, axes.values()))
    if tuples > _MAX_SWEEP:
        raise ConfigError(f"{cfg.kind}: {tuples} parameter tuples exceed the cap of {_MAX_SWEEP}")
    rows: list[ReportRow] = []
    for combo in itertools.product(*axes.values()):
        params = dict(zip(axes, combo))
        sub = dataclasses.replace(cfg, n=int(params.pop("n")), params=params)
        rows.extend(_timed(keep, sub, _params(sub, spec)))
    return _exit_code(rows), rows


# --- report emission ----------------------------------------------------------

CSV_HEADER = ["experiment", "params", "measured", "bound", "pass", "seconds"]


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.experiment, r.params, _fmt(r.measured), _fmt(r.bound),
                         "true" if r.passed else "false", f"{r.seconds:.3f}"])
    return buf.getvalue()


def rows_to_json(rows: list[ReportRow]) -> str:
    payload = [{"experiment": r.experiment, "params": r.params,
                "measured": float(_fmt(r.measured)), "bound": float(_fmt(r.bound)),
                "pass": bool(r.passed), "seconds": round(r.seconds, 3)} for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def write_report(rows: list[ReportRow], out: str | None, fmt: str) -> str:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    path = out or f"bubbleforge_report.{fmt}"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        why = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot write report {path!r}: {why}") from exc
    return path


def _to_stdout(emit: Callable[[], None]) -> None:
    """Run emit, which prints to stdout, and flush it.

    A stdout whose reader has gone (a pipe into head) raises BrokenPipeError;
    it is then pointed at os.devnull, as Python's signal module docs advise,
    so later output and the flush at exit go nowhere and the report and the
    exit code are the checks' own.
    """
    try:
        emit()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def print_summary(rows: list[ReportRow], stream=None) -> None:
    stream = stream or sys.stdout
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.experiment}: measured={_fmt(r.measured)} "
              f"bound={_fmt(r.bound)} ({r.seconds:.3f}s)", file=stream)


# --- argument handling ---------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file ([experiment] and [params] sections)")
    for opt in _OPTIONS:
        sub.add_argument(f"--{opt.name}", help=opt.metadata["help"] + (
            "" if opt.default is None else f" (default {opt.default})"))
    # one hidden flag per parameter that any experiment declares
    for name in dict.fromkeys(k for spec in EXPERIMENTS.values() for k in spec.params):
        sub.add_argument(f"--{name}", dest=f"param_{name}", metavar="V",
                         help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubbleforge",
        description="Verify curvature-deviation bounds and identities for "
                    "glued spherical solutions.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, text in (("verify", "run one verification experiment"),
                          ("sweep", "Cartesian parameter sweep")):
        sub = subs.add_parser(command, help=text)
        sub.add_argument("kind", choices=list(EXPERIMENTS))
        _add_common(sub)
    _add_common(subs.add_parser("blowup", help="shorthand for 'verify blowup'"))
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep parameter case (R vs r)
    try:
        if args.config and not ini.read(args.config):
            raise ConfigError(f"cannot read config file {args.config!r}")
        file_exp = dict(ini["experiment"]) if ini.has_section("experiment") else {}
        params = dict(ini["params"]) if ini.has_section("params") else {}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {args.config!r}: {exc}") from exc
    keys = ["kind", *(opt.name for opt in _OPTIONS)]
    unknown = sorted(set(file_exp) - set(keys))
    if unknown:
        raise ConfigError(f"[experiment] has no key {', '.join(map(repr, unknown))}; "
                          f"it takes {', '.join(keys)}")
    # the command names the kind ('blowup' its own), and overrides the file's
    kind = getattr(args, "kind", "blowup")
    for name in (kind, file_exp.get("kind", kind)):
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment kind {name!r}")
    if "n" in params:
        raise ConfigError("[params] has no key 'n'; give n in [experiment] or as --n")
    params.update({dest[len("param_"):]: val for dest, val in vars(args).items()
                   if dest.startswith("param_") and val is not None})
    given = {}
    for opt in _OPTIONS:
        raw = getattr(args, opt.name)
        if raw is None:
            raw = file_exp.get(opt.name)
        if raw is not None:
            try:
                given[opt.name] = opt.metadata["cast"](raw)
            except ValueError as exc:
                raise ConfigError(f"{opt.name}={raw}: {exc}") from exc
    dims = given.pop("n", [ExperimentConfig.n])  # n's cast gives each dimension of a range
    if len(dims) > 1:
        params["n"] = ",".join(map(str, dims))
        if args.command != "sweep":
            raise ConfigError(f"n={params['n']}: a range of dimensions needs 'sweep'")
    return ExperimentConfig(kind, dims[0], params, **given)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code, rows = (sweep if args.command == "sweep" else run)(cfg)
        _to_stdout(lambda: print_summary(rows))
        path = write_report(rows, cfg.out, cfg.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BubbleforgeError, ValueError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _to_stdout(lambda: print(f"report: {path}"))
    return code


if __name__ == "__main__":
    sys.exit(main())

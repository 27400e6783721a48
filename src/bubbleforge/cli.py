"""Command line entry point: verification experiments, sweeps and reports.

Each experiment runs a construction from this package, measures the
relevant quantity (a deviation sup, a quadrature value, a residual) and
compares it against the theoretical bound.  Machine reports are CSV with
the fixed header ``experiment,params,measured,bound,pass,seconds`` (or the
JSON equivalent); floats carry 12 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .blowup import BlowupInput, detect
from .bounds import ThmBParams, lower_bound_4_4, sup_scan, thmA_conditions, thmB_chain_bound, thmB_condition
from .errors import BubbleforgeError
from .field_core import Bubble, CallableRadialField, k_function, k_sum_limit, sum_field
from .glue import GlueConfig, glue_bubble_into, glue_concentric, glue_disjoint, insert_annulus, solve_rho_M
from .potential import Kernel, SingularProfile, int_absH_ball, rep_formula_report, rep_identity_report
from .regions import Ball, Box, GridSpec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

KINDS = ("thm-a", "thm-b", "example-525", "glue-insert", "lemma-37",
         "rep-identity", "rep-singular", "blowup")


class ConfigError(Exception):
    """Invalid experiment configuration (schema or parameter errors)."""


@dataclass
class ExperimentConfig:
    kind: str
    n: int = 3
    params: dict = field(default_factory=dict)
    tol: float = 1e-6
    grid: int | None = None
    out: str | None = None
    fmt: str = "csv"
    threads: int = 1
    seed: int = 0

    def grid_spec(self) -> GridSpec:
        kw = {"threads": self.threads}
        if self.grid is not None:
            kw["points_per_axis"] = self.grid
            kw["radial_points"] = max(self.grid, 256)
        return GridSpec(**kw)


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    params: str
    measured: float
    bound: float
    passed: bool
    seconds: float


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _params_str(d: dict) -> str:
    def one(v):
        if isinstance(v, (int, float)):
            return _fmt(v)
        return str(v).replace(",", ":")  # keep the CSV free of embedded commas
    return ";".join(f"{k}={one(v)}" for k, v in sorted(d.items()))


def _getf(cfg: ExperimentConfig, key: str, default=None) -> float:
    if key in cfg.params:
        return float(cfg.params[key])
    if default is None:
        raise ConfigError(f"{cfg.kind}: missing required parameter {key!r}")
    return float(default)


def _get_vec(cfg: ExperimentConfig, key: str) -> np.ndarray:
    raw = cfg.params.get(key)
    if raw is None:
        return np.zeros(cfg.n)
    if isinstance(raw, str):
        vals = [float(t) for t in raw.split(",") if t != ""]
    else:
        vals = [float(raw)]
    if len(vals) == 1:
        vals = vals + [0.0] * (cfg.n - 1)
    if len(vals) != cfg.n:
        raise ConfigError(f"{key} must have {cfg.n} components")
    return np.asarray(vals)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


# --- experiments -------------------------------------------------------------


def _run_thm_a(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    l1, l2 = _getf(cfg, "lambda1"), _getf(cfg, "lambda2")
    rho, R = _getf(cfg, "rho"), _getf(cfg, "R")
    pstr = _params_str({"n": n, "lambda1": l1, "lambda2": l2, "rho": rho, "R": R})
    target = (n + 2) / n
    rows = []
    with _Timer() as t:
        c1, c2 = thmA_conditions(l1, l2, rho, R, n)
    rows.append(ReportRow("thm-a/conditions", pstr, float(c1 or c2), 1.0, bool(c1 or c2), t.seconds))
    with _Timer() as t:
        lb = lower_bound_4_4(l1, l2, rho, R, n)
    rows.append(ReportRow("thm-a/bound", pstr, lb, target, lb >= target - cfg.tol, t.seconds))
    with _Timer() as t:
        u = glue_concentric(GlueConfig.concentric(Bubble(l1, np.zeros(n), n),
                                                  Bubble(l2, np.zeros(n), n), rho, R))
        rep = sup_scan(u, Ball(np.zeros(n), R), cfg.grid_spec())
    rows.append(ReportRow("thm-a/scan", pstr, rep.sup_abs_dev, target,
                          rep.sup_abs_dev >= target - cfg.tol, t.seconds))
    return rows


def _disjoint_config(b1: Bubble, r1: float, b2: Bubble, a: float) -> GlueConfig:
    """Outward transitions when separation allows, inward otherwise."""
    sep = float(np.linalg.norm(b1.center - b2.center))
    if sep >= 2.0 * (r1 + a):
        return GlueConfig.disjoint(b1, r1, b2, a)
    return GlueConfig.disjoint(b1, r1, b2, a, width1=0.2, width2=0.2, inward=True)


def _run_thm_b(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    l1, l2 = _getf(cfg, "lambda1"), _getf(cfg, "lambda2")
    r1, a = _getf(cfg, "r1"), _getf(cfg, "a")
    sep = _getf(cfg, "sep")
    sigma = _getf(cfg, "sigma", 1.0)
    pstr = _params_str({"n": n, "lambda1": l1, "lambda2": l2, "r1": r1, "a": a,
                        "sep": sep, "sigma": sigma})
    xi1 = np.zeros(n)
    xi1[0] = sep
    params = ThmBParams(l1, l2, r1, a, xi1, np.zeros(n), sigma)
    target = (n + 2) / (2.0 * n) * sigma**2
    rows = []
    with _Timer() as t:
        ok = thmB_condition(params, n)
    rows.append(ReportRow("thm-b/condition", pstr, float(ok), 1.0, bool(ok), t.seconds))
    with _Timer() as t:
        chain = thmB_chain_bound(params, n)
    rows.append(ReportRow("thm-b/chain", pstr, chain, target,
                          chain >= target - cfg.tol, t.seconds))
    with _Timer() as t:
        u = glue_disjoint(_disjoint_config(Bubble(l1, xi1, n), r1,
                                           Bubble(l2, np.zeros(n), n), a))
        pad = 0.6 * max(r1, a)
        lo = np.minimum(xi1 - r1, -a) - pad
        hi = np.maximum(xi1 + r1, np.full(n, a)) + pad
        rep = sup_scan(u, Box(lo, hi), cfg.grid_spec())
    rows.append(ReportRow("thm-b/scan", pstr, rep.sup_abs_dev, target,
                          rep.sup_abs_dev >= target - cfg.tol, t.seconds))
    return rows


def _run_example_525(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    lam = cfg.params.get("lambda")
    l1 = _getf(cfg, "lambda1", lam if lam is not None else 1.0)
    l2 = _getf(cfg, "lambda2", lam if lam is not None else 1.0)
    sep = _getf(cfg, "sep")
    pstr = _params_str({"n": n, "lambda1": l1, "lambda2": l2, "sep": sep})
    xi1 = np.zeros(n)
    xi1[0] = sep
    u = sum_field(Bubble(l1, xi1, n), Bubble(l2, np.zeros(n), n))
    rows = []
    equal_mass = 2.0 ** (4.0 / (2.0 - n))
    if l1 == l2:
        mid = xi1 / 2.0
        with _Timer() as t:
            kmid = float(k_function(u, mid))
        rows.append(ReportRow("example-525/midplane", pstr, kmid, equal_mass,
                              abs(kmid - equal_mass) <= max(cfg.tol, 1e-6), t.seconds))
    cap = 1.0 - equal_mass
    with _Timer() as t:
        pad = 2.0 * max(l1, l2)
        lo = np.minimum(np.zeros(n), xi1) - pad
        hi = np.maximum(np.zeros(n), xi1) + pad
        rep = sup_scan(u, Box(lo, hi), cfg.grid_spec())
    rows.append(ReportRow("example-525/sup", pstr, rep.sup_abs_dev, cap,
                          rep.sup_abs_dev <= cap + max(cfg.tol, 1e-6), t.seconds))
    with _Timer() as t:
        far = np.zeros(n)
        far[0] = 1e6 * max(l1, l2)
        kfar = float(k_function(u, far))
        limit = k_sum_limit(l1, l2, n)
    rows.append(ReportRow("example-525/far-limit", pstr, kfar, limit,
                          abs(kfar - limit) <= max(cfg.tol, 1e-4), t.seconds))
    return rows


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
    host = sum_field(bubble, _cos_perturbation(n, lam, delta))
    cfg = GlueConfig.bubble_insert(host, bubble, np.zeros(n), rho_M=sol.rho_m_big)
    w = glue_bubble_into(cfg)
    gs = grid_spec or GridSpec()
    sup_dev = sup_scan(w, insert_annulus(w), gs).sup_abs_dev
    host_eps = sup_scan(host, Ball(np.zeros(n), lam * sol.rho_m_big), gs).sup_abs_dev
    scale = max(host_eps, sol.delta_bar**alpha)
    return sup_dev / scale, sup_dev, host_eps, scale


def _run_glue_insert(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    delta = _getf(cfg, "delta", 1e-3)
    alpha = _getf(cfg, "alpha", (n - 4) / 4.0)
    lam = _getf(cfg, "lambda", 1.0)
    if alpha <= 0 or 2 * (1 + alpha) >= n:
        raise ConfigError("glue-insert needs alpha in (0, (n-2)/2); with the "
                          "default alpha=(n-4)/4 that means n >= 5")
    pstr = _params_str({"n": n, "delta": delta, "alpha": alpha, "lambda": lam})
    gs = cfg.grid_spec()
    rows = []
    with _Timer() as t:
        c_hi, *_ = measure_insert_quality(n, delta, alpha, lam, gs)
    with _Timer() as t2:
        c_lo, *_ = measure_insert_quality(n, delta / 10.0, alpha, lam, gs)
    rows.append(ReportRow("glue-insert/C", pstr, c_hi, 2.0 * c_lo,
                          c_hi <= 2.0 * c_lo + cfg.tol, t.seconds))
    pstr2 = _params_str({"n": n, "delta": delta / 10.0, "alpha": alpha, "lambda": lam})
    rows.append(ReportRow("glue-insert/C", pstr2, c_lo, 2.0 * c_hi,
                          c_lo <= 2.0 * c_hi + cfg.tol, t2.seconds))
    return rows


def _run_lemma_37(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    R = _getf(cfg, "R")
    xi = _get_vec(cfg, "xi")
    pstr = _params_str({"n": n, "R": R, "xi": ",".join(_fmt(v) for v in xi)})
    bound = R**2 / (2.0 * (n - 2))
    rows = []
    with _Timer() as t:
        q = int_absH_ball(Kernel(n), R, xi)
    rows.append(ReportRow("lemma-37/bound", pstr, q.value, bound,
                          q.value <= bound + q.err_est + cfg.tol, t.seconds))
    if float(np.linalg.norm(xi)) == 0.0:
        with _Timer() as t:
            ok = abs(q.value - bound) <= max(cfg.tol, 1e-6)
        rows.append(ReportRow("lemma-37/equality", pstr, q.value, bound, ok, t.seconds))
    return rows


def _run_rep_identity(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    l1, l2 = _getf(cfg, "lambda1"), _getf(cfg, "lambda2")
    rho, R = _getf(cfg, "rho"), _getf(cfg, "R")
    xi = _get_vec(cfg, "xi")
    pstr = _params_str({"n": n, "lambda1": l1, "lambda2": l2, "rho": rho, "R": R})
    u2 = Bubble(l2, np.zeros(n), n)
    u_c = glue_concentric(GlueConfig.concentric(Bubble(l1, np.zeros(n), n), u2, rho, R))
    with _Timer() as t:
        rep = rep_identity_report(u_c, u2, Ball(np.zeros(n), R), xi)
    scale = max(abs(rep["lhs"]), abs(rep["rhs"]))
    bound = 1e-3 * scale
    return [ReportRow("rep-identity/residual", pstr, abs(rep["residual"]), bound,
                      abs(rep["residual"]) <= bound, t.seconds)]


def _run_rep_singular(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    nut = _getf(cfg, "nu", 0.5)
    R = _getf(cfg, "R", 1.5)
    if not 0 < nut < 1:
        raise ConfigError("rep-singular needs nu in (0, 1)")
    beta = 2.0 - n + nut
    u = CallableRadialField(
        n,
        lambda r: r**beta,
        lambda r: beta * r ** (beta - 1),
        lambda r: beta * (beta - 1) * r ** (beta - 2),
    )
    prof = SingularProfile(p=np.zeros(n), mu=1.0 - nut, nu=nut,
                           c1=abs(beta * nut) * 1.01, c2=abs(beta) * 1.01, delta=0.3)
    xi = np.zeros(n)
    xi[0] = R / 3.0
    pstr = _params_str({"n": n, "nu": nut, "R": R})
    with _Timer() as t:
        rep = rep_formula_report(u, prof, Ball(np.zeros(n), R), xi)
    rows = [ReportRow("rep-singular/extrapolated", pstr, abs(rep["extrapolated"]),
                      max(cfg.tol, 1e-4),
                      abs(rep["extrapolated"]) <= max(cfg.tol, 1e-4), t.seconds)]
    res = [abs(r) for r in rep["residuals"]]
    decreasing = all(b < a for a, b in zip(res[:-1], res[1:]))
    rows.append(ReportRow("rep-singular/decreasing", pstr, float(decreasing), 1.0,
                          decreasing, 0.0))
    terms = [abs(v) for v in rep["p_boundary_terms"]]
    eps = rep["eps"]
    ok = True
    worst = 0.0
    for i in range(len(eps) - 1):
        expected = (eps[i] / eps[i + 1]) ** nut
        ratio = terms[i] / terms[i + 1]
        worst = max(worst, ratio / expected, expected / ratio)
        ok &= 0.5 * expected <= ratio <= 2.0 * expected
    rows.append(ReportRow("rep-singular/boundary-scaling", pstr, worst, 2.0,
                          bool(ok), 0.0))
    return rows


def _run_blowup(cfg: ExperimentConfig) -> list[ReportRow]:
    n = cfg.n
    mu = _getf(cfg, "mu", 1e-3)
    cr = _getf(cfg, "center-radius", 0.3)
    eps = _getf(cfg, "epsilon", 0.1)
    R = _getf(cfg, "R", 5.0)
    target = _getf(cfg, "delta-target", 0.01)
    pstr = _params_str({"n": n, "mu": mu, "center-radius": cr, "epsilon": eps,
                        "R": R, "delta-target": target, "seed": cfg.seed})
    rng = np.random.default_rng(cfg.seed)
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    center = cr * direction
    planted = Bubble(mu, center, n)
    with _Timer() as t:
        report = detect(BlowupInput(field=planted, epsilon=eps, R=R,
                                    delta_target=target))
    if report is None:
        return [ReportRow("blowup/detected", pstr, 0.0, 1.0, False, t.seconds)]
    rel = abs(report.scale_original - mu) / mu
    rows = [ReportRow("blowup/detected", pstr, 1.0, 1.0, True, t.seconds),
            ReportRow("blowup/mu-rel-err", pstr, rel, 1e-6, rel <= 1e-6, 0.0),
            ReportRow("blowup/delta", pstr, report.delta_measured, target,
                      report.delta_measured < target, 0.0)]
    return rows


_RUNNERS = {
    "thm-a": _run_thm_a,
    "thm-b": _run_thm_b,
    "example-525": _run_example_525,
    "glue-insert": _run_glue_insert,
    "lemma-37": _run_lemma_37,
    "rep-identity": _run_rep_identity,
    "rep-singular": _run_rep_singular,
    "blowup": _run_blowup,
}


def run(cfg: ExperimentConfig) -> tuple[int, list[ReportRow]]:
    """Execute one experiment; returns (exit_code, rows)."""
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    rows = _RUNNERS[cfg.kind](cfg)
    if any(not math.isfinite(r.measured) for r in rows):
        return EXIT_NUMERIC, rows
    return (EXIT_OK if all(r.passed for r in rows) else EXIT_FAIL), rows


# --- sweeps -------------------------------------------------------------------


def parse_range(raw: str) -> list[float]:
    """Sweep values: 'a,b,c', 'lin:start:stop:count' or 'log:start:stop:count'."""
    raw = str(raw)
    if raw.startswith("lin:") or raw.startswith("log:"):
        kind, a, b, c = raw.split(":")
        count = int(c)
        if count < 1:
            return []
        if kind == "lin":
            return [float(v) for v in np.linspace(float(a), float(b), count)]
        return [float(v) for v in np.geomspace(float(a), float(b), count)]
    return [float(t) for t in raw.split(",") if t != ""]


def _headline(cfg: ExperimentConfig) -> list[ReportRow]:
    """One row per parameter tuple for a sweep."""
    if cfg.kind == "thm-a":
        n = cfg.n
        l1, l2 = _getf(cfg, "lambda1"), _getf(cfg, "lambda2")
        rho, R = _getf(cfg, "rho"), _getf(cfg, "R")
        pstr = _params_str({"n": n, "lambda1": l1, "lambda2": l2, "rho": rho, "R": R})
        with _Timer() as t:
            c1, c2 = thmA_conditions(l1, l2, rho, R, n)
            lb = lower_bound_4_4(l1, l2, rho, R, n)
        target = (n + 2) / n
        # implication check: the bound must clear the target when a
        # sufficient condition holds; otherwise the row is vacuous
        passed = (not (c1 or c2)) or lb >= target - cfg.tol
        return [ReportRow("thm-a/bound", pstr, lb, target, passed, t.seconds)]
    if cfg.kind == "lemma-37":
        rows = _run_lemma_37(cfg)
        return [rows[-1]]
    if cfg.kind == "example-525":
        return _run_example_525(cfg)[-1:]
    return _RUNNERS[cfg.kind](cfg)


_VECTOR_PARAMS = {"xi"}


def sweep(cfg: ExperimentConfig) -> tuple[int, list[ReportRow]]:
    """Cartesian sweep over any range-valued parameters, deterministic order."""
    if cfg.kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    ranged: dict[str, list[float]] = {}
    scalars: dict[str, object] = {}
    for key in sorted(cfg.params):
        raw = cfg.params[key]
        if key in _VECTOR_PARAMS:
            scalars[key] = raw
            continue
        vals = parse_range(raw) if isinstance(raw, str) else [float(raw)]
        if len(vals) == 0:
            return EXIT_OK, []
        if len(vals) == 1:
            scalars[key] = vals[0]
        else:
            ranged[key] = vals
    ns = [int(v) for v in ranged.pop("n")] if "n" in ranged else \
        [int(scalars.pop("n", cfg.n))]
    keys = list(ranged)
    combos = list(itertools.product(*[ranged[k] for k in keys])) if keys else [()]
    rows: list[ReportRow] = []
    for nval in ns:
        for combo in combos:
            params = dict(scalars)
            params.update(dict(zip(keys, combo)))
            sub = ExperimentConfig(kind=cfg.kind, n=nval, params=params,
                                   tol=cfg.tol, grid=cfg.grid, threads=cfg.threads,
                                   seed=cfg.seed)
            rows.extend(_headline(sub))
    if not rows:
        return EXIT_OK, rows
    if any(not math.isfinite(r.measured) for r in rows):
        return EXIT_NUMERIC, rows
    return (EXIT_OK if all(r.passed for r in rows) else EXIT_FAIL), rows


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def print_summary(rows: list[ReportRow], stream=None) -> None:
    stream = stream or sys.stdout
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.experiment}: measured={_fmt(r.measured)} "
              f"bound={_fmt(r.bound)} ({r.seconds:.3f}s)", file=stream)


# --- argument handling ---------------------------------------------------------

_PARAM_FLAGS = [
    ("--lambda1", "lambda1"), ("--lambda2", "lambda2"), ("--rho", "rho"),
    ("--R", "R"), ("--r1", "r1"), ("--a", "a"), ("--sep", "sep"),
    ("--sigma", "sigma"), ("--lambda", "lambda"), ("--delta", "delta"),
    ("--alpha", "alpha"), ("--mu", "mu"), ("--xi", "xi"),
    ("--center-radius", "center-radius"), ("--epsilon", "epsilon"),
    ("--delta-target", "delta-target"), ("--nu", "nu"),
]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file ([experiment] and [params] sections)")
    sub.add_argument("--n", help="ambient dimension (default 3); sweeps accept ranges")
    sub.add_argument("--tol", type=float, help="pass tolerance (default 1e-6)")
    sub.add_argument("--grid", type=int, help="scan points per axis")
    sub.add_argument("--out", help="machine report path")
    sub.add_argument("--format", choices=("csv", "json"), dest="fmt",
                     help="machine report format (default csv)")
    sub.add_argument("--threads", type=int,
                     help="scan threads (default $BUBBLEFORGE_THREADS or 1)")
    sub.add_argument("--seed", type=int, help="seed for randomized placements")
    for flag, dest in _PARAM_FLAGS:
        sub.add_argument(flag, dest=f"param_{dest.replace('-', '_')}",
                         metavar="V", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubbleforge",
        description="Verify curvature-deviation bounds and identities for "
                    "glued spherical solutions.")
    subs = parser.add_subparsers(dest="command", required=True)
    v = subs.add_parser("verify", help="run one verification experiment")
    v.add_argument("kind", choices=KINDS)
    _add_common(v)
    s = subs.add_parser("sweep", help="Cartesian parameter sweep")
    s.add_argument("kind", choices=KINDS)
    _add_common(s)
    b = subs.add_parser("blowup", help="shorthand for 'verify blowup'")
    _add_common(b)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kind = getattr(args, "kind", "blowup")
    file_exp: dict = {}
    file_params: dict = {}
    if args.config:
        ini = configparser.ConfigParser()
        ini.optionxform = str  # keep parameter case (R vs r)
        read = ini.read(args.config)
        if not read:
            raise ConfigError(f"cannot read config file {args.config!r}")
        if ini.has_section("experiment"):
            file_exp = dict(ini["experiment"])
        if ini.has_section("params"):
            file_params = dict(ini["params"])
    kind = file_exp.get("kind", kind)
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")

    def pick(flag, cast, default):
        cli_val = getattr(args, flag, None)
        if cli_val is not None:
            return cast(cli_val)
        if flag in file_exp:
            return cast(file_exp[flag])
        return default

    params = dict(file_params)
    for _, dest in _PARAM_FLAGS:
        val = getattr(args, f"param_{dest.replace('-', '_')}", None)
        if val is not None:
            params[dest] = val
    env_threads = os.environ.get("BUBBLEFORGE_THREADS")
    threads_default = int(env_threads) if env_threads else 1
    try:
        raw_n = str(pick("n", str, "3"))
        n_vals = parse_range(raw_n)
        if not n_vals or any(int(v) != v for v in n_vals):
            raise ConfigError(f"dimension must be integral, got {raw_n!r}")
        if len(n_vals) > 1:
            params["n"] = raw_n
        cfg = ExperimentConfig(
            kind=kind,
            n=int(n_vals[0]),
            params=params,
            tol=pick("tol", float, 1e-6),
            grid=pick("grid", int, None),
            out=pick("out", str, None),
            fmt=pick("fmt", str, "csv"),
            threads=pick("threads", int, threads_default),
            seed=pick("seed", int, 0),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.n < 3:
        raise ConfigError("dimension must be >= 3")
    if cfg.grid is not None and cfg.grid < 2:
        raise ConfigError("grid must be >= 2 points per axis")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {cfg.fmt!r}")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "sweep":
            code, rows = sweep(cfg)
        else:
            code, rows = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BubbleforgeError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print_summary(rows)
    path = write_report(rows, cfg.out, cfg.fmt)
    print(f"report: {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())

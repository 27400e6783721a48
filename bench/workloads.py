"""The benchmark's three workloads: seeded inputs, operations and output checks.

Every operation goes through the public API of ``bubbleforge`` or through
``bubbleforge.cli.main``.  Library functions are looked up on the package
at call time, so the tracer in ``layertrace.py`` sees every call.

An operation is a zero-argument ``run`` callable that does the work being
timed, and a ``check`` callable that turns its raw result into named
measured values.  ``check`` raises ``OpFailed`` when an output is wrong:
a non-zero exit code, a FAIL row, or a violated oracle.  The oracles hold
for every seed; values of the default seed are also compared with
``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bubbleforge as bf
import bubbleforge.cli as bf_cli

DEFAULT_SEED = 0

# ROADMAP tolerances: analytic identities 1e-8 relative, quadrature 1e-6 relative.
ANALYTIC = 1e-8
QUADRATURE = 1e-6


class OpFailed(Exception):
    """An operation returned a wrong output."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    seeded: bool  # inputs depend on the seed
    # relative tolerance against the reference, per measured value; None for
    # a residual or error estimate that its own PASS row already bounds, so
    # moving it inside that bound is no regression
    tol: Callable[[str], float | None]


def close(a: float, b: float, rel: float) -> bool:
    """Relative agreement of two values."""
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- command-line operations ---------------------------------------------------

# Report rows whose measured value is a residual or an error; their PASS
# bound is the check, not the reference value.
_RESIDUAL_ROWS = ("rep-identity/residual", "rep-singular/extrapolated",
                  "blowup/mu-rel-err", "blowup/delta")
_QUADRATURE_ROWS = ("lemma-37/", "rep-singular/")


def _cli_tol(key: str) -> float | None:
    experiment = key.split(" ", 1)[0]
    if experiment in _RESIDUAL_ROWS:
        return None
    return QUADRATURE if experiment.startswith(_QUADRATURE_ROWS) else ANALYTIC


def cli_op(argv: list[str], out_dir: str, seeded: bool = False, check_rows=None) -> Op:
    report = os.path.join(out_dir, "report.csv")
    full = [*argv, "--out", report]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bf_cli.main(full)
        return code, out.getvalue(), err.getvalue()

    def check(raw) -> dict:
        code, out, err = raw
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.strip()}")
        if "[FAIL]" in out:
            raise OpFailed("report printed a FAIL row")
        with open(report, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if not rows or any(r["pass"] != "true" for r in rows):
            raise OpFailed("report has no rows or a row that did not pass")
        if check_rows is not None:
            check_rows(rows)
        return {f"{r['experiment']} {r['params']}": float(r["measured"]) for r in rows}

    return Op("cli " + " ".join(argv), run, check, seeded, _cli_tol)


# --- scan ------------------------------------------------------------------------

_THM_B = ["--n", "3", "--lambda1", "0.00238", "--lambda2", "1", "--r1", "1",
          "--a", "1", "--sep", "2"]


def _box(half: float, n: int = 3):
    return bf.Box(np.full(n, -half), np.full(n, half))


def _scan_op(name: str, make_field, region, oracle=None, seeded=False,
             tol: float | None = ANALYTIC) -> Op:
    def run():
        return bf.sup_scan(make_field(), region)

    def check(rep) -> dict:
        if not (math.isfinite(rep.sup_abs_dev) and rep.n_samples > 0):
            raise OpFailed(f"{name}: non-finite sup or empty grid")
        if oracle is not None:
            oracle(rep)
        return {"sup": rep.sup_abs_dev}

    return Op(name, run, check, seeded, lambda key: tol)


def _kelvin_inputs(rng):
    """Two-bubble sum and a seeded inversion sphere.

    The centre is drawn outside the scanned box, so no grid point can meet
    it, and the radius spreads the image over the box.
    """
    b1 = bf.Bubble(0.5, [1.0, 0.0, 0.0], 3)
    b2 = bf.Bubble(1.0, [-1.0, 0.5, 0.0], 3)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    inv = bf.Inversion(float(rng.uniform(3.5, 4.5)) * direction, float(rng.uniform(2.0, 3.0)))
    return b1, b2, inv


def scan_ops(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    b1, b2, inv = _kelvin_inputs(rng)
    box = _box(3.0)
    closed = {}

    def kelvin_sum():
        return bf.kelvin_field(bf.sum_field(b1, b2), inv)

    def images_sum():
        return bf.sum_field(bf.kelvin_bubble(b1, inv), bf.kelvin_bubble(b2, inv))

    def remember(rep):
        closed["sup"] = rep.sup_abs_dev

    def against_closed_form(rep):
        # K composes with the inversion, so the Kelvin image of the sum and
        # the sum of the closed-form bubble images scan alike
        if not close(rep.sup_abs_dev, closed["sup"], ANALYTIC):
            raise OpFailed(f"Kelvin scan {rep.sup_abs_dev!r} != closed form {closed['sup']!r}")

    def exact_bubble(rep):
        if rep.sup_abs_dev > 1e-12:
            raise OpFailed(f"exact bubble has sup |K - 1| = {rep.sup_abs_dev!r}")

    def concentric():
        return bf.glue_concentric(bf.GlueConfig.concentric(
            bf.Bubble(0.0099, np.zeros(3), 3), bf.Bubble(1.0, np.zeros(3), 3), 1.0, 10.0))

    def insert():
        sol = bf.solve_rho_M(1e-3, 0.25, 3)
        amp = 1e-3
        host = bf.sum_field(bf.Bubble(1.0, np.zeros(3), 3), bf.CallableRadialField(
            3, lambda r: amp * np.cos(r), lambda r: -amp * np.sin(r), lambda r: -amp * np.cos(r)))
        cfg = bf.GlueConfig.bubble_insert(host, bf.Bubble(1.0, np.zeros(3), 3), np.zeros(3),
                                          rho_M=sol.rho_m_big)
        return bf.glue_bubble_into(cfg)

    return [
        cli_op(["verify", "thm-a", "--n", "3", "--lambda1", "0.0099", "--lambda2", "1",
                "--rho", "1", "--R", "10"], out_dir),
        cli_op(["verify", "thm-b", *_THM_B, "--threads", "1"], out_dir),
        cli_op(["verify", "thm-b", *_THM_B, "--threads", "2"], out_dir),
        cli_op(["verify", "example-525", "--n", "3", "--lambda", "1", "--sep", "4"], out_dir),
        cli_op(["verify", "example-525", "--n", "4", "--lambda", "1", "--sep", "4"], out_dir),
        cli_op(["verify", "glue-insert", "--n", "5", "--delta", "1e-3"], out_dir),
        _scan_op("api sup_scan concentric", concentric, _box(10.0)),
        _scan_op("api sup_scan insert", insert, _box(1.2)),
        _scan_op("api sup_scan images", images_sum, box, remember, seeded=True),
        _scan_op("api sup_scan kelvin", kelvin_sum, box, against_closed_form, seeded=True),
        # sup |K - 1| of an exact bubble is roundoff, bounded by its oracle
        _scan_op("api sup_scan bubble", lambda: bf.kelvin_bubble(b2, inv), box,
                 exact_bubble, seeded=True, tol=None),
    ]


# --- quadrature ------------------------------------------------------------------


def _in_ball(rng, center, radius: float) -> np.ndarray:
    """A point drawn uniformly from the ball."""
    d = rng.normal(size=center.shape[0])
    d /= np.linalg.norm(d)
    return center + radius * float(rng.uniform()) ** (1.0 / center.shape[0]) * d


def quadrature_ops(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    n = 3
    # representation identity on a ball that contains the whole glue annulus
    # (so both fields agree on its boundary) but is not centred at the origin
    rep_center = _in_ball(rng, np.zeros(n), 0.5)
    rep_ball = bf.Ball(rep_center, 3.0)
    rep_xi = _in_ball(rng, rep_center, 0.5)
    # the disjoint glue equals its second bubble on B(0, 0.8); integrate on
    # B(0, 0.75) about an off-centre point and compare with the radial path
    wg_xi = _in_ball(rng, np.zeros(n), 0.5)
    h_xi = {m: _in_ball(rng, np.zeros(m), 0.9) for m in (3, 4)}

    def rep_identity():
        u2 = bf.Bubble(1.0, np.zeros(n), n)
        u_c = bf.glue_concentric(bf.GlueConfig.concentric(
            bf.Bubble(0.5, np.zeros(n), n), u2, 1.0, 2.0))
        return bf.rep_identity_report(u_c, u2, rep_ball, rep_xi)

    def rep_identity_check(rep) -> dict:
        scale = max(abs(rep["lhs"]), abs(rep["rhs"]))
        if not abs(rep["residual"]) <= 1e-3 * scale:
            raise OpFailed(f"representation identity residual {rep['residual']!r}")
        return {"lhs": rep["lhs"], "rhs": rep["rhs"]}

    def disjoint_grad():
        b1 = bf.Bubble(0.00238, [2.0, 0.0, 0.0], n)
        b2 = bf.Bubble(1.0, np.zeros(n), n)
        field = bf.glue_disjoint(bf.GlueConfig.disjoint(b1, 1.0, b2, 1.0, width1=0.2,
                                                        width2=0.2, inward=True))
        ball = bf.Ball(np.zeros(n), 0.75)
        return (bf.weighted_grad_integral(bf.Kernel(n), field, ball, wg_xi),
                bf.weighted_grad_integral(bf.Kernel(n), b2, ball, wg_xi))

    def disjoint_grad_check(raw) -> dict:
        polar, radial = raw
        if not close(polar.value, radial.value, QUADRATURE):
            raise OpFailed(f"polar {polar.value!r} != radial {radial.value!r}")
        return {"polar": polar.value, "radial": radial.value}

    def abs_h():
        return {m: bf.int_absH_ball(bf.Kernel(m), 1.0, xi).value for m, xi in h_xi.items()}

    def abs_h_check(vals) -> dict:
        for m, v in vals.items():
            # Newtonian potential of the uniform unit ball
            exact = 1.0 / (2.0 * (m - 2)) - float(h_xi[m] @ h_xi[m]) / (2.0 * m)
            if not close(v, exact, QUADRATURE):
                raise OpFailed(f"int |H| over B(0,1) at n={m}: {v!r} != {exact!r}")
        return {f"n={m}": v for m, v in vals.items()}

    def lemma_37_equality(rows) -> None:
        # the centred Lemma 3.7 integral meets its bound R^2/(2(n-2)) with equality
        for r in rows:
            m = int(float(r["params"].split("n=")[1].split(";")[0]))
            if not close(float(r["measured"]), 1.0 / (2.0 * (m - 2)), QUADRATURE):
                raise OpFailed(f"lemma-37 misses its equality at n={m}")

    quad = lambda key: QUADRATURE
    return [
        cli_op(["verify", "rep-singular", "--n", "3"], out_dir),
        cli_op(["verify", "rep-identity", "--n", "3", "--lambda1", "0.0099", "--lambda2", "1",
                "--rho", "1", "--R", "10"], out_dir),
        cli_op(["sweep", "lemma-37", "--n", "3,4,5,6", "--R", "1", "--xi", "0"], out_dir,
               check_rows=lemma_37_equality),
        Op("api rep_identity_report off-centre", rep_identity, rep_identity_check, True, quad),
        Op("api weighted_grad_integral disjoint", disjoint_grad, disjoint_grad_check, True, quad),
        Op("api int_absH_ball off-centre", abs_h, abs_h_check, True, quad),
    ]


# --- blowup ----------------------------------------------------------------------


def _two_bubbles(rng):
    """Planted scales 1e-4 and 2e-4 at radii 0.3 and 0.45 in random directions.

    The directions are redrawn until the centres are at least 0.25 apart,
    so the two peaks of the weighted field never merge.
    """
    while True:
        d = rng.normal(size=(2, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        c1, c2 = 0.3 * d[0], 0.45 * d[1]
        if np.linalg.norm(c1 - c2) >= 0.25:
            return bf.Bubble(1e-4, c1, 3), bf.Bubble(2e-4, c2, 3)


def blowup_ops(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    b1, b2 = _two_bubbles(rng)
    seed_arg = ["--seed", str(seed)]

    def detect_twice():
        inp = bf.BlowupInput(field=bf.sum_field(b1, b2), epsilon=0.1, R=5.0,
                             delta_target=0.05)
        first = bf.detect(inp)
        second = bf.detect(bf.excise(inp, first)) if first is not None else None
        return first, second

    def detect_check(raw) -> dict:
        found = [r for r in raw if r is not None]
        if len(found) != 2:
            raise OpFailed(f"detect/excise found {len(found)} of 2 bubbles")
        values = {}
        for planted in (b1, b2):
            rep = min(found, key=lambda r: np.linalg.norm(r.center_original - planted.center))
            if np.linalg.norm(rep.center_original - planted.center) > 1e-4:
                raise OpFailed(f"bubble at {planted.center} not located")
            # the neighbouring bubble biases each fit by about 1e-3
            if not close(rep.scale_original, planted.lam, 1e-2):
                raise OpFailed(f"scale {rep.scale_original!r} != planted {planted.lam!r}")
            values[f"scale {planted.lam:g}"] = rep.scale_original
        return values

    return [
        cli_op(["blowup", "--n", "3", *seed_arg], out_dir, seeded=True),
        cli_op(["blowup", "--n", "4", *seed_arg], out_dir, seeded=True),
        Op("api detect-excise-detect", detect_twice, detect_check, True,
           lambda key: QUADRATURE),
    ]


OPS_BY_WORKLOAD = {"scan": scan_ops, "quadrature": quadrature_ops, "blowup": blowup_ops}
WORKLOADS = tuple(OPS_BY_WORKLOAD)


def build_ops(workload: str, seed: int, out_dir: str) -> list[Op]:
    return OPS_BY_WORKLOAD[workload](seed, out_dir)

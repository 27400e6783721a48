"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from bubbleforge import (
    Annulus,
    Ball,
    BaseField,
    BlowupInput,
    Box,
    Bubble,
    GlueConfig,
    Inversion,
    ThmBParams,
    base_k,
    combined_k_bounds,
    detect,
    excise,
    glue_concentric,
    glue_disjoint,
    grad_inv_power,
    invert_point,
    k_function,
    k_sum_limit,
    kelvin_bubble,
    kelvin_field,
    lower_bound_4_4,
    rep_formula_report,
    rep_identity_report,
    sum_field,
    sup_scan,
    thmA_conditions,
    thmB_condition,
)
from bubbleforge.cli import measure_insert_quality
from bubbleforge.potential import Kernel, SingularProfile, int_absH_ball
from bubbleforge.field_core import CallableRadialField

from conftest import fd_k, identity_3_4_residual

SEED = 1187


def _finish(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_bubble_curvature():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_analytic = 0.0
    worst_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        lam = float(rng.uniform(0.3, 3.0))
        xi = rng.normal(size=n)
        b = Bubble(lam, xi, n)
        x = xi + rng.normal(size=n) * (2 * lam)
        ka = float(k_function(b, x))
        worst_analytic = max(worst_analytic, abs(ka - 1.0))
        # step proportional to the local profile scale sqrt(lam^2 + s^2)
        scale = float(np.hypot(lam, np.linalg.norm(x - xi)))
        kf = float(fd_k(b, x, 1e-4 * scale))
        worst_fd = max(worst_fd, abs(kf - ka))
    elapsed = time.perf_counter() - t0
    ok = worst_analytic <= 1e-8 and worst_fd <= 1e-4 and elapsed < 1.0
    _finish(1, "bubble curvature identically one",
            ok, f"analytic dev {worst_analytic:.2e}, fd dev {worst_fd:.2e}, {elapsed:.2f}s")


def test_criterion_02_kernel_ball_mass():
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n in (3, 4, 5, 6):
        q = int_absH_ball(Kernel(n), 1.0, np.zeros(n))
        ok &= abs(q.value - 1.0 / (2 * (n - 2))) <= 1e-6
        detail.append(f"n={n}: {q.value:.6f}")
    for _ in range(50):
        n = int(rng.integers(3, 7))
        R = float(rng.uniform(0.5, 3.0))
        s = R * float(rng.uniform(0.05, 0.95))
        xi = np.zeros(n)
        xi[0] = s
        q = int_absH_ball(Kernel(n), R, xi)
        cap = R * R / (2 * (n - 2))
        ok &= q.value < cap and (cap - q.value) > q.err_est
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _finish(2, "kernel mass bound with equality only at the center",
            ok, f"{detail[0]}, {detail[1]}, {elapsed:.2f}s")


def test_criterion_03_transformed_laplacian_identity():
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    n = 3
    concentric = glue_concentric(GlueConfig.concentric(
        Bubble(0.5, np.zeros(n), n), Bubble(1.0, np.zeros(n), n), 1.0, 3.0))
    disjoint = glue_disjoint(GlueConfig.disjoint(
        Bubble(0.5, [6.0, 0, 0], n), 1.0, Bubble(1.0, np.zeros(n), n), 1.0))

    def concentric_pt():
        r = rng.uniform(0.1, 4.0)
        while min(abs(r - 1.0), abs(r - 3.0)) < 0.02:
            r = rng.uniform(0.1, 4.0)
        d = rng.normal(size=n)
        return r * d / np.linalg.norm(d)

    def disjoint_pt():
        while True:
            x = rng.uniform(-3, 9, size=n)
            s1 = np.linalg.norm(x - [6.0, 0, 0])
            s2 = np.linalg.norm(x)
            if min(abs(s1 - 1), abs(s1 - 2), abs(s2 - 1), abs(s2 - 2)) > 0.05:
                return x

    # FD steps 1e-3 times each field's smallest length (1 for the base field):
    # its bubble scales and, for a glue, its cutoff widths (R - rho = 2, widths 1)
    worst = 0.0
    cases = [
        (Bubble(1.1, [0.3, 0, 0], n), lambda: rng.normal(size=n), 1e-3 * 1.1),
        (sum_field(Bubble(1.0, [1, 0, 0], n), Bubble(0.7, [-1, 0, 0], n)),
         lambda: rng.normal(size=n), 1e-3 * 0.7),
        (BaseField(n), lambda: rng.normal(size=n), 1e-3 * 1.0),
        (concentric, concentric_pt, 1e-3 * 0.5),
        (disjoint, disjoint_pt, 1e-3 * 0.5),
    ]
    for f, draw, h in cases:
        for _ in range(100):
            worst = max(worst, abs(identity_3_4_residual(f, draw(), h)))
    # bubble closed form: lap(u^(-4/(n-2))) = 4n + 4(n+2) r^2/lam^2
    b = Bubble(1.0, np.zeros(n), n)
    x = np.array([1.0, 0, 0])
    closed = 4 * n + 4 * (n + 2)
    analytic = 4 * n * float(k_function(b, x)) + (n + 2) * float(grad_inv_power(b, x))
    closed_ok = abs(closed - analytic) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and closed_ok
    _finish(3, "transformed-Laplacian identity residual",
            ok, f"max residual {worst:.2e}, closed-form dev {abs(closed-analytic):.1e}, {elapsed:.2f}s")


def test_criterion_04_representation_identity_deep_glue():
    t0 = time.perf_counter()
    n = 3
    u2 = Bubble(1.0, np.zeros(n), n)
    u_c = glue_concentric(GlueConfig.concentric(
        Bubble(0.0099, np.zeros(n), n), u2, 1.0, 10.0))
    rep = rep_identity_report(u_c, u2, Ball(np.zeros(n), 10.0), np.zeros(n))
    scale = max(abs(rep["lhs"]), abs(rep["rhs"]))
    elapsed = time.perf_counter() - t0
    ok = abs(rep["residual"]) <= 1e-3 * scale and elapsed < 60.0
    _finish(4, "two-sided representation identity on the deep glue",
            ok, f"residual {abs(rep['residual']):.2e} vs scale {scale:.3e}, {elapsed:.2f}s")


def test_criterion_05_concentric_lower_bounds():
    n = 3
    t0 = time.perf_counter()
    c1, _ = thmA_conditions(0.0099, 1.0, 1.0, 10.0, n)
    lb = lower_bound_4_4(0.0099, 1.0, 1.0, 10.0, n)
    u = glue_concentric(GlueConfig.concentric(
        Bubble(0.0099, np.zeros(n), n), Bubble(1.0, np.zeros(n), n), 1.0, 10.0))
    scan = sup_scan(u, Ball(np.zeros(n), 10.0)).sup_abs_dev
    t1 = time.perf_counter() - t0
    ok = c1 and abs(lb - 1.707) < 5e-4 and lb >= 5 / 3 and scan >= 5 / 3 and t1 < 10.0

    t0 = time.perf_counter()
    _, c2 = thmA_conditions(300.0, 1.0, 1.0, 10.0, n)
    u2 = glue_concentric(GlueConfig.concentric(
        Bubble(300.0, np.zeros(n), n), Bubble(1.0, np.zeros(n), n), 1.0, 10.0))
    scan2 = sup_scan(u2, Ball(np.zeros(n), 10.0)).sup_abs_dev
    t2 = time.perf_counter() - t0
    ok &= c2 and scan2 >= 5 / 3 and t2 < 10.0
    _finish(5, "concentric constructions clear (n+2)/n",
            ok, f"bound {lb:.4f}, scans {scan:.3g}/{scan2:.3g}, {t1:.2f}s/{t2:.2f}s")


def test_criterion_06_condition_implication_chains():
    rng = np.random.default_rng(SEED + 6)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        l2 = float(rng.uniform(0.05, 5))
        rho = float(rng.uniform(0.1, 2))
        R = rho * float(rng.uniform(1.2, 8))
        thr = (rho**2 / R**2) / (1 + l2**2 / R**2) * l2
        l1 = thr * float(rng.uniform(0.05, 1.0))
        assert thmA_conditions(l1, l2, rho, R, n)[0]
        if lower_bound_4_4(l1, l2, rho, R, n) < (n + 2) / n - 1e-12:
            violations += 1
    for _ in range(100):
        n = int(rng.integers(3, 7))
        rho = float(rng.uniform(0.05, 1.5))
        R = rho * float(rng.uniform(1.2, 8))
        l2 = R * float(rng.uniform(1e-3, 0.5))
        thr2 = (3 * (n + 2) / (2 * (n - 2))) * (1 + R**4 / l2**4)
        l1 = l2 * float(np.sqrt(thr2)) * float(rng.uniform(1.0, 100.0))
        assert thmA_conditions(l1, l2, rho, R, n)[1]
        if lower_bound_4_4(l1, l2, rho, R, n) < (n + 2) / n - 1e-12:
            violations += 1
    _finish(6, "sufficient conditions force the closed-form bound",
            violations == 0, f"{violations} violations in 200 tuples")


def test_criterion_07_depth_factor_equivalences():
    rng = np.random.default_rng(SEED + 7)
    agree = True
    for _ in range(100):
        n = int(rng.integers(3, 7))
        l1, l2 = rng.uniform(0.05, 5, size=2)
        rho = float(rng.uniform(0.1, 2))
        R = rho * float(rng.uniform(1.2, 8))
        cond1 = thmA_conditions(float(l1), float(l2), rho, R, n)[0]
        from bubbleforge import depth_factors
        d = depth_factors(float(l1), float(l2), rho, R, n)
        depth_form = l2 / l1 <= d.k1**2 / (d.k2**2 + 1)
        y1 = np.zeros(n)
        y1[0] = rho
        y2 = np.zeros(n)
        y2[0] = R
        boundary_form = float(Bubble(float(l2), np.zeros(n), n).value(y2)) >= \
            d.nu * float(Bubble(float(l1), np.zeros(n), n).value(y1))
        agree &= cond1 == depth_form == boundary_form
    _finish(7, "depth-factor condition equivalences", agree, "100 tuples")


def test_criterion_08_two_bubble_sum():
    n = 3
    u = sum_field(Bubble(1.0, [4.0, 0, 0], n), Bubble(1.0, np.zeros(n), n))
    kmid = float(k_function(u, [2.0, 0, 0]))
    ok = abs(kmid - 0.0625) <= 1e-6
    rep = sup_scan(u, Box(np.array([-2.0, -2, -2]), np.array([6.0, 2, 2])))
    ok &= rep.sup_abs_dev <= 0.9375 + 1e-6
    kfar = float(k_function(u, [1e6, 0, 0]))
    ok &= abs(kfar - k_sum_limit(1.0, 1.0, n)) <= 1e-4
    mixed = sum_field(Bubble(2.0, [4.0, 0, 0], n), Bubble(0.5, np.zeros(n), n))
    kfar2 = float(k_function(mixed, [1e6, 0, 0]))
    ok &= abs(kfar2 - k_sum_limit(2.0, 0.5, n)) <= 1e-4
    _finish(8, "two-bubble sum: midplane value, deviation cap, far-field limit",
            ok, f"mid {kmid:.6f}, sup {rep.sup_abs_dev:.6f}, far {kfar:.6f}")


def test_criterion_09_two_ball_witness_scan():
    t0 = time.perf_counter()
    n = 3
    l1 = 1 / 420
    xi1 = np.array([2.0, 0.0, 0.0])
    params = ThmBParams(l1, 1.0, 1.0, 1.0, xi1, np.zeros(n), 1.0)
    ok = thmB_condition(params)
    u = glue_disjoint(GlueConfig.disjoint(
        Bubble(l1, xi1, n), 1.0, Bubble(1.0, np.zeros(n), n), 1.0,
        width1=0.2, width2=0.2, inward=True))
    box = Box(np.array([-1.6, -1.6, -1.6]), np.array([3.6, 1.6, 1.6]))
    rep = sup_scan(u, box)
    elapsed = time.perf_counter() - t0
    ok &= rep.sup_abs_dev >= 5 / 6 and elapsed < 120.0
    _finish(9, "two-ball witness deviation clears (n+2)/(2n) sigma^2",
            ok, f"sup {rep.sup_abs_dev:.3g} at {rep.argmax.round(3)}, {elapsed:.1f}s")


def test_criterion_10_kelvin_suite():
    rng = np.random.default_rng(SEED + 10)
    inv_dev = law_dev = comp_dev = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 5))
        a = float(rng.uniform(0.3, 2.0))
        c = rng.normal(size=n) * 0.3
        inv = Inversion(c, a)
        b = Bubble(float(rng.uniform(0.2, 2.0)), rng.normal(size=n), n)
        x = rng.normal(size=n) * 1.5
        if np.linalg.norm(x - c) < 0.2:
            x = c + np.array([0.5] + [0.0] * (n - 1))
        f = sum_field(b, Bubble(float(rng.uniform(0.2, 2.0)), rng.normal(size=n), n))
        double = kelvin_field(kelvin_field(f, inv), inv)
        inv_dev = max(inv_dev, abs(float(double.value(x)) - float(f.value(x))))
        img = kelvin_bubble(b, inv)
        kf = kelvin_field(b, inv)
        law_dev = max(law_dev, abs(float(img.value(x)) - float(kf.value(x))))
        kcomp = abs(float(k_function(kelvin_field(f, inv), x))
                    - float(k_function(f, invert_point(inv, x))))
        comp_dev = max(comp_dev, kcomp)
    ok = inv_dev <= 1e-10 and law_dev <= 1e-12 and comp_dev <= 1e-8
    _finish(10, "inversion involution, bubble image law, curvature composition",
            ok, f"{inv_dev:.1e}/{law_dev:.1e}/{comp_dev:.1e}")


def test_criterion_11_bubble_insert_stability():
    # the admissible exponent window (0, (n-2)/2) for alpha = (n-4)/4 is
    # empty below n = 5, so the suite runs at n = 5
    for n_low in (3, 4):
        assert (n_low - 4) / 4.0 <= 0.0
    n = 5
    alpha = (n - 4) / 4.0
    assert 0 < alpha < (n - 2) / 2
    c_hi, sup_hi, eps_hi, scale_hi = measure_insert_quality(n, 1e-3, alpha)
    c_lo, sup_lo, eps_lo, scale_lo = measure_insert_quality(n, 1e-4, alpha)
    ok = sup_hi <= c_hi * scale_hi * (1 + 1e-12) and 0.5 <= c_hi / c_lo <= 2.0
    _finish(11, "insert deviation constant stable across delta decade",
            ok, f"C(1e-3)={c_hi:.3f}, C(1e-4)={c_lo:.3f}")


def test_criterion_12_singular_representation():
    n, nut = 3, 0.5
    beta = 2.0 - n + nut
    u = CallableRadialField(
        n,
        lambda r: r**beta,
        lambda r: beta * r ** (beta - 1),
        lambda r: beta * (beta - 1) * r ** (beta - 2),
    )
    prof = SingularProfile(p=np.zeros(n), mu=1 - nut, nu=nut,
                           c1=abs(beta * nut) * 1.01, c2=abs(beta) * 1.01,
                           delta=0.3)
    rep = rep_formula_report(u, prof, Ball(np.zeros(n), 1.5), [0.5, 0, 0])
    res = [abs(r) for r in rep["residuals"]]
    ok = res[0] > res[1] > res[2]
    ok &= abs(rep["extrapolated"]) <= 1e-4
    terms = [abs(t) for t in rep["p_boundary_terms"]]
    for i in range(2):
        expected = (rep["eps"][i] / rep["eps"][i + 1]) ** nut
        ratio = terms[i] / terms[i + 1]
        ok &= expected / 2 <= ratio <= expected * 2
    _finish(12, "singular representation formula converges at the declared rate",
            ok, f"residuals {res[0]:.2e} > {res[1]:.2e} > {res[2]:.2e}, "
                f"extrapolated {abs(rep['extrapolated']):.1e}")


def test_criterion_13_base_field_and_combined_bounds():
    rng = np.random.default_rng(SEED + 13)
    ok = base_k(np.zeros(3), 3) == 0.5
    for n in (3, 4, 5, 6):
        far = np.zeros(n)
        far[0] = 1e6
        ok &= abs(base_k(far, n) - (n - 2) / (4 * n)) <= 1e-5
    for n in (3, 5):
        u = sum_field(Bubble(1.0, np.zeros(n), n), BaseField(n))
        lo, hi = combined_k_bounds(0.0, n)
        pts = rng.normal(size=(500, n)) * 4
        kv = k_function(u, pts)
        ok &= bool(np.all(kv >= lo - 1e-6) and np.all(kv <= hi + 1e-6))
    _finish(13, "base-field curvature values and combined two-sided bounds", ok)


def test_criterion_14_blowup_recovery():
    t0 = time.perf_counter()
    mu = 1e-3
    planted = Bubble(mu, [0.3, 0, 0], 3)
    rep = detect(BlowupInput(field=planted, epsilon=0.1, R=5.0, delta_target=0.01))
    ok = rep is not None
    if ok:
        ok &= abs(rep.scale_original - mu) / mu <= 1e-6
        ok &= rep.delta_measured <= 1e-6
    two = sum_field(Bubble(1e-3, [0.3, 0, 0], 3), Bubble(2e-3, [0.0, 0.45, 0.0], 3))
    inp = BlowupInput(field=two, epsilon=0.1, R=5.0, delta_target=0.2)
    first = detect(inp)
    second = detect(excise(inp, first)) if first is not None else None
    ok &= first is not None and second is not None
    if ok:
        ok &= np.linalg.norm(first.center_original - [0.3, 0, 0]) <= 1e-3
        ok &= np.linalg.norm(second.center_original - [0.0, 0.45, 0.0]) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _finish(14, "plant-and-recover and two-bubble excision",
            ok, f"{elapsed:.1f}s")

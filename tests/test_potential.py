"""Kernel evaluation, singular quadrature and representation identities."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from bubbleforge import (
    Ball,
    Bubble,
    CallableRadialField,
    GlueConfig,
    Kernel,
    SingularProfile,
    glue_concentric,
    h_eval,
    int_absH_annulus,
    int_absH_ball,
    inv_root_grad_sq,
    k_function,
    lower_bound_3_9,
    rep_formula_report,
    rep_identity_report,
    sup_scan,
    unit_sphere_area,
    weighted_grad_integral,
)
from bubbleforge import cli, potential
from bubbleforge.cli import _power_field
from bubbleforge.errors import BadRadii, Coincident, ProfileViolated
from bubbleforge.field_core import _grad_term_rows, _k_of, _sq_dist
from bubbleforge.potential import (
    _SEG_BLOCK,
    _abs_h_ball,
    _boundary_integral,
    _gauss_gegenbauer,
    _power_law_limit,
    _ray_integral,
    adaptive_radial,
    sphere_rule,
)


def _ball_mass_closed_form(R, s, n):
    # shell-theorem reduction of the kernel mass: R^2/(2(n-2)) - s^2/(2n)
    return R * R / (2 * (n - 2)) - s * s / (2 * n)


def test_unit_sphere_areas():
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)


@pytest.mark.parametrize("n", range(2, 13))
def test_unit_sphere_area_matches_mpmath(n):
    exact = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
    assert unit_sphere_area(n) == pytest.approx(float(exact), rel=1e-15)


# --- Gauss rule for the polar weight (1 - t^2)^a, a = (n-3)/2 -----------------

RULE_DIMS = range(3, 9)
RULE_SIZES = (1, 2, 4, 16, 64, 128)


@pytest.mark.parametrize("m", RULE_SIZES)
@pytest.mark.parametrize("n", RULE_DIMS)
def test_gauss_gegenbauer_integrates_moments_below_2m(n, m):
    a = (n - 3) / 2.0
    t, w = _gauss_gegenbauer(m, a)
    k = np.arange(2 * m)
    moments = w @ t[:, None] ** k[None, :]
    # int_{-1}^{1} (1 - t^2)^a t^k dt is B(a + 1, (k + 1)/2) for even k, 0 for odd
    exact = np.array([float(mpmath.beta(a + 1, (kk + 1) / 2.0)) for kk in k[::2]])
    assert np.all(np.abs(moments[::2] / exact - 1.0) <= 1e-10)
    assert np.all(np.abs(moments[1::2]) <= 1e-14)


@pytest.mark.parametrize("m", RULE_SIZES)
@pytest.mark.parametrize("n", RULE_DIMS)
def test_gauss_gegenbauer_nodes_sorted_symmetric_interior(n, m):
    t, w = _gauss_gegenbauer(m, (n - 3) / 2.0)
    assert t.shape == w.shape == (m,)
    assert np.all(np.diff(t) > 0)
    assert np.array_equal(t, -t[::-1])
    assert np.all(np.abs(t) < 1.0)
    assert np.all(w > 0)
    assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n, m", [(n, 16) for n in RULE_DIMS] + [(3, 64), (8, 64)])
def test_gauss_gegenbauer_matches_mpmath_rule(n, m):
    # the Newton step brings every node within eps = 2.2e-16 of the true
    # node; the eigenvalues alone are off by up to 4.4e-16 at these sizes
    a = (n - 3) / 2.0
    t, w = _gauss_gegenbauer(m, a)
    with mpmath.workdps(30):
        xs, ws = mpmath.gauss_quadrature(m, "jacobi", a, a)
        ref = sorted(zip(xs, ws))
    t_ref = np.array([float(x) for x, _ in ref])
    w_ref = np.array([float(v) for _, v in ref])
    assert np.max(np.abs(t - t_ref)) <= np.finfo(float).eps
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-12


def test_gauss_gegenbauer_agrees_with_scipy():
    special = pytest.importorskip("scipy.special")
    for n in RULE_DIMS:
        a = (n - 3) / 2.0
        for m in RULE_SIZES:
            t, w = _gauss_gegenbauer(m, a)
            t_ref, w_ref = special.roots_jacobi(m, a, a)
            assert np.max(np.abs(t - t_ref)) <= 1e-15, (n, m)
            assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-10, (n, m)


def test_sphere_rule_weights_sum_to_area():
    for n in (3, 4, 5, 6):
        _, w = sphere_rule(n, 12)
        assert np.sum(w) == pytest.approx(unit_sphere_area(n), rel=1e-12)


def test_kernel_value_n3():
    k = Kernel(3)
    assert h_eval(k, [1, 0, 0], [0, 0, 0]) == pytest.approx(-1 / (4 * math.pi),
                                                            rel=1e-14)


def test_kernel_value_n4():
    k = Kernel(4)
    assert h_eval(k, [1, 0, 0, 0], np.zeros(4)) == pytest.approx(
        -1 / (4 * math.pi**2), rel=1e-14)


def test_kernel_scaling_homogeneity(rng):
    k = Kernel(5)
    xi = rng.normal(size=5)
    d = rng.normal(size=5)
    d /= np.linalg.norm(d)
    r = 0.7
    assert h_eval(k, xi + 2 * r * d, xi) == pytest.approx(
        h_eval(k, xi + r * d, xi) / 2 ** (5 - 2), rel=1e-13)


def test_kernel_rejects_coincident_points():
    with pytest.raises(Coincident):
        h_eval(Kernel(3), [1, 2, 3], [1, 2, 3])


def test_ball_mass_centered():
    q3 = int_absH_ball(Kernel(3), 1.0, np.zeros(3))
    assert q3.value == pytest.approx(0.5, abs=1e-6)
    q4 = int_absH_ball(Kernel(4), 1.0, np.zeros(4))
    assert q4.value == pytest.approx(0.25, abs=1e-6)


def test_ball_mass_off_center_strictly_below_cap():
    q = int_absH_ball(Kernel(3), 1.0, [0.5, 0, 0])
    cap = 0.5
    assert q.value < cap
    assert cap - q.value > q.err_est
    assert q.value == pytest.approx(_ball_mass_closed_form(1.0, 0.5, 3), abs=1e-6)


def test_ball_mass_random_inputs_bounded(rng):
    # the cap R^2/(2(n-2)) holds for every interior source point, with
    # equality only at the center
    for _ in range(50):
        n = int(rng.integers(3, 7))
        R = float(rng.uniform(0.5, 3.0))
        s = float(rng.uniform(0.05, 0.95)) * R
        xi = np.zeros(n)
        xi[0] = s
        q = int_absH_ball(Kernel(n), R, xi)
        cap = R * R / (2 * (n - 2))
        assert q.value <= cap + q.err_est + 1e-12
        assert cap - q.value > q.err_est
        assert q.value == pytest.approx(_ball_mass_closed_form(R, s, n),
                                        rel=1e-9)


def test_ball_mass_reflection_comparison(rng):
    # mass over the source-centered ball (closed form) dominates the mass
    # over the origin-centered ball for any off-center source
    for _ in range(10):
        n = int(rng.integers(3, 6))
        R = float(rng.uniform(0.5, 2.0))
        xi = np.zeros(n)
        xi[0] = 0.4 * R
        centered_mass = R * R / (2 * (n - 2))
        assert centered_mass >= int_absH_ball(Kernel(n), R, xi).value


def test_ball_mass_builds_no_gauss_rule(monkeypatch):
    # the spherical mean reduces the ball mass to a radial integral: no
    # angular rule is built
    def no_rule(m, a):
        raise AssertionError("int_absH_ball built a Gauss rule")

    monkeypatch.setattr(potential, "_gauss_gegenbauer", no_rule)
    int_absH_ball(Kernel(3), 1.0, np.zeros(3))
    int_absH_ball(Kernel(5), 2.0, [0.3, -0.4, 0.0, 0.1, 0.2])


def test_ball_mass_matches_closed_form_to_roundoff(rng):
    for n in range(3, 9):
        for _ in range(20):
            R = float(rng.uniform(0.1, 5.0))
            d = rng.normal(size=n)
            xi = float(rng.uniform(0.0, 0.999)) * R * d / np.linalg.norm(d)
            q = int_absH_ball(Kernel(n), R, xi)
            exact = R * R / (2 * (n - 2)) - float(xi @ xi) / (2 * n)
            assert q.value == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", range(3, 9))
def test_lemma_37_bound_holds_at_zero_tolerance(n):
    # the centred integral meets its cap with equality, so the bound row
    # passes on the error estimate alone
    cfg = cli.ExperimentConfig("lemma-37", n, tol=0.0)
    for R in np.linspace(0.05, 10.0, 200):
        rows = list(cli._run_lemma_37(cfg, {"n": n, "R": float(R), "xi": np.zeros(n)}))
        assert rows[0].experiment == "lemma-37/bound" and rows[0].passed, (n, R)


def test_annulus_mass_values():
    q = int_absH_annulus(Kernel(3), 1.0, 10.0)
    assert q.value == pytest.approx(49.5, abs=1e-4)
    q6 = int_absH_annulus(Kernel(6), 1.0, 2.0)
    assert q6.value == pytest.approx(0.375, abs=1e-6)


def test_annulus_mass_degenerates_to_zero():
    q = int_absH_annulus(Kernel(3), 1.0, 1.0 + 1e-9)
    assert abs(q.value) < 1e-8


def test_annulus_mass_matches_closed_form(rng):
    for _ in range(10):
        n = int(rng.integers(3, 7))
        rho = float(rng.uniform(0.1, 1.0))
        R = rho + float(rng.uniform(0.1, 3.0))
        q = int_absH_annulus(Kernel(n), rho, R)
        assert q.value == pytest.approx((R * R - rho * rho) / (2 * (n - 2)),
                                        rel=1e-6)


def test_annulus_rejects_bad_radii():
    for rho, R in [(2.0, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, math.nan)]:
        with pytest.raises(BadRadii):
            int_absH_annulus(Kernel(3), rho, R)


def test_weighted_grad_integral_centered_bubble():
    q = weighted_grad_integral(Kernel(3), Bubble(1.0, np.zeros(3), 3),
                               Ball(np.zeros(3), 1.0), np.zeros(3))
    assert q.value == pytest.approx(1.0, abs=1e-5)


def test_weighted_grad_integral_closed_form_random(rng):
    # radial reduction gives R^4/((n-2) lam^2) exactly
    for _ in range(6):
        n = int(rng.integers(3, 6))
        lam = float(rng.uniform(0.5, 2.0))
        R = float(rng.uniform(0.5, 2.0))
        q = weighted_grad_integral(Kernel(n), Bubble(lam, np.zeros(n), n),
                                   Ball(np.zeros(n), R), np.zeros(n))
        assert q.value == pytest.approx(R**4 / ((n - 2) * lam**2), rel=1e-9)


def test_weighted_grad_integral_estimate_covers_rounding():
    # the Gauss panels integrate this polynomial exactly, so the doubling
    # delta is 0 and the value is an ulp off 16/3: the rounding bound covers it
    q = weighted_grad_integral(Kernel(5), Bubble(1.0, np.zeros(5), 5),
                               Ball(np.zeros(5), 2.0), np.zeros(5))
    assert q.err_est > 0.0
    assert q.err_est >= abs(q.value - 16.0 / 3.0)


def test_weighted_grad_integral_shrinking_region():
    q = weighted_grad_integral(Kernel(3), Bubble(1.0, np.zeros(3), 3),
                               Ball(np.zeros(3), 1e-4), np.zeros(3))
    assert abs(q.value) < 1e-12


def test_weighted_grad_integral_scale_quartering():
    k = Kernel(3)
    ball = Ball(np.zeros(3), 1.0)
    v1 = weighted_grad_integral(k, Bubble(1.0, np.zeros(3), 3), ball, np.zeros(3)).value
    v2 = weighted_grad_integral(k, Bubble(2.0, np.zeros(3), 3), ball, np.zeros(3)).value
    assert v2 == pytest.approx(v1 / 4.0, rel=1e-9)


def test_weighted_grad_integral_generic_path_agrees_with_radial():
    # a barely off-center bubble forces the product-rule path; it must agree
    # with the radial reduction of the centered one
    k = Kernel(3)
    ball = Ball(np.zeros(3), 1.0)
    radial = weighted_grad_integral(k, Bubble(1.0, np.zeros(3), 3), ball,
                                    np.zeros(3)).value
    generic = weighted_grad_integral(k, Bubble(1.0, [1e-12, 0, 0], 3), ball,
                                     np.zeros(3)).value
    assert generic == pytest.approx(radial, rel=1e-8)


# --- representation identity -----------------------------------------------------


def _acceptance_glue(n=3):
    b1 = Bubble(0.0099, np.zeros(n), n)
    b2 = Bubble(1.0, np.zeros(n), n)
    return glue_concentric(GlueConfig.concentric(b1, b2, 1.0, 10.0)), b2


def test_rep_identity_trivial_glue():
    b = Bubble(1.0, np.zeros(3), 3)
    rep = rep_identity_report(b, b, Ball(np.zeros(3), 2.0), [0.3, 0, 0])
    assert abs(rep["lhs"]) < 1e-6
    assert abs(rep["rhs"]) < 1e-6
    assert abs(rep["residual"]) < 1e-6


def test_rep_identity_identical_scales_different_radii():
    b = Bubble(1.0, np.zeros(3), 3)
    u = glue_concentric(GlueConfig.concentric(Bubble(1.0, np.zeros(3), 3), b,
                                              0.5, 2.0))
    res = rep_identity_report(u, b, Ball(np.zeros(3), 3.0), np.zeros(3))["residual"]
    assert abs(res) < 1e-6


def test_rep_identity_deep_concentric_config():
    u_c, u2 = _acceptance_glue()
    rep = rep_identity_report(u_c, u2, Ball(np.zeros(3), 10.0), np.zeros(3))
    scale = max(abs(rep["lhs"]), abs(rep["rhs"]))
    assert scale > 1.0  # both sides carry the configuration's mass
    assert abs(rep["residual"]) <= 1e-3 * scale


def test_rep_identity_off_center_source_point():
    u_c, u2 = _acceptance_glue()
    rep = rep_identity_report(u_c, u2, Ball(np.zeros(3), 10.0), [0.4, 0, 0])
    scale = max(abs(rep["lhs"]), abs(rep["rhs"]))
    assert abs(rep["residual"]) <= 1e-3 * scale


def _rep_identity_glue(n):
    u2 = Bubble(1.0, np.zeros(n), n)
    return glue_concentric(GlueConfig.concentric(Bubble(0.5, np.zeros(n), n), u2, 1.0, 2.0)), u2


def _recorded_ray_integrals(monkeypatch):
    """Record (args, result) of each _ray_integral call."""
    calls, real = [], potential._ray_integral

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(potential, "_ray_integral", recorded)
    return calls


def _rep_identity_two_passes(u_c, u2, ball, xi, n_evals, monkeypatch):
    """Reference: one integral per integrand, K and the gradient term each
    from its own public evaluation of u_c.  On the polar path each integral
    runs to the levels of the report's joint rule: no delta stops it, and
    the budget stops it after the report's n_evals points."""
    n = u_c.n
    k = Kernel(n)
    radial = u_c.radial and u2.radial and bool(np.all(ball.center == 0.0))
    spheres = u_c._interfaces + u2._interfaces

    # both integrals hand their integrands (n, m) column batches
    def kdev(X):
        return np.asarray(k_function(u_c, X.T)) - 1.0

    def gdiff(X):
        return inv_root_grad_sq(u_c, X.T) - inv_root_grad_sq(u2, X.T)

    if not radial:
        monkeypatch.setattr(potential, "_ABS_TOL", 0.0)
        monkeypatch.setattr(potential, "_RAY_BUDGET", n_evals)

    def integral(g):
        if radial:
            return _abs_h_ball(k, g, ball, xi, spheres)[:2]
        [(val, err)], ev = _ray_integral(k, lambda X: (g(X),), ball, xi, spheres, 0.0)
        assert ev == n_evals
        return val, err

    q1, e1 = integral(kdev)
    q2, e2 = integral(gdiff)
    lhs = 4.0 * n * -q1
    rhs = (float(u_c.value(xi)) ** (-4.0 / (n - 2)) - float(u2.value(xi)) ** (-4.0 / (n - 2))
           + (n + 2) * q2)
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs,
            "lhs_err": 4.0 * n * e1, "rhs_err": (n + 2) * e2}


@pytest.mark.parametrize("n, center, xi, rel_tol", [
    (3, [0.2, -0.1, 0.05], [0.1, 0.3, 0.0], 1e-10),  # several ray blocks per level
    (4, [0.2, 0.0, 0.1, 0.0], [0.1, 0.3, 0.0, -0.2], 1e-6),
    (3, [0.0, 0.0, 0.0], [0.4, 0.0, 0.0], 1e-10),  # radial path
], ids=["polar-n3", "polar-n4", "radial-n3"])
def test_rep_identity_matches_one_integral_per_integrand(n, center, xi, rel_tol, monkeypatch):
    u_c, u2 = _rep_identity_glue(n)
    ball, xi = Ball(np.array(center, float), 3.0), np.array(xi)
    calls = _recorded_ray_integrals(monkeypatch)
    rep = rep_identity_report(u_c, u2, ball, xi, rel_tol)
    n_evals = calls[0][1][1] if calls else None
    assert len(calls) == (0 if np.all(ball.center == 0.0) else 1)
    ref = _rep_identity_two_passes(u_c, u2, ball, xi, n_evals, monkeypatch)
    assert {key: v.hex() for key, v in rep.items()} == {key: v.hex() for key, v in ref.items()}
    assert rep["lhs_err"] > 0.0 and rep["rhs_err"] > 0.0


def test_rep_identity_polar_pass_evaluates_each_point_once(monkeypatch):
    n = 3
    u_c, u2 = _rep_identity_glue(n)
    calls = {"u_c": [], "u2": []}
    for name, f in (("u_c", u_c), ("u2", u2)):
        def counted(X, grad, d2, jet=f._jet, seen=calls[name]):
            seen.append((X.shape[1], grad, d2))
            return jet(X, grad, d2)

        monkeypatch.setattr(f, "_jet", counted)
    rays = _recorded_ray_integrals(monkeypatch)
    rep_identity_report(u_c, u2, Ball(np.array([0.2, 0.0, 0.0]), 3.0), np.array([0.1, 0.3, 0.0]))
    # u_c(xi) and u2(xi) are one value-only jet each
    for name in calls:
        assert [c for c in calls[name] if c[1:] == (False, False)] == [(1, False, False)]
        calls[name] = [c for c in calls[name] if c[1:] != (False, False)]
    # one jet of u_c per node of every level of the one polar integral
    [(_, (_, n_evals))] = rays
    assert sum(m for m, _, _ in calls["u_c"]) == n_evals
    assert {flags[1:] for flags in calls["u_c"]} == {(True, True)}
    # u2 contributes only its gradient term: no Laplacian is formed
    assert sum(m for m, _, _ in calls["u2"]) == n_evals
    assert {flags[1:] for flags in calls["u2"]} == {(True, False)}


# --- the polar ray integral: rays cut at declared interfaces ---------------------

# poles inside the inner cutoff sphere |x| = 1 of _rep_identity_glue, inside
# its band 1 < |x| < 2 (on and off the ball's axis) and outside |x| = 2
RAY_POLES = {"inside": [0.3, 0.2, 0.1], "band": [1.5, 0.3, 0.0],
             "band-off-axis": [0.2, -1.1, 0.9], "outside": [2.3, 0.4, 0.1]}


def _ray_case(n, pole):
    """The glue's two identity integrands, which vanish outside B(0, 2), a pole,
    an off-centre ball that holds B(0, 2), and their radial-path values with
    estimates over B(0, 3)."""
    u_c, u2 = _rep_identity_glue(n)
    k = Kernel(n)

    def kdev(X):
        return _k_of(n, *u_c._jet(X, False, True)[::2]) - 1.0

    def gdiff(X):
        return _grad_term_rows(u_c, X) - _grad_term_rows(u2, X)

    xi, center = np.zeros(n), np.zeros(n)
    xi[:3], center[:2] = RAY_POLES[pole], [0.3, -0.2]
    radial = [_abs_h_ball(k, g, Ball(np.zeros(n), 3.0), xi, u_c._interfaces, 1e-13)[:2]
              for g in (kdev, gdiff)]
    return k, (kdev, gdiff), Ball(center, 3.0), xi, u_c._interfaces, radial


@pytest.mark.parametrize("pole", ["inside", "band", "band-off-axis", "outside"])
@pytest.mark.parametrize("n", [3, 4])
def test_ray_integral_meets_the_radial_value_within_its_estimate(n, pole):
    k, gs, ball, xi, spheres, radial = _ray_case(n, pole)
    got, _ = _ray_integral(k, lambda X: tuple(g(X) for g in gs), ball, xi, spheres, 1e-10)
    for (val, err), (ref, ref_err) in zip(got, radial):
        assert abs(val - ref) <= err + ref_err


@pytest.mark.parametrize("pole", ["inside", "band", "outside"])
@pytest.mark.parametrize("n", [3, 4])
def test_ray_integral_estimate_is_sharp_or_at_roundoff(n, pole, monkeypatch):
    # a doubling of 16-point Gauss panels cuts these errors by 1e4 or more, so
    # the last delta, the error of the level before, is sharp only once that
    # level is at roundoff: the budget here lets the rules get there.  At
    # roundoff means within the rounding bound gamma_N int |H| |g| of N
    # summed terms (Higham, 2002, sec. 3.1), which adaptive_radial adds to
    # its estimates; N, the points of all levels, is at most 8/7 of the
    # last level's
    monkeypatch.setattr(potential, "_RAY_BUDGET", 1 << 25)
    k, (kdev, _), ball, xi, spheres, [(ref, _), _] = _ray_case(n, pole)
    [(val, err)], n_evals = _ray_integral(k, lambda X: (kdev(X),), ball, xi, spheres, 1e-10)
    [(mass, _)], _ = _ray_integral(k, lambda X: (np.abs(kdev(X)),), ball, xi, spheres, 1e-3)
    gamma = n_evals * 2.0**-53 / (1.0 - n_evals * 2.0**-53)
    assert err <= max(100.0 * abs(val - ref), gamma * mass)


def test_ray_integral_estimate_sees_the_angular_rule(monkeypatch):
    # |H| ((x - xi).v / |x - xi|)^20 on a ball centred at xi: every ray is
    # r / ((n-2) omega_n) times a constant on [0, R], which each radial rule
    # integrates exactly, so the doubling delta is the angular rule's alone.
    # Stopped after levels 0 and 1, whose 8 and 16 azimuths under-resolve
    # the 20th power, the estimate must be positive and cover the error
    monkeypatch.setattr(potential, "_RAY_BUDGET", 1)
    n, R, p = 3, 1.5, 10
    k, xi = Kernel(n), np.array([0.2, -0.1, 0.3])
    v = np.array([0.48, 0.6, 0.64])

    def g(X):
        d = X - xi[:, None]
        return ((v @ d) ** 2 / _sq_dist(d)) ** p,

    # int over S^2 of (theta.v)^(2p) is 4 pi / (2p + 1)
    exact = R**2 / 2.0 / (n - 2) / (2 * p + 1)
    [(val, err)], _ = _ray_integral(k, g, Ball(xi, R), xi, (), 0.0)
    assert 0.0 < abs(val - exact) <= err


def test_aligned_rule_doubles_its_polar_panels():
    axis = np.array([0.0, 0.6, 0.8])
    for n_axis in ([4, 8], [8, 16], [16, 32]):
        counts = []
        for m in n_axis:
            dirs, w = potential._aligned_sphere_rule(3, m, axis, [0.5])
            counts.append(np.unique(np.round(dirs @ axis, 12)).size)
            assert w.sum() == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert counts[1] == 2 * counts[0]


# both polar benchmark operations and two representation formulas at n = 4,
# classical and singular, whose residuals moved with the thread count when
# BLAS products summed them; prints the hex of every float they return
_POLAR_OPS = """
import numpy as np
import bubbleforge as bf
from bubbleforge.cli import _power_field

u2 = bf.Bubble(1.0, np.zeros(3), 3)
u_c = bf.glue_concentric(bf.GlueConfig.concentric(bf.Bubble(0.5, np.zeros(3), 3), u2, 1.0, 2.0))
rep = bf.rep_identity_report(u_c, u2, bf.Ball([0.2, -0.1, 0.05], 3.0), [0.1, 0.3, 0.0])
b1 = bf.Bubble(0.00238, [2.0, 0.0, 0.0], 3)
w = bf.glue_disjoint(bf.GlueConfig.disjoint(b1, 1.0, u2, 1.0, width1=0.2, width2=0.2, inward=True))
q = bf.weighted_grad_integral(bf.Kernel(3), w, bf.Ball(np.zeros(3), 0.75), [0.1, -0.2, 0.3])
prof = bf.SingularProfile(p=np.zeros(4), mu=0.5, nu=0.5, c1=0.7575, c2=1.515, delta=0.3)
form = bf.rep_formula_report(_power_field(4, -1.5), prof, bf.Ball([-0.05, 0, 0, 0], 1.5),
                             [0.3, 0.25, -0.2, 0.1], m_sphere=16, m_boundary=32)
classical = bf.rep_formula_report(bf.Bubble(1.0, [0.1, 0, 0, 0], 4), None,
                                  bf.Ball(np.zeros(4), 1.5), [0.4, 0.2, 0, 0], m_sphere=16,
                                  m_boundary=32)
print(*[v.hex() for v in [*rep.values(), q.value, q.err_est, *form["residuals"],
                          *form["p_boundary_terms"], *classical["residuals"]]])
"""


def test_polar_bits_do_not_depend_on_the_blas_threads():
    # every ray, panel row and direction is summed in one fixed order, not
    # by BLAS products, whose order follows the thread count
    src = os.path.dirname(os.path.dirname(potential.__file__))
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
        out.append(subprocess.run([sys.executable, "-c", _POLAR_OPS], env=env, check=True,
                                  capture_output=True, text=True).stdout)
    assert out[0] and out[0] == out[1]


def _two_pass_lower_bound_3_9(u_c, u2, omega2, xi):
    """lower_bound_3_9 from one weighted_grad_integral call per field."""
    n = u_c.n
    p4 = 4.0 / (n - 2)
    q2 = weighted_grad_integral(Kernel(n), u_c, omega2, xi).value - \
        weighted_grad_integral(Kernel(n), u2, omega2, xi).value
    bracket = (float(u_c.value(xi)) ** (-p4) - float(u2.value(xi)) ** (-p4)
               + (n + 2) * q2)
    return ((n - 2) / (2.0 * n)) * bracket / omega2.radius**2


@pytest.mark.parametrize("center", [[0.0, 0.0, 0.0], [0.4, -0.3, 0.2]],
                         ids=["centred", "off-centre"])
def test_lower_bound_3_9_is_one_integral_per_field(center):
    u_c, u2 = _acceptance_glue()
    ball, xi = Ball(np.array(center), 3.0), np.array([0.5, 0.2, -0.1])
    two = _two_pass_lower_bound_3_9(u_c, u2, ball, xi)
    assert lower_bound_3_9(u_c, u2, ball, xi).hex() == two.hex()


def test_rep_bound_is_cleared_by_scan():
    u_c, u2 = _acceptance_glue()
    bound = lower_bound_3_9(u_c, u2, Ball(np.zeros(3), 10.0), np.zeros(3))
    rep = sup_scan(u_c, Ball(np.zeros(3), 10.0))
    assert rep.sup_abs_dev >= bound - 1e-6


# --- representation formula with a point singularity -------------------------------


def _singular_power_field(n=3, nut=0.5):
    beta = 2.0 - n + nut
    return CallableRadialField(
        n,
        lambda r: r**beta,
        lambda r: beta * r ** (beta - 1),
        lambda r: beta * (beta - 1) * r ** (beta - 2),
    ), beta


def test_rep_formula_classical_bubble():
    b = Bubble(1.0, [0.1, 0, 0], 3)
    res = rep_formula_report(b, None, Ball(np.zeros(3), 1.5), [0.4, 0.2, 0])["extrapolated"]
    assert abs(res) <= 1e-6


# an omega whose centre is not p, so the report takes the polar path
_OFF_CENTRE_OMEGA = Ball([-0.05, 0.0, 0.0], 1.5)


def _check_singular_convergence(omega):
    u, beta = _singular_power_field()
    nut = 0.5
    rep = rep_formula_report(u, _singular_profile(beta, nut), omega, [0.5, 0, 0])
    res = [abs(r) for r in rep["residuals"]]
    assert res[0] > res[1] > res[2]
    assert rep["order"] >= nut - 0.05
    assert abs(rep["extrapolated"]) <= 1e-4


def test_rep_formula_singular_convergence():
    _check_singular_convergence(Ball(np.zeros(3), 1.5))


def test_rep_formula_singular_convergence_polar():
    _check_singular_convergence(_OFF_CENTRE_OMEGA)


def _check_boundary_term_scaling(omega):
    u, beta = _singular_power_field()
    nut = 0.5
    rep = rep_formula_report(u, _singular_profile(beta, nut), omega, [0.5, 0, 0])
    terms = [abs(t) for t in rep["p_boundary_terms"]]
    eps = rep["eps"]
    for i in range(len(eps) - 1):
        expected = (eps[i] / eps[i + 1]) ** nut
        ratio = terms[i] / terms[i + 1]
        assert expected / 2 <= ratio <= expected * 2


def test_rep_formula_singular_boundary_term_scaling():
    _check_boundary_term_scaling(Ball(np.zeros(3), 1.5))


def test_rep_formula_singular_boundary_term_scaling_polar():
    _check_boundary_term_scaling(_OFF_CENTRE_OMEGA)


def test_rep_formula_rejects_violated_profile():
    u, beta = _singular_power_field()
    bad = SingularProfile(p=np.zeros(3), mu=0.5, nu=0.5,
                          c1=abs(beta * 0.5) * 1e-3, c2=abs(beta), delta=0.3)
    with pytest.raises(ProfileViolated):
        rep_formula_report(u, bad, Ball(np.zeros(3), 1.5), [0.5, 0, 0])


def _singular_profile(beta, nut=0.5, n=3):
    return SingularProfile(p=np.zeros(n), mu=1 - nut, nu=nut,
                           c1=abs(beta * nut) * 1.01, c2=abs(beta) * 1.01,
                           delta=0.3)


def _per_eps_volume(k, u, omega, xi, p, eps, m_sphere, rel_tol):
    """Reference: the whole excluded-ball volume integral redone for one eps."""
    dist = float(np.linalg.norm(xi - p))
    D = 0.5 * dist
    dirs_p, w_p = sphere_rule(k.n, m_sphere)

    def inner_int(r):
        pts = (p[None, None, :] + r[:, None, None] * dirs_p[None, :, :]).reshape(-1, k.n)
        hv = np.asarray(h_eval(k, pts, xi)).reshape(r.size, -1)
        return (hv * u.laplacian(pts).reshape(r.size, -1) * w_p).sum(axis=1) * r ** (k.n - 1)

    inner, _, _ = adaptive_radial(inner_int, eps, D, rel_tol=1e-9, geometric=True)
    return inner + _outer_reference(k, u, omega, xi, p, rel_tol)


def _outer_reference(k, u, omega, xi, p, rel_tol):
    """Reference: the volume integral over omega minus B(p, D), from the public Laplacian."""
    D = 0.5 * float(np.linalg.norm(xi - p))
    [(val, _)], _ = _ray_integral(k, lambda X: (u.laplacian(X.T),), omega, xi, u._interfaces,
                                  rel_tol, (p, D))
    return -val


@pytest.mark.parametrize("xi, eps_seq, quad", [
    ([0.5, 0, 0], (1e-2, 1e-3, 1e-4), {}),
    ([0.3, 0.25, -0.2], (4e-2, 2e-2, 1e-2, 5e-3),
     {"m_sphere": 12, "m_boundary": 16, "rel_tol": 1e-8}),
    # 1024 directions about p: the annulus takes blocks of 16 radius rows
    ([0.3, 0.25, -0.2, 0.1], (1e-2, 1e-3, 1e-4),
     {"m_sphere": 8, "m_boundary": 8, "rel_tol": 1e-6}),
], ids=["cli-rep-singular", "off-axis-four-eps", "n4-blocked-rows"])
def test_rep_formula_shared_outer_matches_per_eps_reference(xi, eps_seq, quad):
    # the polar path, on an omega centred off p
    n = len(xi)
    u, beta = _singular_power_field(n)
    prof = _singular_profile(beta, n=n)
    omega = Ball(np.eye(n)[0] * -0.05, 1.5)
    rep = rep_formula_report(u, prof, omega, xi, eps_seq, **quad)
    m = {"m_sphere": 24, "m_boundary": 48, "rel_tol": 1e-10, **quad}
    k, xi = Kernel(n), np.asarray(xi, float)
    target = float(u.value(xi))
    bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, m["m_boundary"])
    residuals = [_per_eps_volume(k, u, omega, xi, prof.p, eps, m["m_sphere"], m["rel_tol"])
                 + bnd - target for eps in eps_seq]
    pterms = [_boundary_integral(k, u, prof.p, eps, xi, m["m_boundary"], outward=False)
              for eps in eps_seq]
    assert rep["residuals"] == residuals
    assert rep["p_boundary_terms"] == pterms
    assert rep["extrapolated"] == _power_law_limit(list(eps_seq), residuals)[0]


def _outer_jets(u, p, D):
    """Record the sizes of u's Laplacian jets with every point outside B(p, D)."""
    outside, jet = [], u._jet

    def counted(X, grad, d2):
        if d2 and not grad and np.min(np.linalg.norm(X.T - p, axis=-1)) >= D:
            outside.append(X.shape[1])
        return jet(X, grad, d2)

    u._jet = counted
    return outside


def _recorded_segments(monkeypatch):
    """Record (directions, segments) of each _ray_segments call, one per level."""
    segments, real = [], potential._ray_segments

    def recorded(xi, dirs, *args):
        out = real(xi, dirs, *args)
        segments.append((dirs, out))
        return out

    monkeypatch.setattr(potential, "_ray_segments", recorded)
    return segments


def _evaluated_levels(segments, n_evals):
    """The recorded levels a ray integral of n_evals points evaluated: a level
    the budget stops is cut into segments but not evaluated."""
    levels, total = [], 0
    for level, (dirs, (ray, lo, lens)) in enumerate(segments):
        if total == n_evals:
            break
        levels.append((level, dirs, ray, lens))
        total += lens.size * 16 << level
    assert total == n_evals
    return levels


def test_rep_formula_outer_segments_evaluated_once_per_report(monkeypatch):
    u, beta = _singular_power_field()
    prof = _singular_profile(beta)
    outside = _outer_jets(u, prof.p, 0.25)
    rays = _recorded_ray_integrals(monkeypatch)
    segments = _recorded_segments(monkeypatch)
    rep_formula_report(u, prof, _OFF_CENTRE_OMEGA, [0.5, 0.0, 0.0], (1e-2, 1e-3, 1e-4),
                       m_sphere=12, m_boundary=16, rel_tol=1e-8)
    # one ray integral for all three eps, each level in blocks of whole
    # segments of 16 * 2^level points, at most _SEG_BLOCK points a block
    [(args, (_, n_evals))] = rays
    assert args[6][1] == 0.25  # the excluded ball B(p, D)
    blocks = []
    for level, _, _, lens in _evaluated_levels(segments, n_evals):
        per_seg = 16 << level
        rows = _SEG_BLOCK // per_seg
        blocks += [min(rows, lens.size - i) * per_seg for i in range(0, lens.size, rows)]
    assert outside == blocks
    assert 1 < len(outside) and max(outside) <= _SEG_BLOCK


def test_rep_formula_outer_skips_empty_segments(monkeypatch):
    # the README rep-singular run with omega moved off p onto the polar path:
    # a ray that crosses B(p, D) has one segment before it and one after,
    # any other ray one segment, and no empty segment is evaluated; the
    # report keeps every bit of the reference that redoes each eps
    u, beta = _power_field(3, -0.5), -0.5
    prof, omega = _singular_profile(beta), _OFF_CENTRE_OMEGA
    xi, D, eps_seq = np.array([0.5, 0.0, 0.0]), 0.25, (1e-2, 1e-3, 1e-4)
    segments = _recorded_segments(monkeypatch)
    rays = _recorded_ray_integrals(monkeypatch)
    outside = _outer_jets(u, prof.p, D)
    rep = rep_formula_report(u, prof, omega, xi, eps_seq)
    axis, t_star = -xi / 0.5, math.sqrt(0.75)
    [(_, (_, n_evals))] = rays
    for level, dirs, ray, lens in _evaluated_levels(segments, n_evals):
        assert np.all(lens > 0.0)
        hits = dirs @ axis > t_star
        assert 0 < hits.sum() < dirs.shape[0]
        assert np.array_equal(np.bincount(ray, minlength=dirs.shape[0]), np.where(hits, 2, 1))
    assert sum(outside) == n_evals
    del u._jet
    k = Kernel(3)
    bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, 48)
    residuals = [_per_eps_volume(k, u, omega, xi, prof.p, eps, 24, 1e-10) + bnd
                 - float(u.value(xi)) for eps in eps_seq]
    assert [r.hex() for r in rep["residuals"]] == [r.hex() for r in residuals]
    assert rep["extrapolated"].hex() == _power_law_limit(list(eps_seq), residuals)[0].hex()


def test_rep_formula_outer_with_the_ball_beyond_omega():
    # B(p, D) = B((3, 0, 0), 1.25) lies outside omega = B(0, 1.5), so no ray
    # is cut by it: the integral is the one without it, bit for bit, and
    # meets the spherical-mean value of the same integral within its estimate
    k, u, omega = Kernel(3), Bubble(1.0, np.zeros(3), 3), Ball(np.zeros(3), 1.5)
    xi, p = np.array([0.5, 0.0, 0.0]), np.array([3.0, 0.0, 0.0])

    def lap(X):
        return (u._jet(X, False, True)[2],)

    [(outer, err)], _ = _ray_integral(k, lap, omega, xi, (), 1e-10, (p, 1.25))
    [(whole, _)], _ = _ray_integral(k, lap, omega, xi, (), 1e-10)
    assert outer.hex() == whole.hex()
    radial, radial_err, _ = _abs_h_ball(k, lambda X: lap(X)[0], omega, xi, ())
    assert abs(outer - radial) <= err + radial_err


@pytest.mark.parametrize("eps_seq", [
    (1e-2, 1e-3, 0.0),
    (1e-4, 1e-3, 1e-2),
    (0.25, 0.025),  # D = |xi - p|/2 = 0.25
    (1.0, 0.1, 0.01),
    (1e-2, 1e-3, 2e-4),
    (),
], ids=["not-positive", "increasing", "eps-equals-D", "eps-above-D",
        "not-geometric", "empty"])
def test_rep_formula_rejects_bad_eps_before_quadrature(eps_seq):
    u, beta = _singular_power_field()

    def untouched(*args):
        raise AssertionError("field evaluated before the radii were checked")

    u.value = u.gradient = u.laplacian = u._jet = untouched
    with pytest.raises(BadRadii):
        rep_formula_report(u, _singular_profile(beta), Ball(np.zeros(3), 1.5),
                           [0.5, 0, 0], eps_seq)


def test_rep_formula_rejects_xi_at_singular_point():
    u, beta = _singular_power_field()
    with pytest.raises(Coincident):
        rep_formula_report(u, _singular_profile(beta), Ball(np.zeros(3), 1.5),
                           np.zeros(3))


# --- the radial path: u radial, p and omega centred at the origin ------------------


@pytest.mark.parametrize("xi", [[0.5, 0, 0], [0.3, 0.25, -0.2]], ids=["on-axis", "off-axis"])
def test_rep_formula_radial_path_matches_polar_reference(xi):
    u, beta = _power_field(3, -0.5), -0.5
    prof, omega = _singular_profile(beta), Ball(np.zeros(3), 1.5)
    eps_seq = (1e-2, 1e-3, 1e-4)
    rep = rep_formula_report(u, prof, omega, xi, eps_seq)
    k, xi = Kernel(3), np.asarray(xi, float)
    bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, 48)
    residuals = [_per_eps_volume(k, u, omega, xi, prof.p, eps, 24, 1e-10) + bnd
                 - float(u.value(xi)) for eps in eps_seq]
    pterms = [_boundary_integral(k, u, prof.p, eps, xi, 48, outward=False) for eps in eps_seq]
    assert rep["residuals"] == pytest.approx(residuals, rel=0.0, abs=2e-6)
    assert rep["p_boundary_terms"] == pytest.approx(pterms, rel=0.0, abs=2e-6)
    assert len(rep["err_est"]) == len(eps_seq)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rep_formula_radial_path_extrapolates_to_roundoff(n):
    # the residual is minus the p-sphere term, u'(eps) eps^(n-1) ~ eps^nu
    u, beta = _power_field(n, 2.0 - n + 0.5), 2.0 - n + 0.5
    xi = np.zeros(n)
    xi[0] = 0.5
    rep = rep_formula_report(u, _singular_profile(beta, n=n), Ball(np.zeros(n), 1.5), xi)
    assert abs(rep["extrapolated"]) <= 1e-14
    assert rep["order"] == pytest.approx(0.5, rel=0.0, abs=1e-6)
    resid = [-t for t in rep["p_boundary_terms"]]
    assert rep["residuals"] == pytest.approx(resid, rel=0.0, abs=max(rep["err_est"]))


def test_rep_formula_radial_path_builds_only_the_profile_sphere(monkeypatch):
    calls, depth, real = [], [0], potential.sphere_rule

    def top_level(n, m):
        if not depth[0]:
            calls.append((n, m))
        depth[0] += 1
        try:
            return real(n, m)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(potential, "sphere_rule", top_level)
    u, beta = _power_field(3, -0.5), -0.5
    rep_formula_report(u, _singular_profile(beta), Ball(np.zeros(3), 1.5), [0.5, 0, 0])
    assert calls == [(3, potential._PROFILE_SPHERE)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rep_formula_radial_path_evaluates_few_points(n):
    # verify_profile's sample included; the polar rules took 3.34M points at n = 3
    u, beta = _power_field(n, 2.0 - n + 0.5), 2.0 - n + 0.5
    points, jet = [], u._jet

    def counted(X, grad, d2):
        points.append(X.shape[1])
        return jet(X, grad, d2)

    u._jet = counted
    xi = np.zeros(n)
    xi[0] = 0.5
    rep_formula_report(u, _singular_profile(beta, n=n), Ball(np.zeros(n), 1.5), xi)
    assert sum(points) < 20_000


def test_rep_formula_radial_path_without_profile():
    b = Bubble(1.0, np.zeros(3), 3)
    rep = rep_formula_report(b, None, Ball(np.zeros(3), 1.5), [0.4, 0.2, 0])
    assert abs(rep["residuals"][0]) <= 1e-12
    assert rep["extrapolated"] == rep["residuals"][0]
    assert len(rep["err_est"]) == 1


def test_rep_formula_radial_field_off_centre_omega_takes_polar_path(monkeypatch):
    rays = _recorded_ray_integrals(monkeypatch)
    u, beta = _power_field(3, -0.5), -0.5
    rep = rep_formula_report(u, _singular_profile(beta), _OFF_CENTRE_OMEGA, [0.5, 0, 0],
                             m_sphere=12, m_boundary=16, rel_tol=1e-8)
    assert [args[2] for args, _ in rays] == [_OFF_CENTRE_OMEGA]
    assert rep["err_est"] is None


@pytest.mark.parametrize("seg_block", [_SEG_BLOCK, 2000, 100])
def test_rep_formula_annulus_jets_stay_within_the_block(monkeypatch, seg_block):
    # 288 directions about p: blocks of 56 rows, of 6 rows within 2000 points,
    # and of one row where one row alone exceeds 100 points
    monkeypatch.setattr(potential, "_SEG_BLOCK", seg_block)
    u, beta = _power_field(3, -0.5), -0.5
    prof = _singular_profile(beta)
    D, sizes, jet = 0.25, [], u._jet

    def recorded(X, grad, d2):
        if d2 and not grad and np.max(np.linalg.norm(X.T - prof.p, axis=-1)) < D:
            sizes.append(X.shape[1])
        return jet(X, grad, d2)

    u._jet = recorded
    rep_formula_report(u, prof, _OFF_CENTRE_OMEGA, [0.5, 0, 0], m_sphere=12, m_boundary=16,
                       rel_tol=1e-4)
    dirs = sphere_rule(3, 12)[0].shape[0]
    assert sizes and max(sizes) <= max(seg_block, dirs)

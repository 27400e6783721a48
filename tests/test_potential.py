"""Kernel evaluation, singular quadrature and representation identities."""

import math

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
from bubbleforge.cli import _RadialPower
from bubbleforge.errors import BadRadii, Coincident, ProfileViolated
from bubbleforge.potential import (
    _SEG_BLOCK,
    _abs_h_ball,
    _aligned_sphere_rule,
    _boundary_integral,
    _gauss_gegenbauer,
    _gl_panels,
    _polar_ball_integral,
    _power_law_limit,
    _ray_exit,
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


def _rep_identity_two_passes(u_c, u2, ball, xi, m_sphere, m_rad):
    """Reference: one integral per integrand, K and the gradient
    term each from its own public evaluation of u_c."""
    n = u_c.n
    k = Kernel(n)
    radial = u_c.radial and u2.radial and bool(np.all(ball.center == 0.0))
    splits = (u_c.cut.r_in, u_c.cut.r_out)

    # both integrals hand their integrands (n, m) column batches
    def kdev(X):
        return np.asarray(k_function(u_c, X.T)) - 1.0

    def gdiff(X):
        return inv_root_grad_sq(u_c, X.T) - inv_root_grad_sq(u2, X.T)

    def integral(g):
        if radial:
            return _abs_h_ball(k, g, ball, xi, splits)[:2]
        [(val, err)], _ = _polar_ball_integral(k, lambda X: (g(X),), ball, xi, m_sphere, m_rad)
        return val, err

    q1, e1 = integral(kdev)
    q2, e2 = integral(gdiff)
    lhs = 4.0 * n * -q1
    rhs = (float(u_c.value(xi)) ** (-4.0 / (n - 2)) - float(u2.value(xi)) ** (-4.0 / (n - 2))
           + (n + 2) * q2)
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs,
            "lhs_err": 4.0 * n * e1, "rhs_err": (n + 2) * e2}


@pytest.mark.parametrize("n, center, xi, m_sphere, m_rad", [
    (3, [0.2, -0.1, 0.05], [0.1, 0.3, 0.0], 16, 32),  # several ray blocks per pass
    (4, [0.2, 0.0, 0.1, 0.0], [0.1, 0.3, 0.0, -0.2], 8, 8),
    (3, [0.0, 0.0, 0.0], [0.4, 0.0, 0.0], 16, 32),  # radial path
], ids=["polar-n3", "polar-n4", "radial-n3"])
def test_rep_identity_matches_one_integral_per_integrand(n, center, xi, m_sphere, m_rad):
    u_c, u2 = _rep_identity_glue(n)
    ball, xi = Ball(np.array(center, float), 3.0), np.array(xi)
    rep = rep_identity_report(u_c, u2, ball, xi, m_sphere, m_rad)
    ref = _rep_identity_two_passes(u_c, u2, ball, xi, m_sphere, m_rad)
    assert {key: v.hex() for key, v in rep.items()} == {key: v.hex() for key, v in ref.items()}
    assert rep["lhs_err"] > 0.0 and rep["rhs_err"] > 0.0


def test_rep_identity_polar_pass_evaluates_each_point_once(monkeypatch):
    n, m_sphere, m_rad = 3, 8, 8
    u_c, u2 = _rep_identity_glue(n)
    calls = {"u_c": [], "u2": []}
    for name, f in (("u_c", u_c), ("u2", u2)):
        def counted(X, grad, d2, jet=f._jet, seen=calls[name]):
            seen.append((X.shape[1], grad, d2))
            return jet(X, grad, d2)

        monkeypatch.setattr(f, "_jet", counted)
    rep_identity_report(u_c, u2, Ball(np.array([0.2, 0.0, 0.0]), 3.0), np.array([0.1, 0.3, 0.0]),
                        m_sphere, m_rad)
    # u_c(xi) and u2(xi) are one value-only jet each
    for name in calls:
        assert [c for c in calls[name] if c[1:] == (False, False)] == [(1, False, False)]
        calls[name] = [c for c in calls[name] if c[1:] != (False, False)]
    dirs = sphere_rule(n, m_sphere)[0].shape[0]
    # rules of m_rad and 2 m_rad panels of 16 nodes, one jet of u_c per node
    assert sum(m for m, _, _ in calls["u_c"]) == dirs * 16 * 3 * m_rad
    assert {flags[1:] for flags in calls["u_c"]} == {(True, True)}
    # u2 contributes only its gradient term: no Laplacian is formed
    assert sum(m for m, _, _ in calls["u2"]) == dirs * 16 * 3 * m_rad
    assert {flags[1:] for flags in calls["u2"]} == {(True, False)}


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


def _per_eps_volume(k, u, omega, xi, p, eps, m_sphere, m_rad):
    """Reference: the whole excluded-ball volume integral redone for one eps."""
    dist = float(np.linalg.norm(xi - p))
    D = 0.5 * dist
    dirs_p, w_p = sphere_rule(k.n, m_sphere)

    def inner_int(r):
        pts = (p[None, None, :] + r[:, None, None] * dirs_p[None, :, :]).reshape(-1, k.n)
        hv = np.asarray(h_eval(k, pts, xi)).reshape(r.size, -1)
        return (hv * u.laplacian(pts).reshape(r.size, -1)) @ w_p * r ** (k.n - 1)

    inner, _, _ = adaptive_radial(inner_int, eps, D, rel_tol=1e-9, geometric=True)
    return inner + _outer_reference(k, u, omega, xi, p, m_sphere, m_rad)


def _outer_reference(k, u, omega, xi, p, m_sphere, m_rad):
    """Reference: the volume integral over omega minus B(p, D), every direction evaluated."""
    dist = float(np.linalg.norm(xi - p))
    D = 0.5 * dist
    t_star = math.sqrt(max(0.0, 1.0 - (D / dist) ** 2))
    dirs, w = _aligned_sphere_rule(k.n, m_sphere, (p - xi) / dist, (t_star,))
    rexit = _ray_exit(omega, xi, dirs)
    b = dirs @ (xi - p)
    disc = b * b - (float((xi - p) @ (xi - p)) - D * D)
    hit = disc > 0.0
    sq = np.sqrt(np.clip(disc, 0.0, None))
    t1, t2 = np.where(hit, -b - sq, rexit), np.where(hit, -b + sq, rexit)
    hit &= (t2 > 0.0) & (t1 < rexit)
    b1 = np.clip(np.where(hit, t1, rexit), 0.0, rexit)
    a2 = np.clip(np.where(hit, t2, rexit), 0.0, rexit)
    uu, wu = _gl_panels(np.linspace(0.0, 1.0, m_rad + 1))

    def seg(lo, hi):
        lens = np.clip(hi - lo, 0.0, None)
        rr = lo[:, None] + lens[:, None] * uu[None, :]
        pts = xi[None, None, :] + rr[..., None] * dirs[:, None, :]
        lap = u.laplacian(pts.reshape(-1, k.n)).reshape(rr.shape)
        return float(w @ (lens * ((rr * lap) @ wu))) / ((2.0 - k.n) * k.omega_n)

    return seg(np.zeros_like(rexit), b1) + seg(a2, rexit)


@pytest.mark.parametrize("xi, eps_seq, quad", [
    ([0.5, 0, 0], (1e-2, 1e-3, 1e-4), {}),
    ([0.3, 0.25, -0.2], (4e-2, 2e-2, 1e-2, 5e-3),
     {"m_sphere": 12, "m_boundary": 16, "m_rad": 12}),
    # 1024 directions about p: the annulus takes blocks of 16 radius rows
    ([0.3, 0.25, -0.2, 0.1], (1e-2, 1e-3, 1e-4),
     {"m_sphere": 8, "m_boundary": 8, "m_rad": 8}),
], ids=["cli-rep-singular", "off-axis-four-eps", "n4-blocked-rows"])
def test_rep_formula_shared_outer_matches_per_eps_reference(xi, eps_seq, quad):
    # the polar path, on an omega centred off p
    n = len(xi)
    u, beta = _singular_power_field(n)
    prof = _singular_profile(beta, n=n)
    omega = Ball(np.eye(n)[0] * -0.05, 1.5)
    rep = rep_formula_report(u, prof, omega, xi, eps_seq, **quad)
    m = {"m_sphere": 24, "m_boundary": 48, "m_rad": 24, **quad}
    k, xi = Kernel(n), np.asarray(xi, float)
    target = float(u.value(xi))
    bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, m["m_boundary"])
    residuals = [_per_eps_volume(k, u, omega, xi, prof.p, eps, m["m_sphere"], m["m_rad"])
                 + bnd - target for eps in eps_seq]
    pterms = [_boundary_integral(k, u, prof.p, eps, xi, m["m_boundary"], outward=False)
              for eps in eps_seq]
    assert rep["residuals"] == residuals
    assert rep["p_boundary_terms"] == pterms
    assert rep["extrapolated"] == _power_law_limit(list(eps_seq), residuals)[0]


def test_rep_formula_outer_segments_evaluated_once_per_report():
    u, beta = _singular_power_field()
    prof = _singular_profile(beta)
    xi = np.array([0.5, 0.0, 0.0])
    D = 0.25
    m_sphere, m_rad = 12, 12
    outside = []  # sizes of Laplacian jets with every point outside B(p, D)
    jet = u._jet

    def counted(X, grad, d2):
        if d2 and not grad and np.min(np.linalg.norm(X.T - prof.p, axis=-1)) >= D:
            outside.append(X.shape[1])
        return jet(X, grad, d2)

    u._jet = counted
    rep_formula_report(u, prof, _OFF_CENTRE_OMEGA, xi, (1e-2, 1e-3, 1e-4),
                       m_sphere=m_sphere, m_boundary=16, m_rad=m_rad)
    axis, t_star = -xi / 0.5, math.sqrt(0.75)
    dirs, _ = _aligned_sphere_rule(3, m_sphere, axis, (t_star,))
    # each segment, before and after the ball, once for all three eps, in
    # blocks of whole directions of at most _SEG_BLOCK points; every direction
    # has a segment before the ball, and only those that hit it one after
    per_dir = 16 * m_rad
    block = (_SEG_BLOCK // per_dir) * per_dir
    hits = int(np.count_nonzero(dirs @ axis > t_star))
    assert 0 < hits < dirs.shape[0]
    before, after = dirs.shape[0] * per_dir, hits * per_dir
    assert 1 < after // block
    assert outside == ([min(block, before - i) for i in range(0, before, block)]
                       + [min(block, after - i) for i in range(0, after, block)])


def test_rep_formula_outer_skips_empty_segments():
    # the README rep-singular run with omega moved off p onto the polar path:
    # 2304 of the 4608 aligned directions miss B(p, D), so their segment after
    # it is empty and never evaluated, and the report keeps every bit of the
    # reference that evaluates all of them
    u, beta = _RadialPower(3, -0.5), -0.5
    prof, omega = _singular_profile(beta), _OFF_CENTRE_OMEGA
    xi, D, eps_seq = np.array([0.5, 0.0, 0.0]), 0.25, (1e-2, 1e-3, 1e-4)
    outside = []  # points of Laplacian jets with every point outside B(p, D)
    jet = u._jet

    def counted(X, grad, d2):
        if d2 and not grad and np.min(np.linalg.norm(X.T - prof.p, axis=-1)) >= D:
            outside.append(X.shape[1])
        return jet(X, grad, d2)

    u._jet = counted
    rep = rep_formula_report(u, prof, omega, xi, eps_seq)
    assert sum(outside) == (4608 + 2304) * 384
    u._jet = jet
    k = Kernel(3)
    bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, 48)
    residuals = [_per_eps_volume(k, u, omega, xi, prof.p, eps, 24, 24) + bnd - float(u.value(xi))
                 for eps in eps_seq]
    assert [r.hex() for r in rep["residuals"]] == [r.hex() for r in residuals]
    assert rep["extrapolated"].hex() == _power_law_limit(list(eps_seq), residuals)[0].hex()


def test_rep_formula_outer_with_the_ball_beyond_omega():
    # B(p, D) = B((3, 0, 0), 1.25) lies outside omega = B(0, 1.5), so every
    # segment after it is empty and the outer integral is the segment before
    k, u, omega = Kernel(3), Bubble(1.0, np.zeros(3), 3), Ball(np.zeros(3), 1.5)
    xi, p = np.array([0.5, 0.0, 0.0]), np.array([3.0, 0.0, 0.0])
    outer = potential._outer_h_lap(k, u, omega, xi, p, 1.25, 24, 24)
    assert outer.hex() == _outer_reference(k, u, omega, xi, p, 24, 24).hex()


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
    u, beta = _RadialPower(3, -0.5), -0.5
    prof, omega = _singular_profile(beta), Ball(np.zeros(3), 1.5)
    eps_seq = (1e-2, 1e-3, 1e-4)
    rep = rep_formula_report(u, prof, omega, xi, eps_seq)
    k, xi = Kernel(3), np.asarray(xi, float)
    bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, 48)
    residuals = [_per_eps_volume(k, u, omega, xi, prof.p, eps, 24, 24) + bnd - float(u.value(xi))
                 for eps in eps_seq]
    pterms = [_boundary_integral(k, u, prof.p, eps, xi, 48, outward=False) for eps in eps_seq]
    assert rep["residuals"] == pytest.approx(residuals, rel=0.0, abs=2e-6)
    assert rep["p_boundary_terms"] == pytest.approx(pterms, rel=0.0, abs=2e-6)
    assert len(rep["err_est"]) == len(eps_seq)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rep_formula_radial_path_extrapolates_to_roundoff(n):
    # the residual is minus the p-sphere term, u'(eps) eps^(n-1) ~ eps^nu
    u, beta = _RadialPower(n, 2.0 - n + 0.5), 2.0 - n + 0.5
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
    u, beta = _RadialPower(3, -0.5), -0.5
    rep_formula_report(u, _singular_profile(beta), Ball(np.zeros(3), 1.5), [0.5, 0, 0])
    assert calls == [(3, potential._PROFILE_SPHERE)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rep_formula_radial_path_evaluates_few_points(n):
    # verify_profile's sample included; the polar rules took 3.34M points at n = 3
    u, beta = _RadialPower(n, 2.0 - n + 0.5), 2.0 - n + 0.5
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
    outer, real = [], potential._outer_h_lap

    def recorded(*args):
        outer.append(args[2])
        return real(*args)

    monkeypatch.setattr(potential, "_outer_h_lap", recorded)
    u, beta = _RadialPower(3, -0.5), -0.5
    rep = rep_formula_report(u, _singular_profile(beta), _OFF_CENTRE_OMEGA, [0.5, 0, 0],
                             m_sphere=12, m_boundary=16, m_rad=12)
    assert outer == [_OFF_CENTRE_OMEGA]
    assert rep["err_est"] is None


@pytest.mark.parametrize("seg_block", [_SEG_BLOCK, 2000, 100])
def test_rep_formula_annulus_jets_stay_within_the_block(monkeypatch, seg_block):
    # 288 directions about p: blocks of 56 rows, of 4 rows within 2000 points,
    # and of 4 rows where one row alone exceeds 100 points
    monkeypatch.setattr(potential, "_SEG_BLOCK", seg_block)
    u, beta = _RadialPower(3, -0.5), -0.5
    prof = _singular_profile(beta)
    D, sizes, jet = 0.25, [], u._jet

    def recorded(X, grad, d2):
        if d2 and not grad and np.max(np.linalg.norm(X.T - prof.p, axis=-1)) < D:
            sizes.append(X.shape[1])
        return jet(X, grad, d2)

    u._jet = recorded
    rep_formula_report(u, prof, _OFF_CENTRE_OMEGA, [0.5, 0, 0], m_sphere=12, m_boundary=16,
                       m_rad=12)
    dirs = sphere_rule(3, 12)[0].shape[0]
    assert sizes and max(sizes) <= max(seg_block, 4 * dirs)

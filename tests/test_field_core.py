"""Bubbles, field algebra and the curvature-function evaluator."""

import itertools

import mpmath
import numpy as np
import pytest

from bubbleforge import (
    BaseField,
    Bubble,
    CallableRadialField,
    GlueConfig,
    Inversion,
    ScalarField,
    base_k,
    combined_k_bounds,
    glue_concentric,
    grad_inv_power,
    inv_root_grad_sq,
    k_function,
    k_sum_limit,
    kelvin_bubble,
    lower_bound_4_4,
    solve_rho_M,
    sum_field,
    sup_scan,
)
from bubbleforge.cli import _power_field
from bubbleforge.errors import KappaTooLarge, NonpositiveValue
from bubbleforge.field_core import SumField, _row_dot, _sq_dist
from bubbleforge.glue import DisjointGlueField, InsertGlueField
from bubbleforge.kelvin import KelvinField, _image
from bubbleforge.potential import Kernel
from bubbleforge.regions import Box

from conftest import fd_k, fd_laplacian, identity_3_4_residual, random_rotation


def test_bubble_value_at_center_is_inverse_scale_power():
    b = Bubble(1.0, [0, 0, 0], 3)
    assert b.value([0, 0, 0]) == 1.0


def test_bubble_value_unit_distance():
    b = Bubble(1.0, [0, 0, 0], 3)
    assert b.value([1, 0, 0]) == pytest.approx(0.5**0.5, abs=1e-15)


def test_bubble_value_n4():
    b = Bubble(2.0, [0, 0, 0, 0], 4)
    assert b.value([2, 0, 0, 0]) == pytest.approx(0.25, abs=1e-15)


def test_bubble_gradient_vanishes_at_center(rng):
    for n in (3, 4, 5):
        center = rng.normal(size=n)
        grad = Bubble(0.7, center, n).gradient(center)
        assert np.allclose(grad, 0.0)


def test_bubble_laplacian_at_center_n3():
    lap = Bubble(1.0, [0, 0, 0], 3).laplacian([0, 0, 0])
    assert lap == pytest.approx(-3.0, abs=1e-14)


def test_bubble_laplacian_against_fd_oracle():
    # frozen closed-form value -3 * (1/2)^(5/2); the FD stencil must agree
    # to O(h^2) and the analytic Laplacian to machine precision
    b = Bubble(1.0, [0, 0, 0], 3)
    x = np.array([1.0, 0.0, 0.0])
    frozen = -3.0 * 0.5**2.5
    assert frozen == pytest.approx(-0.5303300858899106, abs=1e-15)
    lap = b.laplacian(x)
    assert lap == pytest.approx(frozen, abs=1e-13)
    h = 1e-4
    assert fd_laplacian(b.value, x, h) == pytest.approx(frozen, abs=50 * h * h)


def test_bubble_satisfies_critical_equation(rng):
    for n in (3, 4, 5, 6):
        lam = float(rng.uniform(0.3, 3.0))
        center = rng.normal(size=n)
        b = Bubble(lam, center, n)
        pts = center + rng.normal(size=(20, n)) * lam
        p = (n + 2) / (n - 2)
        assert np.allclose(b.laplacian(pts), -n * (n - 2) * b.value(pts) ** p,
                           rtol=1e-13, atol=1e-13)


def test_bubble_gradient_matches_fd(rng):
    b = Bubble(0.8, [0.5, -0.2, 0.1], 3)
    for _ in range(5):
        x = rng.normal(size=3)
        g = b.gradient(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd = (b.value(x + e) - b.value(x - e)) / 2e-6
            assert g[i] == pytest.approx(fd, abs=1e-8)


def test_k_function_of_bubble_is_one(rng):
    for n in (3, 4, 5, 6):
        lam = float(rng.uniform(0.3, 3.0))
        center = rng.normal(size=n)
        b = Bubble(lam, center, n)
        pts = center + rng.normal(size=(25, n)) * (2 * lam)
        assert np.max(np.abs(k_function(b, pts) - 1.0)) < 1e-8


def test_k_function_fd_backend_close_to_analytic(rng):
    b = Bubble(1.3, [0.2, 0.0, -0.4], 3)
    for _ in range(5):
        x = b.center + rng.normal(size=3)
        ka = k_function(b, x)
        kf = fd_k(b, x, 1e-4 * 1.3)
        assert abs(ka - kf) < 1e-4


def test_k_function_sum_equal_bubbles_on_bisector():
    b1 = Bubble(1.0, [-2, 0, 0], 3)
    b2 = Bubble(1.0, [2, 0, 0], 3)
    u = sum_field(b1, b2)
    # any point equidistant from the centers
    assert k_function(u, [0.0, 0.7, -0.3]) == pytest.approx(2.0**-4, abs=1e-12)


def test_k_function_base_field_center():
    assert k_function(BaseField(3), [0, 0, 0]) == pytest.approx(0.5, abs=1e-14)
    assert k_function(BaseField(5), [0, 0, 0, 0, 0]) == pytest.approx(0.5, abs=1e-14)


class _NegativeField(ScalarField):
    n = 3

    def _jet(self, X, grad, d2):
        m = X.shape[1]
        return np.full(m, -1.0), np.zeros((3, m)) if grad else None, np.zeros(m) if d2 else None


def test_k_function_rejects_nonpositive_values():
    with pytest.raises(NonpositiveValue):
        k_function(_NegativeField(), [0, 0, 0])


def test_sum_field_doubles_bubble(rng):
    b = Bubble(0.9, [0.1, 0.2, 0.3], 3)
    s = sum_field(b, b)
    pts = rng.normal(size=(10, 3))
    assert np.allclose(s.value(pts), 2 * b.value(pts))
    assert np.allclose(s.gradient(pts), 2 * b.gradient(pts))
    assert np.allclose(s.laplacian(pts), 2 * b.laplacian(pts))


def test_sum_of_bubbles_k_closed_form(rng):
    n = 3
    p = (n + 2) / (n - 2)
    b1 = Bubble(1.0, [1.5, 0, 0], n)
    b2 = Bubble(0.6, [-1.0, 0.3, 0], n)
    u = sum_field(b1, b2)
    pts = rng.normal(size=(30, n)) * 2
    v1, v2 = b1.value(pts), b2.value(pts)
    expected = (v1**p + v2**p) / (v1 + v2) ** p
    assert np.allclose(k_function(u, pts), expected, atol=1e-12)


def test_sum_equal_bubbles_deviation_cap(rng):
    # sup |K - 1| over a grid never exceeds 1 - 2^(4/(2-n))
    b1 = Bubble(1.0, [2, 0, 0], 3)
    b2 = Bubble(1.0, [-2, 0, 0], 3)
    u = sum_field(b1, b2)
    pts = rng.uniform(-4, 4, size=(4000, 3))
    dev = np.abs(k_function(u, pts) - 1.0)
    assert np.max(dev) <= 1.0 - 2.0**-4 + 1e-6


def test_sum_far_field_limit_equal_scales():
    u = sum_field(Bubble(1.0, [2, 0, 0], 3), Bubble(1.0, [-2, 0, 0], 3))
    k_far = k_function(u, [1e6, 0, 0])
    assert k_far == pytest.approx(2.0 ** (4 / (2 - 3)), abs=1e-4)


def test_k_sum_limit_values():
    assert k_sum_limit(1.0, 1.0, 3) == pytest.approx(0.0625, abs=1e-15)
    assert k_sum_limit(2.0, 2.0, 6) == pytest.approx(0.5, abs=1e-15)
    # nearly-degenerate second scale: the limit approaches the one-bubble
    # value 1 like 5 lam2^((n-2)/2); frozen from the closed form
    v = k_sum_limit(1.0, 1e-12, 3)
    assert v == pytest.approx(0.9999950000150004, abs=1e-12)
    assert abs(v - 1.0) < 1e-5


def test_identity_3_4_bubble_closed_form():
    # for a bubble, lap(u^(-4/(n-2))) = 4n + 4(n+2) r^2/lam^2 exactly
    n = 3
    b = Bubble(1.0, [0, 0, 0], n)
    x = np.array([1.0, 0.0, 0.0])
    lhs_closed = 4 * n + 4 * (n + 2) * 1.0
    assert lhs_closed == 32.0
    rhs = 4 * n * k_function(b, x) + (n + 2) * grad_inv_power(b, x)
    assert rhs == pytest.approx(lhs_closed, abs=1e-8)
    assert abs(identity_3_4_residual(b, x, 1e-3 * 1.0)) < 1e-5


def test_identity_3_4_residual_random_fields(rng):
    # steps 1e-3 times the smallest bubble scale, or 1e-3 for the base field
    fields = [
        (Bubble(1.1, [0.3, 0, 0], 3), 1e-3 * 1.1),
        (sum_field(Bubble(1.0, [1, 0, 0], 3), Bubble(0.7, [-1, 0, 0], 3)), 1e-3 * 0.7),
        (BaseField(3), 1e-3 * 1.0),
    ]
    for f, h in fields:
        for _ in range(10):
            x = rng.normal(size=3)
            assert abs(identity_3_4_residual(f, x, h)) < 1e-4


def test_identity_3_4_residual_base_field_origin():
    assert abs(identity_3_4_residual(BaseField(3), [0.0, 0.0, 0.0], 1e-3 * 1.0)) < 1e-4


def test_identity_3_4_residual_glued_field(rng):
    u = glue_concentric(GlueConfig.concentric(
        Bubble(0.5, np.zeros(3), 3), Bubble(1.0, np.zeros(3), 3), 1.0, 3.0))
    # sample inside the transition annulus, away from the seams so the FD
    # stencil never straddles a point where the third derivative jumps; the
    # step is 1e-3 min(lam1, lam2, R - rho)
    for _ in range(10):
        r = rng.uniform(1.05, 2.95)
        d = rng.normal(size=3)
        x = r * d / np.linalg.norm(d)
        assert abs(identity_3_4_residual(u, x, 1e-3 * 0.5)) < 1e-4


def test_grad_inv_power_examples():
    b = Bubble(1.0, [0, 0, 0], 3)
    assert grad_inv_power(b, [0, 0, 0]) == 0.0
    assert grad_inv_power(b, [1, 0, 0]) == pytest.approx(4.0, abs=1e-14)
    b2 = Bubble(2.0, [0, 0, 0], 3)
    assert grad_inv_power(b2, [3, 0, 0]) == pytest.approx(9.0, abs=1e-14)


def test_grad_inv_power_matches_generic_formula(rng):
    for n in (3, 4, 5):
        b = Bubble(float(rng.uniform(0.5, 2)), rng.normal(size=n), n)
        pts = b.center + rng.normal(size=(15, n))
        assert np.allclose(grad_inv_power(b, pts), inv_root_grad_sq(b, pts),
                           rtol=1e-12)


def test_base_k_values():
    assert base_k([0, 0, 0], 3) == 0.5
    assert base_k([1e6, 0, 0], 3) == pytest.approx(1 / 12, abs=1e-5)
    assert base_k([1, 0, 0, 0], 4) == pytest.approx(0.3125, abs=1e-15)


def test_base_field_k_matches_closed_form(rng):
    for n in (3, 4, 6):
        f = BaseField(n)
        pts = rng.normal(size=(20, n)) * 3
        assert np.allclose(k_function(f, pts), base_k(pts, n), atol=1e-12)


def test_combined_k_bounds_values():
    lo, hi = combined_k_bounds(0.0, 3)
    assert lo == pytest.approx(1 / 192, abs=1e-15)
    assert hi == 1.0
    lo, hi = combined_k_bounds(0.5**0.5, 4)
    assert lo == pytest.approx(0.03125, abs=1e-12)
    assert hi == pytest.approx(1.5, abs=1e-12)


def test_combined_k_bounds_rejects_large_kappa():
    with pytest.raises(KappaTooLarge):
        combined_k_bounds(1.0, 3)


def test_combined_field_respects_bounds(rng):
    for n in (3, 5):
        u = sum_field(Bubble(1.0, np.zeros(n), n), BaseField(n))
        lo, hi = combined_k_bounds(0.0, n)
        pts = rng.normal(size=(400, n)) * 4
        kv = k_function(u, pts)
        assert np.all(kv >= lo - 1e-6)
        assert np.all(kv <= hi + 1e-6)


def test_fd_laplacian_consistency(rng):
    # steps 1e-4 times the smallest bubble scale, or 1e-4 for the base field
    fields = [(Bubble(1.0, [0.2, -0.1, 0.3], 3), 1e-4 * 1.0), (BaseField(3), 1e-4 * 1.0),
              (sum_field(Bubble(0.8, [1, 0, 0], 3), BaseField(3)), 1e-4 * 0.8)]
    for f, h in fields:
        for _ in range(8):
            x = rng.normal(size=3)
            err = abs(f.laplacian(x) - fd_laplacian(f.value, x, h))
            assert err <= 100 * h * h + 1e-9


def test_radial_symmetry_under_rotations(rng):
    for f in (Bubble(1.2, np.zeros(3), 3), BaseField(3)):
        for _ in range(5):
            x = rng.normal(size=3)
            q = random_rotation(rng, 3)
            assert f.value(q @ x) == pytest.approx(f.value(x), abs=1e-12)


def test_dim_and_bubble_validation():
    with pytest.raises(ValueError, match="dimension must be an integer >= 3"):
        Bubble(1.0, [0, 0], 2)
    with pytest.raises(ValueError):
        Bubble(0.0, [0, 0, 0], 3)
    with pytest.raises(ValueError):
        Bubble(-1.0, [0, 0, 0], 3)
    with pytest.raises(ValueError):
        Bubble(1.0, [np.inf, 0, 0], 3)


@pytest.mark.parametrize("call", [
    lambda n: k_sum_limit(1.0, 2.0, n),
    lambda n: lower_bound_4_4(0.01, 1.0, 0.5, 2.0, n=n),
    lambda n: combined_k_bounds(0.5, n),
    lambda n: base_k(np.zeros(3), n),
    lambda n: solve_rho_M(1e-3, 0.25, n),
    lambda n: Bubble(1.0, np.zeros(3), n),
    lambda n: BaseField(n),
    lambda n: Kernel(n),
], ids=["k_sum_limit", "lower_bound_4_4", "combined_k_bounds", "base_k", "solve_rho_M",
        "Bubble", "BaseField", "Kernel"])
def test_non_integral_dimension_is_rejected(call):
    # 3.5 was once truncated to 3 by every entry point but the dimension check's own
    with pytest.raises(ValueError, match="dimension must be an integer >= 3"):
        call(3.5)
    call(3)


# --- closed-form jets against a 30-digit oracle ------------------------------------
# Every jet entry is within JET_REL_TOL of mpmath at 30 digits: u relative to
# |u|, each partial relative to |grad u| and the Laplacian relative to |lap u|.
# On its annulus the concentric glue sums Laplacian terms up to ~100 times
# larger than their sum, so its Laplacian is measured relative to
# |f''| + (n-1) |f'/r|.  Over each field's configurations, the worst error
# of each entry is also at most twice that of the formulas that took two to
# four non-integer powers per point, kept below as the reference (for the
# concentric glue, its own jet on those formulas' bubble jets).

JET_REL_TOL = 1e-14


def _mp_radial_jet(x, center, f, df, d2f):
    """(u, grad u, lap u, |grad u|, lap scale) at x of the radial field f(|x - center|), in mpmath.

    f, df and d2f give the profile and its first two derivatives at an mpf
    radius; the offsets are the exact differences of the float (or mpf)
    inputs.  The scale is |f''| + (n-1) |f'/r|, or |lap u| at r = 0.
    """
    d = [mpmath.mpf(a) - mpmath.mpf(c) for a, c in zip(x, center)]
    r = mpmath.sqrt(mpmath.fsum(di * di for di in d))
    n = len(d)
    if r == 0:
        lap = n * d2f(r)
        return f(r), [mpmath.mpf(0)] * n, lap, mpmath.mpf(0), abs(lap)
    slope = df(r) / r
    return (f(r), [slope * di for di in d], d2f(r) + (n - 1) * slope, abs(df(r)),
            abs(d2f(r)) + (n - 1) * abs(slope))


def _mp_bubble(lam, center):
    """Profile oracle of a bubble; lam and the centre may be floats or mpf."""
    lam = mpmath.mpf(lam)
    center = [mpmath.mpf(c) for c in center]
    n = len(center)
    q = mpmath.mpf(n - 2) / 2

    def f(r):
        return (lam / (lam**2 + r * r)) ** q

    def df(r):
        return -(n - 2) * r * lam**q * (lam**2 + r * r) ** (-q - 1)

    def d2f(r):
        return -(n - 2) * lam**q * (lam**2 + r * r) ** (-q - 2) * (lam**2 + (1 - n) * r * r)

    return center, f, df, d2f


def _mp_base(n):
    m = mpmath.mpf(2 - n) / 4

    def f(r):
        return (1 + r * r) ** m

    def df(r):
        return 2 * m * r * (1 + r * r) ** (m - 1)

    def d2f(r):
        return 2 * m * (1 + r * r) ** (m - 1) + 4 * m * (m - 1) * r * r * (1 + r * r) ** (m - 2)

    return [0.0] * n, f, df, d2f


def _mp_power(n, beta):
    beta = mpmath.mpf(beta)
    return ([0.0] * n, lambda r: r**beta, lambda r: beta * r ** (beta - 1),
            lambda r: beta * (beta - 1) * r ** (beta - 2))


def _mp_cutoff(c):
    """(phi, phi', phi'') of the Cutoff c, its quintic smoothstep, at an mpf radius."""
    r_in, width = mpmath.mpf(c.r_in), mpmath.mpf(c.r_out) - mpmath.mpf(c.r_in)

    def cut(r):
        t = min(max((r - r_in) / width, 0), 1)
        return (1 - t**3 * (10 - 15 * t + 6 * t * t), -30 * t * t * (1 - t) ** 2 / width,
                -60 * t * (2 * t - 1) * (t - 1) / width**2)

    return cut


def _mp_concentric(w):
    """The concentric glue phi u1 + (1 - phi) u2 with its quintic smoothstep."""
    c, f1, df1, d2f1 = _mp_bubble(w.b1.lam, w.b1.center)
    _, f2, df2, d2f2 = _mp_bubble(w.b2.lam, w.b2.center)
    cut = _mp_cutoff(w.cut)

    def f(r):
        p = cut(r)[0]
        return p * f1(r) + (1 - p) * f2(r)

    def df(r):
        p, dp, _ = cut(r)
        return dp * (f1(r) - f2(r)) + p * df1(r) + (1 - p) * df2(r)

    def d2f(r):
        p, dp, d2p = cut(r)
        return (d2p * (f1(r) - f2(r)) + 2 * dp * (df1(r) - df2(r))
                + p * d2f1(r) + (1 - p) * d2f2(r))

    return c, f, df, d2f


def _jet_errors(cases, lap_terms=False):
    """Worst relative errors of the jets' (u, partials, lap) over (field, pts, oracle) cases."""
    worst = [0.0, 0.0, 0.0]
    with mpmath.workdps(30):
        for field, pts, oracle in cases:
            u, g, lap = field._jet(np.ascontiguousarray(pts.T), True, True)
            for j, x in enumerate(pts):
                # a radial field's (centre, f, f', f''), or a function of x
                uu, gg, ll, gscale, terms = (oracle(x) if callable(oracle)
                                             else _mp_radial_jet(x, *oracle))
                eg = max(abs(mpmath.mpf(float(g[i, j])) - gg[i]) for i in range(len(gg)))
                errs = (abs(mpmath.mpf(float(u[j])) - uu) / abs(uu),
                        eg / gscale if gscale else (0.0 if eg == 0 else mpmath.inf),
                        abs(mpmath.mpf(float(lap[j])) - ll) / (terms if lap_terms else abs(ll)))
                worst = [max(w, float(e)) for w, e in zip(worst, errs)]
    return worst


# the formulas of Bubble, BaseField and KelvinField._jet that took two to four
# non-integer powers per point, kept as the accuracy reference


def _powers_bubble_radial_jet(self, r, slope, d2, sq=None):
    # the Laplacian reads the squared radii sq, exact when given, else r * r
    q = (self.n - 2) / 2
    s2 = self.lam**2 + r * r
    k = None
    if slope:
        df = -(self.n - 2) * r * self.lam**q * s2 ** (-self.n / 2)
        k = df / np.where(r == 0.0, 1.0, r)
    lap = None
    if d2:
        sq = r * r if sq is None else sq
        lap = -self.n * (self.n - 2) * (self.lam / (self.lam**2 + sq)) ** ((self.n + 2) / 2)
    return (self.lam / s2) ** q, k, lap


def _powers_base_radial_jet(self, r, slope, d2, sq=None):
    m = (2 - self.n) / 4
    lap = None
    if d2:
        sq = r * r if sq is None else sq
        lap = ((2 - self.n) / 2) * (1.0 + sq) ** (m - 2) * (self.n + ((self.n - 2) / 2) * sq)
    w = 1.0 + r * r
    k = 2 * m * r * w ** (m - 1) / np.where(r == 0.0, 1.0, r) if slope else None
    return w ** m, k, lap


def _powers_radial_field_jet(self, X, grad, d2):
    # RadialField._jet handing the exact squared radii on as well, so that
    # the two references above read them
    sq = _sq_dist(X, self.center)
    r = np.sqrt(sq)
    u, slope, lap = self._radial_jet(r, grad, d2, sq=sq)
    if not grad:
        return u, None, lap
    g = X - self.center[:, None]
    g *= slope
    g[:, r == 0.0] = 0.0
    return u, g, lap


def _powers_kelvin_jet(self, X, grad, d2):
    # the non-centre branch of KelvinField._jet
    d = X - self.inv.center[:, None]
    rho2 = _sq_dist(d)
    a = self.inv.radius
    u, gu, lap = self.src._jet(_image(self.inv, d, rho2), grad, d2)
    pref = (a**2 / rho2) ** ((self.n - 2) / 2)
    if d2:
        lap = (a**2 / rho2) ** ((self.n + 2) / 2) * lap
    dot = _row_dot(d, gu)
    jac_g = (a**2 / rho2) * (gu - 2.0 * d * dot / rho2)
    g = (2 - self.n) * a ** (self.n - 2) * rho2 ** (-self.n / 2.0) * d * u + pref * jac_g
    return pref * u, g, lap


def _assert_accurate(cases, monkeypatch, patches, lap_terms=False):
    """The jets meet JET_REL_TOL, and each entry's worst error is at most twice
    that of the power-per-factor formulas that patches put back."""
    new = _jet_errors(cases, lap_terms)
    with monkeypatch.context() as m:
        for cls, name, fn in patches:
            m.setattr(cls, name, fn)
        old = _jet_errors(cases, lap_terms)
    for entry, e_new, e_old in zip(("u", "grad", "lap"), new, old):
        assert e_new <= JET_REL_TOL, (entry, e_new)
        assert e_new <= 2.0 * max(e_old, np.finfo(float).eps), (entry, e_new, e_old)


_BUBBLE_POWERS = [(Bubble, "_radial_jet", _powers_bubble_radial_jet),
                  (Bubble, "_jet", _powers_radial_field_jet)]


def _unit_dirs(rng, k, n):
    dirs = rng.normal(size=(k, n))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def test_bubble_jet_against_mpmath(monkeypatch):
    # n = 3..6 and lam = 1e-3, 1, 7, at lam * rho from the centre for rho
    # from 0 (the centre itself) to 1e3
    rng = np.random.default_rng(1800)
    rho = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3] * 3)
    cases = []
    for n in (3, 4, 5, 6):
        for lam in (1e-3, 1.0, 7.0):
            center = 0.5 * rng.normal(size=n)
            pts = center + lam * rho[:, None] * _unit_dirs(rng, rho.size, n)
            cases.append((Bubble(lam, center, n), pts, _mp_bubble(lam, center)))
    _assert_accurate(cases, monkeypatch, _BUBBLE_POWERS)


def test_base_field_jet_against_mpmath(monkeypatch):
    rng = np.random.default_rng(1810)
    cases = []
    for n in (3, 4, 5, 6):
        pts = rng.uniform(-3.0, 3.0, size=(24, n))
        pts[0] = 0.0
        cases.append((BaseField(n), pts, _mp_base(n)))
    _assert_accurate(cases, monkeypatch, [(BaseField, "_radial_jet", _powers_base_radial_jet),
                                          (BaseField, "_jet", _powers_radial_field_jet)])


def test_kelvin_bubble_jet_against_mpmath(monkeypatch):
    # the Kelvin image of a bubble is the bubble of kelvin_bubble's law,
    # its parameters formed here in mpmath
    rng = np.random.default_rng(1820)
    cases = []
    for n in (3, 4, 5, 6):
        b = Bubble(0.8, 0.6 * rng.normal(size=n), n)
        inv = Inversion(0.3 * rng.normal(size=n), 1.7)
        with mpmath.workdps(30):
            xi = [mpmath.mpf(c) - mpmath.mpf(e) for c, e in zip(b.center, inv.center)]
            a2 = mpmath.mpf(inv.radius) ** 2
            den = mpmath.mpf(b.lam) ** 2 + mpmath.fsum(x * x for x in xi)
            oracle = _mp_bubble(a2 * b.lam / den,
                                [mpmath.mpf(e) + a2 * x / den for e, x in zip(inv.center, xi)])
        cases.append((KelvinField(b, inv), rng.uniform(-2.0, 2.0, size=(32, n)), oracle))
    _assert_accurate(cases, monkeypatch, [(KelvinField, "_jet", _powers_kelvin_jet)])


def test_concentric_glue_jet_against_mpmath(monkeypatch):
    rng = np.random.default_rng(1830)
    cases = []
    for n in (3, 4, 5):
        w = glue_concentric(GlueConfig.concentric(Bubble(0.2, np.zeros(n), n),
                                                  Bubble(1.0, np.zeros(n), n), 0.5, 1.5))
        # radii from the centre across the cutoff to beyond it
        pts = np.linspace(0.0, 2.0, 40)[:, None] * _unit_dirs(rng, 40, n)
        cases.append((w, pts, _mp_concentric(w)))
    _assert_accurate(cases, monkeypatch, _BUBBLE_POWERS, lap_terms=True)


def _mp_blend(x, c, cut, a, b):
    """(u, grad u, lap u, grad scale, lap scale) at x of phi(|x - c|) A + (1 - phi) B, in mpmath.

    cut is an _mp_cutoff, and a and b are the jets of A and B at x with their
    scales (a None for A = 0).  Each scale adds the absolute values of its
    terms: phi and 1 - phi times A's and B's scales, and for the gradient
    |phi'| |A - B|, for the Laplacian |2 grad phi . grad(A - B)| and
    (|phi''| + (n-1) |phi'/s|) |A - B|.
    """
    n = len(x)
    off = [mpmath.mpf(xi) - mpmath.mpf(ci) for xi, ci in zip(x, c)]
    s = mpmath.sqrt(mpmath.fsum(o * o for o in off))
    p, dp, d2p = cut(s)
    slope = dp / s if s else mpmath.mpf(0)  # the cutoff is flat about its centre
    ua, ga, la, gsa, lsa = a or (0, [0] * n, 0, 0, 0)
    ub, gb, lb, gsb, lsb = b
    d = ua - ub
    cross = 2 * slope * mpmath.fsum(o * (gi - gj) for o, gi, gj in zip(off, ga, gb))
    return (p * ua + (1 - p) * ub,
            [p * gi + (1 - p) * gj + slope * o * d for gi, gj, o in zip(ga, gb, off)],
            p * la + (1 - p) * lb + cross + (d2p + (n - 1) * slope) * d,
            p * gsa + (1 - p) * gsb + abs(dp * d),
            p * lsa + (1 - p) * lsb + abs(cross) + (abs(d2p) + (n - 1) * abs(slope)) * abs(d))


def _mp_sum(*jets):
    """The jet and scales of a sum of fields, from theirs."""
    u, g, lap, gscale, lscale = zip(*jets)
    return sum(u), [sum(gi) for gi in zip(*g)], sum(lap), sum(gscale), sum(lscale)


def _blend_glues(n):
    """The disjoint glue, outward and inward, and the insert glue in R^n with their
    oracles, and their centres."""
    e1 = np.eye(n)[0]
    b1, b2 = _mp_bubble(0.1, 2.5 * e1), _mp_bubble(1.0, np.zeros(n))

    def disjoint(w):
        cut1, cut2 = _mp_cutoff(w.cut1), _mp_cutoff(w.cut2)
        return lambda x: _mp_sum(_mp_blend(x, b2[0], cut2, None, _mp_radial_jet(x, *b1)),
                                 _mp_blend(x, b1[0], cut1, None, _mp_radial_jet(x, *b2)))

    out = [DisjointGlueField(Bubble(0.1, 2.5 * e1, n), 0.5, Bubble(1.0, np.zeros(n), n), 0.5),
           DisjointGlueField(Bubble(0.1, 2.5 * e1, n), 0.5, Bubble(1.0, np.zeros(n), n), 0.5,
                             width1=0.4, width2=0.3, inward=True)]
    cases = [(w, disjoint(w), [(w.b2.center, w.cut2), (w.b1.center, w.cut1)]) for w in out]
    w = InsertGlueField(SumField(Bubble(1.0, np.zeros(n), n), BaseField(n)),
                        Bubble(0.5, np.zeros(n), n), 0.1 * e1, rho_M=2.0)
    host = (_mp_bubble(1.0, np.zeros(n)), _mp_base(n))
    bubble, cut = _mp_bubble(0.5, np.zeros(n)), _mp_cutoff(w.cut)

    def insert(x):
        y = [mpmath.mpf(xi) + mpmath.mpf(ci) for xi, ci in zip(x, w.x1)]  # x1 + x, exactly
        return _mp_blend(x, np.zeros(n), cut, _mp_radial_jet(x, *bubble),
                         _mp_sum(*(_mp_radial_jet(y, *h) for h in host)))

    # the host's centre in bubble coordinates is -x1, where the cutoff is 0
    return cases + [(w, insert, [(np.zeros(n), w.cut), (-w.x1, None)])]


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["disjoint", "disjoint-inward", "insert"])
def test_blend_glue_jet_against_mpmath(kind):
    # points across each cutoff's transition band, at both of its ends (t = 0
    # and t = 1 exactly, along e2, where every centre has a zero coordinate)
    # and at each centre; the partials and the Laplacian are measured against
    # their terms (_mp_blend), which cancel where the gradients of A and B do
    rng = np.random.default_rng(1850 + kind)
    cases = []
    for n in (3, 4, 5):
        w, oracle, cuts = _blend_glues(n)[kind]
        e2 = np.eye(n)[1]
        pts = [rng.uniform(-3.0, 3.0, size=(8, n))]
        for c, cut in cuts:
            pts.append(c[None, :])
            if cut is not None:
                pts.append(c + np.array([cut.r_in, cut.r_out])[:, None] * e2)
                pts.append(c + rng.uniform(cut.r_in, cut.r_out, size=(12, 1))
                           * _unit_dirs(rng, 12, n))
        cases.append((w, np.vstack(pts), oracle))
    for entry, err in zip(("u", "grad", "lap"), _jet_errors(cases, lap_terms=True)):
        assert err <= JET_REL_TOL, (entry, err)


def test_rep_singular_jet_against_mpmath(monkeypatch):
    rng = np.random.default_rng(1840)
    new, old = [], []
    for n, nu in ((3, 0.5), (4, 0.3), (5, 0.7)):
        beta = 2.0 - n + nu
        pts = np.geomspace(1e-4, 1.5, 24)[:, None] * _unit_dirs(rng, 24, n)
        three_powers = CallableRadialField(
            n, lambda r, b=beta: r**b, lambda r, b=beta: b * r ** (b - 1),
            lambda r, b=beta: b * (b - 1) * r ** (b - 2))
        new.append((_power_field(n, beta), pts, _mp_power(n, beta)))
        old.append((three_powers, pts, _mp_power(n, beta)))
    for entry, e_new, e_old in zip(("u", "grad", "lap"), _jet_errors(new), _jet_errors(old)):
        assert e_new <= JET_REL_TOL, (entry, e_new)
        assert e_new <= 2.0 * max(e_old, np.finfo(float).eps), (entry, e_new, e_old)


@pytest.mark.parametrize("slope, d2", [(False, False), (True, False), (False, True),
                                       (True, True)])
def test_power_field_jet_is_its_closed_form_bit_for_bit(slope, d2):
    # the rep-singular field keeps the bits of f = r^beta, f' = beta f / r and
    # f'' = (beta - 1) f' / r, with f'/r and f'' + (n-1) f'/r formed from them
    # in that order, and at r = 0 the slope f'(0) and the limit n f''(0)
    rng = np.random.default_rng(1841)
    for n, nu in itertools.product((3, 4, 5, 6), (0.1, 0.5, 0.9)):
        beta = 2.0 - n + nu
        r = np.concatenate([[0.0], np.geomspace(1e-6, 4.0, 63), rng.uniform(0.0, 3.0, 64)])
        # r = 0 gives infinities, and inf - inf in the unused lap entry there
        with np.errstate(divide="ignore", invalid="ignore"):
            f = r**beta
            df = beta * f / r
            d2f = (beta - 1.0) * df / r
            rs = np.where(r == 0.0, 1.0, r)
            want = (f, df / rs if slope else None,
                    np.where(r == 0.0, n * d2f, d2f + (n - 1) * df / rs) if d2 else None)
            got = _power_field(n, beta)._radial_jet(r.copy(), slope, d2)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes(), (n, nu)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("lam", [1e-3, 1.0, 7.0])
def test_bubble_jet_at_its_centre(n, lam):
    # the slope -(n-2) u t / lam is finite at r = 0, and no guard is needed
    center = np.linspace(-0.5, 0.5, n)
    u, g, lap = Bubble(lam, center, n)._jet(center[:, None], True, True)
    assert np.all(g == 0.0)
    exact = -n * (n - 2) * lam ** (-(n + 2) / 2)
    assert abs(lap[0] - exact) <= 1e-15 * abs(exact)


@pytest.mark.parametrize("seed", range(4))
def test_sup_scan_of_an_exact_bubble_is_roundoff(seed):
    # the bubble the benchmark's "api sup_scan bubble" scans: a Kelvin image
    # of Bubble(1, [-1, 0.5, 0]) about a seeded sphere, on the box [-3, 3]^3
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    inv = Inversion(float(rng.uniform(3.5, 4.5)) * direction, float(rng.uniform(2.0, 3.0)))
    image = kelvin_bubble(Bubble(1.0, [-1.0, 0.5, 0.0], 3), inv)
    rep = sup_scan(image, Box(np.full(3, -3.0), np.full(3, 3.0)))
    assert rep.sup_abs_dev <= 1e-12

"""Bubbles, field algebra and the curvature-function evaluator."""

import numpy as np
import pytest

from bubbleforge import (
    BaseField,
    Bubble,
    GlueConfig,
    ScalarField,
    base_k,
    combined_k_bounds,
    glue_concentric,
    grad_inv_power,
    inv_root_grad_sq,
    k_function,
    k_sum_limit,
    lower_bound_4_4,
    solve_rho_M,
    sum_field,
)
from bubbleforge.errors import KappaTooLarge, NonpositiveValue
from bubbleforge.potential import Kernel

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

    def _jet(self, pts, grad, d2):
        m = len(pts)
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

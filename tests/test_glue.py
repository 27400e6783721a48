"""Cutoffs, cut radii, and the three glue constructions."""

import numpy as np
import pytest

from bubbleforge import (
    Annulus,
    Ball,
    Bubble,
    Cutoff,
    GlueConfig,
    glue_bubble_into,
    glue_concentric,
    glue_disjoint,
    insert_annulus,
    kelvin_field,
    k_function,
    solve_rho_M,
    sum_field,
    sup_scan,
)
from bubbleforge.errors import BadConfig, BadRadii, NoSolution, OverlapError
from bubbleforge.field_core import CallableRadialField
from bubbleforge.kelvin import Inversion

from conftest import fd_laplacian

# --- cutoff -------------------------------------------------------------------


def test_cutoff_endpoint_values_and_derivatives():
    c = Cutoff(1.0, 2.0)
    assert c.phi(1.0) == 1.0
    assert c.phi(2.0) == 0.0
    for r in (1.0, 2.0):
        assert c._jet(r, True)[1] == 0.0
        assert c._jet(r, True)[2] == 0.0
    assert c.phi(0.2) == 1.0 and c.phi(5.0) == 0.0


def test_cutoff_midpoint_is_half():
    c = Cutoff(0.5, 2.5)
    assert c.phi(1.5) == pytest.approx(0.5, abs=1e-15)


def test_cutoff_first_derivative_max_oracle():
    # 1D grid maximization of |phi'|; the sharp constant is (15/8)/width
    c = Cutoff(1.0, 3.5)
    rs = np.linspace(1.0, 3.5, 200001)
    grid_max = np.max(np.abs(c._jet(rs, True)[1]))
    assert grid_max == pytest.approx((15 / 8) / c.width, rel=1e-8)


def test_cutoff_second_derivative_bound():
    c = Cutoff(0.3, 0.8)
    rs = np.linspace(0.3, 0.8, 200001)
    assert np.max(np.abs(c._jet(rs, True)[2])) <= c.c_phi / c.width**2 * (1 + 1e-12)
    assert np.max(np.abs(c._jet(rs, True)[1])) <= c.c_phi / c.width


def test_cutoff_rejects_bad_radii():
    with pytest.raises(BadRadii):
        Cutoff(2.0, 1.0)
    with pytest.raises(BadRadii):
        Cutoff(0.0, 1.0)


# --- cut radius from the admissible band ---------------------------------------


def test_solve_rho_M_band_membership():
    sol = solve_rho_M(1e-3, 0.25, 5)
    assert sol.band_lo <= sol.profile_at_cut <= sol.band_hi
    # first inequality pair restated: 2 dbar^E >= profile >= dbar^E + dbar^((n-2)/2)
    n, alpha, dbar = 5, 0.25, sol.delta_bar
    expo = (n - 2) * (n - 2 - 2 * alpha) / (2 * (n + 2))
    assert 2 * dbar**expo >= sol.profile_at_cut
    assert sol.profile_at_cut >= dbar**expo + dbar ** ((n - 2) / 2)


def test_solve_rho_M_consequence_inequality():
    # (profile - dbar^((n-2)/2))^((n+2)/(n-2)) >= dbar^((n-2)/2 - alpha)
    for delta, alpha, n in ((1e-3, 0.25, 5), (1e-4, 0.25, 5), (1e-5, 0.5, 6)):
        sol = solve_rho_M(delta, alpha, n)
        lhs = (sol.profile_at_cut - sol.delta_bar ** ((n - 2) / 2)) ** ((n + 2) / (n - 2))
        assert lhs >= sol.delta_bar ** ((n - 2) / 2 - alpha)


def test_solve_rho_M_frozen_value():
    # derived by solving the band for its geometric midpoint
    sol = solve_rho_M(1e-6, 1.0, 5)
    assert sol.rho_m_big == pytest.approx(1.3994949085221788, rel=1e-12)


def test_solve_rho_M_large_radius_for_tiny_delta():
    assert solve_rho_M(1e-45, 1.0, 5).rho_m_big > 100.0


def test_solve_rho_M_no_solution_for_large_delta():
    with pytest.raises(NoSolution):
        solve_rho_M(0.9, 0.1, 5)


def test_solve_rho_M_validates_alpha():
    with pytest.raises(ValueError):
        solve_rho_M(1e-3, 1.0, 3)  # needs 2(1 + alpha) < n
    with pytest.raises(ValueError):
        solve_rho_M(1e-3, -0.1, 5)


# --- concentric glue ------------------------------------------------------------


def _concentric(l1=0.0099, l2=1.0, rho=1.0, R=10.0, n=3):
    return glue_concentric(GlueConfig.concentric(
        Bubble(l1, np.zeros(n), n), Bubble(l2, np.zeros(n), n), rho, R))


def test_concentric_equals_inner_bubble_inside():
    u = _concentric()
    b1 = Bubble(0.0099, np.zeros(3), 3)
    assert u.value([0.5, 0, 0]) == b1.value([0.5, 0, 0])


def test_concentric_equals_outer_bubble_outside():
    u = _concentric()
    b2 = Bubble(1.0, np.zeros(3), 3)
    assert u.value([20, 0, 0]) == b2.value([20, 0, 0])


def test_concentric_curvature_one_on_pure_regions():
    u = _concentric()
    assert abs(k_function(u, [0.5, 0, 0]) - 1.0) < 1e-8
    assert abs(k_function(u, [20, 0, 0]) - 1.0) < 1e-8


def test_concentric_positivity(rng):
    u = _concentric()
    pts = rng.normal(size=(500, 3)) * 5
    b1 = Bubble(0.0099, np.zeros(3), 3)
    b2 = Bubble(1.0, np.zeros(3), 3)
    floor = np.minimum(b1.value(pts), b2.value(pts))
    assert np.all(u.value(pts) >= floor - 1e-15)


def test_concentric_gluing_field_to_itself_is_identity(rng):
    b = Bubble(0.8, np.zeros(3), 3)
    u = glue_concentric(GlueConfig.concentric(b, Bubble(0.8, np.zeros(3), 3), 1.0, 2.0))
    pts = rng.normal(size=(50, 3)) * 3
    assert np.allclose(u.value(pts), b.value(pts), atol=1e-15)
    assert np.allclose(u.laplacian(pts), b.laplacian(pts), atol=1e-12)


def test_concentric_c2_across_seams():
    u = _concentric(l1=0.5, l2=1.0, rho=1.0, R=3.0)
    for seam in (1.0, 3.0):
        left = u.laplacian([seam - 1e-9, 0, 0])
        right = u.laplacian([seam + 1e-9, 0, 0])
        assert left == pytest.approx(right, rel=1e-5, abs=1e-7)
        x = np.array([seam, 0.0, 0.0])
        assert fd_laplacian(u.value, x, 1e-4) == pytest.approx(
            float(u.laplacian(x)), abs=1e-3)


def test_concentric_rejects_bad_configs():
    b = Bubble(1.0, np.zeros(3), 3)
    with pytest.raises(BadConfig):
        GlueConfig.concentric(b, b, 2.0, 1.0)
    with pytest.raises(BadConfig):
        GlueConfig.concentric(Bubble(1.0, [1, 0, 0], 3), b, 1.0, 2.0)
    with pytest.raises(BadConfig):
        glue_concentric(GlueConfig.disjoint(Bubble(1, [9, 0, 0], 3), 1.0, b, 1.0))


# --- disjoint glue ---------------------------------------------------------------


def _disjoint(sep=6.0, r1=1.0, a=1.0, l1=0.5, l2=1.0, n=3, **kw):
    c1 = np.zeros(n)
    c1[0] = sep
    return glue_disjoint(GlueConfig.disjoint(
        Bubble(l1, c1, n), r1, Bubble(l2, np.zeros(n), n), a, **kw))


def test_disjoint_fidelity_on_both_balls(rng):
    u = _disjoint()
    b1 = Bubble(0.5, [6, 0, 0], 3)
    b2 = Bubble(1.0, np.zeros(3), 3)
    inner1 = np.array([6, 0, 0]) + rng.normal(size=(20, 3)) * 0.3
    inner2 = rng.normal(size=(20, 3)) * 0.3
    assert np.allclose(u.value(inner1), b1.value(inner1), atol=0)
    assert np.allclose(u.value(inner2), b2.value(inner2), atol=0)


def test_disjoint_far_field_is_sum():
    u = _disjoint()
    s = sum_field(Bubble(0.5, [6, 0, 0], 3), Bubble(1.0, np.zeros(3), 3))
    for x in ([50, 0, 0], [0, 40, 0], [-30, 10, 5]):
        assert u.value(x) == pytest.approx(float(s.value(x)), abs=1e-12)


def test_disjoint_positivity_floor(rng):
    u = _disjoint()
    b1 = Bubble(0.5, [6, 0, 0], 3)
    b2 = Bubble(1.0, np.zeros(3), 3)
    pts = rng.uniform(-3, 9, size=(800, 3))
    floor = np.minimum(b1.value(pts), b2.value(pts))
    assert np.all(u.value(pts) >= floor - 1e-15)


def test_disjoint_rejects_overlapping_supports():
    b2 = Bubble(1.0, np.zeros(3), 3)
    with pytest.raises(OverlapError):
        GlueConfig.disjoint(Bubble(0.5, [3, 0, 0], 3), 1.0, b2, 1.0)  # needs sep >= 4
    with pytest.raises(OverlapError):
        GlueConfig.disjoint(Bubble(0.5, [1.5, 0, 0], 3), 1.0, b2, 1.0,
                            width1=0.2, width2=0.2, inward=True)


def test_disjoint_inward_transitions_allow_tangent_balls(rng):
    u = _disjoint(sep=2.0, l1=1 / 420, l2=1.0, width1=0.2, width2=0.2, inward=True)
    # positive everywhere, including near the tangency point
    pts = np.vstack([rng.uniform(-1.5, 3.5, size=(500, 3)),
                     [[1.0, 0.0, 0.0]], [[1.0, 1e-4, 0.0]]])
    assert np.all(u.value(pts) > 0)
    # fidelity holds on the shrunken balls
    b1 = Bubble(1 / 420, [2, 0, 0], 3)
    inner = np.array([2, 0, 0]) + rng.normal(size=(20, 3)) * 0.2
    assert np.allclose(u.value(inner), b1.value(inner), atol=0)


def test_disjoint_kelvin_extension_probe(rng):
    # values of the inversion image converge along rays to the declared limit
    u = _disjoint()
    v = kelvin_field(u, Inversion(np.zeros(3), 1.0))
    expected = u.inv_decay_coeff
    for _ in range(3):
        ray = rng.normal(size=3)
        ray /= np.linalg.norm(ray)
        probes = [float(v.value(t * ray)) for t in (1e-2, 1e-4, 1e-6)]
        assert probes[-1] == pytest.approx(expected, rel=1e-4)
        assert abs(probes[2] - expected) < abs(probes[0] - expected) + 1e-12
    assert float(v.value(np.zeros(3))) == pytest.approx(expected, rel=1e-14)


# --- bubble insertion ------------------------------------------------------------


def test_insert_into_same_bubble_is_identity(rng):
    b = Bubble(0.7, np.zeros(3), 3)
    host = Bubble(0.7, np.zeros(3), 3)
    w = glue_bubble_into(GlueConfig.bubble_insert(host, b, np.zeros(3), rho_M=5.0))
    pts = rng.normal(size=(50, 3)) * 4
    assert np.allclose(w.value(pts), host.value(pts), atol=1e-12)
    assert np.allclose(w.laplacian(pts), host.laplacian(pts), atol=1e-10)


def test_insert_center_value():
    lam = 0.3
    b = Bubble(lam, np.zeros(4), 4)
    host = sum_field(Bubble(lam, np.zeros(4), 4), Bubble(1.0, [9, 0, 0, 0], 4))
    w = glue_bubble_into(GlueConfig.bubble_insert(host, b, np.zeros(4), rho_M=3.0))
    assert float(w.value(np.zeros(4))) == pytest.approx(lam ** (-(4 - 2) / 2), rel=1e-12)


def test_insert_exact_bubble_inside_inner_radius(rng):
    lam = 1.0
    b = Bubble(lam, np.zeros(3), 3)
    host = sum_field(Bubble(lam, np.zeros(3), 3), Bubble(0.5, [30, 0, 0], 3))
    w = glue_bubble_into(GlueConfig.bubble_insert(host, b, np.zeros(3),
                                                  rho_M=5.0, rho_m=4.0))
    pts = rng.normal(size=(30, 3))
    pts = pts[np.linalg.norm(pts, axis=1) < 3.9]
    assert np.allclose(w.value(pts), b.value(pts), atol=0)


def test_insert_default_inner_radius_rules():
    b = Bubble(1.0, np.zeros(3), 3)
    cfg_small = GlueConfig.bubble_insert(b, b, np.zeros(3), rho_M=5.0)
    assert cfg_small.params["rho_m"] == pytest.approx(4.0)
    cfg_large = GlueConfig.bubble_insert(b, b, np.zeros(3), rho_M=120.0)
    assert cfg_large.params["rho_m"] == pytest.approx(110.0)
    with pytest.raises(BadConfig):
        GlueConfig.bubble_insert(b, b, np.zeros(3), rho_M=2.0, rho_m=3.0)


def _perturbed_host(n, lam, delta):
    amp = delta * lam ** ((2 - n) / 2)
    bump = CallableRadialField(
        n,
        lambda r: amp * np.cos(r / lam),
        lambda r: -amp / lam * np.sin(r / lam),
        lambda r: -amp / lam**2 * np.cos(r / lam),
    )
    return sum_field(Bubble(lam, np.zeros(n), n), bump)


def test_insert_profile_floor_on_annulus(rng):
    # w^((n+2)/(n-2)) stays above dbar^((n-2)/2-alpha)/lam^((n+2)/2)
    n, alpha, delta, lam = 5, 0.25, 1e-3, 1.0
    sol = solve_rho_M(delta, alpha, n)
    host = _perturbed_host(n, lam, delta)
    b = Bubble(lam, np.zeros(n), n)
    w = glue_bubble_into(GlueConfig.bubble_insert(host, b, np.zeros(n),
                                                  rho_M=sol.rho_m_big))
    floor = sol.delta_bar ** ((n - 2) / 2 - alpha) / lam ** ((n + 2) / 2)
    rs = np.linspace(w.cut.r_in, w.cut.r_out, 200)
    e1 = np.zeros(n)
    e1[0] = 1.0
    vals = w.value(rs[:, None] * e1)
    assert np.all(vals ** ((n + 2) / (n - 2)) >= floor)


# --- deviation scans --------------------------------------------------------------


def test_kg_deviation_pure_bubble():
    b = Bubble(1.0, np.zeros(3), 3)
    rep = sup_scan(b, Annulus(np.zeros(3), 0.5, 2.0))
    assert rep.sup_abs_dev <= 1e-8


def test_kg_deviation_equal_scale_concentric_glue():
    u = _concentric(l1=1.0, l2=1.0, rho=1.0, R=2.0)
    rep = sup_scan(u, Annulus(np.zeros(3), 0.5, 3.0))
    assert rep.sup_abs_dev <= 1e-8


def test_kg_deviation_deep_concentric_glue():
    rep = sup_scan(_concentric(), Annulus(np.zeros(3), 1.0, 10.0))
    assert rep.sup_abs_dev >= 5 / 3


def test_insert_annulus_region():
    b = Bubble(0.5, np.zeros(3), 3)
    w = glue_bubble_into(GlueConfig.bubble_insert(b, b, np.zeros(3), rho_M=4.0))
    ann = insert_annulus(w)
    assert ann.r_in == pytest.approx(0.5 * 3.2)
    assert ann.r_out == pytest.approx(0.5 * 4.0)

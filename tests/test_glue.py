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
from bubbleforge.field_core import CallableRadialField, _row_dot, _sq_dist
from bubbleforge.glue import ConcentricGlueField, DisjointGlueField, InsertGlueField
from bubbleforge.kelvin import Inversion

from conftest import fd_laplacian
from test_field_protocol import FIELDS, _same_bits

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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_concentric_jet_is_a_bubbles_off_the_annulus(n, rng):
    # phi is 1 on |x| <= rho and 0 on |x| >= R, so there the glue is one bubble
    # and K is 1: its jet and K are that bubble's, bit for bit, centre included
    b1, b2 = Bubble(0.2, np.zeros(n), n), Bubble(1.0, np.zeros(n), n)
    rho, R = 0.5, 1.5
    u = glue_concentric(GlueConfig.concentric(b1, b2, rho, R))
    dirs = rng.normal(size=(300, n))
    dirs /= np.sqrt(_sq_dist(dirs.T))[:, None]
    e1 = np.eye(n)[0]
    inner = np.vstack([np.zeros(n), rho * e1,
                       rng.uniform(0.0, rho, size=(300, 1)) * dirs])
    outer = np.vstack([R * e1, 1e3 * e1,
                       rng.uniform(R, 10.0, size=(300, 1)) * dirs])
    for b, pts in ((b1, inner), (b2, outer)):
        X = np.ascontiguousarray(pts.T)
        for grad, d2 in ((False, False), (True, False), (False, True), (True, True)):
            for a, c in zip(u._jet(X, grad, d2), b._jet(X, grad, d2)):
                assert (a is None and c is None) or _same_bits(a, c)
        assert _same_bits(k_function(u, pts), k_function(b, pts))


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
    for build in (GlueConfig.concentric, ConcentricGlueField):
        with pytest.raises(BadConfig, match="need 0 < rho < R"):
            build(b, b, 2.0, 1.0)
        with pytest.raises(BadConfig, match="centered at the origin"):
            build(Bubble(1.0, [1, 0, 0], 3), b, 1.0, 2.0)
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
    for build in (GlueConfig.disjoint, DisjointGlueField):
        with pytest.raises(OverlapError, match="cutoff supports intersect"):
            build(Bubble(0.5, [3, 0, 0], 3), 1.0, b2, 1.0)  # needs sep >= 4
        with pytest.raises(OverlapError, match="fidelity balls overlap"):
            build(Bubble(0.5, [1.5, 0, 0], 3), 1.0, b2, 1.0,
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


# one field of each class that declares a finite |x|^(n-2) decay coefficient
DECAYING = {
    "bubble": lambda: Bubble(0.7, [0.3, -0.2, 0.1], 3),
    "sum": lambda: sum_field(Bubble(0.5, [2, 0, 0], 3), Bubble(1.0, [0, -1, 0.5], 3)),
    "concentric": lambda: glue_concentric(GlueConfig.concentric(
        Bubble(0.2, np.zeros(3), 3), Bubble(1.0, np.zeros(3), 3), 0.5, 1.5)),
    "disjoint": _disjoint,
    "insert": lambda: InsertGlueField(
        sum_field(Bubble(1.0, np.zeros(3), 3), Bubble(0.5, [3, 0, 0], 3)),
        Bubble(0.2, np.zeros(3), 3), [0.5, 0, 0], 2.0),
    "kelvin": lambda: kelvin_field(Bubble(1.0, [0.5, 0, 0], 3), Inversion([0.2, 0.1, 0], 1.3)),
}


@pytest.mark.parametrize("make", DECAYING.values(), ids=DECAYING.keys())
def test_kelvin_extension_probe(make, rng):
    # values of the inversion image converge along rays to the declared limit
    u = make()
    v = kelvin_field(u, Inversion(np.zeros(3), 1.0))
    expected = u.inv_decay_coeff
    assert expected is not None
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
    assert cfg_small.field.rho_m == pytest.approx(4.0)
    cfg_large = GlueConfig.bubble_insert(b, b, np.zeros(3), rho_M=120.0)
    assert cfg_large.field.rho_m == pytest.approx(110.0)
    for build in (GlueConfig.bubble_insert, InsertGlueField):
        with pytest.raises(BadConfig, match="need 0 < rho_m < rho_M"):
            build(b, b, np.zeros(3), rho_M=2.0, rho_m=3.0)


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


# --- the in-place jets against the expressions they replaced ----------------------
# Test-local copies of Cutoff._jet and of the cutoff product rule _blend as
# whole-array expressions, in _blend's order, and the three glues' jets built
# on them; every value, gradient and Laplacian must keep their bits.


def _expr_phi(cut, r, slope, d2):
    t = np.clip((np.asarray(r, float) - cut.r_in) / cut.width, 0.0, 1.0)
    s = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    return (np.maximum(1.0 - s, 0.0),
            -30.0 * t * t * (1.0 - t) ** 2 / cut.width if slope else None,
            -60.0 * t * (2.0 * t - 1.0) * (t - 1.0) / cut.width**2 if d2 else None)


def _expr_dot_with_slope(X, c, k, ck):
    s = (X[0] - c[0]) * (k * (X[0] - ck[0]))
    s += 0.0
    for i in range(1, X.shape[0]):
        s += (X[i] - c[i]) * (k * (X[i] - ck[i]))
    return s


def _expr_blend(n, cj, s, a, b, dot_s, off, into=None):
    """phi A + (1 - phi) B: A = 0 for a None, its terms then added into the jet
    into; off is x - c as rows, or None for slopes, and s holds no zero."""
    p, dp, d2p = cj
    ub, gb, lapb = b
    d = -ub if a is None else a[0] - ub
    acc = (into or (None,) * 3) if a is None else [None if v is None else p * v for v in a]

    def plus(x, y):
        return y if x is None else x + y

    g = lap = None
    if gb is not None:
        g = plus(acc[1], (1.0 - p) * gb) + (dp / s * d if off is None else off * (dp / s * d))
    if lapb is not None:
        lap = plus(acc[2], (1.0 - p) * lapb) + dot_s * dp * 2.0 + (d2p + dp / s * (n - 1)) * d
    return plus(acc[0], (1.0 - p) * ub), g, lap


def _expr_concentric_radial_jet(f, r, slope, d2):
    f1, k1, lap1 = f.b1._radial_jet(r, slope or d2, d2)
    f2, k2, lap2 = f.b2._radial_jet(r, slope or d2, d2)
    dot_s = (k1 - k2) * r if d2 else None
    if not slope:
        k1 = k2 = None
    return _expr_blend(f.n, _expr_phi(f.cut, r, slope or d2, d2), np.where(r == 0.0, 1.0, r),
                       (f1, k1, lap1), (f2, k2, lap2), dot_s, None)


def _expr_disjoint_jet(f, X, grad, d2):
    jet = None
    for b, cut, c in ((f.b1, f.cut2, f.b2.center), (f.b2, f.cut1, f.b1.center)):
        r, s = np.sqrt(_sq_dist(X, b.center)), np.sqrt(_sq_dist(X, c))
        ss = np.where(s == 0.0, 1.0, s)
        u, k, lap = b._radial_jet(r, grad or d2, d2)
        g = np.where(r == 0.0, 0.0, (X - b.center[:, None]) * k) if grad else None
        dot_s = -_expr_dot_with_slope(X, c, k, b.center) / ss if d2 else None
        jet = _expr_blend(f.n, _expr_phi(cut, s, grad or d2, d2), ss, None, (u, g, lap), dot_s,
                          X - c[:, None], into=jet)
    return jet


def _expr_insert_jet(f, X, grad, d2):
    uh, gh, laph = f.host._jet(f.x1[:, None] + X, grad or d2, d2)
    ub, gb, lapb = f.bubble._jet(X, grad or d2, d2)
    s = np.sqrt(_sq_dist(X))
    ss = np.where(s == 0.0, 1.0, s)
    dot_s = _row_dot(X, gb - gh) / ss if d2 else None
    if not grad:
        gb = gh = None
    return _expr_blend(f.n, _expr_phi(f.cut, s, grad or d2, d2), ss, (ub, gb, lapb),
                       (uh, gh, laph), dot_s, X)


def _cutoffs(f):
    """(centre, cutoff) pairs of a disjoint or insert glue."""
    if isinstance(f, DisjointGlueField):
        return [(f.b1.center, f.cut1), (f.b2.center, f.cut2)]
    return [(np.zeros(f.n), f.cut)]


def _edge_points(f):
    """Each centre, and the points at r_in and r_out of each cutoff, t = 0 and 1 exactly.

    The offsets run along e2, where every centre has a zero coordinate, so the
    radius about the cutoff's centre is r_in or r_out itself.
    """
    if isinstance(f, DisjointGlueField):
        centres = [f.b1.center, f.b2.center]
    elif isinstance(f, InsertGlueField):
        centres = [np.zeros(f.n), -f.x1]  # the bubble's, and the host's in bubble coordinates
    else:
        centres = [np.zeros(f.n)]
    assert all(c[1] == 0.0 for c in centres)
    e2 = np.eye(f.n)[1]
    return np.array(centres + [c + r * e2 for c, cut in _cutoffs(f) for r in (cut.r_in, cut.r_out)])


_GLUE_FIELDS = {
    "concentric": FIELDS["concentric"],
    "disjoint": FIELDS["disjoint"],
    "disjoint-inward": lambda: (glue_disjoint(GlueConfig.disjoint(
        Bubble(0.1, [2.5, 0, 0], 3), 0.5, Bubble(1.0, np.zeros(3), 3), 0.5,
        width1=0.4, width2=0.3, inward=True)), 3.0),
    "insert": FIELDS["insert"],
}


@pytest.mark.parametrize("grad, d2", [(False, False), (True, False), (False, True), (True, True)])
@pytest.mark.parametrize("name", _GLUE_FIELDS)
def test_glue_jets_keep_the_bits_of_their_expressions(name, grad, d2, rng):
    f, half = _GLUE_FIELDS[name]()
    edge = _edge_points(f)
    # points across the cube, and inside each transition, where phi' and phi'' live
    bands = []
    for c, cut in _cutoffs(f):
        dirs = rng.normal(size=(100, f.n))
        dirs /= np.sqrt(_sq_dist(dirs.T))[:, None]
        bands.append(c + rng.uniform(cut.r_in, cut.r_out, size=(100, 1)) * dirs)
    pts = np.vstack([rng.uniform(-half, half, size=(200, f.n)), *bands, edge])
    X = np.ascontiguousarray(pts.T)
    if isinstance(f, ConcentricGlueField):  # its jet in slope form, at the radii
        r = np.sqrt(_sq_dist(X))
        ref, got = _expr_concentric_radial_jet(f, r.copy(), grad, d2), f._radial_jet(r, grad, d2)
        assert np.array_equal(r, np.sqrt(_sq_dist(X)))  # the jet leaves its radii alone
    else:
        ref = (_expr_disjoint_jet if isinstance(f, DisjointGlueField) else _expr_insert_jet)(
            f, X.copy(), grad, d2)
        got = f._jet(X, grad, d2)
        assert np.array_equal(X, pts.T)  # the jet leaves its points alone
    for a, b in zip(got, ref):
        assert (a is None and b is None) or _same_bits(a, b)
    for c, cut in _cutoffs(f):  # the edge points reach both ends of every cutoff
        t = (np.sqrt(_sq_dist(edge.T, c)) - cut.r_in) / cut.width
        assert {0.0, 1.0} <= set(t.tolist())


@pytest.mark.parametrize("d2", [False, True])
def test_cutoff_jet_keeps_the_bits_of_its_expression(d2):
    cut = Cutoff(0.3, 0.8)
    r = np.concatenate([[0.0, cut.r_in, cut.r_out, 2.0], np.linspace(0.0, 1.0, 1001),
                        np.nextafter(cut.r_out, 0.0) - np.arange(50) * 1e-16])
    got, ref = cut._jet(r.copy(), d2), _expr_phi(cut, r, True, d2)
    for a, b in zip(got, ref):
        assert (a is None and b is None) or _same_bits(a, b)
    assert _same_bits(cut.phi(r), ref[0])
    # a scalar radius keeps numpy's scalar result
    assert type(cut.phi(0.5)) is np.float64 and _same_bits(cut.phi(0.5), ref[0][r == 0.5][0])

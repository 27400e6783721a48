"""Condition checkers, lower-bound formulas and deviation scans."""

import numpy as np
import pytest

from bubbleforge import (
    Annulus,
    Ball,
    Box,
    Bubble,
    GlueConfig,
    GridSpec,
    ThmBParams,
    deep_bubble_bound,
    depth_factors,
    glue_concentric,
    glue_disjoint,
    lower_bound_4_4,
    sup_scan,
    thmA_conditions,
    thmA_dual_conditions,
    thmB_chain_bound,
    thmB_condition,
)
from bubbleforge.errors import InvalidGeometry, KappaTooLarge

TARGET = lambda n: (n + 2) / n


def test_concentric_condition_one_threshold():
    c1, c2 = thmA_conditions(0.0099, 1.0, 1.0, 10.0, 3)
    assert c1 and not c2
    # threshold sits just above: (rho^2/R^2) / (1 + lam2^2/R^2) = 1/101
    assert (1.0 / 100.0) * (1.0 / 1.01) == pytest.approx(0.009900990099, rel=1e-9)
    c1b, _ = thmA_conditions(0.0100, 1.0, 1.0, 10.0, 3)
    assert not c1b


def test_concentric_condition_two_threshold():
    c1, c2 = thmA_conditions(300.0, 1.0, 1.0, 10.0, 3)
    assert c2 and not c1
    # threshold: lam1^2 >= 7.5 * 10001 = 75007.5
    assert not thmA_conditions(273.0, 1.0, 1.0, 10.0, 3)[1]  # 273^2 = 74529
    assert thmA_conditions(274.0, 1.0, 1.0, 10.0, 3)[1]      # 274^2 = 75076


def test_equal_scales_fail_both_conditions():
    assert thmA_conditions(1.0, 1.0, 1.0, 10.0, 3) == (False, False)
    assert thmA_dual_conditions(1.0, 1.0, 1.0, 10.0, 3) == (False, False)


def test_dual_conditions_are_inversion_image(rng):
    # substituting lam -> rho^2/lam and radii -> (rho^2/R, rho) swaps the
    # two condition families
    for _ in range(20):
        l1, l2 = rng.uniform(0.01, 10, size=2)
        rho = float(rng.uniform(0.1, 2))
        R = rho * float(rng.uniform(1.5, 10))
        n = int(rng.integers(3, 7))
        dual = thmA_dual_conditions(l1, l2, rho, R, n)
        mapped = thmA_conditions(rho**2 / l2, rho**2 / l1, rho**2 / R, rho, n)
        assert dual == mapped


def test_dual_condition_one_limits_to_plain_ratio():
    # for lam1 >> rho the dual threshold approaches rho^2/R^2
    rho, R = 1.0, 10.0
    l1 = 1e3 * rho
    thr = (rho**2 / R**2) / (1 + rho**2 / l1**2)
    assert thr == pytest.approx(rho**2 / R**2, rel=1e-5)


def test_lower_bound_value_for_deep_configuration():
    lb = lower_bound_4_4(0.0099, 1.0, 1.0, 10.0, 3)
    assert lb == pytest.approx(1.7074118322626863, rel=1e-12)
    assert lb >= 5 / 3


def test_lower_bound_degenerate_cancellation():
    # equal scales with nearly touching radii: the numerator vanishes and
    # the value stays finite
    lam = 2.0
    R = 1.0
    lb = lower_bound_4_4(lam, lam, R * (1 - 1e-9), R, 3)
    assert np.isfinite(lb)
    num = lam**2 - lam**2 + 5 * ((R * (1 - 1e-9)) ** 4 - R**4) / lam**2
    assert abs(num) < 1e-8


def test_lower_bound_grows_as_inner_scale_shrinks():
    a = lower_bound_4_4(0.01, 1.0, 1.0, 10.0, 3)
    b = lower_bound_4_4(0.005, 1.0, 1.0, 10.0, 3)
    assert b > a


def test_depth_factor_values():
    d = depth_factors(1.0, 1.0, 1.0, 10.0, 4)
    assert d.k1 == 1.0
    assert d.nu == pytest.approx(2.0, rel=1e-14)


def test_depth_factor_ratio_law(rng):
    # (u(0)/u(rho))^(2/(n-2)) = 1 + k1^2 for the inner bubble
    for _ in range(10):
        n = int(rng.integers(3, 7))
        l1 = float(rng.uniform(0.1, 3))
        rho = float(rng.uniform(0.1, 3))
        b = Bubble(l1, np.zeros(n), n)
        x = np.zeros(n)
        y = np.zeros(n)
        y[0] = rho
        ratio = (float(b.value(x)) / float(b.value(y))) ** (2 / (n - 2))
        k1 = depth_factors(l1, 1.0, rho, rho + 1.0, n).k1
        assert ratio == pytest.approx(1 + k1**2, rel=1e-12)


def _random_tuple(rng):
    l1, l2 = rng.uniform(0.05, 5, size=2)
    rho = float(rng.uniform(0.1, 2))
    R = rho * float(rng.uniform(1.2, 8))
    n = int(rng.integers(3, 7))
    return float(l1), float(l2), rho, R, n


def test_depth_factor_equivalences(rng):
    # condition one <=> lam2/lam1 <= k1^2/(k2^2+1) <=> u2(R) >= nu u1(rho)
    for _ in range(100):
        l1, l2, rho, R, n = _random_tuple(rng)
        cond1 = thmA_conditions(l1, l2, rho, R, n)[0]
        d = depth_factors(l1, l2, rho, R, n)
        alt = l2 / l1 <= d.k1**2 / (d.k2**2 + 1)
        y1 = np.zeros(n)
        y1[0] = rho
        y2 = np.zeros(n)
        y2[0] = R
        u1_rho = float(Bubble(l1, np.zeros(n), n).value(y1))
        u2_R = float(Bubble(l2, np.zeros(n), n).value(y2))
        boundary = u2_R >= d.nu * u1_rho
        assert cond1 == alt == boundary


def test_condition_one_implies_target_bound(rng):
    for _ in range(100):
        l2 = float(rng.uniform(0.05, 5))
        rho = float(rng.uniform(0.1, 2))
        R = rho * float(rng.uniform(1.2, 8))
        n = int(rng.integers(3, 7))
        thr = (rho**2 / R**2) / (1 + l2**2 / R**2) * l2
        l1 = thr * float(rng.uniform(0.05, 1.0))
        assert thmA_conditions(l1, l2, rho, R, n)[0]
        assert lower_bound_4_4(l1, l2, rho, R, n) >= TARGET(n) - 1e-12


def test_condition_two_implies_target_bound_for_wide_annuli(rng):
    # sampled with lam2 <= R/2, where the implication carries through with
    # margin; see the tall-inner-bubble test below for the tight window
    for _ in range(100):
        rho = float(rng.uniform(0.05, 1.5))
        R = rho * float(rng.uniform(1.2, 8))
        n = int(rng.integers(3, 7))
        l2 = R * float(rng.uniform(1e-3, 0.5))
        thr2 = (3 * (n + 2) / (2 * (n - 2))) * (1 + R**4 / l2**4)
        l1 = l2 * np.sqrt(thr2) * float(rng.uniform(1.0, 100.0))
        assert thmA_conditions(l1, l2, rho, R, n)[1]
        assert lower_bound_4_4(l1, l2, rho, R, n) >= TARGET(n) - 1e-12


def test_condition_two_tight_window_can_undershoot():
    # with lam2 comparable to R and the scale ratio right at the threshold,
    # the closed-form bound dips below (n+2)/n even though the condition
    # holds; checkers therefore sample lam2 <= R/2 above
    n, R, rho = 3, 1.0, 0.01
    l2 = 0.62021**0.5
    l1 = 16.75**0.5
    assert thmA_conditions(l1, l2, rho, R, n)[1]
    assert lower_bound_4_4(l1, l2, rho, R, n) < TARGET(n)


def test_am_gm_step(rng):
    for _ in range(100):
        l2 = float(rng.uniform(0.01, 10))
        R = float(rng.uniform(0.01, 10))
        assert l2**2 + R**4 / l2**2 >= 2 * R**2 - 1e-12


# --- two-ball case ---------------------------------------------------------------


def _witness_params(l1=1 / 420):
    xi1 = np.array([2.0, 0.0, 0.0])
    return ThmBParams(l1, 1.0, 1.0, 1.0, xi1, np.zeros(3), 1.0)


def test_two_ball_condition_witness():
    assert thmB_condition(_witness_params())             # 176400 >= 172032
    assert not thmB_condition(_witness_params(1 / 400))  # 160000 < 172032


def test_two_ball_condition_fails_for_large_sigma():
    xi1 = np.array([2.0, 0.0, 0.0])
    p = ThmBParams(1 / 420, 1.0, 1.0, 1.0, xi1, np.zeros(3), sigma=50.0)
    assert not thmB_condition(p)


def test_two_ball_geometry_validation():
    with pytest.raises(InvalidGeometry):
        ThmBParams(0.5, 1.0, 1.0, 1.0, [1.5, 0, 0], [0, 0, 0])  # balls overlap
    with pytest.raises(InvalidGeometry):
        ThmBParams(2.0, 1.0, 1.0, 1.0, [4, 0, 0], [0, 0, 0])  # r1 < lam1
    with pytest.raises(InvalidGeometry):
        ThmBParams(0.5, 2.0, 1.0, 1.0, [4, 0, 0], [0, 0, 0])  # a < lam2
    with pytest.raises(InvalidGeometry):
        ThmBParams(0.00238, 1, 1, 1, [2.0], [0, 0, 0])  # centres in R^1 and R^3
    with pytest.raises(InvalidGeometry):
        ThmBParams(0.00238, 1, 1, 1, [[4, 0, 0]], [[0, 0, 0]])  # centres not points


def test_chain_bound_witness_clears_target():
    chain = thmB_chain_bound(_witness_params())
    assert chain == pytest.approx(3.6481120382178958, rel=1e-12)
    assert chain >= (3 + 2) / (2 * 3) * 1.0


def test_chain_bound_negative_when_uninformative():
    p = ThmBParams(1.0, 1.0, 1.0, 1.0, [100.0, 0, 0], np.zeros(3), 1.0)
    assert thmB_chain_bound(p) < 0.0


def test_chain_bound_from_strong_headroom(rng):
    # whenever the headroom inequality holds the chain clears its target
    for _ in range(50):
        n = int(rng.integers(3, 6))
        sigma = float(rng.uniform(1, 2))
        l2 = float(rng.uniform(0.2, 2))
        a = l2 * float(rng.uniform(1.0, 3.0))
        r1 = float(rng.uniform(0.2, 3))
        sep = (r1 + a) * float(rng.uniform(1.0, 2.0))
        k = a / l2
        p_crit = (n + 2) / (n - 2)
        need = (4 + p_crit * (2 / k**4 + sigma**2 / k**2)) * (
            n * (n - 2) / (n + 2)) * 8.0**n
        # headroom: r1^4 lam2^2 / (lam1^2 sep^4) >= need, with 50% margin
        lam1 = np.sqrt(r1**4 * l2**2 / (sep**4 * need * 1.5))
        xi1 = np.zeros(n)
        xi1[0] = sep
        params = ThmBParams(lam1, l2, r1, a, xi1, np.zeros(n), sigma)
        chain = thmB_chain_bound(params)
        assert chain >= (n + 2) / (2 * n) * sigma**2 - 1e-9


def test_deep_bubble_bound_quartic_monotonicity():
    base = deep_bubble_bound(0.0, 0.25, 1.0, 3)
    assert deep_bubble_bound(0.0, 0.5, 1.0, 3) == pytest.approx(16 * base, rel=1e-12)
    assert deep_bubble_bound(0.0, 0.25, 2.0, 3) == pytest.approx(base / 16, rel=1e-12)


def test_deep_bubble_bound_composition_n3():
    # cap 1.0 from the combined bounds gives sigma^2 = 6/5 and the factor
    # 8^3 * 3 * (6/5 + 6) = 1536 * 7.2
    got = deep_bubble_bound(0.0, 0.5, 1.0, 3)
    assert got == pytest.approx(512 * 3 * (0.5**4) * 7.2, rel=1e-12)
    assert deep_bubble_bound(0.0, 1.0, 1.0, 3) == pytest.approx(1536 * 7.2, rel=1e-12)


def test_deep_bubble_bound_validation():
    with pytest.raises(KappaTooLarge):
        deep_bubble_bound(1.0, 0.5, 1.0, 3)
    with pytest.raises(ValueError):
        deep_bubble_bound(0.0, 1.5, 1.0, 3)


# --- scans -----------------------------------------------------------------------


def test_sup_scan_bubble_is_flat():
    rep = sup_scan(Bubble(1.0, np.zeros(3), 3), Ball(np.zeros(3), 2.0))
    assert rep.sup_abs_dev <= 1e-8
    assert np.linalg.norm(rep.argmax) <= 2.0


def test_sup_scan_deep_concentric_clears_target():
    u = glue_concentric(GlueConfig.concentric(
        Bubble(0.0099, np.zeros(3), 3), Bubble(1.0, np.zeros(3), 3), 1.0, 10.0))
    rep = sup_scan(u, Ball(np.zeros(3), 10.0))
    assert rep.sup_abs_dev >= 5 / 3
    assert rep.grid["kind"] == "radial"


def test_sup_scan_tall_inner_bubble_clears_target():
    u = glue_concentric(GlueConfig.concentric(
        Bubble(300.0, np.zeros(3), 3), Bubble(1.0, np.zeros(3), 3), 1.0, 10.0))
    rep = sup_scan(u, Ball(np.zeros(3), 10.0))
    assert rep.sup_abs_dev >= 5 / 3


def test_sup_scan_grid_path_matches_radial_path():
    u = glue_concentric(GlueConfig.concentric(
        Bubble(0.3, np.zeros(3), 3), Bubble(1.0, np.zeros(3), 3), 1.0, 3.0))
    rad = sup_scan(u, Annulus(np.zeros(3), 0.9, 3.2), GridSpec(radial_points=4096))
    box = sup_scan(u, Box(-3.2 * np.ones(3), 3.2 * np.ones(3)),
                   GridSpec(points_per_axis=96))
    assert box.sup_abs_dev <= rad.sup_abs_dev * 1.05
    assert box.sup_abs_dev >= rad.sup_abs_dev * 0.5


def test_sup_scan_threaded_matches_serial():
    u = glue_concentric(GlueConfig.concentric(
        Bubble(0.5, np.zeros(3), 3), Bubble(1.0, np.zeros(3), 3), 1.0, 3.0))
    a = sup_scan(u, Ball(np.zeros(3), 3.0), GridSpec(threads=1))
    b = sup_scan(u, Ball(np.zeros(3), 3.0), GridSpec(threads=4))
    assert a.sup_abs_dev == b.sup_abs_dev
    assert np.array_equal(a.argmax, b.argmax)


def test_constructed_witnesses_clear_target_when_conditions_hold(rng):
    # random parameter tuples where one sufficient condition holds; the
    # glued field's measured deviation must clear (n+2)/n
    for _ in range(20):
        n = 3
        rho = float(rng.uniform(0.3, 1.5))
        R = rho * float(rng.uniform(2.0, 6.0))
        l2 = float(rng.uniform(0.3, 2.0))
        if rng.uniform() < 0.5:
            thr = (rho**2 / R**2) / (1 + l2**2 / R**2) * l2
            l1 = thr * float(rng.uniform(0.2, 0.999))
        else:
            l2 = R * float(rng.uniform(0.05, 0.5))
            thr2 = (3 * (n + 2) / (2 * (n - 2))) * (1 + R**4 / l2**4)
            l1 = l2 * float(np.sqrt(thr2)) * float(rng.uniform(1.0, 10.0))
        c1, c2 = thmA_conditions(l1, l2, rho, R, n)
        assert c1 or c2
        u = glue_concentric(GlueConfig.concentric(
            Bubble(l1, np.zeros(n), n), Bubble(l2, np.zeros(n), n), rho, R))
        rep = sup_scan(u, Ball(np.zeros(n), R))
        assert rep.sup_abs_dev >= TARGET(n) - 1e-3


def test_two_ball_witness_scan_clears_target():
    l1 = 1 / 420
    xi1 = np.array([2.0, 0.0, 0.0])
    u = glue_disjoint(GlueConfig.disjoint(
        Bubble(l1, xi1, 3), 1.0, Bubble(1.0, np.zeros(3), 3), 1.0,
        width1=0.2, width2=0.2, inward=True))
    box = Box(np.array([-1.6, -1.6, -1.6]), np.array([3.6, 1.6, 1.6]))
    rep = sup_scan(u, box)
    assert rep.sup_abs_dev >= (3 + 2) / (2 * 3)

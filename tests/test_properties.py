"""Randomized invariants checked with hypothesis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bubbleforge import (
    BaseField,
    Bubble,
    Cutoff,
    Inversion,
    invert_point,
    k_function,
    k_sum_limit,
    kelvin_bubble,
    sum_field,
    thmA_conditions,
)
from bubbleforge.bounds import depth_factors
from bubbleforge.cli import _power_field
from bubbleforge.glue import ConcentricGlueField, DisjointGlueField, InsertGlueField
from bubbleforge.kelvin import KelvinField

from conftest import random_rotation
from test_field_protocol import _callable_radial

dims = st.integers(min_value=3, max_value=6)
scales = st.floats(min_value=1e-3, max_value=1e3)
small_pos = st.floats(min_value=1e-2, max_value=1e2)


@given(st.floats(min_value=0, max_value=1e3),
       st.floats(min_value=0, max_value=1e3), dims)
def test_power_sum_sandwich(s, t, n):
    # s^p + t^p <= (s+t)^p <= 2^(4/(n-2)) (s^p + t^p)
    p = (n + 2) / (n - 2)
    lhs = s**p + t**p
    mid = (s + t) ** p
    assert lhs <= mid * (1 + 1e-12)
    assert mid <= 2 ** (4 / (n - 2)) * lhs * (1 + 1e-12) + 1e-300


@given(dims, st.data())
def test_two_bubble_sum_curvature_in_power_mean_band(n, data):
    # K = (u1^p + u2^p)/(u1 + u2)^p lies in [2^(-4/(n-2)), 1] (bounds.py), so
    # the example-525 cap on sup |K - 1| holds without a scan
    vec = st.lists(st.floats(min_value=-3, max_value=3), min_size=n, max_size=n)
    b1 = Bubble(data.draw(small_pos), data.draw(vec), n)
    b2 = Bubble(data.draw(small_pos), data.draw(vec), n)
    x = np.asarray(data.draw(st.lists(vec, min_size=1, max_size=8)))
    k = np.asarray(k_function(sum_field(b1, b2), x))
    assert np.all(k >= 2.0 ** (-4.0 / (n - 2)) - 1e-12)
    assert np.all(k <= 1.0 + 1e-12)


@given(small_pos, small_pos)
def test_scale_radius_am_gm(l2, R):
    assert l2**2 + R**4 / l2**2 >= 2 * R**2 * (1 - 1e-12)


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
       st.floats(min_value=0.1, max_value=10))
def test_point_inversion_involution(coords, a):
    x = np.asarray(coords)
    if np.linalg.norm(x) < 1e-6:
        return
    inv = Inversion(np.zeros(3), a)
    assert np.allclose(invert_point(inv, invert_point(inv, x)), x,
                       rtol=1e-9, atol=1e-9)


@given(scales, st.lists(st.floats(min_value=-3, max_value=3), min_size=3,
                        max_size=3), st.floats(min_value=0.1, max_value=10))
def test_bubble_image_parameters_involute(lam, center, a):
    inv = Inversion(np.zeros(3), a)
    b = Bubble(lam, center, 3)
    bb = kelvin_bubble(kelvin_bubble(b, inv), inv)
    assert bb.lam == pytest.approx(b.lam, rel=1e-9)
    assert np.allclose(bb.center, b.center, rtol=1e-9, atol=1e-9)


@given(st.floats(min_value=1e-2, max_value=10),
       st.floats(min_value=1e-2, max_value=10))
@example(0.056351471860733, 0.1375616041446333)  # phi rounded to -2.2e-16
def test_cutoff_stays_within_bounds(r_in, width):
    c = Cutoff(r_in, r_in + width)
    rs = np.linspace(0, r_in + 2 * width, 801)
    vals = c.phi(rs)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(np.abs(c._jet(rs, True)[1]) <= c.c_phi / c.width * (1 + 1e-12))
    assert np.all(np.abs(c._jet(rs, True)[2]) <= c.c_phi / c.width**2 * (1 + 1e-12))


@given(scales, scales, dims)
def test_sum_limit_between_extremes(l1, l2, n):
    # the far-field value of a two-bubble sum sits between the equal-scale
    # floor 2^(4/(2-n)) and the single-bubble ceiling 1
    v = k_sum_limit(l1, l2, n)
    assert 2 ** (4 / (2 - n)) * (1 - 1e-12) <= v <= 1 + 1e-12


@given(small_pos, small_pos, small_pos, st.floats(min_value=1.1, max_value=20),
       dims)
@settings(max_examples=200)
def test_condition_one_matches_depth_form(l1, l2, rho, ratio, n):
    R = rho * ratio
    cond1 = thmA_conditions(l1, l2, rho, R, n)[0]
    d = depth_factors(l1, l2, rho, R, n)
    assert cond1 == (l2 / l1 <= d.k1**2 / (d.k2**2 + 1))


@given(scales, dims)
def test_equal_scale_sum_limit_is_floor(lam, n):
    assert k_sum_limit(lam, lam, n) == pytest.approx(2 ** (4 / (2 - n)),
                                                     rel=1e-12)


def _host():
    return sum_field(Bubble(1.0, np.zeros(3), 3), BaseField(3))


def _b(lam, center=(0, 0, 0)):
    return Bubble(lam, center, len(center))


# one field on each side of each rule that sets `radial`, with the claim it
# should make: a centre at the origin, both summands radial, an insert at the
# origin into a radial host, an inversion about the origin of a radial source.
# A rotation moves |x| by an ulp, which a profile's slope carries into u and
# lap, so the glues' cutoff bands are at least 1 wide (a band 0.2 wide, the
# insert's default at rho_M = 2, moves lap by 2.5e-14 of its scale).
RADIAL_CLAIMS = {
    "bubble": (lambda: _b(0.7), True),
    "bubble-n4": (lambda: _b(1.3, (0, 0, 0, 0)), True),
    "bubble-off": (lambda: _b(0.7, (0.2, 0, 0)), False),
    "callable": (lambda: _callable_radial(None), True),
    "callable-off": (_callable_radial, False),
    "sum": (_host, True),
    "sum-off": (lambda: sum_field(_b(1.0, (0.3, 0, 0)), _b(0.5)), False),
    "concentric": (lambda: ConcentricGlueField(_b(0.2), _b(1.0), 0.5, 1.5), True),
    "disjoint": (lambda: DisjointGlueField(_b(0.5, (3, 0, 0)), 0.5, _b(1.0), 0.5), False),
    "insert": (lambda: InsertGlueField(_host(), _b(0.5), np.zeros(3), 4.0, 1.0), True),
    "insert-off": (lambda: InsertGlueField(_host(), _b(0.5), [0.1, 0, 0], 4.0, 1.0), False),
    "kelvin": (lambda: KelvinField(_host(), Inversion(np.zeros(3), 1.2)), True),
    "kelvin-off": (lambda: KelvinField(_host(), Inversion([0.2, 0, 0], 1.2)), False),
    "rep-singular": (lambda: _power_field(3, -0.5), True),
    "rep-singular-n4": (lambda: _power_field(4, -1.5), True),
}


@pytest.mark.parametrize("name", RADIAL_CLAIMS)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_radial_claim_survives_rotation(name, data):
    # a field that claims `radial` has the same value and Laplacian at x and
    # at Qx for any orthogonal Q, to roundoff of their largest magnitudes
    make, claim = RADIAL_CLAIMS[name]
    f = make()
    n = f.n
    coord = st.floats(min_value=-2.5, max_value=2.5)
    point = st.lists(coord, min_size=n, max_size=n).filter(lambda v: np.hypot.reduce(v) >= 0.1)
    x = np.array(data.draw(st.lists(point, min_size=1, max_size=16)))
    q = random_rotation(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
    if data.draw(st.booleans()):
        q[0] = -q[0]  # a reflection
    y = x @ q.T
    if f.radial:
        # the scale takes in a ray across the sampled shell as well, so that a
        # Laplacian near one of its zeros is held to the roundoff of the terms
        # that cancel there, not to that of the small sum
        scale = np.vstack([x, np.linspace(0.1, 2.5, 25)[:, None] * np.eye(n)[0]])
        for of in (f.value, f.laplacian):
            assert np.max(np.abs(of(y) - of(x))) <= 1e-14 * np.max(np.abs(of(scale)))
    # the cases stay on both sides of the rules, so the check above is not vacuous
    assert f.radial == claim

"""Sphere inversions, Kelvin transforms and their composition laws."""

import numpy as np
import pytest

from bubbleforge import (
    BaseField,
    Bubble,
    GlueConfig,
    Inversion,
    glue_concentric,
    invert_point,
    k_function,
    kelvin_bubble,
    kelvin_field,
    lemma_5_4_compose,
    ScalarField,
    sum_field,
)
from bubbleforge.errors import AtCenter, OutOfDomain
from bubbleforge.kelvin import KelvinField


def _random_points(rng, n, m, spread=1.5, avoid=None, min_dist=0.3):
    pts = rng.normal(size=(m, n)) * spread
    if avoid is not None:
        d = np.linalg.norm(pts - np.asarray(avoid), axis=-1)
        pts = pts[d > min_dist]
    return pts


def test_invert_point_simple():
    inv = Inversion([0, 0, 0], 1.0)
    assert np.allclose(invert_point(inv, [2, 0, 0]), [0.5, 0, 0])


def test_invert_point_is_involution(rng):
    inv = Inversion([0.3, -0.1, 0.2], 1.7)
    pts = _random_points(rng, 3, 30, avoid=inv.center)
    assert np.allclose(invert_point(inv, invert_point(inv, pts)), pts, atol=1e-12)


def test_invert_point_fixes_sphere():
    inv = Inversion([0, 0, 0], 2.0)
    x = np.array([2.0, 0.0, 0.0])
    assert np.allclose(invert_point(inv, x), x)
    y = 2.0 * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    assert np.allclose(invert_point(inv, y), y, atol=1e-14)


def test_invert_point_rejects_center():
    inv = Inversion([1, 0, 0], 1.0)
    with pytest.raises(AtCenter):
        invert_point(inv, [1, 0, 0])


def test_kelvin_of_bubble_about_matching_sphere_is_identity(rng):
    lam = 1.4
    b = Bubble(lam, [0, 0, 0], 3)
    v = kelvin_field(b, Inversion([0, 0, 0], lam))
    pts = _random_points(rng, 3, 20, avoid=[0, 0, 0])
    assert np.max(np.abs(v.value(pts) - b.value(pts))) < 1e-12


def test_kelvin_image_of_bubble_has_unit_curvature(rng):
    b = Bubble(0.8, [1.2, 0.3, 0], 3)
    v = kelvin_field(b, Inversion([0, 0, 0], 1.0))
    pts = _random_points(rng, 3, 40, avoid=[0, 0, 0])
    assert np.max(np.abs(k_function(v, pts) - 1.0)) < 1e-10


def test_kelvin_double_transform_restores_field(rng):
    inv = Inversion([0.2, 0.1, -0.3], 1.3)
    f = sum_field(Bubble(1.0, [1, 0, 0], 3), Bubble(0.5, [-1, 0.5, 0], 3))
    back = kelvin_field(kelvin_field(f, inv), inv)
    pts = _random_points(rng, 3, 25, avoid=inv.center)
    assert np.max(np.abs(back.value(pts) - f.value(pts))) < 1e-10


def test_kelvin_bubble_parameter_law():
    img = kelvin_bubble(Bubble(1.0, [2, 0, 0], 3), Inversion([0, 0, 0], 1.0))
    assert img.lam == pytest.approx(0.2, abs=1e-15)
    assert np.allclose(img.center, [0.4, 0, 0])


def test_kelvin_bubble_centered_inverts_scale():
    img = kelvin_bubble(Bubble(2.0, [0, 0, 0], 3), Inversion([0, 0, 0], 1.0))
    assert img.lam == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(img.center, 0.0)


def test_kelvin_bubble_involution(rng):
    inv = Inversion(np.zeros(4), 1.6)
    for _ in range(10):
        b = Bubble(float(rng.uniform(0.2, 3)), rng.normal(size=4), 4)
        bb = kelvin_bubble(kelvin_bubble(b, inv), inv)
        assert bb.lam == pytest.approx(b.lam, rel=1e-12)
        assert np.allclose(bb.center, b.center, atol=1e-12)


def test_kelvin_bubble_matches_kelvin_field(rng):
    inv = Inversion([0, 0, 0], 1.2)
    for _ in range(10):
        b = Bubble(float(rng.uniform(0.3, 2)), rng.normal(size=3), 3)
        img = kelvin_bubble(b, inv)
        v = kelvin_field(b, inv)
        pts = _random_points(rng, 3, 10, avoid=[0, 0, 0])
        assert np.max(np.abs(img.value(pts) - v.value(pts))) < 1e-10


def test_kelvin_curvature_composition(rng):
    # K of the image field equals K of the source at the inverted point
    inv = Inversion([0, 0, 0], 1.0)
    f = sum_field(Bubble(1.0, [0.5, 0, 0], 3), Bubble(0.7, [-0.5, 0.2, 0], 3))
    v = kelvin_field(f, inv)
    pts = _random_points(rng, 3, 50, avoid=[0, 0, 0])
    assert np.max(np.abs(k_function(v, pts)
                         - k_function(f, invert_point(inv, pts)))) < 1e-8


def test_kelvin_value_on_sphere_preserved(rng):
    inv = Inversion([0, 0, 0], 1.5)
    f = Bubble(0.9, [0.4, -0.2, 0.7], 3)
    v = kelvin_field(f, inv)
    dirs = rng.normal(size=(10, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    on_sphere = 1.5 * dirs
    assert np.allclose(v.value(on_sphere), f.value(on_sphere), atol=1e-13)


def test_kelvin_center_extension_for_decaying_source():
    b = Bubble(0.7, [2.0, 0, 0], 3)
    v = kelvin_field(b, Inversion([0, 0, 0], 1.0))
    img = kelvin_bubble(b, Inversion([0, 0, 0], 1.0))
    assert v.value([0, 0, 0]) == pytest.approx(float(img.value([0, 0, 0])), rel=1e-12)


def test_kelvin_center_without_decay_flag_raises():
    slow = BaseField(3)  # decays like |x|^(-(n-2)/2), no inversion extension
    v = kelvin_field(slow, Inversion([0, 0, 0], 1.0))
    with pytest.raises(AtCenter):
        v.value([0, 0, 0])
    with pytest.raises(AtCenter):
        v.gradient([0, 0, 0])


def test_kelvin_batch_holding_the_center_extends_only_there():
    inv = Inversion([0.1, -0.2, 0.3], 1.3)
    v = kelvin_field(sum_field(Bubble(0.7, [2.0, 0, 0], 3), Bubble(0.4, [-1.0, 1.0, 0], 3)), inv)
    others = np.random.default_rng(4).uniform(-2.0, 2.0, size=(7, 3))
    batch = np.insert(others, 3, inv.center, axis=0)
    vals = v.value(batch)
    assert vals[3] == v.src.inv_decay_coeff * inv.radius ** (2 - v.n)
    assert vals[3] == v.value(inv.center)
    rest = np.delete(vals, 3)
    assert rest.tobytes() == v.value(others).tobytes()
    assert rest.tobytes() == v._jet(others.T, True, True)[0].tobytes()
    for grad, d2 in ((True, False), (False, True), (True, True)):
        with pytest.raises(AtCenter):
            v._jet(batch.T, grad, d2)


class _RaisingField(ScalarField):
    """Source whose value raises the given exception everywhere."""

    def __init__(self, exc):
        self.n = 3
        self.exc = exc

    def value(self, x):
        raise self.exc("no value here")


def test_kelvin_center_source_error_leaves_no_extension():
    v = kelvin_field(_RaisingField(OutOfDomain), Inversion([0, 0, 0], 1.0))
    assert v.inv_decay_coeff is None


def test_kelvin_center_source_bug_propagates():
    with pytest.raises(TypeError):
        kelvin_field(_RaisingField(TypeError), Inversion([0, 0, 0], 1.0))


def test_lemma_5_4_matches_direct_transform(rng):
    # f is the unit-origin transform of a bubble, so the composed field is
    # the inv2 transform of that bubble, which kelvin_bubble gives in closed form
    b = Bubble(0.8, [1.0, 0.5, 0], 3)
    inv2 = Inversion([0.3, -0.2, 0.1], 1.7)
    composed = lemma_5_4_compose(kelvin_bubble(b, Inversion([0, 0, 0], 1.0)), inv2)
    exact = kelvin_bubble(b, inv2)
    pts = _random_points(rng, 3, 20, avoid=inv2.center)
    np.testing.assert_allclose(composed.value(pts), exact.value(pts), rtol=1e-12, atol=0)
    np.testing.assert_allclose(composed.laplacian(pts), exact.laplacian(pts), rtol=1e-12, atol=0)
    g, g_exact = composed.gradient(pts), exact.gradient(pts)
    assert np.all(np.linalg.norm(g - g_exact, axis=-1) <= 1e-12 * np.linalg.norm(g_exact, axis=-1))


def test_lemma_5_4_continuity_at_outer_center(rng):
    f = kelvin_bubble(Bubble(0.8, [1.0, 0.5, 0], 3), Inversion([0, 0, 0], 1.0))
    a = 1.7
    xi2 = np.array([0.3, -0.2, 0.1])
    composed = lemma_5_4_compose(f, Inversion(xi2, a))
    expected = a ** (2 - 3) * float(f.value(np.zeros(3)))
    ray = rng.normal(size=3)
    ray /= np.linalg.norm(ray)
    for t in (1e-3, 1e-5, 1e-7):
        got = float(composed.value(xi2 + t * ray))
        assert got == pytest.approx(expected, rel=1e-4 + t * 100)


def test_lemma_5_4_unit_inversion_is_identity(rng):
    f = kelvin_bubble(Bubble(1.1, [0.6, 0, 0], 3), Inversion([0, 0, 0], 1.0))
    composed = lemma_5_4_compose(f, Inversion([0, 0, 0], 1.0))
    pts = _random_points(rng, 3, 20, avoid=[0, 0, 0])
    assert np.max(np.abs(composed.value(pts) - f.value(pts))) < 1e-12


@pytest.mark.parametrize("center", [[0.3, -0.2, 0.1], [1.2, -0.9, 0.4]],
                         ids=["inside-both", "outside-both"])
def test_kelvin_image_declares_the_image_spheres(center, rng):
    # each point of a source sphere inverts onto the declared image sphere
    src = glue_concentric(GlueConfig.concentric(Bubble(0.2, np.zeros(3), 3),
                                                Bubble(1.0, np.zeros(3), 3), 0.5, 1.5))
    inv = Inversion(center, 1.1)
    images = KelvinField(src, inv)._interfaces
    assert len(images) == len(src._interfaces) == 2
    for (c, r), (ci, ri) in zip(src._interfaces, images):
        d = rng.normal(size=(32, 3))
        y = c + r * d / np.linalg.norm(d, axis=-1, keepdims=True)
        dist = np.linalg.norm(invert_point(inv, y) - ci, axis=-1)
        assert np.max(np.abs(dist / ri - 1.0)) <= 1e-13


def test_kelvin_image_of_a_sphere_through_the_centre_declares_none():
    # the image of a sphere through the inversion centre is a plane
    src = glue_concentric(GlueConfig.concentric(Bubble(0.2, np.zeros(3), 3),
                                                Bubble(1.0, np.zeros(3), 3), 0.5, 1.5))
    assert KelvinField(src, Inversion([0.0, 0.5, 0.0], 1.0))._interfaces == ()

"""The column-batch jet against the row-major broadcast formulas.

A field's _jet takes its points as (n, m) coordinate rows and gives its
gradient in the same layout.  The reference formulas below build the
(m, n) gradient of an (m, n) batch with [:, None] broadcasts, as the fields
once did; the public gradient, inv_root_grad_sq and the ray points of the
quadratures must equal them bit for bit.
"""

import numpy as np
import pytest

from bubbleforge import Inversion, SumField, inv_root_grad_sq
from bubbleforge.blowup import RescaledField
from bubbleforge.field_core import RadialField, _row_dot, _sq_dist
from bubbleforge.glue import DisjointGlueField, InsertGlueField
from bubbleforge.kelvin import KelvinField, invert_point
from bubbleforge.potential import _ray_points
from test_field_protocol import FIELDS


def _image_ref(inv, d, rho2):
    return inv.center + inv.radius**2 * d / rho2[:, None]


def _blend_ref(acc, p, dp, s, d, ga, gb, off):
    """(m, n) gradient of phi A + (1 - phi) B in glue._blend's order, phi' = dp at the
    radii s, d = u_A - u_B and off = x - c: p g_A + (1 - p) g_B + (dp/s) d off,
    with A = 0 for ga None, added to acc when given."""
    g = (1.0 - p)[:, None] * gb
    if ga is not None:
        g = p[:, None] * ga + g
    elif acc is not None:
        g = acc + g
    return g + (dp / np.where(s == 0.0, 1.0, s) * d)[:, None] * off


def gradient_ref(f, pts):
    """(m, n) gradient of f by the row-major broadcast formulas."""
    if isinstance(f, RadialField):
        r = np.sqrt(_sq_dist(pts.T, f.center))
        _, slope, _ = f._radial_jet(r, True, False)
        g = slope[:, None] * (pts - f.center)
        return np.where(r[:, None] == 0.0, 0.0, g)
    if isinstance(f, SumField):
        return gradient_ref(f.f, pts) + gradient_ref(f.g, pts)
    if isinstance(f, DisjointGlueField):
        # (1 - phi2) u1 + (1 - phi1) u2: blends with A = 0, the second added to the first
        g = None
        for b, cut, c in ((f.b1, f.cut2, f.b2.center), (f.b2, f.cut1, f.b1.center)):
            s = np.sqrt(_sq_dist(pts.T, c))
            p, dp, _ = cut._jet(s, False)
            g = _blend_ref(g, p, dp, s, -b.value(pts), None, gradient_ref(b, pts), pts - c)
        return g
    if isinstance(f, InsertGlueField):
        s = np.sqrt(_sq_dist(pts.T))
        p, dp, _ = f.cut._jet(s, False)
        return _blend_ref(None, p, dp, s, f.bubble.value(pts) - f.host.value(f.x1 + pts),
                          gradient_ref(f.bubble, pts), gradient_ref(f.host, f.x1 + pts), pts)
    if isinstance(f, KelvinField):
        n, a = f.n, f.inv.radius
        d = pts - f.inv.center
        rho2 = _sq_dist(d.T)
        y = _image_ref(f.inv, d, rho2)
        u, gu = f.src.value(y), gradient_ref(f.src, y)
        c = a**2 / rho2
        pref = c ** ((n - 2) / 2)
        dot = _row_dot(d.T, gu.T)[:, None]
        jac_g = c[:, None] * (gu - 2.0 * d * dot / rho2[:, None])
        return ((2 - n) * (pref / rho2))[:, None] * d * u[:, None] + pref[:, None] * jac_g
    if isinstance(f, RescaledField):
        return f.lam ** (f.n / 2) * gradient_ref(f.src, f.x_center + f.lam * pts)
    raise TypeError(f"no reference gradient for {type(f).__name__}")


def inv_root_grad_sq_ref(f, pts):
    n = f.n
    return (4.0 / (n - 2) ** 2) * f.value(pts) ** (-2.0 * n / (n - 2)) * _sq_dist(
        gradient_ref(f, pts).T)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _points(f, half, rng):
    """Random points, points within underflow of the origin and the centres."""
    pts = [rng.uniform(-half, half, size=(500, f.n)),
           1e-170 * rng.standard_normal((4, f.n))]
    for src in (f, getattr(f, "b1", None), getattr(f, "b2", None), getattr(f, "bubble", None)):
        if isinstance(src, RadialField):
            pts.append(src.center[None, :])
    return np.concatenate(pts)


@pytest.mark.parametrize("make", FIELDS.values(), ids=FIELDS.keys())
def test_gradient_matches_broadcast_formulas(make, rng):
    f, half = make()
    pts = _points(f, half, rng)
    ref = gradient_ref(f, pts)
    g = f.gradient(pts)
    assert g.shape == (pts.shape[0], f.n) and g.flags.c_contiguous
    assert _same_bits(g, ref)
    assert _same_bits(f.gradient(pts[7]), ref[7])
    assert _same_bits(inv_root_grad_sq(f, pts), inv_root_grad_sq_ref(f, pts))
    assert inv_root_grad_sq(f, pts[7]) == inv_root_grad_sq_ref(f, pts[7:8])[0]


@pytest.mark.parametrize("n", [3, 4, 6])
def test_ray_points_match_broadcast_formulas(n, rng):
    x0 = rng.normal(size=n)
    dirs = rng.normal(size=(7, n))
    rr = rng.uniform(0.0, 2.0, size=(7, 5))
    r = rng.uniform(0.0, 2.0, size=9)
    cases = [
        # per-direction radii, as the polar ball blocks
        (_ray_points(x0, rr, dirs[:, None, :]),
         (x0[None, None, :] + rr[..., None] * dirs[:, None, :]).reshape(-1, n)),
        # every radius along every direction, as the profile and annulus samples
        (_ray_points(x0, r[:, None], dirs),
         (x0[None, None, :] + r[:, None, None] * dirs[None, :, :]).reshape(-1, n)),
        # one radius, as the boundary spheres
        (_ray_points(x0, 0.7, dirs), (x0[None, :] + 0.7 * dirs)),
    ]
    for X, ref in cases:
        # the points come as C-contiguous (n, m) coordinate rows
        assert X.shape == ref.shape[::-1] and X.flags.c_contiguous
        assert _same_bits(X, ref.T)


@pytest.mark.parametrize("n", [3, 5])
def test_inversion_image_matches_broadcast_formula(n, rng):
    inv = Inversion(rng.normal(size=n), 1.3)
    pts = rng.normal(size=(40, n))
    d = pts - inv.center
    assert _same_bits(invert_point(inv, pts), _image_ref(inv, d, _sq_dist(d.T)))

"""Sphere inversions and Kelvin transforms of fields.

The Kelvin transform about the sphere |x - c| = a maps a field u to

    v(x) = (a / |x - c|)^(n-2) * u(c + a^2 (x - c) / |x - c|^2),

with the exact propagation rules

    lap(v)(x) = (a / |x - c|)^(n+2) * lap(u)(T(x)),

so the curvature function composes with the inversion map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AtCenter, BubbleforgeError
from .field_core import Bubble, ScalarField, _point, _pointwise, _row_dot, _sq_dist


@dataclass(frozen=True)
class Inversion:
    """Inversion sphere: center point and radius a > 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _point(self.center, np.size(self.center)))
        if not self.radius > 0:
            raise ValueError("inversion radius must be positive")

    @property
    def n(self) -> int:
        return self.center.shape[0]


def _image(inv: Inversion, d, rho2):
    """Image c + a^2 d / rho2, as (n, m) rows, of the offsets d (n, m) from c; rho2 = |d|^2."""
    y = inv.radius**2 * d
    y /= rho2
    y += inv.center[:, None]
    return y


def invert_point(inv: Inversion, x):
    """Image of x under the sphere inversion, c + a^2 (x-c)/|x-c|^2."""

    def image(X):
        d = X - inv.center[:, None]
        rho2 = _sq_dist(d)
        if np.any(rho2 == 0.0):
            raise AtCenter("cannot invert the center point")
        return _image(inv, d, rho2)

    return _pointwise(image, x, inv.n)


class KelvinField(ScalarField):
    """Kelvin transform of a source field about an inversion sphere.

    Value at the inversion center is the continuous extension A * a^(2-n)
    when the source declares the decay coefficient A = lim |y|^(n-2) u(y);
    otherwise evaluation there raises AtCenter.  Gradient and Laplacian are
    exact chain-rule images of the source's jet at the inversion image, and
    are only defined away from the center.  The jet takes one non-integer
    power per point, pref = c^((n-2)/2) with c = a^2 / |x - center|^2; the
    Laplacian factor pref c^2 and the gradient factor pref / |x - center|^2
    are products of it.
    """

    def __init__(self, src: ScalarField, inv: Inversion):
        if src.n != inv.n:
            raise ValueError("field and inversion dimensions differ")
        self.n = src.n
        self.src = src
        self.inv = inv
        self.radial = src.radial and bool(np.all(inv.center == 0.0))
        # image of a field regular at the center decays like |x|^(2-n)
        try:
            u_c = float(src.value(inv.center))
            self.inv_decay_coeff = inv.radius ** (self.n - 2) * u_c
        except BubbleforgeError:
            self.inv_decay_coeff = None
        self._interfaces = _image_spheres(inv, src._interfaces)

    def __repr__(self):
        return f"KelvinField({self.src!r}, center={self.inv.center.tolist()!r}, a={self.inv.radius!r})"

    def _jet(self, X, grad, d2):
        d = X - self.inv.center[:, None]
        rho2 = _sq_dist(d)
        hit = bool(np.any(rho2 == 0.0))
        if hit:
            if grad or d2:
                raise AtCenter("gradient and Laplacian undefined at the inversion center")
            if self.src.inv_decay_coeff is None:
                raise AtCenter("source field declares no |y|^(2-n) decay")
            at_center = rho2 == 0.0
            rho2 = np.where(at_center, 1.0, rho2)
        a = self.inv.radius
        y = _image(self.inv, d, rho2)
        if not grad:
            d = None  # the offsets are read again only for the gradient
        u, gu, lap = self.src._jet(y, grad, d2)
        del y
        # (a/rho)^(n+2) = pref c^2 and a^(n-2)/rho^n = pref / rho^2
        c = a**2 / rho2
        pref = c ** ((self.n - 2) / 2)
        if d2:
            lap *= pref
            lap *= c
            lap *= c
        if not grad:
            u *= pref
            # a batch holding the centre is value-only: it takes the extension
            if hit:
                u = np.where(at_center, self.src.inv_decay_coeff * a ** (2 - self.n), u)
            return u, None, lap
        # reflection part of the inversion Jacobian: (a^2/rho^2)(I - 2 e e^T)
        dot = _row_dot(d, gu)
        jac_g = c * (gu - 2.0 * d * dot / rho2)
        g = (2 - self.n) * (pref / rho2) * d * u + pref * jac_g
        u *= pref
        return u, g, lap


def _image_spheres(inv: Inversion, spheres) -> tuple:
    """The images of the spheres (c, r) under the inversion; none if one meets its centre.

    With d = c - center and e = |d|^2 - r^2 != 0, the image of |y - c| = r is
    the sphere about center + a^2 d / e of radius a^2 r / |e|; for e = 0 it
    is a plane, which no sphere declares.
    """
    out = []
    for c, r in spheres:
        d = c - inv.center
        e = float(np.sum(d * d)) - r * r
        if e == 0.0:
            return ()
        out.append((inv.center + inv.radius**2 * d / e, inv.radius**2 * r / abs(e)))
    return tuple(out)


def kelvin_field(f: ScalarField, inv: Inversion) -> KelvinField:
    """Kelvin transform of f about the given sphere."""
    return KelvinField(f, inv)


def kelvin_bubble(b: Bubble, inv: Inversion) -> Bubble:
    """Closed-form image of a bubble under a Kelvin transform.

    With offset xi = center_b - center_inv and denominator D = lam^2 + |xi|^2:
    image scale a^2 lam / D, image center c + a^2 xi / D.  An inversion
    centered at the origin reduces to the familiar parameter law.
    """
    if b.n != inv.n:
        raise ValueError("bubble and inversion dimensions differ")
    a = inv.radius
    xi = b.center - inv.center
    den = b.lam**2 + float(np.sum(xi * xi))
    return Bubble(a**2 * b.lam / den, inv.center + a**2 * xi / den, b.n)


def lemma_5_4_compose(f: ScalarField, inv2: Inversion) -> KelvinField:
    """Re-express a unit-origin Kelvin transform as a (center, radius) one.

    f is taken to be the unit transform of an underlying field; the unit
    transform is an involution, so applying it again recovers that field,
    and the returned field is its (inv2.center, inv2.radius) transform.
    """
    return KelvinField(KelvinField(f, Inversion(np.zeros(f.n), 1.0)), inv2)

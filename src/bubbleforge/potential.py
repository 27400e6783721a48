"""Fundamental solution of the Laplacian and singular potential quadrature.

A ball integral of |H| against a radial factor over an origin-centred ball
is one radial integral through the spherical mean of the kernel; so is the
Green representation of a radial field on an origin-centred ball with its
singular point at the origin, whose boundary terms are then closed forms.
Every other ball integral against H is one ray integral (_ray_integral) in
polar coordinates about the singular point, where |H| r^(n-1) is
proportional to r, so the radial integrand is bounded.  Each ray is cut
where it crosses a sphere across which a field declares that its jet may
lose smoothness (its _interfaces), and at an excluded ball, and each segment
takes its own Gauss panels; the angular rule is aligned with the axis to
one of their centres and split at its grazing angles.  The singular point
must lie inside the ball.  Error estimates come from rule doubling: a ray
integral doubles its angular and radial rules together until the last
delta is within rel_tol, and adaptive_radial's add a rounding bound.
Accumulation is fixed-order, and the polar rules sum elementwise rather
than through BLAS products, so their results are deterministic run to run
and do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BadRadii, Coincident, ProfileViolated
from .field_core import (ScalarField, _dim, _grad_term_of, _grad_term_rows, _k_of, _point,
                         _pointwise, _row_dot, _same_dim, _sq_dist)
from .regions import _POINT_BLOCK, Ball


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Kernel:
    """Free-space fundamental solution H(x, xi) = |x-xi|^(2-n) / ((2-n) omega_n)."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _dim(self.n))

    @property
    def omega_n(self) -> float:
        return unit_sphere_area(self.n)


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with a rule-doubling error estimate."""

    value: float
    err_est: float
    n_evals: int


@dataclass(frozen=True)
class SingularProfile:
    """Declared blow-up bounds near an isolated singular point p.

    On the punctured ball B(p, delta) the attached field must satisfy
    |lap u| <= c1 / |x-p|^(n-1+mu) and |grad u| <= c2 / |x-p|^(n-1-nu).
    """

    p: np.ndarray
    mu: float
    nu: float
    c1: float
    c2: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "p", _point(self.p, np.size(self.p)))
        if not (0 < self.mu < 1 and 0 < self.nu < 1):
            raise ValueError("need mu, nu in (0, 1)")
        if min(self.c1, self.c2, self.delta) <= 0:
            raise ValueError("profile constants must be positive")


# --- quadrature primitives ---------------------------------------------------

_GL16 = leggauss(16)
_SEG_BLOCK = _POINT_BLOCK  # ray-segment points evaluated at a time
_ABS_TOL = 1e-14  # adaptive_radial stops at a doubling delta <= max(_ABS_TOL, rel_tol |value|)
_MAX_PANELS = 4096  # or at this many panels in a segment
_RAY_BUDGET = 1 << 22  # points a _ray_integral may evaluate over all its levels
_PROFILE_RADII = 24  # verify_profile samples this many radii along each direction
_PROFILE_SPHERE = 4  # of sphere_rule(n, _PROFILE_SPHERE)
_UNIT_ROUNDOFF = 2.0**-53  # of float64, for adaptive_radial's rounding bound


def _gl_panels(edges: np.ndarray):
    """Composite 16-point Gauss-Legendre nodes/weights on the panels between edges."""
    x0, w0 = _GL16
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x0[None, :]).ravel(), (
        half[:, None] * w0[None, :]
    ).ravel()


def adaptive_radial(fvec, a: float, b: float, rel_tol: float = 1e-10, splits=(),
                    geometric: bool = False):
    """Adaptive 1D integral of a vectorized integrand by panel doubling.

    Returns (value, err_est, n_evals).  Per segment, err_est adds the last
    doubling delta and the rounding bound gamma_m sum |w_i f_i| of the
    accepted m-node rule, gamma_m = m u / (1 - m u) with u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1): for an
    integrand the rule integrates exactly the delta is roundoff, often 0.
    Interior breakpoints can be supplied to keep panels off integrand kinks.
    """
    if b <= a:
        return 0.0, 0.0, 0
    cuts = sorted({float(a), float(b), *[float(s) for s in splits if a < s < b]})
    total, err, evals = 0.0, 0.0, 0
    spacing = np.geomspace if geometric else np.linspace
    for u, v in zip(cuts[:-1], cuts[1:]):
        k = 4
        nodes, wts = _gl_panels(spacing(u, v, k + 1))
        prev = float(wts @ np.asarray(fvec(nodes)))
        evals += nodes.size
        while True:
            k *= 2
            nodes, wts = _gl_panels(spacing(u, v, k + 1))
            f = np.asarray(fvec(nodes))
            cur = float(wts @ f)
            evals += nodes.size
            delta = abs(cur - prev)
            if delta <= max(_ABS_TOL, rel_tol * abs(cur)) or k >= _MAX_PANELS:
                m_u = nodes.size * _UNIT_ROUNDOFF
                total += cur
                err += delta + m_u / (1.0 - m_u) * float(np.abs(wts * f).sum())
                break
            prev = cur
    return total, err, evals


def _gauss_gegenbauer(m: int, a: float):
    """m-point Gauss rule for the weight (1 - t^2)^a on [-1, 1], a > -1/2.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix, whose off-diagonal sb holds the square roots of the
    recurrence coefficients.  One pass of the three-term recurrence of the
    orthonormal polynomials q_k, scaled to q_0 = 1, evaluates q_m, q_(m-1)
    and their derivatives at the eigenvalues.  One Newton step on q_m
    polishes each node, and the Christoffel-Darboux form of the Christoffel
    function, sum_{k<m} q_k^2 = sb_m (q_m' q_(m-1) - q_(m-1)' q_m), gives the
    weights up to a constant.  Nodes and weights are symmetrised, and the
    weights scaled to the weight's mass sqrt(pi) Gamma(a + 1) / Gamma(a + 3/2).
    """
    k = np.arange(1.0, m + 1.0)
    sb = np.sqrt(k * (k + 2.0 * a) / (4.0 * (k + a) ** 2 - 1.0))
    t = np.linalg.eigvalsh(np.diag(sb[:-1], 1) + np.diag(sb[:-1], -1))
    q_prev, q = np.zeros_like(t), np.ones_like(t)
    dq_prev, dq = np.zeros_like(t), np.zeros_like(t)
    for j in range(m):
        b_prev = sb[j - 1] if j else 0.0
        q_prev, q = q, (t * q - b_prev * q_prev) / sb[j]
        dq_prev, dq = dq, (q_prev + t * dq - b_prev * dq_prev) / sb[j]
    w = 1.0 / (dq * q_prev - dq_prev * q)
    t = t - q / dq
    t = 0.5 * (t - t[::-1])
    w = w + w[::-1]
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    return t, w * (mu0 / w.sum())


def sphere_rule(n: int, m: int):
    """Product quadrature rule on S^(n-1): points (M, n), weights summing to omega_n.

    Polar cosines use Gauss nodes for the (1-t^2)^((n-3)/2) weight;
    the base circle uses 2m equispaced points.
    """
    if n < 2:
        raise ValueError("sphere rule needs n >= 2")
    if n == 2:
        ang = (np.arange(2 * m) + 0.5) * (math.pi / m)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return pts, np.full(2 * m, math.pi / m)
    t, wt = _gauss_gegenbauer(m, (n - 3) / 2.0)
    sub_pts, sub_w = sphere_rule(n - 1, m)
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    pts = np.concatenate(
        [
            np.repeat(t, sub_pts.shape[0])[:, None],
            (s[:, None, None] * sub_pts[None, :, :]).reshape(-1, n - 1),
        ],
        axis=1,
    )
    w = (wt[:, None] * sub_w[None, :]).ravel()
    return pts, w


# --- kernel and its basic integrals ------------------------------------------


def h_eval(k: Kernel, x, xi):
    """H(x, xi); negative for all x != xi."""
    return _pointwise(lambda X: _h_rows(k, X, xi), x, k.n)


def _h_rows(k: Kernel, X, xi):
    """h_eval at the points of a column batch X (n, m)."""
    s = np.sqrt(_sq_dist(X, _point(xi, k.n)))
    if np.any(s == 0.0):
        raise Coincident("kernel is singular at x = xi")
    return s ** (2.0 - k.n) / ((2.0 - k.n) * k.omega_n)


def grad_h(k: Kernel, x, xi):
    """Gradient of H in x: (x - xi) / (omega_n |x - xi|^n)."""
    return _pointwise(lambda X: _grad_h_rows(k, X, xi), x, k.n)


def _grad_h_rows(k: Kernel, X, xi):
    """grad_h at the points of a column batch X (n, m), as (n, m) rows."""
    d = X - _point(xi, k.n)[:, None]
    s = np.sqrt(_sq_dist(d))
    if np.any(s == 0.0):
        raise Coincident("kernel is singular at x = xi")
    return d / (k.omega_n * s**k.n)


def _pole(ball: Ball, xi, n: int) -> np.ndarray:
    """xi as a point strictly inside ball, where the polar rays start; ValueError otherwise."""
    xi = _point(xi, n)
    if not float(np.linalg.norm(xi - ball.center)) < ball.radius:
        raise ValueError("xi must lie inside the ball")
    return xi


def int_absH_ball(k: Kernel, R: float, xi) -> QuadResult:
    """Integral of |H(., xi)| over the origin-centered ball of radius R.

    The spherical-mean reduction of _abs_h_ball with g = 1: the integrand
    is a polynomial on each side of |xi|, which the Gauss panels integrate
    exactly, so the estimate is adaptive_radial's rounding bound.
    """
    ball = Ball(np.zeros(k.n), R)
    val, err, ev = _abs_h_ball(k, lambda X: 1.0, ball, _pole(ball, xi, k.n), ())
    return QuadResult(value=val, err_est=err, n_evals=ev)


def int_absH_annulus(k: Kernel, rho: float, R: float) -> QuadResult:
    """Integral of |H(., 0)| over the annulus rho < |x| < R."""
    if not 0 < rho < R < math.inf:
        raise BadRadii("need 0 < rho < R < inf")
    val, err, ev = adaptive_radial(lambda r: r / (k.n - 2.0), rho, R)
    return QuadResult(value=val, err_est=err, n_evals=ev)


# --- weighted potential integrals --------------------------------------------


def _ray_exit(ball: Ball, xi: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distance from xi to the ball boundary along each unit direction."""
    d = xi - ball.center
    b = _row_dot(dirs.T, d)
    disc = b * b + ball.radius**2 - float(np.sum(d * d))
    return -b + np.sqrt(np.clip(disc, 0.0, None))


def _ray_points(x0: np.ndarray, r, dirs: np.ndarray) -> np.ndarray:
    """Points x0 + r theta as C-contiguous (n, m) rows, one multiply and one add per row.

    The unit directions dirs (..., n) broadcast against the radii r by their leading shape.
    """
    n = dirs.shape[-1]
    out = np.empty((n,) + np.broadcast_shapes(np.shape(r), dirs.shape[:-1]))
    for i in range(n):
        np.multiply(r, dirs[..., i], out=out[i])
        out[i] += x0[i]
    return out.reshape(n, -1)


def _complement_frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of axis^perp as columns (Householder construction)."""
    n = axis.size
    e = np.zeros(n)
    e[0] = 1.0
    if np.allclose(axis, e):
        return np.eye(n)[:, 1:]
    v = e - axis
    v = v / np.linalg.norm(v)
    house = np.eye(n) - 2.0 * np.outer(v, v)
    return house[:, 1:]


def _aligned_sphere_rule(n: int, m: int, axis: np.ndarray, breaks):
    """Sphere rule about `axis`: points (M, n) and weights summing to omega_n.

    The polar angle theta from the axis takes m // 4 Gauss panels on each
    interval between the break angles, with the measure sin^(n-2) theta
    folded into the weights, and the directions about the axis take
    sphere_rule(n - 1, m).  A break is a grazing angle, below which the rays
    cross a sphere, so that a chord's ends move as the square root of its
    distance from the break: on an interval that ends at a break, theta is
    the break minus L (1 - s)^2, s uniform, in which that root is smooth.
    """
    sub_pts, sub_w = sphere_rule(n - 1, m)
    frame = _complement_frame(axis)
    perp = sub_pts[:, :1] * frame[:, 0]  # the sub-sphere's points in axis^perp, (M, n)
    for j in range(1, n - 1):
        perp = perp + sub_pts[:, j:j + 1] * frame[:, j]
    s, ws = _gl_panels(np.linspace(0.0, 1.0, m // 4 + 1))
    cuts = [0.0, *sorted({float(b) for b in breaks if 0.0 < b < math.pi}), math.pi]
    th, wth = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi < math.pi:
            th.append(hi - (hi - lo) * (1.0 - s) ** 2)
            wth.append(ws * 2.0 * (hi - lo) * (1.0 - s))
        else:
            th.append(lo + (hi - lo) * s)
            wth.append(ws * (hi - lo))
    th = np.concatenate(th)
    wth = np.concatenate(wth) * np.sin(th) ** (n - 2)
    dirs = (np.cos(th)[:, None, None] * axis + np.sin(th)[:, None, None] * perp).reshape(-1, n)
    return dirs, (wth[:, None] * sub_w).ravel()


def _ray_axis(xi: np.ndarray, ball: Ball, spheres):
    """The axis of the angular rule about xi, and the grazing angles on it.

    The axis points from xi to the centre of the first sphere (centre,
    radius) that meets the ball, in the order given, or else to the ball's
    centre, passing over any centre at xi; the break angles are the grazing
    angles asin(r / |c - xi|) of the spheres about that centre with xi
    outside them.  About the ball's centre the ray's exit is symmetric.
    With no such centre the axis is the first coordinate axis.
    """
    meets = [(c, r) for c, r in spheres
             if abs(float(np.linalg.norm(c - ball.center)) - r) < ball.radius]
    for c in [c for c, _ in meets] + [ball.center]:
        dist = float(np.linalg.norm(c - xi))
        if dist > 0.0:
            return (c - xi) / dist, [math.asin(r / dist) for c2, r in meets
                                     if r <= dist and np.array_equal(c2, c)]
    return np.eye(xi.size)[0], []


def _ray_segments(xi: np.ndarray, dirs: np.ndarray, ball: Ball, spheres, excluded):
    """The segments of the rays from xi to the ball's boundary between the spheres.

    Each ray is cut where it crosses a sphere (centre, radius) of spheres or
    the boundary of the ball excluded, and the piece inside excluded is
    dropped.  Returns (direction, start, length) per segment of positive
    length, ordered by direction and then along the ray.
    """
    rexit = _ray_exit(ball, xi, dirs)
    cuts = [np.zeros_like(rexit), rexit]
    for c, r in [*spheres, *([excluded] if excluded else [])]:
        d = xi - c
        b = _row_dot(dirs.T, d)
        disc = b * b - (float(np.sum(d * d)) - r * r)
        sq = np.sqrt(np.clip(disc, 0.0, None))
        for t in (-b - sq, -b + sq):
            cuts.append(np.where((disc > 0.0) & (t > 0.0) & (t < rexit), t, rexit))
    cuts = np.sort(np.stack(cuts, axis=1), axis=1)
    lo, lens = cuts[:, :-1], np.diff(cuts, axis=1)
    live = lens > 0.0
    if excluded:
        p, D = excluded
        mid = _ray_points(xi - p, lo + 0.5 * lens, dirs[:, None, :])
        live &= _sq_dist(mid).reshape(lo.shape) >= D * D
    ray, piece = np.nonzero(live)
    return ray, lo[ray, piece], lens[ray, piece]


def _ray_sums(g, xi: np.ndarray, dirs: np.ndarray, ray: np.ndarray, lo: np.ndarray,
              lens: np.ndarray, uu: np.ndarray, wu: np.ndarray) -> list[np.ndarray]:
    """Per integrand and segment, lens * sum_j wu_j r_j g_i(xi + r_j theta),
    r = lo + lens uu, theta = dirs[ray].

    g maps an (n, m) column batch to a tuple of integrands (g_1, ...), so integrands
    that share a field evaluation take it from one pass.  g is evaluated in
    blocks of whole segments of about _SEG_BLOCK points, so memory stays
    bounded whatever the rule size, and each segment's nodes are summed in
    one fixed order, whatever the block.
    """
    rows = max(1, _SEG_BLOCK // uu.size)
    blocks = []
    for i in range(0, lens.size, rows):
        blk = slice(i, i + rows)
        rr = lo[blk, None] + lens[blk, None] * uu[None, :]
        vals = g(_ray_points(xi, rr, dirs[ray[blk], None, :]))
        blocks.append([lens[blk] * (rr * np.asarray(v).reshape(rr.shape) * wu).sum(axis=1)
                       for v in vals])
    return [np.concatenate(sums) for sums in zip(*blocks)]


def _ray_integral(k: Kernel, g, ball: Ball, xi: np.ndarray, spheres, rel_tol: float,
                  excluded=None):
    """The integrals of |H(x, xi)| g_i(x) over the ball, less the ball excluded, by rays from xi.

    g maps a batch to a tuple of integrands, as for _ray_sums, each smooth
    between the spheres (centre, radius) of spheres; excluded, a ball
    (centre, radius) without xi, or None.  In polar coordinates about xi,
    |H| r^(n-1) = r / ((n-2) omega_n), so each ray carries a bounded
    integrand.  The rays are cut at the spheres and at excluded's boundary
    (_ray_segments), and the angular rule is aligned with the axis from xi
    to the first of excluded's and the spheres' centres that meets the
    ball, else to the ball's centre, and split at its grazing angles
    (_ray_axis).  Level l takes _aligned_sphere_rule(n, 4 * 2^l) and 2^l
    Gauss panels on each ray segment: each level doubles both rules, and
    the delta of a level sees both.  Levels run from 0 until every
    doubling delta |I_l - I_(l-1)| is at most max(_ABS_TOL, rel_tol |I_l|),
    or until the next level would take the points evaluated past
    _RAY_BUDGET (levels 0 and 1 always run).  Returns ([(I, delta), ...]
    per integrand, at the last level, and the points evaluated).
    """
    axis, breaks = _ray_axis(xi, ball, [*([excluded] if excluded else []), *spheres])
    vals, deltas, n_evals, level = None, None, 0, 0
    while True:
        dirs, w = _aligned_sphere_rule(k.n, 4 << level, axis, breaks)
        ray, lo, lens = _ray_segments(xi, dirs, ball, spheres, excluded)
        uu, wu = _gl_panels(np.linspace(0.0, 1.0, (1 << level) + 1))
        if level >= 2 and n_evals + lens.size * uu.size > _RAY_BUDGET:
            break
        n_evals += lens.size * uu.size
        cur = [float((w[ray] * sums).sum()) / ((k.n - 2.0) * k.omega_n)
               for sums in _ray_sums(g, xi, dirs, ray, lo, lens, uu, wu)]
        if vals is not None:
            deltas = [abs(c - v) for c, v in zip(cur, vals)]
        vals = cur
        if deltas is not None and all(d <= max(_ABS_TOL, rel_tol * abs(v))
                                       for d, v in zip(deltas, vals)):
            break
        level += 1
    return list(zip(vals, deltas)), n_evals


def _abs_h_sphere(k: Kernel, g, s0: float):
    """r -> the integral of |H(x, xi)| g(x) over the sphere |x| = r, g radial, |xi| = s0.

    That is r^(n-1) g(r) max(r, s0)^(2-n) / (n-2), by Newton's theorem: the
    mean of |x - xi|^(2-n) over |x| = r is max(r, s0)^(2-n) (Lieb & Loss,
    Analysis, Thm 9.7).  g is read on the first axis.
    """
    e1 = np.eye(k.n)[:, :1]  # the first axis, as a column

    def integrand(r):
        mean = np.maximum(r, s0) ** (2.0 - k.n)
        return g(e1 * r) * r ** (k.n - 1) * mean / (k.n - 2.0)

    return integrand


def _abs_h_ball(k: Kernel, g, ball: Ball, xi: np.ndarray, spheres, rel_tol: float = 1e-10):
    """Integral of |H(x, xi)| g(x), g radial, over an origin-centred ball: (value, err, n_evals).

    A 1D integral of _abs_h_sphere, split at |xi| and at the radii of the
    spheres (centre, radius) about the origin that g is smooth between; any
    other g takes _ray_integral.
    """
    s0 = float(np.linalg.norm(xi))
    return adaptive_radial(_abs_h_sphere(k, g, s0), 0.0, ball.radius, rel_tol,
                           splits=(s0, *[r for _, r in spheres]))


def weighted_grad_integral(k: Kernel, f: ScalarField, region: Ball, xi,
                           rel_tol: float = 1e-10) -> QuadResult:
    """Integral of |H(x, xi)| |grad(f^(-2/(n-2)))(x)|^2 over a ball.

    Radially symmetric fields over origin-centered balls reduce to a 1D
    integral through the spherical mean of the kernel; otherwise rays from
    xi are cut at the field's declared interfaces (_ray_integral).  Either
    way the rules double until the estimate is within rel_tol of the value.
    """
    _same_dim(k.n, region, f)
    xi = _pole(region, xi, k.n)
    if f.radial and bool(np.all(region.center == 0.0)):
        val, err, ev = _abs_h_ball(k, lambda X: _grad_term_rows(f, X), region, xi,
                                   f._interfaces, rel_tol)
    else:
        [(val, err)], ev = _ray_integral(k, lambda X: (_grad_term_rows(f, X),), region, xi,
                                         f._interfaces, rel_tol)
    return QuadResult(value=val, err_est=err, n_evals=ev)


def rep_identity_report(u_c: ScalarField, u2: ScalarField, omega2: Ball, xi,
                        rel_tol: float = 1e-10) -> dict:
    """Both sides of the glued-field representation identity on a ball.

    Left side: 4n * integral of H (K - 1) over omega2.  Right side:
    u_c(xi)^(-4/(n-2)) - u2(xi)^(-4/(n-2)) plus (n+2) times the integral of
    |H| (|grad u_c^(-2/(n-2))|^2 - |grad u2^(-2/(n-2))|^2).  Both sides are
    quadratures; for a valid configuration the difference is quadrature
    error only.  lhs_err and rhs_err are the error estimates of the two
    integrals, scaled as lhs and rhs are.

    The polar rule (_ray_integral, its rays cut at both fields' declared
    interfaces) integrates both integrands in one pass, from one jet of u_c
    (values, gradients, Laplacians) and one gradient jet of u2 per point,
    and doubles until both estimates are within rel_tol.  The radial path
    keeps one adaptive integral per integrand, as each stops doubling its
    panels on its own.
    """
    n = u_c.n
    _same_dim(n, u2, omega2)
    k = Kernel(n)
    xi = _pole(omega2, xi, n)
    p4 = 4.0 / (n - 2)

    radial = u_c.radial and u2.radial and bool(np.all(omega2.center == 0.0))
    if radial:
        def kdev(X):
            return _k_of(n, *u_c._jet(X, False, True)[::2]) - 1.0

        def gdiff(X):
            return _grad_term_rows(u_c, X) - _grad_term_rows(u2, X)

        spheres = u_c._interfaces + u2._interfaces
        q1, e1, _ = _abs_h_ball(k, kdev, omega2, xi, spheres, rel_tol)
        q2, e2, _ = _abs_h_ball(k, gdiff, omega2, xi, spheres, rel_tol)
    else:
        def both(X):
            u, g, lap = u_c._jet(X, True, True)
            v, g2, _ = u2._jet(X, True, False)
            return (_k_of(n, u, lap) - 1.0,
                    _grad_term_of(n, u, _sq_dist(g)) - _grad_term_of(n, v, _sq_dist(g2)))

        [(q1, e1), (q2, e2)], _ = _ray_integral(k, both, omega2, xi,
                                                u_c._interfaces + u2._interfaces, rel_tol)

    lhs = 4.0 * n * -q1  # H = -|H|
    rhs = (float(u_c.value(xi)) ** (-p4) - float(u2.value(xi)) ** (-p4)
           + (n + 2) * q2)
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs,
            "lhs_err": 4.0 * n * e1, "rhs_err": (n + 2) * e2}


def lower_bound_3_9(u_c: ScalarField, u2: ScalarField, omega2: Ball, xi) -> float:
    """Representation lower bound on sup |K - 1| over a ball of radius R."""
    n = u_c.n
    _same_dim(n, u2, omega2)
    k = Kernel(n)
    p4 = 4.0 / (n - 2)
    q2 = (weighted_grad_integral(k, u_c, omega2, xi).value
          - weighted_grad_integral(k, u2, omega2, xi).value)
    bracket = (float(u_c.value(xi)) ** (-p4) - float(u2.value(xi)) ** (-p4)
               + (n + 2) * q2)
    return ((n - 2) / (2.0 * n)) * bracket / omega2.radius**2


# --- representation formula with a point singularity --------------------------


def verify_profile(u: ScalarField, prof: SingularProfile) -> None:
    """Sample the declared singular-profile bounds; raise ProfileViolated on failure."""
    n = u.n
    p = _point(prof.p, n)
    dirs, _ = sphere_rule(n, _PROFILE_SPHERE)
    radii = np.geomspace(prof.delta * 1e-3, prof.delta * 0.999, _PROFILE_RADII)
    X = _ray_points(p, radii[:, None], dirs)
    s = np.sqrt(_sq_dist(X, p))
    _, g, lap = u._jet(X, True, True)
    if np.any(np.abs(lap) > prof.c1 / s ** (n - 1 + prof.mu)):
        raise ProfileViolated("sampled |lap u| exceeds the declared bound")
    gr = np.sqrt(_sq_dist(g))
    if np.any(gr > prof.c2 / s ** (n - 1 - prof.nu)):
        raise ProfileViolated("sampled |grad u| exceeds the declared bound")


def _boundary_integral(k: Kernel, u: ScalarField, center, radius: float,
                       xi: np.ndarray, m: int, outward: bool = True) -> float:
    """Integral of u dH/dn - H du/dn over a sphere, normal radial (+/-)."""
    dirs, w = sphere_rule(k.n, m)
    X = _ray_points(center, radius, dirs)
    sgn = 1.0 if outward else -1.0
    dh = _row_dot(_grad_h_rows(k, X, xi), dirs.T)
    uv, g, _ = u._jet(X, True, False)
    du = _row_dot(g, dirs.T)
    h = _h_rows(k, X, xi)
    vals = uv * dh - h * du
    return sgn * radius ** (k.n - 1) * float((w * vals).sum())


def _inner_h_lap(k: Kernel, u: ScalarField, xi: np.ndarray, p: np.ndarray,
                 eps: float, D: float, dirs_p: np.ndarray, w_p: np.ndarray) -> float:
    """Integral of H(x, xi) lap(u)(x) over eps < |x - p| < D, polar about p.

    The kernel is smooth there because D = |xi - p|/2.
    """
    # whole radius rows, as many as fit in _SEG_BLOCK points, each summed in
    # one fixed order, whatever the block
    rows = max(1, _SEG_BLOCK // w_p.size)

    def inner_int(r):
        out = np.empty(r.size)
        for i in range(0, r.size, rows):
            rb = r[i:i + rows]
            X = _ray_points(p, rb[:, None], dirs_p)
            hv = _h_rows(k, X, xi).reshape(rb.size, -1)
            lap = u._jet(X, False, True)[2].reshape(rb.size, -1)
            out[i:i + rows] = (hv * lap * w_p).sum(axis=1) * rb ** (k.n - 1)
        return out

    return adaptive_radial(inner_int, eps, D, rel_tol=1e-9, geometric=True)[0]


def _check_eps_seq(eps_seq, D: float) -> None:
    """Raise unless eps_seq suits the excluded-ball formula at radius D = |xi - p|/2."""
    if D == 0.0:
        raise Coincident("xi coincides with the singular point")
    eps = [float(e) for e in eps_seq]
    if not eps or not all(0.0 < e < D for e in eps):
        raise BadRadii(f"need 0 < eps < |xi - p|/2 = {D!r} for every eps")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise BadRadii("eps_seq must be strictly decreasing")
    ratios = [e1 / e2 for e1, e2 in zip(eps, eps[1:])]
    if any(abs(q - ratios[0]) > 1e-9 * ratios[0] for q in ratios):
        raise BadRadii("eps_seq must be geometric")


def _radial_rep_terms(k: Kernel, u: ScalarField, R: float, xi: np.ndarray, eps: list,
                      rel_tol: float):
    """The Green representation of u(xi) on B(0, R) minus B(0, eps), u radial, by spherical means.

    Returns (volumes, err_est, bnd, pterms): per eps the integral of H lap u
    and the sum of its adaptive_radial estimates, the omega boundary term,
    and per eps the p-sphere term; an empty eps integrates the whole ball.
    With s = |xi|, the integral of H(., xi) over |x| = r is r^(n-1)
    max(r, s)^(2-n) / (2-n) (_abs_h_sphere), and the flux of grad H through
    that sphere is 1 for r > s and 0 for r < s.  So the boundary terms are
    u(R) - u'(R) R / (2-n) and u'(eps) eps^(n-1) s^(2-n) / (2-n), and the
    volume is one radial integral: over [D, R], D = s/2, once, split at s,
    and over each [eps, D] on geometric panels.
    """
    n = k.n
    s = float(np.linalg.norm(xi))
    splits = (s, *[r for _, r in u._interfaces])
    abs_h_lap = _abs_h_sphere(k, lambda X: u._jet(X, False, True)[2], s)  # H = -|H|
    uv, g, _ = u._jet(np.eye(n)[:, :1] * np.array([R, *eps]), True, False)
    du = g[0]  # u'(r) on the first axis
    bnd = float(uv[0] - du[0] * R / (2.0 - n))
    pterms = [float(d * e ** (n - 1) * s ** (2.0 - n) / (2.0 - n)) for d, e in zip(du[1:], eps)]
    D = 0.5 * s if eps else 0.0
    outer, outer_err, _ = adaptive_radial(abs_h_lap, D, R, rel_tol, splits=splits)
    if not eps:
        return [-outer], [outer_err], bnd, pterms
    inner = [adaptive_radial(abs_h_lap, e, D, rel_tol=1e-9, splits=splits, geometric=True)
             for e in eps]
    return ([-(v + outer) for v, _, _ in inner], [err + outer_err for _, err, _ in inner],
            bnd, pterms)


def rep_formula_report(u: ScalarField, prof: SingularProfile | None,
                       omega: Ball, xi, eps_seq=(1e-2, 1e-3, 1e-4),
                       m_sphere: int = 24, m_boundary: int = 48,
                       rel_tol: float = 1e-10) -> dict:
    """Per-radius residuals, excluded-sphere boundary terms and extrapolation.

    The residual is that of the Green representation of u(xi) on omega.
    With no profile the classical formula is evaluated directly, and its
    residual is also the extrapolation.  With a singular profile at p, the
    volume integral over omega minus B(p, eps) is split at
    D = |xi - p|/2.  The outer region, omega minus B(p, D), depends only on
    D, so it is integrated once per report; only the annulus
    eps < |x - p| < D is integrated for each eps.  The eps radii must be
    positive, strictly decreasing, below D and, from three of them on,
    geometric, since the extrapolation assumes a constant ratio; otherwise
    BadRadii is raised before any quadrature.  xi = p raises Coincident.

    A radial u on an origin-centred omega, with p at the origin, takes
    _radial_rep_terms: every term is a radial integral or a closed form, and
    err_est holds, per residual, the sum of its adaptive_radial estimates.
    Any other configuration takes polar rules: the volume outside B(p, D)
    along rays from xi, cut at u's declared interfaces and at B(p, D)
    (_ray_integral), the annulus along rays from p on sphere_rule(n,
    m_sphere), and the boundary terms on sphere_rule(n, m_boundary).  The
    boundary integrals carry no estimate, and err_est is None.  rel_tol
    bounds the doubling estimate of the volume outside B(p, D) (the whole
    volume without a profile) on both paths.
    """
    k = Kernel(u.n)
    _same_dim(k.n, omega)
    xi = _pole(omega, xi, k.n)
    p, eps = None, []
    if prof is not None:
        p, eps = _point(prof.p, k.n), list(eps_seq)
        D = 0.5 * float(np.linalg.norm(xi - p))
        _check_eps_seq(eps_seq, D)
        verify_profile(u, prof)
    target = float(u.value(xi))

    if u.radial and not np.any(omega.center) and (p is None or not np.any(p)):
        vols, err_est, bnd, pterms = _radial_rep_terms(k, u, omega.radius, xi, eps, rel_tol)
    else:
        err_est = None
        bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, m_boundary)
        [(vneg, _)], _ = _ray_integral(k, lambda X: (u._jet(X, False, True)[2],), omega, xi,
                                       u._interfaces, rel_tol, None if p is None else (p, D))
        outer = -vneg  # the rays integrate against |H|; H = -|H|
        if prof is None:
            vols = [outer]
        else:
            dirs_p, w_p = sphere_rule(k.n, m_sphere)
            vols = [_inner_h_lap(k, u, xi, p, e, D, dirs_p, w_p) + outer for e in eps]
        pterms = [_boundary_integral(k, u, p, e, xi, m_boundary, outward=False) for e in eps]
    residuals = [v + bnd - target for v in vols]
    extrapolated, order = _power_law_limit(eps, residuals)  # no eps: the one residual
    return {"residuals": residuals, "eps": eps, "p_boundary_terms": pterms, "order": order,
            "extrapolated": extrapolated, "err_est": err_est}


def _power_law_limit(eps, res):
    """Limit of res(eps) = L + A eps^q from the last three samples of a geometric eps."""
    if len(res) < 3:
        return res[-1], None
    r1, r2, r3 = res[-3], res[-2], res[-1]
    e1, e2 = eps[-3], eps[-2]
    ratio_eps = e1 / e2
    num, den = r1 - r2, r2 - r3
    if den == 0.0 or num / den <= 0:
        return r3, None
    q = math.log(num / den) / math.log(ratio_eps)
    lim = r3 - (r2 - r3) / (ratio_eps**q - 1.0)
    return lim, q

"""Fundamental solution of the Laplacian and singular potential quadrature.

All ball integrals against the kernel H use polar coordinates about the
singular point, where |H| r^(n-1) is proportional to r, so the radial
integrand is bounded; angular directions use product Gauss rules.  Error
estimates come from rule doubling; accumulation is fixed-order, so results
are deterministic run to run.
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
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if not (0 < self.mu < 1 and 0 < self.nu < 1):
            raise ValueError("need mu, nu in (0, 1)")
        if min(self.c1, self.c2, self.delta) <= 0:
            raise ValueError("profile constants must be positive")


# --- quadrature primitives ---------------------------------------------------

_GL16 = leggauss(16)
_SEG_BLOCK = _POINT_BLOCK  # ray-segment points evaluated at a time
_ABS_TOL = 1e-14  # adaptive_radial stops at a doubling delta <= max(_ABS_TOL, rel_tol |value|)
_MAX_PANELS = 4096  # or at this many panels in a segment
_PROFILE_RADII = 24  # verify_profile samples this many radii along each direction
_PROFILE_SPHERE = 4  # of sphere_rule(n, _PROFILE_SPHERE)
_ABS_H_NODES = 64  # int_absH_ball's polar-angle nodes


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

    Returns (value, err_est, n_evals); err_est is the last doubling delta.
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
            cur = float(wts @ np.asarray(fvec(nodes)))
            evals += nodes.size
            delta = abs(cur - prev)
            if delta <= max(_ABS_TOL, rel_tol * abs(cur)) or k >= _MAX_PANELS:
                total += cur
                err += delta
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


def int_absH_ball(k: Kernel, R: float, xi) -> QuadResult:
    """Integral of |H(., xi)| over the origin-centered ball of radius R.

    Polar coordinates about xi integrate the radial direction exactly
    (|H| r^(n-1) is linear in r); the polar angle is integrated by a
    Gauss-Jacobi rule, doubled once for the error estimate.
    """
    xi = _point(xi, k.n)
    s = float(np.linalg.norm(xi))
    if s >= R:
        raise ValueError("xi must lie inside the ball")

    def angular(mm: int) -> float:
        t, wt = _gauss_gegenbauer(mm, (k.n - 3) / 2.0)
        rmax = -s * t + np.sqrt(s * s * t * t + R * R - s * s)
        pref = unit_sphere_area(k.n - 1) / (2.0 * (k.n - 2) * k.omega_n)
        return pref * float(wt @ (rmax * rmax))

    v1, v2 = angular(_ABS_H_NODES), angular(2 * _ABS_H_NODES)
    return QuadResult(value=v2, err_est=abs(v2 - v1) + 1e-15 * abs(v2), n_evals=3 * _ABS_H_NODES)


def int_absH_annulus(k: Kernel, rho: float, R: float) -> QuadResult:
    """Integral of |H(., 0)| over the annulus rho < |x| < R."""
    if not 0 < rho < R:
        raise BadRadii("need 0 < rho < R")
    val, err, ev = adaptive_radial(lambda r: r / (k.n - 2.0), rho, R)
    return QuadResult(value=val, err_est=err, n_evals=ev)


# --- weighted potential integrals --------------------------------------------


def _ray_exit(ball: Ball, xi: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Distance from xi to the ball boundary along each unit direction."""
    d = xi - ball.center
    b = dirs @ d
    disc = b * b + ball.radius**2 - float(d @ d)
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


def _ray_sums(g, xi: np.ndarray, dirs: np.ndarray, lo: np.ndarray, lens: np.ndarray,
              uu: np.ndarray, wu: np.ndarray) -> list[np.ndarray]:
    """Per integrand and direction, lens * sum_j wu_j r_j g_i(xi + r_j theta),
    r = lo + lens uu.

    g maps an (n, m) column batch to a tuple of integrands (g_1, ...), so integrands
    that share a field evaluation take it from one pass.  g is evaluated in
    blocks of whole directions of about _SEG_BLOCK points, so memory stays
    bounded whatever the rule size.
    """
    rows = max(1, _SEG_BLOCK // uu.size)
    blocks = []
    for i in range(0, lens.size, rows):
        blk = slice(i, i + rows)
        rr = lo[blk, None] + lens[blk, None] * uu[None, :]
        vals = g(_ray_points(xi, rr, dirs[blk, None, :]))
        blocks.append([lens[blk] * ((rr * np.asarray(v).reshape(rr.shape)) @ wu)
                       for v in vals])
    return [np.concatenate(sums) for sums in zip(*blocks)]


def _polar_ball_integral(k: Kernel, g, ball: Ball, xi: np.ndarray,
                         m_sphere: int, m_rad: int):
    """sum_dirs w int_0^exit r g_i(xi + r theta) dr / ((n-2) omega_n), doubled.

    g maps a batch to a tuple of integrands, as for _ray_sums; returns
    ([(value, err), ...] per integrand, n_evals), err the doubling delta.
    """
    dirs, w = sphere_rule(k.n, m_sphere)
    rexit = _ray_exit(ball, xi, dirs)

    def radial(krad: int) -> list[float]:
        per_dir = _ray_sums(g, xi, dirs, np.zeros_like(rexit), rexit,
                            *_gl_panels(np.linspace(0.0, 1.0, krad + 1)))
        return [float(w @ p) / ((k.n - 2.0) * k.omega_n) for p in per_dir]

    v1 = radial(m_rad)
    v2 = radial(2 * m_rad)
    n_evals = dirs.shape[0] * 16 * 3 * m_rad
    return [(b, abs(b - a)) for a, b in zip(v1, v2)], n_evals


def _abs_h_ball(k: Kernel, g, ball: Ball, xi: np.ndarray, splits):
    """Integral of |H(x, xi)| g(x), g radial, over an origin-centred ball: (value, err, n_evals).

    A 1D integral, split at |xi| and at splits, through the spherical mean
    max(r, |xi|)^(2-n) of |x - xi|^(2-n) over |x| = r; any other g takes
    _polar_ball_integral.
    """
    s0 = float(np.linalg.norm(xi))
    e1 = np.eye(k.n)[:, :1]  # the first axis, as a column

    def integrand(r):
        mean = np.maximum(r, s0) ** (2.0 - k.n)
        return g(e1 * r) * r ** (k.n - 1) * mean / (k.n - 2.0)

    return adaptive_radial(integrand, 0.0, ball.radius, splits=(s0, *splits))


def weighted_grad_integral(k: Kernel, f: ScalarField, region: Ball, xi,
                           m_sphere: int = 16, m_rad: int = 16) -> QuadResult:
    """Integral of |H(x, xi)| |grad(f^(-2/(n-2)))(x)|^2 over a ball.

    Radially symmetric fields over origin-centered balls reduce to a 1D
    integral through the spherical mean of the kernel; otherwise a polar
    product rule about xi is used.
    """
    [q] = _weighted_grad_integrals(k, (f,), region, xi, m_sphere, m_rad)
    return q


def _weighted_grad_integrals(k: Kernel, fields, region: Ball, xi,
                             m_sphere: int = 16, m_rad: int = 16) -> list[QuadResult]:
    """weighted_grad_integral of each of several fields over one ball.

    Each radial field keeps its own adaptive integral.  The fields that take
    the polar path share one pass: every ray point is built once, and each
    field's integral is bit for bit the one a call of its own gives.
    """
    _same_dim(k.n, region, *fields)
    xi = _point(xi, k.n)
    at_origin = bool(np.all(region.center == 0.0))
    out: list = [None] * len(fields)
    polar = []
    for i, f in enumerate(fields):
        if not (f.radial and at_origin):
            polar.append(i)
            continue
        val, err, ev = _abs_h_ball(k, lambda X, f=f: _grad_term_rows(f, X), region, xi, ())
        out[i] = QuadResult(value=val, err_est=err, n_evals=ev)
    if polar:
        res, ev = _polar_ball_integral(
            k, lambda X: tuple(_grad_term_rows(fields[i], X) for i in polar),
            region, xi, m_sphere, m_rad)
        for i, (val, err) in zip(polar, res):
            out[i] = QuadResult(value=val, err_est=err, n_evals=ev)
    return out


def _radial_field_splits(field) -> list[float]:
    cut = getattr(field, "cut", None)
    return [cut.r_in, cut.r_out] if cut is not None else []


def rep_identity_report(u_c: ScalarField, u2: ScalarField, omega2: Ball, xi,
                        m_sphere: int = 16, m_rad: int = 32) -> dict:
    """Both sides of the glued-field representation identity on a ball.

    Left side: 4n * integral of H (K - 1) over omega2.  Right side:
    u_c(xi)^(-4/(n-2)) - u2(xi)^(-4/(n-2)) plus (n+2) times the integral of
    |H| (|grad u_c^(-2/(n-2))|^2 - |grad u2^(-2/(n-2))|^2).  Both sides are
    quadratures; for a valid configuration the difference is quadrature
    error only.  lhs_err and rhs_err are the error estimates of the two
    integrals, scaled as lhs and rhs are.

    The polar rule integrates both integrands in one pass, from one jet of
    u_c (values, gradients, Laplacians) and one gradient jet of u2 per
    point.  The radial path keeps one adaptive integral per integrand, as
    each stops doubling its panels on its own.
    """
    n = u_c.n
    _same_dim(n, u2, omega2)
    k = Kernel(n)
    xi = _point(xi, n)
    p4 = 4.0 / (n - 2)

    radial = u_c.radial and u2.radial and bool(np.all(omega2.center == 0.0))
    if radial:
        def kdev(X):
            return _k_of(n, *u_c._jet(X, False, True)[::2]) - 1.0

        def gdiff(X):
            return _grad_term_rows(u_c, X) - _grad_term_rows(u2, X)

        splits = _radial_field_splits(u_c)
        q1, e1, _ = _abs_h_ball(k, kdev, omega2, xi, splits)
        q2, e2, _ = _abs_h_ball(k, gdiff, omega2, xi, splits)
    else:
        def both(X):
            u, g, lap = u_c._jet(X, True, True)
            v, g2, _ = u2._jet(X, True, False)
            return (_k_of(n, u, lap) - 1.0,
                    _grad_term_of(n, u, _sq_dist(g)) - _grad_term_of(n, v, _sq_dist(g2)))

        [(q1, e1), (q2, e2)], _ = _polar_ball_integral(k, both, omega2, xi, m_sphere, m_rad)

    lhs = 4.0 * n * -q1  # H = -|H|
    rhs = (float(u_c.value(xi)) ** (-p4) - float(u2.value(xi)) ** (-p4)
           + (n + 2) * q2)
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs,
            "lhs_err": 4.0 * n * e1, "rhs_err": (n + 2) * e2}


def lower_bound_3_9(u_c: ScalarField, u2: ScalarField, omega2: Ball, xi) -> float:
    """Representation lower bound on sup |K - 1| over a ball of radius R."""
    n = u_c.n
    p4 = 4.0 / (n - 2)
    q_c, q_2 = _weighted_grad_integrals(Kernel(n), (u_c, u2), omega2, xi)
    q2 = q_c.value - q_2.value
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
    X = _ray_points(np.asarray(center, float), radius, dirs)
    sgn = 1.0 if outward else -1.0
    dh = _row_dot(_grad_h_rows(k, X, xi), dirs.T)
    uv, g, _ = u._jet(X, True, False)
    du = _row_dot(g, dirs.T)
    h = _h_rows(k, X, xi)
    vals = uv * dh - h * du
    return sgn * radius ** (k.n - 1) * float(w @ vals)


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


def _aligned_sphere_rule(n: int, m: int, axis: np.ndarray, t_breaks):
    """Sphere rule with the polar axis aligned to `axis`, split at given cosines.

    The polar weight (1-t^2)^((n-3)/2) is folded into the weights, so the
    integrand may be merely piecewise smooth across the break cosines without
    degrading convergence.
    """
    frame = _complement_frame(axis)
    sub_pts, sub_w = sphere_rule(n - 1, m)
    cuts = sorted({-1.0, 1.0, *[float(t) for t in t_breaks if -1.0 < t < 1.0]})
    dirs_blocks, w_blocks = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ts, wts = _gl_panels(np.linspace(lo, hi, max(2, m // 8) + 1))
        wts = wts * (1.0 - ts * ts) ** ((n - 3) / 2.0)
        s = np.sqrt(np.clip(1.0 - ts * ts, 0.0, None))
        block = ts[:, None, None] * axis[None, None, :] + (
            s[:, None, None] * (sub_pts @ frame.T)[None, :, :]
        )
        dirs_blocks.append(block.reshape(-1, n))
        w_blocks.append((wts[:, None] * sub_w[None, :]).ravel())
    return np.concatenate(dirs_blocks), np.concatenate(w_blocks)


def _inner_h_lap(k: Kernel, u: ScalarField, xi: np.ndarray, p: np.ndarray,
                 eps: float, D: float, dirs_p: np.ndarray, w_p: np.ndarray) -> float:
    """Integral of H(x, xi) lap(u)(x) over eps < |x - p| < D, polar about p.

    The kernel is smooth there because D = |xi - p|/2.
    """

    def inner_int(r):
        X = _ray_points(p, r[:, None], dirs_p)
        hv = _h_rows(k, X, xi).reshape(r.size, -1)
        lap = u._jet(X, False, True)[2].reshape(r.size, -1)
        return (hv * lap) @ w_p * r ** (k.n - 1)

    return adaptive_radial(inner_int, eps, D, rel_tol=1e-9, geometric=True)[0]


def _outer_h_lap(k: Kernel, u: ScalarField, omega: Ball, xi: np.ndarray,
                 p: np.ndarray, D: float, m_sphere: int, m_rad: int) -> float:
    """Integral of H(x, xi) lap(u)(x) over omega minus B(p, D), D = |xi - p|/2.

    Polar about xi, removing the ray segment inside B(p, D).  The angular
    rule is aligned with the xi -> p axis and split at the shadow-boundary
    cosine, where the segment endpoints lose smoothness.  The segments
    before and after the ball are integrated one after the other.
    """
    dist = float(np.linalg.norm(xi - p))
    axis = (p - xi) / dist
    t_star = math.sqrt(max(0.0, 1.0 - (D / dist) ** 2))
    dirs, w = _aligned_sphere_rule(k.n, m_sphere, axis, (t_star,))
    rexit = _ray_exit(omega, xi, dirs)
    dvec = xi - p
    b = dirs @ dvec
    disc = b * b - (float(dvec @ dvec) - D * D)
    hit = disc > 0.0
    sq = np.sqrt(np.clip(disc, 0.0, None))
    t1 = np.where(hit, -b - sq, rexit)
    t2 = np.where(hit, -b + sq, rexit)
    hit &= (t2 > 0.0) & (t1 < rexit)
    b1 = np.clip(np.where(hit, t1, rexit), 0.0, rexit)
    a2 = np.clip(np.where(hit, t2, rexit), 0.0, rexit)
    uu, wu = _gl_panels(np.linspace(0.0, 1.0, m_rad + 1))

    def seg_integral(lo, hi) -> float:
        # only the directions whose segment is not empty: an empty one adds
        # a zero to the angular sum, and every segment is empty when B(p, D)
        # lies beyond omega
        lens = np.clip(hi - lo, 0.0, None)
        live = lens > 0.0
        per_dir = np.zeros_like(lens)
        if live.any():
            [per_dir[live]] = _ray_sums(lambda X: (u._jet(X, False, True)[2],), xi,
                                        dirs[live], lo[live], lens[live], uu, wu)
        return float(w @ per_dir) / ((2.0 - k.n) * k.omega_n)

    return seg_integral(np.zeros_like(rexit), b1) + seg_integral(a2, rexit)


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


def rep_formula_report(u: ScalarField, prof: SingularProfile | None,
                       omega: Ball, xi, eps_seq=(1e-2, 1e-3, 1e-4),
                       m_sphere: int = 24, m_boundary: int = 48,
                       m_rad: int = 24) -> dict:
    """Per-radius residuals, excluded-sphere boundary terms and extrapolation.

    The residual is that of the Green representation of u(xi) on omega.
    With no profile the classical formula is evaluated directly, and its
    residual is also the extrapolation.  With a singular profile at p, the
    volume integral over omega minus B(p, eps) is split at
    D = |xi - p|/2.  The outer region, omega minus
    B(p, D), depends only on D, so it is integrated once per report; only
    the annulus eps < |x - p| < D is integrated for each eps.  The eps
    radii must be positive, strictly decreasing, below D and, from three
    of them on, geometric, since the extrapolation assumes a constant
    ratio; otherwise BadRadii is raised before any quadrature.  xi = p
    raises Coincident.
    """
    k = Kernel(u.n)
    _same_dim(k.n, omega)
    xi = _point(xi, k.n)
    if prof is not None:
        D = 0.5 * float(np.linalg.norm(xi - _point(prof.p, k.n)))
        _check_eps_seq(eps_seq, D)
    target = float(u.value(xi))
    bnd = _boundary_integral(k, u, omega.center, omega.radius, xi, m_boundary)

    if prof is None:
        [(vneg, _)], _ = _polar_ball_integral(k, lambda X: (u._jet(X, False, True)[2],), omega,
                                              xi, m_sphere, m_rad)
        res = -vneg + bnd - target  # the polar rule integrates against |H|; H = -|H|
        return {"residuals": [res], "eps": [], "p_boundary_terms": [],
                "order": None, "extrapolated": res}

    verify_profile(u, prof)
    outer = _outer_h_lap(k, u, omega, xi, prof.p, D, m_sphere, m_rad)
    dirs_p, w_p = sphere_rule(k.n, m_sphere)
    residuals, pterms = [], []
    for eps in eps_seq:
        vol = _inner_h_lap(k, u, xi, prof.p, eps, D, dirs_p, w_p) + outer
        residuals.append(vol + bnd - target)
        pterms.append(_boundary_integral(k, u, prof.p, eps, xi, m_boundary,
                                         outward=False))
    extrapolated, order = _power_law_limit(list(eps_seq), residuals)
    return {"residuals": residuals, "eps": list(eps_seq),
            "p_boundary_terms": pterms, "order": order,
            "extrapolated": extrapolated}


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

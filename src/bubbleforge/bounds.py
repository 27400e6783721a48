"""Hypothesis checkers, lower-bound evaluators and deviation scans.

The concentric checkers express the two sufficient conditions under which a
field gluing two centered bubbles must have sup |K - 1| >= (n+2)/n, the
two-ball checkers the analogous distant-bubble condition, and sup_scan
measures the deviation of a constructed field on a grid (a certified
under-estimate of the true sup).

For a sum of two bubbles the upper bound needs no scan.  Each bubble
solves -lap u_i = n(n-2) u_i^p with p = (n+2)/(n-2), so
K = (u1^p + u2^p) / (u1 + u2)^p, and the power-mean inequality
2^(1-p) (u1 + u2)^p <= u1^p + u2^p <= (u1 + u2)^p gives
2^(-4/(n-2)) <= K <= 1 everywhere.  Hence sup |K - 1| <= 1 - 2^(-4/(n-2)),
the cap of the example-525 check, holds exactly, with equality on the
midplane of two equal scales; the grid sup of that check only confirms
the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometry, KappaTooLarge, OutOfDomain
from .field_core import KReport, ScalarField, _dim, _k_of, _point, _same_dim, combined_k_bounds
from .regions import Box, GridSpec, Region, _orbit_argmax, _region_chunks, _stream_argmax


@dataclass(frozen=True)
class DepthFactors:
    """Glue-radius to bubble-scale ratios and the induced threshold factor."""

    k1: float
    k2: float
    nu: float
    n: int

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("depth factors must be positive")


@dataclass(frozen=True)
class ThmBParams:
    """Two disjoint-ball bubble data: scales, fidelity radii and centers."""

    lambda1: float
    lambda2: float
    r1: float
    a: float
    xi1: np.ndarray
    xi2: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        if np.ndim(self.xi1) != 1 or np.shape(self.xi1) != np.shape(self.xi2):
            raise InvalidGeometry("centers must be points of one R^n")
        object.__setattr__(self, "xi1", _point(self.xi1, np.size(self.xi1)))
        object.__setattr__(self, "xi2", _point(self.xi2, np.size(self.xi2)))
        if min(self.lambda1, self.lambda2, self.r1, self.a) <= 0:
            raise InvalidGeometry("scales and radii must be positive")
        if self.sigma < 1:
            raise InvalidGeometry("sigma must be >= 1")
        if self.r1 < self.lambda1:
            raise InvalidGeometry("need r1 >= lambda1")
        if self.a < self.lambda2:
            raise InvalidGeometry("need a >= lambda2")
        if self.separation < self.r1 + self.a:
            raise InvalidGeometry("balls overlap")

    @property
    def n(self) -> int:
        return _dim(self.xi1.size)

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(self.xi1 - self.xi2))


# --- concentric case --------------------------------------------------------


def thmA_conditions(l1: float, l2: float, rho: float, R: float, n) -> tuple[bool, bool]:
    """The two alternative scale conditions for the concentric construction."""
    _check_concentric_params(l1, l2, rho, R)
    n = _dim(n)
    cond1 = l1 / l2 <= (rho**2 / R**2) / (1.0 + l2**2 / R**2)
    cond2 = l1**2 / l2**2 >= (3.0 * (n + 2) / (2.0 * (n - 2))) * (1.0 + R**4 / l2**4)
    return cond1, cond2


def thmA_dual_conditions(l1: float, l2: float, rho: float, R: float, n) -> tuple[bool, bool]:
    """Inversion-dual form of the concentric conditions (scales mapped by rho^2/lam)."""
    _check_concentric_params(l1, l2, rho, R)
    n = _dim(n)
    cond1 = l1 / l2 <= (rho**2 / R**2) / (1.0 + rho**2 / l1**2)
    cond2 = l1**2 / l2**2 >= (3.0 * (n + 2) / (2.0 * (n - 2))) * (1.0 + l1**4 / rho**4)
    return cond1, cond2


def lower_bound_4_4(l1: float, l2: float, rho: float, R: float, n) -> float:
    """Representation-formula lower bound on sup |K - 1| over the glue annulus."""
    _check_concentric_params(l1, l2, rho, R)
    n = _dim(n)
    p = (n + 2) / (n - 2)
    num = l1**2 - l2**2 + p * (rho**4 / l1**2 - R**4 / l2**2)
    return ((n - 2) / (2.0 * n)) * num / (R**2 - rho**2)


def depth_factors(l1: float, l2: float, rho: float, R: float, n) -> DepthFactors:
    """Depth factors k1 = rho/lam1, k2 = R/lam2 and nu = ((k1^2+1)/k1^2)^((n-2)/2)."""
    _check_concentric_params(l1, l2, rho, R)
    n = _dim(n)
    k1 = rho / l1
    k2 = R / l2
    nu = ((k1**2 + 1.0) / k1**2) ** ((n - 2) / 2)
    return DepthFactors(k1=k1, k2=k2, nu=nu, n=n)


def _check_concentric_params(l1, l2, rho, R):
    if min(l1, l2, rho) <= 0 or not rho < R:
        raise ValueError("need positive scales and 0 < rho < R")


# --- disjoint-ball case ------------------------------------------------------


def thmB_condition(p: ThmBParams) -> bool:
    """Scale-separation hypothesis for the two-ball lower bound."""
    n = p.n
    rhs = 8.0**n * n * (p.separation**4 / p.r1**4) * (p.sigma**2 + 6.0)
    return p.lambda2**2 / p.lambda1**2 >= rhs


def thmB_chain_bound(p: ThmBParams) -> float:
    """Explicit chain estimate of sup |K - 1| outside the second ball.

    Evaluated with the second center translated to the origin; uses the
    ratios c = r1/lam1, k = a/lam2, C = |xi1 - xi2|/lam2.
    """
    n = p.n
    c = p.r1 / p.lambda1
    k = p.a / p.lambda2
    C = p.separation / p.lambda2
    t = p.lambda1**2 / p.lambda2**2
    term1 = k**2 * t / (t + C**2) ** 2
    term2 = ((n + 2) / (n * (n - 2))) * 8.0 ** (-n) * k**2 * t * (c**4 / C**4)
    term3 = -4.0 * k**2
    term4 = -2.0 * ((n + 2) / (n - 2)) / k**2
    return ((n - 2) / (2.0 * n)) * (term1 + term2 + term3 + term4)


def deep_bubble_bound(kappa: float, dist: float, r1: float, n) -> float:
    """Largest admissible lambda2^2/lambda1^2 when sup |K - 1| stays small.

    Contrapositive composition: a field whose combined curvature deviation is
    capped by combined_k_bounds(kappa) cannot satisfy the two-ball hypothesis
    for any sigma^2 above (2n/(n+2)) * cap, so the scale ratio is bounded by
    8^n n (dist^4/r1^4) (sigma^2 + 6) at that sigma.
    """
    n = _dim(n)
    if kappa * kappa >= 1.0:
        raise KappaTooLarge("need kappa^2 < 1")
    if not 0 < dist <= 1:
        raise ValueError("need 0 < dist <= 1")
    if r1 <= 0:
        raise ValueError("need r1 > 0")
    _, hi = combined_k_bounds(kappa, n)
    sigma2 = (2.0 * n / (n + 2)) * hi
    return 8.0**n * n * (dist**4 / r1**4) * (sigma2 + 6.0)


# --- deviation scans ---------------------------------------------------------


def sup_scan(f: ScalarField, region: Region, grid_spec: GridSpec | None = None) -> KReport:
    """Grid maximum of |K - 1| over a region with one local refinement pass.

    Radially symmetric fields scanned over origin-centered balls or annuli
    reduce to a 1D radial scan.  Grids stream in chunks of grid_spec.chunk
    nodes, grid_spec.threads at a time, and argmax ties break toward the
    lexicographically smallest grid index.  On a Box, a field that declares
    symmetric axes (_sym_axes) has each grid scanned by orbits: an axis of
    them whose nodes are symmetric about 0 folds to its non-negative half,
    those with equal nodes merge, one node per orbit is evaluated, and then
    every node of the orbits within rounding of the largest value, so
    sup_abs_dev, argmax and n_samples are the full grid's bit for bit.
    n_samples counts the grid nodes covered, grid["evaluated"] the nodes
    whose K was evaluated, and grid["folded"] the axes folded on the coarse
    and on the refinement grid.  Raises OutOfDomain when no grid node lies
    in the region.
    """
    gs = grid_spec or GridSpec()
    n = f.n
    _same_dim(n, region)
    refine = 2 * gs.refine_factor + 1
    box = isinstance(region, Box)
    if f.radial and not box and not region.center.any():
        r_lo, r_hi = region.radial_range()
        m = gs.radial_points
        rs = np.linspace(r_lo, r_hi, m + 1)[1:] if r_lo == 0.0 else np.linspace(r_lo, r_hi, m)
        # the ray along e1, as a grid whose other axes hold the single node 0
        e1 = np.eye(n)[0]
        axes, counts = [rs] + [np.zeros(1)] * (n - 1), [refine] + [1] * (n - 1)
        lo, hi, cell, region = rs[0] * e1, r_hi * e1, (rs[1] - rs[0]) * e1, None
        grid = {"kind": "radial", "r_lo": float(rs[0]), "r_hi": float(r_hi), "coarse": int(m)}
    else:
        lo, hi = region.bounding_box()
        m = gs.coarse_count(n)
        axes, counts = [np.linspace(a, b, m) for a, b in zip(lo, hi)], [refine] * n
        cell = (hi - lo) / (m - 1)
        grid = {"kind": "grid", "points_per_axis": int(m)}
    grid["refine_factor"] = int(gs.refine_factor)
    grid["evaluated"], grid["folded"] = 0, []

    def deviation(X):
        k = _k_of(n, *f._jet(X, False, True)[::2])
        k -= 1.0
        return np.abs(k, out=k)

    def scan(axes):
        if box:  # a Box holds every node of linspace axes between its ends: none is tested
            best, x, evaluated, folded = _orbit_argmax(deviation, axes, f._sym_axes, gs.chunk,
                                                       gs.threads)
            count = math.prod(a.size for a in axes)
        else:
            best, x, count = _stream_argmax(deviation, _region_chunks(region, axes, gs.chunk),
                                            gs.threads)
            evaluated, folded = count, []
        grid["evaluated"] += evaluated
        grid["folded"].append(folded)
        return best, x, count

    best, best_x, n_samples = scan(axes)
    if best_x is None:
        raise OutOfDomain("no grid node lies in the scan region")
    sub, sub_x, sub_samples = scan([np.linspace(a, b, c) for a, b, c in zip(
        np.maximum(lo, best_x - cell), np.minimum(hi, best_x + cell), counts)])
    if sub_x is not None and sub > best:
        best, best_x = sub, sub_x
    return KReport(sup_abs_dev=float(best), argmax=best_x, grid=grid,
                   n_samples=n_samples + sub_samples)

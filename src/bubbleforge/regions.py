"""Scan regions: balls, annuli and boxes with deterministic grid sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field_core import _sq_dist


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def contains(self, x: np.ndarray) -> np.ndarray:
        d = np.sqrt(_sq_dist(np.asarray(x, float), self.center))
        return d < self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def radial_range(self):
        return 0.0, self.radius


@dataclass(frozen=True)
class Annulus:
    center: np.ndarray
    r_in: float
    r_out: float

    def __post_init__(self):
        if not 0 <= self.r_in < self.r_out:
            raise ValueError("annulus needs 0 <= r_in < r_out")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def contains(self, x: np.ndarray) -> np.ndarray:
        d = np.sqrt(_sq_dist(np.asarray(x, float), self.center))
        return (d > self.r_in) & (d < self.r_out)

    def bounding_box(self):
        return self.center - self.r_out, self.center + self.r_out

    def radial_range(self):
        return self.r_in, self.r_out


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise ValueError("box needs lo < hi componentwise")

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        inside = (x[..., 0] >= self.lo[0]) & (x[..., 0] <= self.hi[0])
        for i in range(1, self.n):
            inside &= (x[..., i] >= self.lo[i]) & (x[..., i] <= self.hi[i])
        return inside

    def bounding_box(self):
        return self.lo, self.hi


Region = Ball | Annulus | Box


def centered_at_origin(region: Region, tol: float = 0.0) -> bool:
    if isinstance(region, Box):
        return False
    return bool(np.all(np.abs(region.center) <= tol))


def grid_points(lo: np.ndarray, hi: np.ndarray, counts) -> np.ndarray:
    """Cartesian grid over [lo, hi], C-order flattened to (m, n).

    C-order flattening makes np.argmax tie-break toward the lexicographically
    smallest grid index.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    counts = np.broadcast_to(np.asarray(counts, int), lo.shape)
    axes = [np.linspace(a, b, int(c)) for a, b, c in zip(lo, hi, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class GridSpec:
    """Grid-scan resolution: coarse points per axis plus one refinement pass."""

    points_per_axis: int | None = None
    refine_factor: int = 10
    radial_points: int = 1024
    chunk: int = 65536
    threads: int = 1

    def coarse_count(self, n: int) -> int:
        if self.points_per_axis is not None:
            return self.points_per_axis
        return {3: 64, 4: 24}.get(n, 12)

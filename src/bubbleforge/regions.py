"""Scan regions: balls, annuli and boxes, and the streamed grid engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .field_core import _pointwise, _sq_dist

_SHELL_SLACK = 1e-12  # relative widening of a squared-radius shell mask
_POINT_BLOCK = 1 << 14  # points per scan chunk and ray block: 128 KB (m,) temporaries


class _Round:
    """A Ball or Annulus: the points x with |x - center| in radial_range()."""

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def contains(self, x):
        return _pointwise(self._contains, x, self.n)

    def _set_center(self):
        center = np.asarray(self.center, dtype=float)
        if not np.all(np.isfinite(center)):
            raise ValueError("region center must be finite")
        object.__setattr__(self, "center", center)

    def bounding_box(self):
        r = self.radial_range()[1]
        return self.center - r, self.center + r


@dataclass(frozen=True)
class Ball(_Round):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")
        self._set_center()

    def _contains(self, X):
        return np.sqrt(_sq_dist(X, self.center)) < self.radius

    def radial_range(self):
        return 0.0, self.radius


@dataclass(frozen=True)
class Annulus(_Round):
    center: np.ndarray
    r_in: float
    r_out: float

    def __post_init__(self):
        if not 0 <= self.r_in < self.r_out < math.inf:
            raise ValueError("annulus needs 0 <= r_in < r_out < inf")
        self._set_center()

    def _contains(self, X):
        d = np.sqrt(_sq_dist(X, self.center))
        return (d > self.r_in) & (d < self.r_out)

    def radial_range(self):
        return self.r_in, self.r_out


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("box corners must be finite")
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise ValueError("box needs lo < hi componentwise")

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    contains = _Round.contains

    def _contains(self, X):
        inside = (X[0] >= self.lo[0]) & (X[0] <= self.hi[0])
        for i in range(1, self.n):
            inside &= (X[i] >= self.lo[i]) & (X[i] <= self.hi[i])
        return inside

    def bounding_box(self):
        return self.lo, self.hi


Region = Ball | Annulus | Box


def grid_points(lo: np.ndarray, hi: np.ndarray, counts) -> np.ndarray:
    """Cartesian grid over [lo, hi], C-order flattened to (m, n).

    C-order flattening makes np.argmax tie-break toward the lexicographically
    smallest grid index.  Scans stream their grids through _grid_chunks; this
    is the dense reference of the tests, and bench/layertrace.py marks it.
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
    chunk: int = _POINT_BLOCK
    threads: int = 1

    def __post_init__(self):
        if self.points_per_axis is not None and self.points_per_axis < 2:
            raise ValueError(f"points_per_axis must be >= 2, got {self.points_per_axis}")
        if self.refine_factor < 0:
            raise ValueError(f"refine_factor must be >= 0, got {self.refine_factor}")
        if self.radial_points < 2:
            raise ValueError(f"radial_points must be >= 2, got {self.radial_points}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def coarse_count(self, n: int) -> int:
        if self.points_per_axis is not None:
            return self.points_per_axis
        return {3: 64, 4: 24}.get(n, 12)


def _grid_chunks(axes, limit, shell=None):
    """Yield (first flat index, sel, X) over the grid of the 1D axes in C order.

    The last t < n axes, with at most `limit` nodes together, form a fixed
    tail block, and each chunk holds as many whole tail blocks as fit in
    `limit` nodes, at least one.  X is an (n, m) view, with contiguous
    coordinate rows, of one reused buffer, overwritten by the next chunk.
    Without a shell, sel is None and X is the whole chunk.  With shell =
    (center, r_lo, r_hi), X holds the chunk's nodes with
    r_lo < |x - center| < r_hi and a few just outside, and sel their
    increasing offsets from the first flat index; chunks without such
    nodes are skipped.  The squared distance is summed separably, the tail
    block's part once plus each row's leading part, against squared radii
    widened by _SHELL_SLACK, far above that sum's rounding.  A row's lines
    along the last axis whose range of distances misses the shell are
    skipped whole; float addition is monotone, so none of them holds a
    node of the shell.
    """
    n = len(axes)
    sizes = [a.size for a in axes]
    t = 1
    while t + 1 < n and math.prod(sizes[n - t - 1:]) <= limit:
        t += 1
    block = math.prod(sizes[n - t:])
    lead = tuple(sizes[:n - t])
    n_lead = math.prod(lead)
    rows = max(1, min(limit // block, n_lead))
    tail = np.stack([m.ravel() for m in np.meshgrid(*axes[n - t:], indexing="ij")])
    buf = np.empty((n, rows * block))
    if shell is None:
        buf[n - t:] = np.tile(tail, rows)
    else:
        center, r_lo, r_hi = shell
        lo = r_lo**2 * (1.0 - _SHELL_SLACK) if r_lo > 0 else -np.inf  # keeps the centre
        hi = r_hi**2 * (1.0 + _SHELL_SLACK)
        # one row of squared distances per line of the last axis
        tail_r2 = _sq_dist(tail, center[n - t:]).reshape(-1, sizes[-1])
        n_lines, width = tail_r2.shape
        line_min, line_max = tail_r2.min(axis=1), tail_r2.max(axis=1)
        heads = tail[:-1, ::width]  # the other tail coordinates of each line
        last = np.tile(axes[-1], rows * n_lines)
    for start in range(0, n_lead, rows):
        stop = min(start + rows, n_lead)
        m = (stop - start) * block
        lead_x = [axes[j][i] for j, i in
                  enumerate(np.unravel_index(np.arange(start, stop), lead))]
        if shell is None:
            for j, x in enumerate(lead_x):
                buf[j, :m] = np.repeat(x, block)
            yield start * block, None, buf[:, :m]
            continue
        lead_r2 = _sq_dist(lead_x, center[:n - t])
        live = np.flatnonzero((np.add.outer(lead_r2, line_min) < hi)
                              & (np.add.outer(lead_r2, line_max) > lo))
        row, k = np.divmod(live, n_lines)
        r2 = tail_r2[k]
        r2 += lead_r2[row][:, None]
        inside = (r2 > lo) & (r2 < hi)
        counts = np.count_nonzero(inside, axis=1)
        if counts.any():
            X = buf[:, :int(counts.sum())]
            for j, x in enumerate(lead_x):
                X[j] = np.repeat(x[row], counts)
            for j, x in enumerate(heads, n - t):
                X[j] = np.repeat(x[k], counts)
            inside = inside.ravel()
            X[-1] = last[:inside.size][inside]
            # live line i starts (live[i] - i) lines after its place in r2
            sel = np.flatnonzero(inside) + np.repeat((live - np.arange(live.size)) * width, counts)
            yield start * block, sel, X


def _region_chunks(region, axes, limit):
    """The grid nodes of axes in region (None: all), as C-order (n, m) chunks of <= limit nodes.

    A Box holds every node of linspace axes between its ends, so it is not
    tested.  A Ball or Annulus masks each chunk by the _grid_chunks shell
    about its centre, and region._contains decides on the nodes left.  A
    chunk of the whole grid is a view of a reused buffer.
    """
    if region is None or isinstance(region, Box):
        yield from (X for _, _, X in _grid_chunks(axes, limit))
        return
    for _, _, X in _grid_chunks(axes, limit, (region.center, *region.radial_range())):
        X = X[:, region._contains(X)]
        if X.shape[1]:
            yield X


def _stream_argmax(fn, chunks, threads=1):
    """(value, point, count) of the first maximum of fn over the points of chunks.

    fn maps an (n, m) chunk to (m,) values; value and point are None when
    there are no points.  As np.argmax over all values at once would, the
    first maximum wins, and the first NaN if there is one.  With
    threads > 1, copies of the chunks are evaluated on that many threads
    and folded in order, so the result does not depend on threads.
    """
    def one(X):
        v = fn(X)
        j = int(np.argmax(v))
        return v[j], X[:, j].copy(), X.shape[1]

    def threaded():
        from concurrent.futures import ThreadPoolExecutor  # only threaded scans load it

        it = iter(chunks)
        with ThreadPoolExecutor(max_workers=threads) as ex:
            # `threads` chunks at a time (ex.map alone would draw them all at
            # once), each copied before the next overwrites a reused buffer
            while batch := [X.copy() for X in islice(it, threads)]:
                yield from ex.map(one, batch)

    best = best_x = None
    count = 0
    for v, x, m in map(one, chunks) if threads == 1 else threaded():
        count += m
        if best_x is None or v > best or (np.isnan(v) and not np.isnan(best)):
            best, best_x = v, x
    return best, best_x, count

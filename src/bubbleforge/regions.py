"""Scan regions: balls, annuli and boxes, the streamed grid engine, and orbit scans."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice, permutations

import numpy as np

from .field_core import _point, _pointwise, _sq_dist

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
        center = _point(self.center, np.size(self.center))
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
        object.__setattr__(self, "lo", _point(self.lo, np.size(self.lo)))
        object.__setattr__(self, "hi", _point(self.hi, np.size(self.hi)))
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
    lo, hi = _point(lo, np.size(lo)), _point(hi, np.size(hi))
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

    Without a shell, sel is None and (first, X) are _product_chunks' over
    the axes.  With a shell, the last t < n axes, with at most `limit`
    nodes together, form a fixed tail block, and each chunk holds as many
    whole tail blocks as fit in `limit` nodes, at least one.  X is an (n, m)
    view, with contiguous coordinate rows, of one reused buffer,
    overwritten by the next chunk.  With shell =
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
    if shell is None:
        whole = [([i], np.arange(a.size)[None]) for i, a in enumerate(axes)]
        yield from ((first, None, X) for first, X in _product_chunks(axes, whole, limit))
        return
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
        lead_x = [axes[j][i] for j, i in
                  enumerate(np.unravel_index(np.arange(start, stop), lead))]
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


def _product_chunks(axes, factors, limit):
    """Yield (first flat index, X) over the C-order product of factors, nodes of the grid of axes.

    A factor (rows, table) gives the axes `rows` the index columns of table
    (len(rows), s), one per entry: a whole axis i is ([i], arange(m)[None]).
    The last factors, with at most `limit` entries together (at least the
    last one), form a fixed tail block, and each chunk holds as many whole
    tail blocks as fit in `limit` nodes, at least one, or a slice of
    `limit` nodes of a longer table.  X is an (n, m) view, with contiguous
    coordinate rows, of one reused buffer, overwritten by the next chunk.
    """
    sizes = [table.shape[1] for _, table in factors]
    t = 1
    while t < len(sizes) and math.prod(sizes[-t - 1:]) <= limit:
        t += 1
    block = math.prod(sizes[-t:])
    lead = tuple(sizes[:-t])
    n_lead = math.prod(lead)
    per = max(1, min(limit // block, n_lead))
    buf = np.empty((len(axes), per * block))
    # a tail block above limit is one line of an axis, kept whole, or a
    # table of several rows, cut in slices of limit nodes
    step = max(limit, block) if len(factors[-1][0]) == 1 else limit
    tail_i = np.unravel_index(np.arange(block), sizes[-t:]) if t > 1 else [slice(None)]
    for (rows, table), i in zip(factors[-t:], tail_i):
        for r, row in zip(rows, table):
            np.take(axes[r], row[i], out=buf[r, :block])
            buf[r].reshape(per, block)[1:] = buf[r, :block]
    for start in range(0, n_lead, per):
        stop = min(start + per, n_lead)
        m = (stop - start) * block
        lead_i = np.unravel_index(np.arange(start, stop), lead) if lead else ()
        for (rows, table), i in zip(factors, lead_i):
            for r, row in zip(rows, table):
                buf[r, :m] = np.repeat(axes[r][row[i]], block)
        for j in range(0, m, step):
            yield start * block + j, buf[:, j:min(j + step, m)]


def _region_chunks(region, axes, limit):
    """The grid nodes of axes in region (None: all), as C-order (n, m) chunks of <= limit nodes.

    A Ball or Annulus masks each chunk by the _grid_chunks shell about its
    centre, and region._contains decides on the nodes left.  A chunk of the
    whole grid is a view of a reused buffer.  A Box takes the whole grid of
    its scans, _orbit_argmax's.
    """
    if region is None:
        yield from (X for _, _, X in _grid_chunks(axes, limit))
        return
    for _, _, X in _grid_chunks(axes, limit, (region.center, *region.radial_range())):
        X = X[:, region._contains(X)]
        if X.shape[1]:
            yield X


def _ordered_map(fn, items, threads):
    """fn over items, results in the order of items; with threads > 1, that
    many items at a time on as many threads (ex.map alone would draw every
    item at once)."""
    if threads == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # only threaded scans load it

    it = iter(items)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        while batch := list(islice(it, threads)):
            yield from ex.map(fn, batch)


def _first(a, b):
    """Whether a grid node a = (value, flat index) comes before b in np.argmax's
    order over the whole grid: the first NaN, else the first maximum."""
    (va, fa), (vb, fb) = a, b
    if np.isnan(va) or np.isnan(vb):
        return bool(np.isnan(va) and (not np.isnan(vb) or fa < fb))
    return bool(va > vb or (va == vb and fa < fb))


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
        return v[j], j, X[:, j].copy(), X.shape[1]

    if threads > 1:  # each chunk copied before the next overwrites a reused buffer
        chunks = (X.copy() for X in chunks)
    best, count = (None, None, None), 0
    for v, j, x, m in _ordered_map(one, chunks, threads):
        if best[2] is None or _first((v, count + j), best[:2]):
            best = v, count + j, x
        count += m
    return best[0], best[2], count


# --- orbit scans ---------------------------------------------------------------

_ORBIT_MARGIN = 1e-9  # relative to 1 + value: far above the rounding of K near 1
_MEMBER_SHARE = 0.25  # the largest share of a grid the member pass covers
_TOP_REPS = 1 << 18  # the most representatives kept near the top (4 MB of places and values)
_GROUP_ROWS = 4 * _POINT_BLOCK  # the most index tuples of merged axes
_ORBIT_NODES = _POINT_BLOCK  # the most nodes of one orbit


def _orbit_layout(axes, sym):
    """(start, groups) of the orbits of a grid under the signed permutations of the axes sym.

    An axis of sym whose nodes are symmetric about 0, to 4 ulps of its
    largest node (np.linspace(-c, c, m) is so to 2), folds: its
    representatives take the indices from m // 2 on, start[i], and index j
    stands for j and m - 1 - j.  The axes of sym with bit-equal node arrays
    merge: groups lists each such set of two or more axes, whose
    representatives take nondecreasing indices.  A set loses its last axes
    while its table of index tuples would pass _GROUP_ROWS rows, and then
    the largest set its last axis, or else the last folded axis its fold,
    while an orbit could pass _ORBIT_NODES nodes.
    """
    start = [0] * len(axes)
    for i in sym:
        a = axes[i]
        if np.all(np.abs(a + a[::-1]) <= 4 * np.finfo(float).eps * np.abs(a).max()):
            start[i] = a.size // 2
    same = {}
    for i in sym:
        same.setdefault(axes[i].tobytes(), []).append(i)
    groups = []
    for g in same.values():
        while math.comb(axes[g[0]].size - start[g[0]] + len(g) - 1, len(g)) > _GROUP_ROWS:
            g = g[:-1]
        groups.append(g)
    while _orbit_size(start, groups) > _ORBIT_NODES:
        g = max(groups, key=len)
        if len(g) > 1:
            g.pop()
        else:
            start[max(i for i, s in enumerate(start) if s)] = 0
    return start, [g for g in groups if len(g) > 1]


def _orbit_size(start, groups):
    """The most nodes an orbit holds: 2 per folded axis, k! per group of k merged axes."""
    return 2 ** sum(map(bool, start)) * math.prod(math.factorial(len(g)) for g in groups)


@functools.lru_cache(maxsize=8)
def _nondecreasing(h, k):
    """The nondecreasing k-tuples of indices below h, as read-only columns (k, C(h + k - 1, k))
    in C order.

    A scan asks for the same few tables pass after pass; they are kept, as
    building one frees several arrays of its size, which glibc may return
    to the system and fault in again on the next pass.
    """
    t = np.arange(h)[:, None]
    for _ in range(1, k):
        # each row, once for every index from its last on
        counts = h - t[:, -1]
        first = np.cumsum(counts) - counts
        nxt = np.arange(counts.sum()) - np.repeat(first - t[:, -1], counts)
        t = np.column_stack([np.repeat(t, counts, axis=0), nxt])
    t = np.ascontiguousarray(t.T)
    t.flags.writeable = False
    return t


def _orbit_factors(axes, start, groups):
    """Factors (rows, index table) whose product holds one node per orbit: for
    each group its nondecreasing index tuples from start on, for each other
    axis its indices from start on."""
    grouped = {a for g in groups for a in g}
    factors = [(g, _nondecreasing(axes[g[0]].size - start[g[0]], len(g)) + start[g[0]])
               for g in groups]
    return factors + [([i], np.arange(start[i], a.size)[None]) for i, a in enumerate(axes)
                      if i not in grouped]


def _near_top(v, best):
    """Whether each value of v is within _ORBIT_MARGIN (1 + best) of best, or NaN when best is."""
    if np.isnan(best):
        return np.isnan(v)
    return v >= (best - _ORBIT_MARGIN * (1.0 + best) if best < np.inf else best)


def _top_orbits(fn, axes, start, groups, limit, threads):
    """(reps, evaluated): the index rows (n, k) of the representatives within
    _ORBIT_MARGIN of the largest value of fn over all of them, and the number
    evaluated; reps is None once their orbits could pass _MEMBER_SHARE of the
    grid, or more than _TOP_REPS of them are kept."""
    n, orbit = len(axes), _orbit_size(start, groups)
    cap = min(_MEMBER_SHARE * math.prod(a.size for a in axes) / orbit, _TOP_REPS)
    factors = _orbit_factors(axes, start, groups)
    chunks = _product_chunks(axes, factors, limit)
    if threads > 1:  # each chunk copied before the next overwrites the buffer
        chunks = ((first, X.copy()) for first, X in chunks)
    # the representatives near the top so far: their places in the product, and values
    best, pos, vals, evaluated = None, np.empty(0, np.intp), np.empty(0), 0
    for first, v in _ordered_map(lambda c: (c[0], fn(c[1])), chunks, threads):
        evaluated += v.size
        best = v.max() if best is None else np.maximum(best, v.max())  # NaN once one is
        old, new = _near_top(vals, best), np.flatnonzero(_near_top(v, best))
        pos, vals = np.concatenate([pos[old], first + new]), np.concatenate([vals[old], v[new]])
        if vals.size > cap:
            return None, evaluated
    reps = np.empty((n, pos.size), np.intp)
    places = np.unravel_index(pos, [table.shape[1] for _, table in factors])
    for (rows, table), i in zip(factors, places):
        reps[rows] = table[:, i]
    return reps, evaluated


def _orbit_orders(n, groups):
    """The axis orders (P, n) that apply every permutation of each group: index
    rows idx[order] are the rows of another node of the orbit."""
    orders = np.arange(n)[None]
    for g in groups:
        perms = np.array(list(permutations(g)))
        orders = np.repeat(orders, len(perms), axis=0)
        orders[:, g] = np.tile(perms, (len(orders) // len(perms), 1))
    return orders


def _orbit_nodes(reps, sizes, start, orders):
    """Flat C-order indices, increasing, of the nodes of the orbits of the
    representatives reps (n, k), each once; orders from _orbit_orders."""
    idx = reps[orders].transpose(1, 0, 2).reshape(len(sizes), -1)
    for i, s in enumerate(start):
        if s:
            flip = idx.copy()
            flip[i] = sizes[i] - 1 - idx[i]
            idx = np.concatenate([idx, flip], axis=1)
    flat = np.ravel_multi_index(tuple(idx), sizes)
    flat.sort()
    return flat[np.concatenate([[True], flat[1:] != flat[:-1]])]


def _orbit_argmax(fn, axes, sym, limit, threads):
    """(value, point, evaluated, folded) of the first maximum of fn over the grid of axes,
    evaluating one node per orbit of the signed permutations of the axes sym,
    under which fn is invariant up to rounding.

    fn maps (n, m) coordinate rows to (m,) values near |K - 1|.  A
    representative's value is a grid node's, so the grid's maximum is at
    least the largest of them, v.  Every node of an orbit whose
    representative is within _ORBIT_MARGIN (1 + v) of v (or NaN, if one
    is) is then evaluated, the whole orbits of about `limit` nodes at a
    time, and the first maximum, or the first NaN, in C order wins, as in
    _stream_argmax.  Orbits farther below v hold no node as large as v, up
    to rounding, so the result is the grid's own, bit for bit.  Where those
    orbits could cover more than _MEMBER_SHARE of the grid, as on an exact
    bubble, whose values are all rounding, the whole grid is streamed
    instead.  evaluated counts the nodes fn took, with nothing to fold or
    merge the grid; folded lists the axes folded.
    """
    sizes = [a.size for a in axes]
    start, groups = _orbit_layout(axes, sym)
    folded = [i for i, s in enumerate(start) if s]
    reps, evaluated = None, 0
    if _orbit_size(start, groups) > 1:
        reps, evaluated = _top_orbits(fn, axes, start, groups, limit, threads)
    if reps is None:
        best, best_x, count = _stream_argmax(fn, _region_chunks(None, axes, limit), threads)
        return best, best_x, evaluated + count, folded

    orders = _orbit_orders(len(axes), groups)

    def one(batch):
        flat = _orbit_nodes(batch, sizes, start, orders)
        X = np.stack([a[i] for a, i in zip(axes, np.unravel_index(flat, sizes))])
        v = fn(X)
        j = int(np.argmax(v))
        return v[j], flat[j], X[:, j].copy(), flat.size

    step = max(1, limit // _orbit_size(start, groups))
    best = None
    for v, f, x, m in _ordered_map(one, (reps[:, i:i + step] for i in range(0, reps.shape[1], step)),
                                   threads):
        evaluated += m
        if best is None or _first((v, f), best[:2]):
            best = v, f, x
    return best[0], best[2], evaluated, folded


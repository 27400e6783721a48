"""The streamed grid engine: sup_scan against a dense scan, masks, ties, NaN, memory, orbits."""

import itertools
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbleforge import Annulus, Ball, Box, Bubble, GridSpec, k_function, sum_field, sup_scan
from bubbleforge.errors import OutOfDomain
from bubbleforge.field_core import ScalarField, _sq_dist
from bubbleforge.glue import ConcentricGlueField, DisjointGlueField
from bubbleforge.regions import (_GROUP_ROWS, _ORBIT_NODES, _grid_chunks, _orbit_layout,
                                 _orbit_size, _stream_argmax, grid_points)


def _dense_sup_scan(f, region, gs):
    """sup_scan's grid path on materialised grids: the reference of the streamed scan."""
    lo, hi = region.bounding_box()
    m = gs.coarse_count(f.n)
    pts = grid_points(lo, hi, m)
    pts = pts[np.asarray(region.contains(pts))]
    dev = np.abs(np.asarray(k_function(f, pts)) - 1.0)
    i = int(np.argmax(dev))
    best_x, best = pts[i], dev[i]
    cell = (np.asarray(hi) - np.asarray(lo)) / (m - 1)
    sub = grid_points(np.maximum(lo, best_x - cell), np.minimum(hi, best_x + cell),
                      2 * gs.refine_factor + 1)
    sub = sub[np.asarray(region.contains(sub))]
    if sub.shape[0]:
        dev2 = np.abs(np.asarray(k_function(f, sub)) - 1.0)
        j = int(np.argmax(dev2))
        if dev2[j] > best:
            best_x, best = sub[j], dev2[j]
    return float(best), best_x, int(pts.shape[0] + sub.shape[0])


def _assert_same_scan(f, region, gs):
    rep = sup_scan(f, region, gs)
    best, best_x, n_samples = _dense_sup_scan(f, region, gs)
    assert rep.grid["kind"] == "grid"
    assert rep.sup_abs_dev.hex() == best.hex()
    assert rep.argmax.tobytes() == best_x.tobytes()
    assert rep.n_samples == n_samples
    return rep


def _two_bubbles():
    # not radial about the origin, so every scan takes the grid path
    return sum_field(Bubble(0.4, np.array([0.3, -0.2, 0.1]), 3),
                     Bubble(0.7, np.array([-0.5, 0.4, 0.0]), 3))


REGIONS = {
    "ball": Ball(np.array([0.2, -0.1, 0.05]), 1.3),
    "annulus": Annulus(np.array([0.1, 0.0, -0.2]), 0.4, 1.2),
    "box": Box(np.array([-1.1, -0.9, -1.0]), np.array([1.0, 1.2, 0.8])),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("points, chunk", [(15, 400), (16, 400), (11, 65536), (20, 1)])
@pytest.mark.parametrize("region", sorted(REGIONS))
def test_streamed_scan_matches_dense_scan(region, points, chunk, threads):
    gs = GridSpec(points_per_axis=points, refine_factor=3, chunk=chunk, threads=threads)
    _assert_same_scan(_two_bubbles(), REGIONS[region], gs)


def test_streamed_scan_matches_dense_scan_n4():
    f = sum_field(Bubble(0.5, np.array([0.3, 0.0, -0.2, 0.1]), 4), Bubble(0.8, np.zeros(4), 4))
    for region in (Ball(np.array([0.1, 0.2, 0.0, -0.1]), 1.0),
                   Box(np.full(4, -1.0), np.full(4, 1.0))):
        _assert_same_scan(f, region, GridSpec(points_per_axis=9, refine_factor=2, chunk=700))


class _Planted(ScalarField):
    """A source field with K set at given nodes: a large equal value, or NaN."""

    def __init__(self, src, tie_nodes=(), nan_nodes=()):
        self.n = src.n
        self.src = src
        self.tie_nodes = tie_nodes
        self.nan_nodes = nan_nodes

    def _jet(self, X, grad, d2):
        u, g, lap = self.src._jet(X, grad, d2)
        for nodes, lap_value in ((self.tie_nodes, -1e6), (self.nan_nodes, np.nan)):
            for node in nodes:
                hit = np.all(X == node[:, None], axis=0)
                u[hit] = 1.0
                lap[hit] = lap_value
        return u, g, lap


def _nodes(region, points, *fractions):
    """The region's grid nodes at the given fractions of their C order."""
    lo, hi = region.bounding_box()
    pts = grid_points(lo, hi, points)
    pts = pts[region.contains(pts)]
    return [pts[int(q * len(pts))].copy() for q in fractions]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("region", sorted(REGIONS))
def test_planted_tie_goes_to_the_first_node(region, threads):
    region = REGIONS[region]
    # one tie inside the first chunk, one several chunks later
    nodes = _nodes(region, 14, 0.004, 0.008, 0.8)
    f = _Planted(_two_bubbles(), tie_nodes=nodes[::-1])
    gs = GridSpec(points_per_axis=14, refine_factor=2, chunk=300, threads=threads)
    rep = _assert_same_scan(f, region, gs)
    assert rep.argmax.tobytes() == nodes[0].tobytes()


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("region", sorted(REGIONS))
def test_planted_nan_wins_over_every_maximum(region, threads):
    region = REGIONS[region]
    ties = _nodes(region, 14, 0.003, 0.4)
    nans = _nodes(region, 14, 0.55, 0.9)
    f = _Planted(_two_bubbles(), tie_nodes=ties, nan_nodes=nans)
    gs = GridSpec(points_per_axis=14, refine_factor=2, chunk=300, threads=threads)
    rep = _assert_same_scan(f, region, gs)
    assert np.isnan(rep.sup_abs_dev)
    assert rep.argmax.tobytes() == nans[0].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6)), min_size=1, max_size=3),
       st.integers(2, 25))
def test_box_holds_every_node_of_its_grids(bounds, points):
    # sup_scan tests no Box node: every node of a linspace lies between its
    # ends, so the coarse grid and a refinement grid clipped to the box lie in it
    lo = np.array([a for a, _ in bounds])
    hi = lo + np.array([w for _, w in bounds])
    if np.any(lo >= hi):
        return
    box = Box(lo, hi)
    coarse = grid_points(lo, hi, points)
    assert box.contains(coarse).all()
    cell = (hi - lo) / (points - 1)
    for x in (coarse[0], coarse[len(coarse) // 2], coarse[-1]):
        assert box.contains(grid_points(np.maximum(lo, x - cell), np.minimum(hi, x + cell), 7)).all()


@pytest.mark.parametrize("axes, limit", [
    ([np.linspace(-0.625, 0.625, 17)] * 4, 1000),
    ([np.linspace(-0.625, 0.625, 9)] * 3, 7),
    ([np.linspace(-1.0, 0.7, 12), np.linspace(-0.3, 0.9, 5), np.linspace(-0.6, 0.6, 13)], 70),
])
@pytest.mark.parametrize("center, r_lo, r_hi", [
    (np.zeros(4), 0.1, 0.625), (np.array([0.1, -0.2, 0.05, 0.0]), 0.0, 0.5),
    (np.zeros(4), 0.0, 0.3),  # a ball centred on a node keeps it
    (np.array([0.3, 0.0, -0.1, 0.2]), 0.35, 0.45),
])
def test_shell_chunks_are_the_dense_shell(axes, limit, center, r_lo, r_hi):
    center = center[:len(axes)]
    dense = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    d = np.sqrt(_sq_dist(dense.T, center))
    firsts, sels, chunks = [], [], []
    for first, sel, X in _grid_chunks(axes, limit, (center, r_lo, r_hi)):
        firsts.append(first)
        sels.append(first + sel)
        chunks.append(X.copy())
    assert firsts == sorted(set(firsts))
    sel = np.concatenate(sels)
    assert np.array_equal(np.concatenate(chunks, axis=1), dense[sel].T)
    kept = np.zeros(len(dense), bool)
    kept[sel] = True
    # a superset of the open shell, and (centre aside) nothing far outside it
    assert kept[(d > r_lo) & (d < r_hi)].all()
    assert not kept[(d < r_lo * (1 - 1e-9)) | (d > r_hi * (1 + 1e-9))].any()
    if r_lo == 0.0:
        assert kept[d == 0.0].all()


@pytest.mark.parametrize("shell", [None, (np.array([0.1, -0.2, 0.0]), 0.2, 0.9)],
                         ids=["grid", "shell"])
def test_chunks_are_coordinate_rows(shell):
    axes = [np.linspace(-1.0, 1.0, 9), np.linspace(-0.5, 0.8, 6), np.linspace(-1.0, 1.0, 11)]
    dense = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    seen = 0
    for first, sel, X in _grid_chunks(axes, 150, shell):
        # an (n, m) view of the reused buffer: each coordinate row contiguous
        assert X.ndim == 2 and X.shape[0] == 3 and X.shape[1] <= 150
        assert all(row.flags.c_contiguous for row in X)
        want = dense[first:first + X.shape[1]] if sel is None else dense[first + sel]
        assert np.array_equal(X, want.T)
        seen += X.shape[1]
    assert seen == len(dense) if shell is None else 0 < seen < len(dense)


def test_box_scan_memory_stays_below_its_dense_grid():
    f = sum_field(Bubble(0.5, np.array([0.3, 0.0, -0.2, 0.1]), 4), Bubble(0.8, np.zeros(4), 4))
    box = Box(np.full(4, -2.0), np.full(4, 2.0))
    gs = GridSpec()
    dense_bytes = gs.coarse_count(4) ** 4 * 4 * 8
    sup_scan(f, box, GridSpec(points_per_axis=4))  # warm the imports and caches
    tracemalloc.start()
    try:
        sup_scan(f, box, gs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense scan peaked at 2.6 times its grid, the streamed one at 0.46
    assert peak < 0.6 * dense_bytes, (peak, dense_bytes)


@pytest.mark.parametrize("region, points", [
    (Ball(np.array([0.1, 0.0, 0.0]), 1.0), 2),
    (Annulus(np.array([0.1, 0.0, 0.0]), 0.5, 1.0), 3),
])
def test_scan_of_a_region_without_grid_nodes_raises(region, points):
    f = sum_field(Bubble(1.0, np.zeros(3), 3), Bubble(0.5, np.array([1.0, 0.0, 0.0]), 3))
    with pytest.raises(OutOfDomain):
        sup_scan(f, region, GridSpec(points_per_axis=points))


def test_threads_keep_at_most_their_number_of_chunks_in_flight():
    lock = threading.Lock()
    drawn = [0, 0]  # chunks drawn and not yet evaluated, the most at once

    def chunks():
        for i in range(40):
            with lock:
                drawn[0] += 1
                drawn[1] = max(drawn)
            yield np.array([[float(i % 7)]])

    def fn(X):
        time.sleep(0.001)
        with lock:
            drawn[0] -= 1
        return X[0]

    best, best_x, count = _stream_argmax(fn, chunks(), 3)
    assert (best, best_x.tolist(), count) == (6.0, [6.0], 40)
    assert drawn == [0, 3]


@pytest.mark.parametrize("kw", [{"points_per_axis": 1}, {"points_per_axis": 0},
                                {"radial_points": 1}, {"threads": 0},
                                {"refine_factor": -1}])
def test_grid_spec_rejects_sizes_below_minimum(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        GridSpec(**kw)


@pytest.mark.parametrize("chunk", [0, -5])
def test_grid_spec_rejects_chunks_below_one(chunk):
    # accepted once, a chunk below one node ran every scan one tail line at a time
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        GridSpec(chunk=chunk)
    assert GridSpec(chunk=1).chunk == 1


def test_grid_spec_accepts_no_refinement():
    f = Bubble(1.0, np.zeros(3), 3)
    rep = sup_scan(f, Box(-np.ones(3), np.ones(3)), GridSpec(points_per_axis=4, refine_factor=0))
    assert rep.grid["refine_factor"] == 0


_NAN3 = [np.nan, 0.0, 0.0]


@pytest.mark.parametrize("make", [
    lambda: Ball(np.zeros(3), np.nan),
    lambda: Ball(np.zeros(3), np.inf),
    lambda: Ball(_NAN3, 1.0),
    lambda: Annulus(np.zeros(3), 1.0, np.inf),
    lambda: Annulus(_NAN3, 0.5, 1.0),
    lambda: Box(_NAN3, np.ones(3)),
    lambda: Box(-np.ones(3), [1.0, np.inf, 1.0]),
], ids=["ball-nan-radius", "ball-inf-radius", "ball-nan-center", "annulus-inf-r_out",
        "annulus-nan-center", "box-nan-lo", "box-inf-hi"])
def test_non_finite_region_geometry_is_rejected(make):
    # accepted once, a NaN ball then failed its scan with OutOfDomain and an
    # infinite box with a RuntimeWarning and NonpositiveValue
    with pytest.raises(ValueError, match="finite|inf"):
        make()


def test_scans_below_two_points_are_rejected_before_they_start():
    # a one-point box grid would divide by zero in its refinement cell, and
    # a one-point radial scan raise a bare IndexError at rs[1] - rs[0]
    f = sum_field(Bubble(1.0, np.zeros(3), 3), Bubble(0.5, np.array([1.0, 0.0, 0.0]), 3))
    with pytest.raises(ValueError, match="points_per_axis"):
        sup_scan(f, Box(-np.ones(3), np.ones(3)), GridSpec(points_per_axis=1))
    with pytest.raises(ValueError, match="radial_points"):
        sup_scan(Bubble(1.0, np.zeros(3), 3), Ball(np.zeros(3), 1.0), GridSpec(radial_points=1))
    assert sup_scan(f, Box(-np.ones(3), np.ones(3)), GridSpec(points_per_axis=2)).n_samples > 0


# --- orbit scans: a field with declared symmetric axes on a Box ------------------

def _axis_point(n, *coords):
    x = np.zeros(n)
    x[:len(coords)] = coords
    return x


ORBIT_FIELDS = {
    # radial about the origin: every axis folds, and all merge
    "radial": lambda n: ConcentricGlueField(Bubble(0.2, np.zeros(n), n), Bubble(1.0, np.zeros(n), n),
                                            0.5, 1.2),
    # centres on axis 0: the other axes fold and merge
    "axial-sum": lambda n: sum_field(Bubble(0.4, _axis_point(n, 0.6), n), Bubble(0.7, np.zeros(n), n)),
    "disjoint-glue": lambda n: DisjointGlueField(Bubble(0.05, _axis_point(n, 1.0), n), 0.4,
                                                 Bubble(1.0, np.zeros(n), n), 0.4, 0.2, 0.2, True),
    # a centre off axes 0 and 1: only the last n - 2 axes are symmetric
    "partial-axis": lambda n: sum_field(Bubble(0.5, _axis_point(n, 0.3, -0.2), n),
                                        Bubble(0.8, np.zeros(n), n)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, points", [(3, 14), (3, 15), (4, 9), (4, 10), (5, 7)])
@pytest.mark.parametrize("name", sorted(ORBIT_FIELDS))
def test_orbit_scan_matches_dense_scan(name, n, points, threads):
    f = ORBIT_FIELDS[name](n)
    # axis 0 of the box is not symmetric about 0 unless the field is radial
    lo = np.full(n, -1.3)
    hi = np.full(n, 1.3) if name == "radial" else np.r_[1.9, np.full(n - 1, 1.3)]
    gs = GridSpec(points_per_axis=points, refine_factor=2, chunk=500, threads=threads)
    rep = _assert_same_scan(f, Box(lo, hi), gs)
    assert rep.grid["folded"][0] == [i for i in f._sym_axes if name == "radial" or i > 0]
    assert rep.grid["evaluated"] < rep.n_samples


def test_n4_box_scan_takes_the_orbit_path():
    # test_streamed_scan_matches_dense_scan_n4's field: its centre is 0 on axis 1 only
    f = sum_field(Bubble(0.5, np.array([0.3, 0.0, -0.2, 0.1]), 4), Bubble(0.8, np.zeros(4), 4))
    rep = sup_scan(f, Box(np.full(4, -1.0), np.full(4, 1.0)),
                   GridSpec(points_per_axis=9, refine_factor=2, chunk=700))
    assert f._sym_axes == (1,)
    assert rep.grid["folded"][0] == [1]
    assert rep.grid["evaluated"] < rep.n_samples


class _PlantedOrbits(_Planted):
    """_Planted keeping its source's declared symmetry, planted with whole orbits."""

    def __init__(self, src, tie_nodes=(), nan_nodes=()):
        super().__init__(src, tie_nodes, nan_nodes)
        self._sym_axes = src._sym_axes


def _orbit(axes, sym, index):
    """The grid nodes of the orbit of the node at index under signed permutations of sym,
    where every axis of sym holds the same nodes, symmetric about 0: by index, as the scan
    folds them."""
    m = axes[sym[0]].size
    nodes = set()
    for p in itertools.permutations(sym):
        for flips in itertools.product((False, True), repeat=len(sym)):
            i = list(index)
            for a, b, flip in zip(sym, p, flips):
                i[a] = m - 1 - index[b] if flip else index[b]
            nodes.add(tuple(i))
    return [np.array([axes[a][j] for a, j in enumerate(i)]) for i in sorted(nodes)]


def _orbit_case(n, points):
    f = ORBIT_FIELDS["axial-sum"](n)
    box = Box(np.r_[-1.3, np.full(n - 1, -1.1)], np.r_[1.9, np.full(n - 1, 1.1)])
    axes = [np.linspace(a, b, points) for a, b in zip(box.lo, box.hi)]
    return f, box, axes


# chunks of 300 nodes, or of one orbit, so that the member pass takes each
# planted orbit in a batch of its own and compares them across batches
ORBIT_CHUNKS = [300, "orbit"]


def _chunk(chunk, n):
    return 2 ** (n - 1) * math.factorial(n - 1) if chunk == "orbit" else chunk


@pytest.mark.parametrize("chunk", ORBIT_CHUNKS)
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, points", [(3, 14), (4, 9)])
def test_planted_orbit_tie_goes_to_the_first_node(n, points, threads, chunk):
    f, box, axes = _orbit_case(n, points)
    # two whole orbits, equal everywhere: the first node of either in C order wins
    late = _orbit(axes, f._sym_axes, (points - 2, *range(1, n)))
    early = _orbit(axes, f._sym_axes, (3, *range(n - 1)))
    planted = _PlantedOrbits(f, tie_nodes=late + early)
    gs = GridSpec(points_per_axis=points, refine_factor=2, chunk=_chunk(chunk, n),
                  threads=threads)
    rep = _assert_same_scan(planted, box, gs)
    assert rep.argmax.tobytes() == early[0].tobytes()
    assert len(early) == 2 ** (n - 1) * math.factorial(n - 1)
    assert rep.grid["evaluated"] < rep.n_samples


@pytest.mark.parametrize("chunk", ORBIT_CHUNKS)
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, points", [(3, 14), (4, 9)])
def test_planted_orbit_nan_wins_over_every_maximum(n, points, threads, chunk):
    f, box, axes = _orbit_case(n, points)
    ties = _orbit(axes, f._sym_axes, (1, *range(1, n)))
    nans = _orbit(axes, f._sym_axes, (points - 3, *range(2, n + 1)))
    planted = _PlantedOrbits(f, tie_nodes=ties, nan_nodes=nans)
    gs = GridSpec(points_per_axis=points, refine_factor=2, chunk=_chunk(chunk, n),
                  threads=threads)
    rep = _assert_same_scan(planted, box, gs)
    assert np.isnan(rep.sup_abs_dev)
    assert rep.argmax.tobytes() == nans[0].tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_flat_maximum_streams_the_grid_once(n):
    # on an exact bubble |K - 1| is rounding alone, so nearly every orbit is
    # within the margin of the largest: the scan streams the grid in place of
    # a member pass, and evaluates it once plus its representatives
    f = Bubble(1.0, np.zeros(n), n)
    box = Box(np.full(n, -3.0), np.full(n, 3.0))
    gs = GridSpec(points_per_axis=20, refine_factor=2)
    rep = _assert_same_scan(f, box, gs)
    assert rep.grid["folded"][0] == list(range(n))
    assert rep.n_samples < rep.grid["evaluated"] < 1.05 * rep.n_samples
    # and in chunks, with no grid-sized index arrays: the streamed scan of a
    # grid of 2^17 nodes or more, in chunks of 2^10, peaks below a quarter of
    # its nodes as n float64 rows (0.13 at n = 3, 0.03 at n = 4)
    points = {3: 48, 4: 20}[n]
    tracemalloc.start()
    try:
        sup_scan(f, box, GridSpec(points_per_axis=points, refine_factor=2, chunk=1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = points**n * n * 8
    assert peak < 0.25 * dense_bytes, (peak, dense_bytes)


@pytest.mark.parametrize("n", [6, 7])
def test_orbits_and_merged_tables_stay_bounded(n):
    # at n = 7 every axis folds and merges, 2^7 7! = 645,120 nodes an orbit:
    # the layout gives up merges, then folds, until an orbit fits _ORBIT_NODES
    axes = [np.linspace(-1.0, 1.0, 21)] * n
    start, groups = _orbit_layout(axes, tuple(range(n)))
    assert _orbit_size(start, groups) <= _ORBIT_NODES
    assert all(math.comb(21 - start[g[0]] + len(g) - 1, len(g)) <= _GROUP_ROWS for g in groups)
    assert sum(map(bool, start)) == n and groups
    f = ORBIT_FIELDS["radial"](n)
    rep = _assert_same_scan(f, Box(np.full(n, -1.3), np.full(n, 1.3)),
                            GridSpec(points_per_axis=5, refine_factor=1, chunk=1000))
    assert rep.grid["folded"][0] == list(range(n))

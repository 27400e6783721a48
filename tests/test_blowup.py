"""Weighted maxima, rescaling and bubble fitting."""

import csv
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bubbleforge
from bubbleforge import (
    BaseField,
    BlowupInput,
    Bubble,
    CallableRadialField,
    blowup,
    detect,
    excise,
    fit_bubble,
    k_function,
    rescale,
    sum_field,
    weighted_max,
)
from bubbleforge.blowup import OUTER_RADIUS, _compass_search, d_eps, weighted_u
from bubbleforge.errors import FitDiverged, OutOfDomain
from bubbleforge.field_core import _sq_dist
from bubbleforge.regions import grid_points

# the search must never evaluate a field where it is singular or undefined
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _slow_decay_field(n=3):
    q = (n - 2) / 2
    return CallableRadialField(
        n,
        lambda r: r**-q,
        lambda r: -q * r ** (-q - 1),
        lambda r: q * (q + 1) * r ** (-q - 2),
    )


def _constant_field(n=3):
    return CallableRadialField(n, lambda r: np.full_like(r, 2.0),
                               lambda r: 0 * r, lambda r: 0 * r)


# nodes per axis of the dense reference grid: the former grid path's 48^n grid
_COARSE = 48
# points per weighted_u call of the dense reference: the former grid path's chunk
_CHUNK = 1 << 17


def _dense_chunks(n, nodes=_COARSE, chunk=_CHUNK):
    """The dense grid over [-5/8, 5/8]^n in C order, chunk points at a time."""
    axis = np.linspace(-OUTER_RADIUS, OUTER_RADIUS, nodes)
    for start in range(0, nodes**n, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, nodes**n)), (nodes,) * n)
        yield axis[np.stack(idx, axis=-1)]


def _dense_grid(inp, nodes=_COARSE):
    """The whole dense grid, in C order."""
    return np.vstack(list(_dense_chunks(inp.field.n, nodes)))


def _dense_values(inp, nodes=_COARSE, chunk=_CHUNK):
    """weighted_u at every node of the dense grid, in C order, a chunk at a time."""
    return np.concatenate([weighted_u(inp, c) for c in _dense_chunks(inp.field.n, nodes, chunk)])


def _admissible(inp, pts):
    """d_eps > 0 and outside every excluded ball, tested point by point."""
    ok = d_eps(pts, inp.epsilon) > 0
    for c, rad in inp.excluded:
        ok &= np.linalg.norm(pts - c, axis=-1) >= rad
    return ok


def _cell(inp, nodes=_COARSE):
    return np.full(inp.field.n, 2 * OUTER_RADIUS / (nodes - 1))


def _dense_candidates(inp, n_candidates=8, nodes=_COARSE, chunk=_CHUNK):
    """Reference: the whole dense grid, ordered by a stable argsort; the
    first n_candidates nodes two cell diagonals from every earlier one."""
    vals = _dense_values(inp, nodes, chunk)
    finite = np.flatnonzero(np.isfinite(vals))
    axis = np.linspace(-OUTER_RADIUS, OUTER_RADIUS, nodes)
    cell = _cell(inp, nodes)
    candidates = []
    for idx in finite[np.argsort(-vals[finite], kind="stable")]:
        x = axis[np.array(np.unravel_index(idx, (nodes,) * inp.field.n))]
        if all(np.linalg.norm(x - c) >= 2 * np.linalg.norm(cell) for c, _ in candidates):
            candidates.append((x, float(vals[idx])))
        if len(candidates) >= n_candidates:
            break
    return np.array([x for x, _ in candidates]), np.array([v for _, v in candidates])


def _dense_weighted_max(inp, nodes=_COARSE, chunk=_CHUNK):
    """Reference: the former grid path, its best candidates polished by the
    compass search from one cell."""
    xs, vs = _compass_search(inp, *_dense_candidates(inp, nodes=nodes, chunk=chunk),
                             _cell(inp, nodes))
    k = int(np.argmax(vs))
    return xs[k], float(vs[k])


def _ray_max(inp, direction):
    """Reference for a field radial about the origin or about a point on
    the ray through direction: weighted_u, radial in d_eps, peaks on that
    ray, and this maximizes it there on 2^16 radii, then twice on 1,025
    radii about the best so far."""
    unit = np.asarray(direction, float) / np.linalg.norm(direction)
    lo, hi, count = inp.epsilon, OUTER_RADIUS, 1 << 16
    for _ in range(3):
        r = np.linspace(lo, hi, count)
        v = weighted_u(inp, r[:, None] * unit)
        v[np.isnan(v)] = -np.inf
        j, step = int(np.argmax(v)), r[1] - r[0]
        lo, hi, count = max(r[j] - step, inp.epsilon), min(r[j] + step, OUTER_RADIUS), 1025
    return float(v[j])


def _two_bubble_input():
    b1 = Bubble(1e-3, [0.3, 0.0, 0.0], 3)
    b2 = Bubble(2e-3, [0.0, 0.45, 0.0], 3)
    return BlowupInput(field=sum_field(b1, b2), epsilon=0.1, R=5.0,
                       delta_target=0.2)


def _narrow_bubble_input():
    return BlowupInput(field=Bubble(1e-3, [0.3, 0, 0], 3), epsilon=0.1, R=5.0,
                       delta_target=0.01)


def _constant_input():
    return BlowupInput(field=_constant_field(), epsilon=0.1, R=2.0,
                       delta_target=0.01)


def _excised_input():
    two = _two_bubble_input()
    return excise(two, detect(two))


def _odd_grid_input():
    # the two-bubble input on a dense grid of 49 nodes per axis (_NODES),
    # which puts nodes at the origin and at radius exactly 5/8
    return _two_bubble_input()


def _n4_input():
    return BlowupInput(field=Bubble(2e-3, [0.2, -0.1, 0.15, 0.05], 4), epsilon=0.1,
                       R=5.0, delta_target=0.01)


def _node_radius_input():
    # epsilon is exactly the radius of node (21, 23, 23) of the 48-node grid,
    # which is then off the annulus, while its permutation (23, 23, 21)
    # rounds just above epsilon
    axis = np.linspace(-OUTER_RADIUS, OUTER_RADIUS, 48)
    eps = float(np.sqrt(_sq_dist(axis[[21, 23, 23]])))
    return replace(_two_bubble_input(), epsilon=eps)


# nodes per axis of an input's dense reference grid, where not _COARSE
_NODES = {_odd_grid_input: 49}


@pytest.mark.parametrize("make_input, chunk", [
    (_narrow_bubble_input, _CHUNK),
    (_two_bubble_input, _CHUNK),
    (_two_bubble_input, 500),  # uneven chunks, the last one partial
    (_excised_input, _CHUNK),
    (_excised_input, 500),
    (_constant_input, _CHUNK),
    (_odd_grid_input, _CHUNK),
    (_n4_input, _CHUNK),
    (_n4_input, 500),
    (_node_radius_input, _CHUNK),
])
def test_weighted_max_matches_dense_search(make_input, chunk):
    # the dense search evaluates its grid chunk points at a time
    inp = make_input()
    nodes = _NODES.get(make_input, _COARSE)
    x_o, M, _ = weighted_max(inp)
    ref_x, ref_M = _dense_weighted_max(inp, nodes, chunk)
    assert M >= ref_M
    assert M == pytest.approx(ref_M, rel=1e-4)
    # both end within one final step of the same peak; the constant field
    # peaks on a whole sphere, on which only the radii agree
    step = np.linalg.norm(_cell(inp, nodes)) * blowup._MIN_STEP
    if make_input is _constant_input:
        assert abs(np.linalg.norm(x_o) - np.linalg.norm(ref_x)) <= step
    else:
        assert np.linalg.norm(x_o - ref_x) <= step


@pytest.mark.parametrize("make_input", [
    _two_bubble_input, _excised_input, _odd_grid_input, _n4_input, _node_radius_input,
])
def test_coarse_pass_evaluates_only_admissible_nodes(make_input, monkeypatch):
    # the coarse pass is the dense search's weighted_u over its grid: the field
    # sees only admissible nodes, as many as there are
    inp = make_input()
    nodes = _NODES.get(make_input, _COARSE)
    admissible = sum(np.count_nonzero(_admissible(inp, c))
                     for c in _dense_chunks(inp.field.n, nodes))
    field_points = []
    jet = inp.field._jet
    monkeypatch.setattr(inp.field, "_jet", lambda X, grad, d2: field_points.append(
        (X.shape[1], _admissible(inp, X.T).all())) or jet(X, grad, d2))
    _dense_values(inp, nodes)
    assert all(ok for _, ok in field_points)
    assert sum(size for size, _ in field_points) == admissible


def _inv_r_input():
    # 1/r is infinite at the origin, the centre of the first box
    inv_r = CallableRadialField(3, lambda r: 1 / r, lambda r: -1 / r**2,
                                lambda r: 2 / r**3)
    return BlowupInput(field=inv_r, epsilon=0.1, R=5.0, delta_target=0.01)


@pytest.mark.parametrize("make_input", [
    _two_bubble_input, _excised_input, _n4_input, _node_radius_input, _constant_input,
    _inv_r_input,
])
def test_weighted_max_evaluates_only_admissible_points(make_input, monkeypatch):
    inp = make_input()
    field_points = []
    jet = inp.field._jet
    monkeypatch.setattr(inp.field, "_jet",
                        lambda X, grad, d2: field_points.append(X.T.copy()) or jet(X, grad, d2))
    weighted_max(inp)
    pts = np.vstack(field_points)
    assert len(pts) > 0
    assert _admissible(inp, pts).all()


def test_weighted_max_never_evaluates_the_singularity(monkeypatch):
    inp = _inv_r_input()
    radii = []
    jet = inp.field._jet

    def recorded(X, grad, d2):
        radii.append(np.sqrt(_sq_dist(X)))
        return jet(X, grad, d2)

    monkeypatch.setattr(inp.field, "_jet", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_o, M, M_upper = weighted_max(inp)
    assert np.concatenate(radii).min() > inp.epsilon
    # sqrt(r - eps) / r peaks on the sphere r = 2 eps, at sqrt(eps) / (2 eps)
    assert M == pytest.approx(np.sqrt(0.1) / 0.2, rel=1e-12)
    assert np.linalg.norm(x_o) == pytest.approx(0.2, abs=1e-5)
    assert M_upper is None


def test_weighted_u_rejects_every_inadmissible_point():
    inp = _excised_input()
    pts = _dense_grid(inp, 24)
    ok = _admissible(inp, pts)
    vals = weighted_u(inp, pts)
    assert np.all(np.isfinite(vals[ok]))
    assert np.all(vals[~ok] == -np.inf)
    assert float(weighted_u(inp, np.zeros(3))) == -np.inf


def test_weighted_max_raises_when_no_node_is_admissible():
    inp = replace(_narrow_bubble_input(), excluded=((np.zeros(3), 1.0),))
    with pytest.raises(OutOfDomain, match="admissible"):
        weighted_max(inp)


def test_weighted_max_raises_on_infinite_value():
    shell = CallableRadialField(3, lambda r: np.where((0.2 < r) & (r < 0.3), np.inf, 1.0),
                                lambda r: 0 * r, lambda r: 0 * r)
    inp = BlowupInput(field=shell, epsilon=0.1, R=5.0, delta_target=0.01)
    with pytest.raises(OutOfDomain, match="infinite"):
        weighted_max(inp)


def _dense_refine_about(inp, start_x, start_v, cell):
    """The former refinement: three passes of 17^n nodes about the best node
    so far, each 8x finer, every grid built whole and maximized by np.argmax."""
    best_x, best = start_x, start_v
    step = cell.copy()
    for _ in range(3):
        sub = grid_points(best_x - step, best_x + step, 17)
        sv = weighted_u(inp, sub)
        j = int(np.argmax(sv))
        if sv[j] > best:
            best_x, best = sub[j], sv[j]
        step = step / 8.0
    return best_x, float(best)


def _nan_shell_input():
    shell = CallableRadialField(3, lambda r: np.where(np.abs(r - 0.31) < 0.004, np.nan, 1.0),
                                lambda r: 0 * r, lambda r: 0 * r)
    return BlowupInput(field=shell, epsilon=0.1, R=5.0, delta_target=0.01)


def _inf_shell_input():
    shell = CallableRadialField(3, lambda r: np.where(np.abs(r - 0.31) < 0.004, np.inf, 1.0),
                                lambda r: 0 * r, lambda r: 0 * r)
    return BlowupInput(field=shell, epsilon=0.1, R=5.0, delta_target=0.01)


_STARTS = np.array([[0.3, 0.0, 0.0], [0.0, 0.45, 0.0], [0.2, -0.2, 0.1], [-0.3, 0.05, 0.0]])


@pytest.mark.parametrize("make_input", [
    _narrow_bubble_input, _two_bubble_input, _excised_input,
    _constant_input, _nan_shell_input,
])
def test_compass_search_beats_the_dense_refine(make_input):
    inp = make_input()
    cell = _cell(inp)
    # a start inside an excluded ball, of value -inf, is no candidate: from
    # there both searches end on the ball's boundary, equal up to rounding
    starts = _STARTS[np.isfinite(weighted_u(inp, _STARTS))]
    # the maxima of the constant and NaN-shell fields lie on the kink
    # |x| = (eps + 5/8) / 2 of d_eps, which axis steps alone reach only to
    # about 4e-7 relative below the dense refine
    starts = np.vstack([_dense_candidates(inp)[0], starts])
    vs = weighted_u(inp, starts)
    xs, got = _compass_search(inp, starts, vs, cell)
    assert not np.isnan(got).any() and not np.isnan(xs).any()
    assert np.all(got >= vs)
    for x, v, g in zip(starts, vs, got):
        assert g >= _dense_refine_about(inp, x, float(v), cell)[1]


@pytest.mark.parametrize("make_input", [
    _narrow_bubble_input, _two_bubble_input, _excised_input, _n4_input,
])
def test_weighted_max_is_a_local_maximum_at_the_final_step(make_input):
    # no node of a 9^n grid about x_o, spaced by the polish's final step, is higher
    inp = make_input()
    x_o, M, _ = weighted_max(inp)
    h = np.minimum(blowup._branch_and_bound(inp)[2], blowup._CELL) / 2048
    grid = grid_points(x_o - 4 * h, x_o + 4 * h, 9)
    assert np.max(weighted_u(inp, grid)) <= M


# --- the branch-and-bound ------------------------------------------------------

# the inputs above whose field has a box enclosure
_ENCLOSED = [_narrow_bubble_input, _two_bubble_input, _excised_input, _odd_grid_input,
             _n4_input, _node_radius_input]


@pytest.mark.parametrize("make_input", _ENCLOSED)
def test_weighted_max_is_certified_and_beats_the_dense_search(make_input):
    inp = make_input()
    nodes = _NODES.get(make_input, _COARSE)
    x_o, M, M_upper = weighted_max(inp)
    assert _admissible(inp, x_o[None])[0]
    assert M == weighted_u(inp, x_o)
    assert M >= _dense_weighted_max(inp, nodes)[1]
    assert M_upper >= M
    # the bound holds over the whole annulus, so at every admissible node
    assert M_upper >= np.max(_dense_values(inp, nodes))
    assert M_upper <= M * (1 + blowup._GAP)


def _planted_direction(n, seed=0):
    direction = np.random.default_rng(seed).normal(size=n)
    return direction / np.linalg.norm(direction)


def _planted_input(n, seed=0):
    """The input of `blowup --n <n> --seed <seed>` with its default parameters."""
    return BlowupInput(field=Bubble(1e-3, 0.3 * _planted_direction(n, seed), n),
                       epsilon=0.1, R=5.0, delta_target=0.01)


def _bench_inputs(seed):
    """The two inputs of the benchmark's detect-excise-detect at a seed: two
    planted bubbles, then the same with the first detection excised."""
    rng = np.random.default_rng(seed)
    while True:
        d = rng.normal(size=(2, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        if np.linalg.norm(0.3 * d[0] - 0.45 * d[1]) >= 0.25:
            break
    inp = BlowupInput(field=sum_field(Bubble(1e-4, 0.3 * d[0], 3), Bubble(2e-4, 0.45 * d[1], 3)),
                      epsilon=0.1, R=5.0, delta_target=0.05)
    return inp, excise(inp, detect(inp))


@pytest.mark.parametrize("seed", range(6))
def test_weighted_max_beats_the_grid_path(seed):
    # the grid path is _dense_weighted_max, the search this one replaced
    for inp in (_planted_input(3, seed), _planted_input(4, seed), *_bench_inputs(seed)):
        x_o, M, M_upper = weighted_max(inp)
        assert M >= _dense_weighted_max(inp)[1]
        assert M <= M_upper <= M * (1 + blowup._GAP)
        assert _admissible(inp, x_o[None])[0]


def _search_evaluations(inp, monkeypatch):
    """(evaluations, certified): the branch-and-bound's weighted evaluations,
    and whether its bound is within _GAP of its best value."""
    sizes = []
    rows = blowup._weighted_rows
    monkeypatch.setattr(blowup, "_weighted_rows",
                        lambda inp, X: sizes.append(X.shape[1]) or rows(inp, X))
    _, v, _, upper = blowup._branch_and_bound(inp)
    return sum(sizes), upper <= v * (1 + blowup._GAP)


@pytest.mark.parametrize("make_input, limit", [
    # `blowup --n 3/4/5 --seed 0` took 559, 2,215 and 5,939 evaluations, where
    # the 48^n grid evaluates 53,880, 1,501,568 and 37.7M admissible nodes
    (lambda: _planted_input(3), 600),
    (lambda: _planted_input(4), 2_400),
    (lambda: _planted_input(5), 6_400),
    # 1,253: the boxes inside the excised ball are dropped, not searched
    (_excised_input, 1_400),
], ids=["n3", "n4", "n5", "excised"])
def test_branch_and_bound_evaluates_few_points(make_input, limit, monkeypatch):
    spent, certified = _search_evaluations(make_input(), monkeypatch)
    assert certified
    assert spent <= limit


def test_spent_budget_still_reaches_the_dense_search(monkeypatch):
    # a bubble centred at the origin peaks on a whole sphere, which no budget covers
    inp = BlowupInput(field=Bubble(1e-3, np.zeros(3), 3), epsilon=0.1, R=5.0,
                      delta_target=0.01)
    spent, certified = _search_evaluations(inp, monkeypatch)
    assert not certified and spent <= blowup._BUDGET
    x_o, M, M_upper = weighted_max(inp)
    assert M >= _dense_weighted_max(inp)[1]
    assert M_upper >= M


def test_spent_budget_polishes_the_best_centre(monkeypatch):
    inp = _two_bubble_input()
    monkeypatch.setattr(blowup, "_BUDGET", 64)
    x, v, box, upper = blowup._branch_and_bound(inp)
    assert upper > v * (1 + blowup._GAP)
    xs, vs = _compass_search(inp, x[None], np.array([v]), np.minimum(box, blowup._CELL))
    x_o, M, M_upper = weighted_max(inp)
    assert np.array_equal(x_o, xs[0]) and M == vs[0]
    assert M_upper == upper >= M


def test_fields_without_an_enclosure_are_searched_unpruned(monkeypatch):
    inp = replace(_constant_input(), excluded=((np.array([0.3, 0.0, 0.0]), 0.1),))
    assert inp.field._box_upper(np.zeros((1, 3)), np.ones((1, 3))) is None
    # a box on the annulus, one inside the inner ball, one beyond 5/8, one inside
    # the excluded ball
    lo = np.array([[0.2, 0.0, 0.0], [-0.05, -0.05, -0.05], [0.5, 0.5, 0.0], [0.28, -0.01, 0.0]])
    bound = blowup._weighted_upper(inp, lo, lo + 0.02)
    assert bound.tolist() == [np.inf, -np.inf, -np.inf, -np.inf]
    spent, certified = _search_evaluations(inp, monkeypatch)
    assert not certified and blowup._BUDGET // 2 < spent <= blowup._BUDGET
    x_o, M, M_upper = weighted_max(inp)
    assert M_upper is None
    assert _admissible(inp, x_o[None])[0]


def _profile_bubble(n, lam, center):
    """The bubble (lam / (lam^2 + r^2))^((n-2)/2) about center, given by its
    profile, so without a box enclosure."""
    q = (n - 2) / 2
    return CallableRadialField(n, lambda r: (lam / (lam**2 + r * r)) ** q,
                               lambda r: -2 * q * r * lam**q * (lam**2 + r * r) ** (-q - 1),
                               lambda r: 0 * r, center=center)


def _profile_input(n, lam):
    """(input, direction): the profile bubble at the centre of `blowup --n <n>
    --seed 0`, and the direction of that centre."""
    direction = _planted_direction(n)
    return BlowupInput(field=_profile_bubble(n, lam, 0.3 * direction), epsilon=0.1, R=5.0,
                       delta_target=0.01), direction


def _centred_input(n):
    return BlowupInput(field=Bubble(1e-3, np.zeros(n), n), epsilon=0.1, R=5.0,
                       delta_target=0.01), np.eye(n)[0]


_E1 = np.array([1.0, 0.0, 0.0])
# (input, direction of the ray its maximum lies on) of each search that ends uncertified
_UNCERTIFIED = {
    "constant": lambda: (_constant_input(), _E1),
    "nan-shell": lambda: (_nan_shell_input(), _E1),
    "inv-r": lambda: (_inv_r_input(), _E1),
    "slow-decay": lambda: (BlowupInput(field=_slow_decay_field(), epsilon=0.1, R=5.0,
                                       delta_target=0.01), _E1),
    **{f"profile-{n}-{lam:g}": (lambda n=n, lam=lam: _profile_input(n, lam))
       for n in (3, 4, 5) for lam in (1e-3, 1e-2)},
    "centred-3": lambda: _centred_input(3),
    "centred-4": lambda: _centred_input(4),
}


@pytest.mark.parametrize("name", list(_UNCERTIFIED))
def test_weighted_max_without_a_certificate_reaches_the_ray_maximum(name):
    # without a box enclosure, or with a budget spent on a whole sphere, the
    # polish from the capped cell makes up for the unpruned search; from the
    # best box's edges alone the n=5 profile bubble fell 2.7e-3 short
    inp, direction = _UNCERTIFIED[name]()
    x_o, M, M_upper = weighted_max(inp)
    assert _admissible(inp, x_o[None])[0]
    assert M == weighted_u(inp, x_o)
    assert M >= _ray_max(inp, direction) * (1 - blowup._GAP)
    assert (M_upper is None) != name.startswith("centred")


def test_detect_reports_the_certified_bound():
    rep = detect(_narrow_bubble_input())
    assert rep.M_eps <= rep.M_upper <= rep.M_eps * (1 + blowup._GAP)
    # the same bubble given by its profile has no enclosure
    lam, c = 1e-3, [0.3, 0.0, 0.0]
    profile = CallableRadialField(3, lambda r: np.sqrt(lam / (lam**2 + r * r)),
                                  lambda r: -r * np.sqrt(lam) * (lam**2 + r * r) ** -1.5,
                                  lambda r: np.sqrt(lam) * (2 * r * r - lam**2)
                                  * (lam**2 + r * r) ** -2.5, center=c)
    rep = detect(replace(_narrow_bubble_input(), field=profile))
    assert rep is not None and rep.M_upper is None


def _box_strategy(n, data, centre):
    """A box [lo, hi] about the centre or anywhere near the annulus; some edges,
    or all, of zero width."""
    width = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.4)),
                                        min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        width[:] = 0.0
    if data.draw(st.booleans()):  # the box contains the centre
        share = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        lo = centre - share * width
        return lo, np.maximum(lo + width, centre)
    lo = np.array(data.draw(st.lists(st.floats(-0.7, 0.7), min_size=n, max_size=n)))
    return lo, lo + width


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 5), data=st.data())
def test_box_enclosures_hold_every_value_in_the_box(n, data):
    coords = st.lists(st.floats(-0.6, 0.6), min_size=n, max_size=n)
    b1 = Bubble(data.draw(st.floats(1e-4, 2.0)), data.draw(coords), n)
    b2 = Bubble(data.draw(st.floats(1e-4, 2.0)), data.draw(coords), n)
    field = data.draw(st.sampled_from([b1, sum_field(b1, b2)]))
    lo, hi = _box_strategy(n, data, b1.center)
    excluded = ((b2.center, data.draw(st.floats(0.01, 0.5))),) if data.draw(st.booleans()) else ()
    inp = BlowupInput(field=field, epsilon=0.1, R=5.0, delta_target=0.01, excluded=excluded)
    # a dense sample: a 5^n grid of the box, random points and the point nearest b1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = np.vstack([grid_points(lo, hi, 5), lo + rng.uniform(size=(200, n)) * (hi - lo),
                     np.clip(b1.center, lo, hi)])
    bound = field._box_upper(lo[None], hi[None])[0]
    assert np.all(field.value(pts) <= bound)
    # and the exact value at the point nearest the centre, where a bubble peaks
    near = [mpmath.mpf(v) for v in np.clip(b1.center, lo, hi)]
    s = sum((a - mpmath.mpf(c)) ** 2 for a, c in zip(near, b1.center))
    with mpmath.workdps(40):
        assert (b1.lam / (b1.lam**2 + s)) ** mpmath.mpf((n - 2) / 2) <= b1._box_upper(
            lo[None], hi[None])[0]
    w_bound = blowup._weighted_upper(inp, lo[None], hi[None])[0]
    assert np.all(weighted_u(inp, pts) <= w_bound)


@pytest.mark.parametrize("make_input", [_two_bubble_input, _excised_input, _n4_input,
                                        _constant_input])
def test_compass_search_of_all_starts_is_each_alone(make_input):
    inp = make_input()
    n = inp.field.n
    starts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(8, n))
    starts = starts[d_eps(starts, inp.epsilon) > 0]
    vs = weighted_u(inp, starts)
    xs, got = _compass_search(inp, starts, vs, _cell(inp))
    for i in range(len(starts)):
        x1, v1 = _compass_search(inp, starts[i:i + 1], vs[i:i + 1], _cell(inp))
        assert x1[0].tobytes() == xs[i].tobytes()
        assert v1[0].hex() == got[i].hex()


def test_compass_search_never_takes_a_nan():
    inp = _nan_shell_input()
    cell = _cell(inp)
    # the first poll point +cell e_1 lies on the NaN shell
    start = np.array([[0.31 - cell[0], 0.0, 0.0]])
    assert np.isnan(weighted_u(inp, start + cell * [1, 0, 0]))[0]
    xs, vs = _compass_search(inp, start, weighted_u(inp, start), cell)
    assert np.isfinite(vs).all() and np.isfinite(xs).all()
    x_o, M, _ = weighted_max(inp)
    assert np.isfinite(M) and np.isfinite(x_o).all()


def test_compass_search_raises_on_infinite_poll_value():
    inp = _inf_shell_input()
    cell = _cell(inp)
    start = np.array([[0.31 - cell[0], 0.0, 0.0]])
    assert np.isfinite(weighted_u(inp, start)).all()
    with pytest.raises(OutOfDomain, match="infinite"):
        _compass_search(inp, start, weighted_u(inp, start), cell)


def test_compass_search_memory_is_bounded_at_n5():
    # one pass of the former 17^5 refine grids, built whole, took ~370 MB
    x = np.array([0.3, 0.0, 0.0, 0.0, 0.0])
    inp = BlowupInput(field=Bubble(1e-3, x, 5), epsilon=0.1, R=5.0, delta_target=0.01)
    cell = _cell(inp)
    starts = x + cell * np.arange(1, 9)[:, None] / 3
    tracemalloc.start()
    try:
        _compass_search(inp, starts, weighted_u(inp, starts), cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_refinement_evaluates_few_points(tmp_path, monkeypatch):
    # the three 17^4 refine grids of each of 8 candidates took 2,004,504 points
    # for `blowup --n 4 --seed 0`; the compass search polishes one start
    from bubbleforge import cli

    counts, search_end = [], []
    search = blowup._branch_and_bound

    def marked_search(*args):
        result = search(*args)
        search_end.append(len(counts))
        return result

    monkeypatch.setattr(blowup, "weighted_u",
                        lambda inp, x: counts.append(len(x)) or weighted_u(inp, x))
    monkeypatch.setattr(blowup, "_branch_and_bound", marked_search)
    assert cli.main(["blowup", "--n", "4", "--seed", "0",
                     "--out", str(tmp_path / "r.csv")]) == 0
    assert len(search_end) == 1
    assert 0 < sum(counts[search_end[0]:]) < 20_000


def test_blowup_n5_runs_in_one_gigabyte(tmp_path):
    # the 48^5 grid took 1.9 s; the address-space cap is set in the child alone
    src = str(Path(bubbleforge.__file__).resolve().parents[1])
    out = tmp_path / "r.csv"
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from bubbleforge.cli import main\n"
            f"raise SystemExit(main(['blowup', '--n', '5', '--out', {str(out)!r}]))\n")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = {r["experiment"]: r for r in csv.DictReader(fh)}
    assert float(rows["blowup/mu-rel-err"]["measured"]) <= 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_blowup_of_a_centred_bubble_fails_its_row(n, tmp_path):
    # the fit about the maximizer on the sphere of peaks drives the scale to 0,
    # which is a failed detection (exit 1), not a numerical failure (exit 3)
    src = str(Path(bubbleforge.__file__).resolve().parents[1])
    out = tmp_path / "r.csv"
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "bubbleforge.cli", "blowup", "--n", str(n),
                           "--center-radius", "0", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL] blowup/detected" in proc.stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["experiment"], r["pass"]) for r in rows] == [("blowup/detected", "false")]


def test_detect_after_excising_the_whole_annulus_raises():
    # lam * R = 1e-3 * 1e4 covers the annulus from any centre inside it
    inp = replace(_narrow_bubble_input(), R=1e4)
    with pytest.raises(OutOfDomain):
        detect(excise(inp, detect(inp)))


def test_blowup_cli_memory_does_not_grow_with_grid(tmp_path):
    # a 48^4 grid held at once needs about 1 GB
    src = str(Path(bubbleforge.__file__).resolve().parents[1])
    code = ("import resource\n"
            "from bubbleforge.cli import main\n"
            f"rc = main(['blowup', '--n', '4', '--out', {str(tmp_path / 'r.csv')!r}])\n"
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    rc, rss_kb = int(out[-2]), int(out[-1])
    assert rc == 0
    assert rss_kb / 1024 < 300


def test_weighted_max_constant_field():
    const = _constant_field()
    eps = 0.1
    inp = BlowupInput(field=const, epsilon=eps, R=2.0, delta_target=0.01)
    x_o, M, _ = weighted_max(inp)
    mid = (eps + OUTER_RADIUS) / 2
    assert np.linalg.norm(x_o) == pytest.approx(mid, abs=5e-4)
    assert M == pytest.approx(((OUTER_RADIUS - eps) / 2) ** 0.5 * 2.0, rel=1e-4)


def test_weighted_max_finds_narrow_bubble():
    planted = Bubble(1e-3, [0.3, 0, 0], 3)
    inp = BlowupInput(field=planted, epsilon=0.1, R=5.0, delta_target=0.01)
    x_o, _, _ = weighted_max(inp)
    assert np.linalg.norm(x_o - [0.3, 0, 0]) <= 2 * blowup._CELL


def test_weighted_max_scales_linearly_in_field():
    b = Bubble(1e-3, [0.3, 0, 0], 3)
    inp1 = BlowupInput(field=b, epsilon=0.1, R=5.0, delta_target=0.01)
    inp2 = BlowupInput(field=sum_field(b, b), epsilon=0.1, R=5.0, delta_target=0.01)
    _, m1, _ = weighted_max(inp1)
    _, m2, _ = weighted_max(inp2)
    assert m2 == pytest.approx(2 * m1, rel=1e-9)


def test_rescale_of_bubble_about_its_center_is_standard(rng):
    mu = 0.01
    center = np.array([0.3, 0.1, 0.0])
    b = Bubble(mu, center, 3)
    inp = BlowupInput(field=b, epsilon=0.1, R=5.0, delta_target=0.01)
    w = rescale(inp, center)
    std = Bubble(1.0, np.zeros(3), 3)
    pts = rng.normal(size=(20, 3))
    pts = pts[np.linalg.norm(pts, axis=1) < w.window_radius]
    assert np.max(np.abs(np.asarray(w.value(pts)) - std.value(pts))) < 1e-12


def test_rescale_normalizes_to_one_at_origin(rng):
    f = sum_field(Bubble(0.05, [0.3, 0, 0], 3), BaseField(3))
    inp = BlowupInput(field=f, epsilon=0.1, R=2.0, delta_target=0.01)
    for _ in range(5):
        x = rng.normal(size=3)
        x *= (0.2 + 0.3 * rng.uniform()) / np.linalg.norm(x)
        if d_eps(x, inp.epsilon) <= 0:
            continue
        w = rescale(inp, x)
        assert float(w.value(np.zeros(3))) == pytest.approx(1.0, rel=1e-13)


def test_rescale_preserves_curvature_function(rng):
    f = BaseField(3)  # nonconstant curvature
    inp = BlowupInput(field=f, epsilon=0.1, R=2.0, delta_target=0.01)
    x_c = np.array([0.3, 0.05, -0.1])
    w = rescale(inp, x_c)
    for _ in range(10):
        y = rng.normal(size=3) * 0.2
        if np.linalg.norm(y) > w.window_radius:
            continue
        expected = float(k_function(f, x_c + w.lam * y))
        assert float(k_function(w, y)) == pytest.approx(expected, abs=1e-10)


def test_rescale_window_rule():
    b = Bubble(1e-3, [0.3, 0, 0], 3)
    inp = BlowupInput(field=b, epsilon=0.1, R=5.0, delta_target=0.01)
    w = rescale(inp, np.array([0.3, 0.0, 0.0]))
    assert w.window_radius == pytest.approx(d_eps([0.3, 0, 0], 0.1) / (2 * w.lam))
    ok = np.zeros(3)
    ok[0] = 0.99 * w.window_radius
    w.value(ok)
    with pytest.raises(OutOfDomain):
        w.value(ok * 1.05)


def test_fit_recovers_exact_standard_bubble():
    w = Bubble(1.0, np.zeros(3), 3)
    mu, y, delta = fit_bubble(w, 4.0)
    assert mu == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(y, 0.0, atol=1e-12)
    assert delta <= 1e-8


def test_fit_recovers_shifted_scaled_bubble():
    w = Bubble(2.0, [1.0, 0.0, 0.0], 3)
    mu, y, delta = fit_bubble(w, 4.0)
    assert mu == pytest.approx(2.0, rel=1e-6)
    assert np.allclose(y, [1, 0, 0], atol=1e-6)
    assert delta <= 1e-8


def test_fit_reports_bump_size():
    amp = 0.01
    bump = CallableRadialField(
        3,
        lambda r: amp * np.clip(1 - r * r, 0, None) ** 3,
        lambda r: -6 * amp * r * np.clip(1 - r * r, 0, None) ** 2,
        lambda r: amp * np.where(r < 1, -6 * (1 - r * r) ** 2 + 24 * r * r * (1 - r * r), 0.0),
    )
    w = sum_field(Bubble(1.0, np.zeros(3), 3), bump)
    _, _, delta = fit_bubble(w, 4.0)
    # C^2 size of the bump: |q| + |grad q| + |lap q| peaks around 20 amp
    assert 0.1 * amp <= delta <= 100 * amp


def test_fit_diverges_on_spike():
    # a huge constant drives the scale out of its admissible range
    spike = CallableRadialField(3, lambda r: np.full_like(r, 1e9),
                                lambda r: 0 * r, lambda r: 0 * r)
    with pytest.raises(FitDiverged):
        fit_bubble(spike, 2.0)


def test_detect_recovers_planted_bubble():
    mu = 1e-3
    planted = Bubble(mu, [0.3, 0, 0], 3)
    inp = BlowupInput(field=planted, epsilon=0.1, R=5.0, delta_target=0.01)
    rep = detect(inp)
    assert rep is not None
    assert abs(rep.scale_original - mu) / mu <= 1e-6
    assert np.linalg.norm(rep.center_original - [0.3, 0, 0]) <= 1e-6
    assert rep.delta_measured <= 1e-6


def test_detect_reports_scale_consistency():
    planted = Bubble(1e-3, [0.3, 0, 0], 3)
    inp = BlowupInput(field=planted, epsilon=0.1, R=5.0, delta_target=0.01)
    rep = detect(inp)
    n = 3
    lam_from_max = float(d_eps(rep.x_o, inp.epsilon)) / rep.M_eps ** (2 / (n - 2))
    w = rescale(inp, rep.x_o)
    assert w.lam == pytest.approx(lam_from_max, rel=1e-12)
    assert w.lam < OUTER_RADIUS / rep.M_eps ** (2 / (n - 2))
    assert np.linalg.norm(rep.x_1 - rep.x_o) <= inp.shift_cap * rep.lam


def test_detect_rejects_slow_decay_profile():
    inp = BlowupInput(field=_slow_decay_field(), epsilon=0.1, R=5.0,
                      delta_target=0.01)
    assert detect(inp) is None


def test_detect_two_bubbles_by_excision():
    inp = _two_bubble_input()
    b1, b2 = inp.field.f, inp.field.g
    first = detect(inp)
    assert first is not None
    assert np.linalg.norm(first.center_original - b1.center) <= 1e-4
    second = detect(excise(inp, first))
    assert second is not None
    assert np.linalg.norm(second.center_original - b2.center) <= 1e-4
    assert np.linalg.norm(first.x_o - second.x_o) > 0.1


def test_blowup_input_validation():
    b = Bubble(1.0, np.zeros(3), 3)
    with pytest.raises(ValueError):
        BlowupInput(field=b, epsilon=0.7, R=5.0, delta_target=0.01)
    with pytest.raises(ValueError):
        BlowupInput(field=b, epsilon=0.1, R=-1.0, delta_target=0.01)

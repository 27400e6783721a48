"""Weighted maxima, rescaling and bubble fitting."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
from bubbleforge.blowup import OUTER_RADIUS, _refine_about, d_eps, weighted_u
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


def _dense_grid(inp):
    """The whole coarse grid, in C order."""
    axes = [np.linspace(-OUTER_RADIUS, OUTER_RADIUS, inp.coarse)] * inp.field.n
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _admissible(inp, pts):
    """d_eps > 0 and outside every excluded ball, tested point by point."""
    ok = d_eps(pts, inp.epsilon) > 0
    for c, rad in inp.excluded:
        ok &= np.linalg.norm(pts - c, axis=-1) >= rad
    return ok


def _dense_weighted_max(inp, n_candidates=8):
    """Reference: the whole coarse grid at once, ordered by a stable argsort."""
    n = inp.field.n
    pts = _dense_grid(inp)
    vals = weighted_u(inp, pts)
    cell = np.full(n, 2 * OUTER_RADIUS / (inp.coarse - 1))
    candidates = []
    for idx in np.argsort(-vals, kind="stable"):
        if not np.isfinite(vals[idx]):
            break
        if all(np.linalg.norm(pts[idx] - c) >= 2 * np.linalg.norm(cell)
               for c, _ in candidates):
            candidates.append((pts[idx], float(vals[idx])))
        if len(candidates) >= n_candidates:
            break
    best_x, best = candidates[0]
    for cx, cv in candidates:
        rx, rv = _refine_about(inp, cx, cv, cell)
        if rv > best:
            best_x, best = rx, rv
    return best_x, float(best)


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
    # 49 nodes per axis put nodes at the origin and at radius exactly 5/8
    return replace(_two_bubble_input(), coarse=49)


def _n4_input():
    return BlowupInput(field=Bubble(2e-3, [0.2, -0.1, 0.15, 0.05], 4), epsilon=0.1,
                       R=5.0, delta_target=0.01, coarse=16)


def _node_radius_input():
    # epsilon is exactly the radius of node (21, 23, 23), which is then off the
    # annulus; the radius of its permutation (23, 23, 21) rounds just above
    # epsilon, while its squared radius summed as 23^2 + (23^2 + 21^2) does
    # not exceed epsilon^2, so only the shell's slack keeps that node
    axis = np.linspace(-OUTER_RADIUS, OUTER_RADIUS, 48)
    eps = float(np.sqrt(_sq_dist(axis[[21, 23, 23]])))
    return replace(_two_bubble_input(), epsilon=eps)


@pytest.mark.parametrize("make_input, chunk", [
    (_narrow_bubble_input, blowup._CHUNK),
    (_two_bubble_input, blowup._CHUNK),
    (_two_bubble_input, 500),  # uneven chunks, the last one partial
    (_excised_input, blowup._CHUNK),
    (_excised_input, 500),
    (_constant_input, blowup._CHUNK),
    (_odd_grid_input, blowup._CHUNK),
    (_n4_input, blowup._CHUNK),
    (_n4_input, 500),  # two leading axes per chunk
    (_node_radius_input, blowup._CHUNK),
])
def test_weighted_max_matches_dense_search(make_input, chunk, monkeypatch):
    monkeypatch.setattr(blowup, "_CHUNK", chunk)
    inp = make_input()
    x_o, M = weighted_max(inp)
    ref_x, ref_M = _dense_weighted_max(inp)
    assert np.array_equal(x_o, ref_x)
    assert M == ref_M


@pytest.mark.parametrize("make_input", [
    _two_bubble_input, _excised_input, _odd_grid_input, _n4_input, _node_radius_input,
])
def test_coarse_pass_evaluates_only_admissible_nodes(make_input, monkeypatch):
    inp = make_input()
    grid = _dense_grid(inp)
    d = d_eps(grid, inp.epsilon)
    on_annulus = np.count_nonzero(d > 0)
    on_boundary = np.count_nonzero(np.abs(d) <= 1e-12)
    admissible = np.count_nonzero(_admissible(inp, grid))
    field_points, searched_points = [], []
    value = inp.field._value
    monkeypatch.setattr(inp.field, "_value",
                        lambda pts: field_points.append(len(pts)) or value(pts))
    monkeypatch.setattr(blowup, "weighted_u",
                        lambda inp, x: searched_points.append(len(x)) or weighted_u(inp, x))
    blowup._coarse_top(inp, np.linspace(-OUTER_RADIUS, OUTER_RADIUS, inp.coarse),
                       blowup._KEEP)
    assert sum(field_points) == admissible
    # beyond the annulus the shell admits only nodes on its boundary spheres
    assert on_annulus <= sum(searched_points) <= on_annulus + on_boundary


def test_weighted_max_never_evaluates_the_singularity(monkeypatch):
    # 1/r is infinite at the origin, a node of the 49-node grid
    inv_r = CallableRadialField(3, lambda r: 1 / r, lambda r: -1 / r**2,
                                lambda r: 2 / r**3)
    inp = BlowupInput(field=inv_r, epsilon=0.1, R=5.0, delta_target=0.01, coarse=49)
    radii = []
    value = inv_r._value
    monkeypatch.setattr(inv_r, "_value",
                        lambda pts: radii.append(np.sqrt(_sq_dist(pts))) or value(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_o, M = weighted_max(inp)
    assert np.concatenate(radii).min() > inp.epsilon
    ref_x, ref_M = _dense_weighted_max(inp)
    assert np.array_equal(x_o, ref_x)
    assert M == ref_M


def test_weighted_u_rejects_every_inadmissible_point():
    inp = _excised_input()
    pts = _dense_grid(replace(inp, coarse=24))
    ok = _admissible(inp, pts)
    vals = weighted_u(inp, pts)
    assert np.all(np.isfinite(vals[ok]))
    assert np.all(vals[~ok] == -np.inf)
    assert float(weighted_u(inp, np.zeros(3))) == -np.inf


def test_weighted_max_rescans_when_kept_entries_run_out(monkeypatch):
    # the constant field's top values tie in symmetric groups; four kept
    # entries cannot yield eight separated candidates, so the grid is rescanned
    inp = _constant_input()
    scans = []
    top = blowup._coarse_top

    def counted_top(inp, axis, keep):
        scans.append(keep)
        return top(inp, axis, keep)

    monkeypatch.setattr(blowup, "_KEEP", 4)
    monkeypatch.setattr(blowup, "_coarse_top", counted_top)
    x_o, M = weighted_max(inp)
    assert scans[0] == 4 and len(scans) > 1
    ref_x, ref_M = _dense_weighted_max(inp)
    assert np.array_equal(x_o, ref_x)
    assert M == ref_M


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
    """Reference: each local 17^n grid built whole and maximized by np.argmax."""
    best_x, best = start_x, start_v
    step = cell.copy()
    for _ in range(inp.refine_passes):
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


@pytest.mark.parametrize("make_input", [
    _narrow_bubble_input, _two_bubble_input, _excised_input,
    _constant_input,  # ties: the first maximum in C order wins
    _nan_shell_input,  # the first NaN wins, and then nothing is taken
])
def test_refine_about_matches_dense_refine(make_input, monkeypatch):
    # 100-point chunks hold five 17-node rows each, so the last of the
    # chunks over the 289 rows of a 17^3 grid is partial
    monkeypatch.setattr(blowup, "_REFINE_CHUNK", 100)
    inp = make_input()
    cell = np.full(3, 2 * OUTER_RADIUS / (inp.coarse - 1))
    for x in ([0.3, 0.0, 0.0], [0.0, 0.45, 0.0], [0.2, -0.2, 0.1], [-0.3, 0.05, 0.0]):
        x = np.asarray(x)
        for v in (float(weighted_u(inp, x)), -np.inf):
            got_x, got_v = _refine_about(inp, x, v, cell)
            ref_x, ref_v = _dense_refine_about(inp, x, v, cell)
            assert np.array_equal(got_x, ref_x)
            assert got_v == ref_v or (np.isnan(got_v) and np.isnan(ref_v))


def test_refine_about_memory_is_bounded_at_n5():
    # the dense 17^5 grid of one pass took ~370 MB
    x = np.array([0.3, 0.0, 0.0, 0.0, 0.0])
    inp = BlowupInput(field=Bubble(1e-3, x, 5), epsilon=0.1, R=5.0, delta_target=0.01)
    cell = np.full(5, 2 * OUTER_RADIUS / (inp.coarse - 1))
    tracemalloc.start()
    try:
        _refine_about(inp, x + cell / 3, float(weighted_u(inp, x + cell / 3)), cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


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
    x_o, M = weighted_max(inp)
    mid = (eps + OUTER_RADIUS) / 2
    assert np.linalg.norm(x_o) == pytest.approx(mid, abs=5e-4)
    assert M == pytest.approx(((OUTER_RADIUS - eps) / 2) ** 0.5 * 2.0, rel=1e-4)


def test_weighted_max_finds_narrow_bubble():
    planted = Bubble(1e-3, [0.3, 0, 0], 3)
    inp = BlowupInput(field=planted, epsilon=0.1, R=5.0, delta_target=0.01)
    x_o, _ = weighted_max(inp)
    cell = 2 * OUTER_RADIUS / (inp.coarse - 1)
    assert np.linalg.norm(x_o - [0.3, 0, 0]) <= 2 * cell


def test_weighted_max_scales_linearly_in_field():
    b = Bubble(1e-3, [0.3, 0, 0], 3)
    inp1 = BlowupInput(field=b, epsilon=0.1, R=5.0, delta_target=0.01)
    inp2 = BlowupInput(field=sum_field(b, b), epsilon=0.1, R=5.0, delta_target=0.01)
    _, m1 = weighted_max(inp1)
    _, m2 = weighted_max(inp2)
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
    for coarse in (1, 0):
        with pytest.raises(ValueError, match="coarse"):
            BlowupInput(field=b, epsilon=0.1, R=5.0, delta_target=0.01,
                        coarse=coarse)
    with pytest.raises(ValueError, match="refine_passes"):
        BlowupInput(field=b, epsilon=0.1, R=5.0, delta_target=0.01,
                    refine_passes=-1)

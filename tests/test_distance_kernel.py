"""The row-wise distance kernel and the evaluations routed through it.

_sq_dist and _row_dot take points as coordinate rows (n, ...), the
transpose of an (..., n) batch; numpy's reductions below take the batch.
"""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bubbleforge import (
    Annulus,
    Ball,
    BlowupInput,
    Box,
    Bubble,
    Kernel,
    h_eval,
    inv_root_grad_sq,
    k_function,
    sum_field,
)
from bubbleforge.blowup import weighted_u
from bubbleforge.field_core import _row_dot, _sq_dist
from bubbleforge.potential import grad_h
from test_field_protocol import FIELDS

# m 2^e: random mantissas (signed zeros included) over a narrow band of
# exponents, where the order of the additions shows in the rounding, and a
# wide one; squares stay finite in sums of up to ten terms
wide = st.builds(lambda m, e: m * 2.0**e, st.floats(min_value=-2.0, max_value=2.0),
                 st.integers(-8, 8) | st.integers(-500, 490))


@st.composite
def batches(draw, n_min, n_max):
    """Points of shape (n,), (0, n) or (m, n), and a centre (n,) or None."""
    n = draw(st.integers(n_min, n_max))
    shape = draw(st.sampled_from([(n,), (0, n), (draw(st.integers(1, 6)), n)]))
    pts = draw(hnp.arrays(np.float64, shape, elements=wide))
    c = draw(st.none() | hnp.arrays(np.float64, (n,), elements=wide))
    return pts, c


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and \
        got.tobytes() == want.tobytes()


@given(batches(3, 7))
def test_sq_dist_is_numpy_sum_bit_for_bit(batch):
    pts, c = batch
    d = pts if c is None else pts - c
    assert _same_bits(_sq_dist(pts.T, c), np.sum(d * d, axis=-1))
    assert _same_bits(np.sqrt(_sq_dist(pts.T, c)), np.linalg.norm(d, axis=-1))


@given(batches(3, 7), st.data())
def test_row_dot_is_numpy_sum_bit_for_bit(batch, data):
    a, _ = batch
    b = data.draw(hnp.arrays(np.float64, a.shape, elements=wide))
    # signed zeros included: a row of -0.0 products sums to +0.0 in both
    assert _same_bits(_row_dot(a.T, b.T), np.sum(a * b, axis=-1))


@pytest.mark.parametrize("n", range(3, 8))
def test_kernel_is_numpy_sum_bit_for_bit_on_random_rows(n, rng):
    # hypothesis favours simple floats, whose sums rarely depend on the order
    a, b, c = rng.uniform(-1, 1, (3, 100_000, n)) * 2.0 ** rng.integers(-30, 30, (3, 1, n))
    d = a - c[0]
    # contiguous rows, as the package passes them, and the strided transpose
    for rows in (np.ascontiguousarray(a.T), a.T):
        assert _same_bits(_sq_dist(rows, c[0]), np.sum(d * d, axis=-1))
        assert _same_bits(np.sqrt(_sq_dist(rows)), np.linalg.norm(a, axis=-1))
    assert _same_bits(_row_dot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)),
                      np.sum(a * b, axis=-1))


@given(batches(8, 10))
def test_sq_dist_differs_by_rounding_only_from_n_8(batch):
    pts, c = batch
    d = pts if c is None else pts - c
    want = np.sum(d * d, axis=-1)
    assert np.all(np.abs(_sq_dist(pts.T, c) - want) <= 1e-15 * want)
    r = np.linalg.norm(d, axis=-1)
    assert np.all(np.abs(np.sqrt(_sq_dist(pts.T, c)) - r) <= 1e-15 * r)


# --- every evaluation equals the one through numpy's reductions -----------------


def _batch(rows):
    """Coordinate rows (n, ...) as the (..., n) batch numpy reduces."""
    return np.moveaxis(np.asarray(rows), 0, -1)


def _numpy_sq_dist(X, c=None):
    d = _batch(X) if c is None else _batch(X) - _batch(c)
    return np.sum(d * d, axis=-1)


def _numpy_row_dot(a, b):
    return np.sum(_batch(a) * _batch(b), axis=-1)


def _both_ways(monkeypatch, fn):
    """fn() through the kernel, and again with numpy's reductions patched in."""
    got = fn()
    with monkeypatch.context() as m:
        for name, mod in list(sys.modules.items()):
            if name.startswith("bubbleforge."):
                if hasattr(mod, "_sq_dist"):
                    m.setattr(mod, "_sq_dist", _numpy_sq_dist)
                if hasattr(mod, "_row_dot"):
                    m.setattr(mod, "_row_dot", _numpy_row_dot)
        want = fn()
    return got, want


def _points(rng, n, half, m=2000):
    pts = rng.uniform(-half, half, size=(m, n))
    # on-axis points and signed zeros reach the r == 0 branches
    pts[:n] *= np.eye(n)
    pts[n] = 0.0
    pts[n + 1] = -0.0
    return pts


@pytest.mark.parametrize("make", FIELDS.values(), ids=FIELDS.keys())
def test_fields_match_numpy_reductions(make, rng, monkeypatch):
    f, half = make()
    pts = _points(rng, f.n, half)
    ops = (f.value, f.gradient, f.laplacian,
           lambda x: k_function(f, x), lambda x: inv_root_grad_sq(f, x))
    for op in ops:
        got, want = _both_ways(monkeypatch, lambda: op(pts))
        assert _same_bits(got, want)
        # the single-point path too
        got, want = _both_ways(monkeypatch, lambda: op(pts[0]))
        assert _same_bits(got, want)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_kernel_and_regions_match_numpy_reductions(n, rng, monkeypatch):
    pts = _points(rng, n, 2.0)
    xi = rng.uniform(-0.5, 0.5, size=n) + 0.01
    k = Kernel(n)
    for op in (lambda: h_eval(k, pts, xi), lambda: grad_h(k, pts, xi),
               lambda: h_eval(k, pts[0], xi), lambda: grad_h(k, pts[0], xi)):
        assert _same_bits(*_both_ways(monkeypatch, op))

    c = rng.uniform(-0.5, 0.5, size=n)
    ball, annulus = Ball(c, 1.3), Annulus(c, 0.4, 1.3)
    box = Box(c - 1.0, c + np.linspace(0.5, 1.5, n))
    for region in (ball, annulus, box):
        assert _same_bits(*_both_ways(monkeypatch, lambda: region.contains(pts)))
    r = np.linalg.norm(pts - c, axis=-1)
    assert _same_bits(ball.contains(pts), r < 1.3)
    assert _same_bits(annulus.contains(pts), (r > 0.4) & (r < 1.3))
    assert _same_bits(box.contains(pts),
                      np.all((pts >= box.lo) & (pts <= box.hi), axis=-1))
    assert _same_bits(box.contains(pts[0]),
                      np.all((pts[0] >= box.lo) & (pts[0] <= box.hi), axis=-1))


@pytest.mark.parametrize("n", [3, 4])
def test_weighted_u_matches_numpy_reductions(n, rng, monkeypatch):
    b1 = Bubble(1e-2, np.r_[0.3, np.zeros(n - 1)], n)
    b2 = Bubble(2e-2, np.r_[0.0, 0.45, np.zeros(n - 2)], n)
    inp = BlowupInput(field=sum_field(b1, b2), epsilon=0.1, R=5.0, delta_target=0.2,
                      excluded=((b1.center, 0.05),))
    pts = _points(rng, n, 0.625)
    assert _same_bits(*_both_ways(monkeypatch, lambda: weighted_u(inp, pts)))

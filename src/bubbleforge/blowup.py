"""Distance-weighted maxima, rescaling and bubble fitting on an annulus.

A near-singular field on the punctured ball B(0, 5/8) is probed by
maximizing U(x) = d(x)^((n-2)/2) u(x) with d(x) = min(|x| - eps, 5/8 - |x|),
rescaling about the maximizer so the profile is normalized to one at the
origin, and least-squares fitting a bubble to the rescaled profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FitDiverged, OutOfDomain
from .field_core import Bubble, ScalarField, _sq_dist
from .potential import sphere_rule

OUTER_RADIUS = 5.0 / 8.0
_CHUNK = 1 << 17  # coarse grid points scanned at a time
# refine grid points evaluated at a time: with a whole 17^4 grid in one
# chunk, its temporaries came near glibc's dynamic trim threshold, and in
# some heap states their memory was returned and faulted in again on every
# grid (about 30k extra page faults per `blowup --n 4`)
_REFINE_CHUNK = 1 << 14
_KEEP = 1 << 14  # leading coarse entries kept for the candidate search
_SHELL_SLACK = 1e-12  # relative widening of the coarse annulus mask


@dataclass(frozen=True)
class BlowupInput:
    """Field on the punctured ball plus probe parameters.

    epsilon is the inner exclusion radius, R the zoom window for the fit,
    delta_target the acceptance threshold on the measured C^2 deviation.
    excluded lists (center, radius) balls masked out of the maximization,
    which lets callers excise an already-detected bubble and rerun.
    """

    field: ScalarField
    epsilon: float
    R: float
    delta_target: float
    excluded: tuple = ()
    coarse: int = 48
    refine_passes: int = 3
    shift_cap: float = 5.0

    def __post_init__(self):
        if not 0 < self.epsilon < OUTER_RADIUS:
            raise ValueError("need 0 < epsilon < 5/8")
        if self.R <= 0 or self.delta_target <= 0:
            raise ValueError("R and delta_target must be positive")
        if self.coarse < 2:
            raise ValueError("coarse needs at least 2 nodes per axis")
        if self.refine_passes < 0:
            raise ValueError("refine_passes must be nonnegative")


@dataclass(frozen=True)
class BubbleReport:
    """Outcome of a detection: maximizer, scales, fitted bubble, deviation."""

    x_o: np.ndarray
    M_eps: float
    lam: float
    x_1: np.ndarray
    mu: float
    y_o: np.ndarray
    delta_measured: float

    @property
    def scale_original(self) -> float:
        """Fitted bubble scale in the un-rescaled coordinates."""
        return self.lam * self.mu

    @property
    def center_original(self) -> np.ndarray:
        """Fitted bubble center in the un-rescaled coordinates."""
        return self.x_1 + self.lam * self.y_o


def d_eps(x, epsilon: float):
    """Distance weight min(|x| - eps, 5/8 - |x|) on the probe annulus."""
    r = np.sqrt(_sq_dist(np.asarray(x, float)))
    return np.minimum(r - epsilon, OUTER_RADIUS - r)


def weighted_u(inp: BlowupInput, x):
    """d_eps^((n-2)/2) u on the annulus; -inf off it and inside excluded balls.

    The field is evaluated only at the admissible points, those with
    d_eps > 0 outside every excluded ball.
    """
    x = np.asarray(x, float)
    d = d_eps(x, inp.epsilon)
    ok = d > 0.0
    for c, rad in inp.excluded:
        ok &= np.sqrt(_sq_dist(x, np.asarray(c, float))) >= rad
    q = (inp.field.n - 2) / 2
    if ok.all():
        # in place: every chunk-sized temporary is heap churn that the
        # allocator may return to the system and fault in again
        d **= q
        d *= inp.field.value(x)
        return d
    vals = np.full(d.shape, -np.inf)
    if ok.any():
        vals[ok] = d[ok] ** q * inp.field.value(x[ok])
    return vals


def _refine_about(inp: BlowupInput, start_x: np.ndarray, start_v: float,
                  cell: np.ndarray):
    best_x, best = start_x, start_v
    step = cell.copy()
    for _ in range(inp.refine_passes):
        axes = [np.linspace(a, b, 17) for a, b in zip(best_x - step, best_x + step)]
        sub_x, sub_v = _grid_argmax(inp, axes)
        if sub_v > best:
            best_x, best = sub_x, sub_v
        step = step / 8.0
    return best_x, float(best)


def _grid_argmax(inp: BlowupInput, axes):
    """The node and value np.argmax picks from weighted_u over the grid of axes.

    The grid is streamed through _grid_chunks; as np.argmax over the whole
    grid would, the first maximum in C order wins, and the first NaN if
    there is one.
    """
    best_x = best = None
    for _, _, pts in _grid_chunks(axes, _REFINE_CHUNK):
        v = weighted_u(inp, pts)
        j = int(np.argmax(v))
        if best_x is None or v[j] > best or (np.isnan(v[j]) and not np.isnan(best)):
            best_x, best = pts[j].copy(), v[j]
    return best_x, best


def _grid_chunks(axes, limit, shell=None):
    """Yield (first flat index, sel, points) over the grid of the 1D axes in C order.

    The last t < n axes, with at most `limit` nodes together, form a fixed
    tail block, and each chunk holds as many whole tail blocks as fit in
    `limit` nodes, at least one.  The points are a view of one reused
    buffer, so they are overwritten by the next chunk.  Without a shell,
    sel is None and the points are the whole chunk.  With shell = (lo, hi),
    the points are only the chunk's nodes whose squared radius lies
    strictly between lo and hi, written coordinate by coordinate (the view
    is a transpose), and sel holds their increasing offsets from the first
    flat index; chunks without such nodes are skipped.  That radius is
    summed separably, the tail block's part once plus each row's leading
    part, so it may differ by rounding from the radius of the points
    themselves.
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
    if shell is None:
        buf = np.empty((rows * block, n))
        buf[:, n - t:] = np.tile(tail, rows).T
    else:
        tail_r2 = _sq_dist(tail.T)
        tail = np.tile(tail, rows)
        buf = np.empty((n, rows * block))
    for start in range(0, n_lead, rows):
        stop = min(start + rows, n_lead)
        m = (stop - start) * block
        lead_x = [axes[j][i] for j, i in
                  enumerate(np.unravel_index(np.arange(start, stop), lead))]
        if shell is None:
            for j, x in enumerate(lead_x):
                buf[:m, j] = np.repeat(x, block)
            yield start * block, None, buf[:m]
            continue
        r2 = np.add.outer(_sq_dist(np.stack(lead_x, axis=-1)), tail_r2)
        inside = (r2 > shell[0]) & (r2 < shell[1])
        counts = np.count_nonzero(inside, axis=1)
        if counts.any():
            inside = inside.ravel()
            pts = buf[:, :int(counts.sum())]
            for j, x in enumerate(lead_x):
                pts[j] = np.repeat(x, counts)
            for j, col in enumerate(tail, n - t):
                pts[j] = col[:m][inside]
            yield start * block, np.flatnonzero(inside), pts.T


def _coarse_top(inp: BlowupInput, axis: np.ndarray, keep: int):
    """The first `keep` finite coarse values in the order (-value, flat index).

    Returns those values and their flat grid indices, in that order; fewer
    than `keep` means every finite value is there.  Only the nodes of a
    shell slightly wider than the annulus eps < |x| < 5/8 are handed to
    weighted_u, which rejects the others in the shell exactly, so the nodes
    off the annulus, finite nowhere, are never evaluated.  Kept entries
    stay in flat-index order until the final sort, so the ties at the cut
    keep their smallest indices.
    """
    # a relative slack far above the rounding of the separable radii keeps
    # every admissible node inside the shell
    shell = (inp.epsilon**2 * (1.0 - _SHELL_SLACK),
             OUTER_RADIUS**2 * (1.0 + _SHELL_SLACK))
    vals, idx = np.empty(0), np.empty(0, dtype=np.intp)
    for first, sel, pts in _grid_chunks([axis] * inp.field.n, _CHUNK, shell):
        v = weighted_u(inp, pts)
        if np.any(v == np.inf):
            raise OutOfDomain("weighted field is infinite at a coarse node")
        new = np.isfinite(v)
        if vals.size == keep:
            # a later index ties below every kept entry of equal value
            new &= v > vals.min()
        new = np.flatnonzero(new)
        vals = np.concatenate([vals, v[new]])
        idx = np.concatenate([idx, first + sel[new]])
        if vals.size > keep:
            kth = np.partition(vals, vals.size - keep)[vals.size - keep]
            top = vals > kth
            top[np.flatnonzero(vals == kth)[: keep - np.count_nonzero(top)]] = True
            vals, idx = vals[top], idx[top]
    order = np.lexsort((idx, -vals))
    return vals[order], idx[order]


def weighted_max(inp: BlowupInput, n_candidates: int = 8):
    """Maximize the weighted field over the annulus by grid plus refinement.

    The coarse grid (inp.coarse nodes per axis over the cube [-5/8, 5/8]^n)
    is scanned in chunks of about _CHUNK points, each masked by radius
    before the field is touched, so the field is evaluated only at the
    admissible nodes, which lie on the annulus: its time grows with their
    number, a shrinking share of coarse^n as n grows.  Only the _KEEP
    largest finite values are kept with their flat grid indices, so memory
    does not grow with coarse^n.  Those are ordered by decreasing value,
    ties toward the smallest flat index, which is a prefix of the order of
    the whole grid.  Narrow peaks can fall between coarse nodes, so the first
    n_candidates nodes along that order that lie at least two cell
    diagonals from every earlier candidate are each refined locally, and
    the best refined value wins.  If the kept prefix runs out before
    n_candidates are found while finite values remain outside it, the grid
    is rescanned keeping eight times as many, so the result is exact in
    every case.  The whole search is deterministic.

    Raises OutOfDomain when no coarse node is admissible (every node lies
    off the annulus or inside an excluded ball) or when the weighted field
    is infinite at a node.
    """
    n = inp.field.n
    axis = np.linspace(-OUTER_RADIUS, OUTER_RADIUS, inp.coarse)
    cell = np.full(n, 2 * OUTER_RADIUS / (inp.coarse - 1))
    min_sep = 2.0 * float(np.linalg.norm(cell))
    keep = _KEEP
    while True:
        vals, idx = _coarse_top(inp, axis, keep)
        pts = axis[np.stack(np.unravel_index(idx, (inp.coarse,) * n), axis=-1)]
        candidates = []
        for x, v in zip(pts, vals):
            if all(np.linalg.norm(x - c) >= min_sep for c, _ in candidates):
                candidates.append((x, float(v)))
            if len(candidates) >= n_candidates:
                break
        if len(candidates) >= n_candidates or vals.size < keep:
            break
        keep *= 8
    if not candidates:
        raise OutOfDomain("no admissible coarse node: every node lies off "
                          "the annulus or inside an excluded ball")
    best_x, best = candidates[0]
    for cx, cv in candidates:
        rx, rv = _refine_about(inp, cx, cv, cell)
        if rv > best:
            best_x, best = rx, rv
    return best_x, float(best)


class RescaledField(ScalarField):
    """w(y) = lam^((n-2)/2) u(x_center + lam y), normalized to w(0) = 1.

    Evaluation is clipped to the window |y| <= window_radius so the source
    is never sampled past half its distance to the annulus boundary.
    """

    def __init__(self, src: ScalarField, x_center, lam: float, window_radius: float):
        self.n = src.n
        self.src = src
        self.x_center = np.asarray(x_center, float)
        self.lam = float(lam)
        self.window_radius = float(window_radius)
        self.radial = False
        self.fd_scale = 1.0

    def _to_source(self, y):
        if np.any(np.sqrt(_sq_dist(y)) > self.window_radius):
            raise OutOfDomain("rescaled evaluation outside the safe window")
        return self.x_center + self.lam * y

    def _value(self, y):
        return self.lam ** ((self.n - 2) / 2) * self.src._value(self._to_source(y))

    def _jet(self, y, grad):
        u, g, lap = self.src._jet(self._to_source(y), grad)
        return (self.lam ** ((self.n - 2) / 2) * u,
                self.lam ** (self.n / 2) * g if grad else None,
                self.lam ** ((self.n + 2) / 2) * lap)


def rescale(inp: BlowupInput, x_center) -> RescaledField:
    """Normalize and spread the field about x_center."""
    x_center = np.asarray(x_center, float)
    d = float(d_eps(x_center, inp.epsilon))
    if d <= 0.0:
        raise OutOfDomain("center must lie inside the probe annulus")
    n = inp.field.n
    lam = float(inp.field.value(x_center)) ** (-2.0 / (n - 2))
    return RescaledField(inp.field, x_center, lam, window_radius=d / (2.0 * lam))


MU_RANGE = (1e-6, 1e6)


def _fit_samples(n: int, R: float) -> np.ndarray:
    dirs, _ = sphere_rule(n, 4)
    radii = np.linspace(0.0, R, 9)[1:]
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    return np.vstack([np.zeros((1, n)), pts])


def _model(pts: np.ndarray, mu: float, y: np.ndarray, n: int):
    d = pts - y
    s2 = _sq_dist(d)
    q = (n - 2) / 2
    base = mu / (mu * mu + s2)
    u = base**q
    # partials of u wrt log(mu) and the center coordinates
    dlogmu = q * u * (s2 - mu * mu) / (mu * mu + s2)
    dy = (2.0 * q) * (u / (mu * mu + s2))[:, None] * d
    return u, dlogmu, dy


def fit_bubble(w: ScalarField, R: float, max_iter: int = 100):
    """Least-squares bubble fit (mu, y_o) to w on B(0, R), plus C^2 deviation.

    Gauss-Newton on (log mu, y_o) from the normalized start (1, 0), with
    closed-form model derivatives.  Raises FitDiverged if the scale leaves
    [1e-6, 1e6].  The deviation is the max over samples of
    |value diff| + |gradient diff| + |Laplacian diff|.
    """
    n = w.n
    pts = _fit_samples(n, R)
    target = np.asarray(w.value(pts))
    theta = np.zeros(n + 1)  # (log mu, y)
    for _ in range(max_iter):
        mu = float(np.exp(theta[0]))
        if not MU_RANGE[0] <= mu <= MU_RANGE[1]:
            raise FitDiverged(f"scale left the admissible range: mu={mu:g}")
        u, dlogmu, dy = _model(pts, mu, theta[1:], n)
        r = target - u
        jac = np.column_stack([dlogmu, dy])
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        theta = theta + step
        if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(theta)):
            break
    mu = float(np.exp(theta[0]))
    if not MU_RANGE[0] <= mu <= MU_RANGE[1]:
        raise FitDiverged(f"scale left the admissible range: mu={mu:g}")
    y_o = theta[1:].copy()
    fitted = Bubble(mu, y_o, n)
    delta = _c2_deviation(w, fitted, pts)
    return mu, y_o, delta


def _c2_deviation(w: ScalarField, model: ScalarField, pts: np.ndarray) -> float:
    uw, gw, lw = w._jet(pts, True)
    um, gm, lm = model._jet(pts, True)
    dval = np.abs(uw - um)
    dgrad = np.sqrt(_sq_dist(gw.T, gm.T))
    dlap = np.abs(lw - lm)
    return float(np.max(dval + dgrad + dlap))


def detect(inp: BlowupInput) -> BubbleReport | None:
    """Locate, rescale and fit one bubble; None when no fit meets the target.

    The fitted center may shift the expansion point within shift_cap * lam
    of the maximizer when that improves the measured deviation.
    """
    x_o, M_eps = weighted_max(inp)
    w0 = rescale(inp, x_o)
    r_fit = min(inp.R, 0.97 * w0.window_radius)
    mu0, y0, delta0 = fit_bubble(w0, r_fit)

    best = (x_o, w0.lam, mu0, y0, delta0)
    shift = w0.lam * y0
    cap = inp.shift_cap * w0.lam
    if 0 < np.linalg.norm(shift) and np.linalg.norm(shift) <= cap:
        x_1 = x_o + shift
        if d_eps(x_1, inp.epsilon) > 0:
            w1 = rescale(inp, x_1)
            try:
                mu1, y1, delta1 = fit_bubble(w1, min(inp.R, 0.97 * w1.window_radius))
                if delta1 < delta0:
                    best = (x_1, w1.lam, mu1, y1, delta1)
            except FitDiverged:
                pass

    x_1, lam, mu, y_o, delta = best
    if delta >= inp.delta_target:
        return None
    return BubbleReport(x_o=x_o, M_eps=M_eps, lam=lam, x_1=x_1, mu=mu,
                        y_o=y_o, delta_measured=delta)


def excise(inp: BlowupInput, report: BubbleReport) -> BlowupInput:
    """Mask the detected bubble's window out of the next maximization."""
    ball = (report.x_1, report.lam * inp.R)
    return replace(inp, excluded=tuple(inp.excluded) + (ball,))

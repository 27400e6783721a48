"""Distance-weighted maxima, rescaling and bubble fitting on an annulus.

A near-singular field on the punctured ball B(0, 5/8) is probed by
maximizing U(x) = d(x)^((n-2)/2) u(x) with d(x) = min(|x| - eps, 5/8 - |x|),
rescaling about the maximizer so the profile is normalized to one at the
origin, and least-squares fitting a bubble to the rescaled profile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitDiverged, OutOfDomain
from .field_core import Bubble, ScalarField, _down, _point, _pointwise, _sq_dist, _up
from .potential import sphere_rule

OUTER_RADIUS = 5.0 / 8.0
_CELL = 2 * OUTER_RADIUS / 47  # the polish's largest first step: a cell of a 48-node axis
_MIN_STEP = 1.0 / 2048  # the compass search stops below this share of its first step
_GAP = 1e-3  # the branch-and-bound ends once no box may beat its best value by this share
# weighted evaluations the branch-and-bound may spend; `blowup --n 3/4/5` needs
# 345, 1,227 and 3,305, a bubble centred at the origin more than 260k
_BUDGET = 1 << 16
_FIT_ITERS = 100  # Gauss-Newton steps of fit_bubble at most


@dataclass(frozen=True)
class BlowupInput:
    """Field on the punctured ball plus probe parameters.

    epsilon is the inner exclusion radius, R the zoom window for the fit,
    delta_target the acceptance threshold on the measured C^2 deviation.
    excluded lists (center, radius) balls masked out of the maximization,
    which lets callers excise an already-detected bubble and rerun; each
    center is a point of the field's R^n.
    """

    field: ScalarField
    epsilon: float
    R: float
    delta_target: float
    excluded: tuple = ()
    shift_cap = 5.0  # a class constant, not a field: detect's cap on its shift, in scales lam

    def __post_init__(self):
        if not 0 < self.epsilon < OUTER_RADIUS:
            raise ValueError("need 0 < epsilon < 5/8")
        if not (self.R > 0 and self.delta_target > 0):  # NaN fails too
            raise ValueError("R and delta_target must be positive")
        object.__setattr__(self, "excluded",
                           tuple((_point(c, self.field.n), rad) for c, rad in self.excluded))


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
    M_upper: float | None = None  # certified bound on the maximum; None if it is infinite

    @property
    def scale_original(self) -> float:
        """Fitted bubble scale in the un-rescaled coordinates."""
        return self.lam * self.mu

    @property
    def center_original(self) -> np.ndarray:
        """Fitted bubble center in the un-rescaled coordinates."""
        return self.x_1 + self.lam * self.y_o


def d_eps(x, epsilon: float):
    """Distance weight min(|x| - eps, 5/8 - |x|) on the probe annulus, at points of any R^n."""
    return _pointwise(lambda X: _d_eps_rows(X, epsilon), x, np.ndim(x) and np.shape(x)[-1])


def _d_eps_rows(X, epsilon: float):
    r = np.sqrt(_sq_dist(X))
    return np.minimum(r - epsilon, OUTER_RADIUS - r)


def weighted_u(inp: BlowupInput, x):
    """d_eps^((n-2)/2) u on the annulus; -inf off it and inside excluded balls.

    The field is evaluated only at the admissible points, those with
    d_eps > 0 outside every excluded ball.
    """
    return _pointwise(lambda X: _weighted_rows(inp, X), x, inp.field.n)


def _weighted_rows(inp: BlowupInput, X):
    """weighted_u at the points of a column batch X (n, m)."""
    d = _d_eps_rows(X, inp.epsilon)
    ok = d > 0.0
    for c, rad in inp.excluded:
        ok &= np.sqrt(_sq_dist(X, c)) >= rad
    q = (inp.field.n - 2) / 2
    if ok.all():
        # in place: every chunk-sized temporary is heap churn that the
        # allocator may return to the system and fault in again
        d **= q
        d *= inp.field._jet(X, False, False)[0]
        return d
    vals = np.full(d.shape, -np.inf)
    if ok.any():
        vals[ok] = d[ok] ** q * inp.field._jet(X[:, ok], False, False)[0]
    return vals


def _compass_search(inp: BlowupInput, xs: np.ndarray, vs: np.ndarray,
                    cell: np.ndarray):
    """Compass search on weighted_u from every row of xs; (points, values).

    Each start polls x +- h cell_i e_i, i = 1..n, from h = 1, and last its
    radial projection onto the sphere |x| = (eps + 5/8) / 2, where d_eps has
    its kink: axis steps stall short of that ridge, on which the maximum of
    a field that peaks nowhere inside the annulus lies.  A start moves to
    its best poll point only if that is strictly higher (ties to the first,
    a NaN never), and else halves h, down to h < _MIN_STEP.  Every live
    start's polls go to one weighted_u call per iteration; each path is the
    one that start takes alone.  (Hooke & Jeeves, J. ACM 8, 1961; Kolda,
    Lewis & Torczon, SIAM Review 45, 2003.)  Raises OutOfDomain on an
    infinite poll value.
    """
    x, v, h = xs.astype(float), vs.astype(float), np.ones(len(xs))
    moves = np.vstack([np.diag(cell), -np.diag(cell)])  # +e_1, .., +e_n, -e_1, ..
    ridge = (inp.epsilon + OUTER_RADIUS) / 2
    live = np.arange(len(x))
    while live.size:
        xl = x[live, None, :]
        r = ridge / np.sqrt(_sq_dist(x[live].T))
        polls = np.concatenate([xl + h[live, None, None] * moves, xl * r[:, None, None]], axis=1)
        pv = weighted_u(inp, polls.reshape(-1, x.shape[1])).reshape(polls.shape[:2])
        if np.any(pv == np.inf):
            raise OutOfDomain("weighted field is infinite at a poll point")
        pv[np.isnan(pv)] = -np.inf
        j, best = pv.argmax(axis=1), pv.max(axis=1)
        up = best > v[live]
        x[live[up]] = polls[up, j[up]]
        v[live[up]] = best[up]
        h[live[~up]] /= 2.0
        live = live[h[live] >= _MIN_STEP]
    return x, v


def _norm_upper(rows, n: int):
    """Upper bounds on the float norm of the points whose coordinates are
    at most rows (n, k) in absolute value."""
    return _up(np.sqrt(_up(_sq_dist(rows), n + 1)))


def _weighted_upper(inp: BlowupInput, lo, hi):
    """Upper bounds (k,) of weighted_u on the boxes [lo, hi] (k, n).

    A bound is -inf, and its box dropped, when the box lies off the annulus
    or wholly inside an excluded ball, so that no point of it is admissible;
    it is +inf on every other box when the field has no enclosure.  d_eps
    is bounded from the box's range of |x|, and every step is rounded
    outward, so a bound holds for the exact value and for weighted_u's.
    """
    n = inp.field.n
    near = _sq_dist(np.maximum(np.maximum(lo, -hi), 0.0).T)
    r_lo = _down(np.sqrt(np.maximum(_down(near, n + 1), 0.0)))
    r_hi = _norm_upper(np.maximum(np.abs(lo), np.abs(hi)).T, n)
    d = np.minimum(_up(r_hi - inp.epsilon), _up(OUTER_RADIUS - r_lo))
    ok = d > 0.0
    for c, rad in inp.excluded:
        ok &= _norm_upper(np.maximum(np.abs(lo - c), np.abs(hi - c)).T, n) >= rad
    u = inp.field._box_upper(lo, hi)
    out = np.full(len(lo), -np.inf)
    out[ok] = np.inf if u is None else _up(_up(d[ok] ** ((n - 2) / 2), 2) * u[ok])
    return out


def _branch_and_bound(inp: BlowupInput):
    """Best box centre of weighted_u by interval branch-and-bound.

    Starts from the cube [-5/8, 5/8]^n and goes level by level, with one
    _weighted_upper and one _weighted_rows call each: a freshly bounded box
    is cut off before its centre is evaluated when its bound is -inf or at
    most best (1 + _GAP), the centres of the others are evaluated, the
    cut-off test runs again with the new best, and each box left is
    bisected along its longest edge (the first such axis) and each half
    along its own, into four boxes; into two when four times the boxes
    would take the next level past _BUDGET evaluations.  (Piyavskii, USSR
    Comput. Math. 12, 1972; Moore, Kearfott & Cloud, Introduction to
    Interval Analysis, SIAM 2009; Csallner, Csendes & Markot, J. Global
    Optim. 16, 2000.)  It ends when no box is left, or before a level
    would take it past _BUDGET evaluations; a field without an enclosure
    prunes nothing and so splits until then.

    Returns (x, value, box, upper): the best centre, its value and the edge
    lengths of its box, and a bound on weighted_u over the annulus (the
    largest bound of a pruned box or of a box left, +inf without an
    enclosure), which is at most value (1 + _GAP) when no box is left.
    Raises OutOfDomain when a centre's value is infinite, or when no
    evaluated centre is admissible.
    """
    lo = np.full((1, inp.field.n), -OUTER_RADIUS)
    hi = -lo
    ub = _weighted_upper(inp, lo, hi)
    best, best_x, best_box, upper, spent = -np.inf, None, None, -np.inf, 0
    while True:
        keep = ub > best * (1 + _GAP)
        upper = max(upper, float(ub[~keep].max(initial=-np.inf)))
        lo, hi, ub = lo[keep], hi[keep], ub[keep]
        if not len(lo) or spent + len(lo) > _BUDGET:
            break
        mid = (lo + hi) / 2
        v = _weighted_rows(inp, np.ascontiguousarray(mid.T))
        spent += len(v)
        if np.any(v == np.inf):
            raise OutOfDomain("weighted field is infinite at a box centre")
        v[np.isnan(v)] = -np.inf
        j = int(np.argmax(v))
        if v[j] > best:
            best, best_x, best_box = float(v[j]), mid[j], hi[j] - lo[j]
        keep = ub > best * (1 + _GAP)
        upper = max(upper, float(ub[~keep].max(initial=-np.inf)))
        lo, hi = lo[keep], hi[keep]
        for _ in range(1 if spent + 4 * len(lo) > _BUDGET else 2):
            axis, rows = np.argmax(hi - lo, axis=1), np.arange(len(lo))
            cut = (lo[rows, axis] + hi[rows, axis]) / 2
            left_hi, right_lo = hi.copy(), lo.copy()
            left_hi[rows, axis] = right_lo[rows, axis] = cut
            lo, hi = np.concatenate([lo, right_lo]), np.concatenate([left_hi, hi])
        ub = _weighted_upper(inp, lo, hi)
    if best_x is None:
        raise OutOfDomain("no admissible box centre: the annulus lies inside the excluded balls")
    return best_x, best, best_box, max(upper, float(ub.max(initial=-np.inf)))


def weighted_max(inp: BlowupInput):
    """Maximize the weighted field over the annulus; (x_o, M_eps, M_upper).

    _branch_and_bound finds the best box centre, and one compass search
    polishes it, with first steps the edges of its box, at most _CELL, down
    to 1/2048 of them.  M_upper is the branch-and-bound's bound on
    weighted_u over the annulus: within _GAP of the best centre's value
    when the search ended within its budget, as it does for `blowup`'s
    planted bubbles at n = 3 to 6 and at most seeds at n = 7, and None
    when it is infinite, as for a field without a box enclosure (a Bubble,
    or a SumField of such fields, has one).  A bubble centred at the origin peaks on a whole sphere and
    spends the budget.  The whole search is deterministic.

    Raises OutOfDomain when no point is admissible (the annulus lies
    inside the excluded balls) or when the weighted field is infinite at
    an evaluated point.
    """
    x, v, box, upper = _branch_and_bound(inp)
    xs, vs = _compass_search(inp, x[None], np.array([v]), np.minimum(box, _CELL))
    return xs[0], float(vs[0]), None if upper == np.inf else upper


class RescaledField(ScalarField):
    """w(y) = lam^((n-2)/2) u(x_center + lam y), normalized to w(0) = 1.

    Evaluation is clipped to the window |y| <= window_radius so the source
    is never sampled past half its distance to the annulus boundary.
    """

    def __init__(self, src: ScalarField, x_center, lam: float, window_radius: float):
        self.n = src.n
        self.src = src
        self.x_center = _point(x_center, src.n)
        self.lam = float(lam)
        self.window_radius = float(window_radius)
        self.radial = False
        self._sym_axes = ()
        self._interfaces = tuple(((c - self.x_center) / self.lam, r / self.lam)
                                 for c, r in src._interfaces)

    def _to_source(self, Y):
        if np.any(np.sqrt(_sq_dist(Y)) > self.window_radius):
            raise OutOfDomain("rescaled evaluation outside the safe window")
        return self.x_center[:, None] + self.lam * Y

    def _jet(self, Y, grad, d2):
        u, g, lap = self.src._jet(self._to_source(Y), grad, d2)
        return (self.lam ** ((self.n - 2) / 2) * u,
                self.lam ** (self.n / 2) * g if grad else None,
                self.lam ** ((self.n + 2) / 2) * lap if d2 else None)


def rescale(inp: BlowupInput, x_center) -> RescaledField:
    """Normalize and spread the field about x_center."""
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
    return np.hstack([np.zeros((n, 1)), (dirs.T[:, None, :] * radii[:, None]).reshape(n, -1)])


def _model(X: np.ndarray, mu: float, y: np.ndarray, n: int):
    d = X - y[:, None]
    s2 = _sq_dist(d)
    q = (n - 2) / 2
    base = mu / (mu * mu + s2)
    u = base**q
    # partials of u wrt log(mu) and the center coordinates, as (n, m) rows
    dlogmu = q * u * (s2 - mu * mu) / (mu * mu + s2)
    dy = (2.0 * q) * (u / (mu * mu + s2)) * d
    return u, dlogmu, dy


def fit_bubble(w: ScalarField, R: float):
    """Least-squares bubble fit (mu, y_o) to w on B(0, R), plus C^2 deviation.

    Gauss-Newton on (log mu, y_o) from the normalized start (1, 0), with
    closed-form model derivatives, for at most _FIT_ITERS steps.  Raises
    FitDiverged if the scale leaves [1e-6, 1e6].  The deviation is the max
    over samples of |value diff| + |gradient diff| + |Laplacian diff|.
    """
    n = w.n
    X = _fit_samples(n, R)
    target = w._jet(X, False, False)[0]
    theta = np.zeros(n + 1)  # (log mu, y)
    for _ in range(_FIT_ITERS):
        mu = float(np.exp(theta[0]))
        if not MU_RANGE[0] <= mu <= MU_RANGE[1]:
            raise FitDiverged(f"scale left the admissible range: mu={mu:g}")
        u, dlogmu, dy = _model(X, mu, theta[1:], n)
        r = target - u
        jac = np.column_stack([dlogmu, dy.T])
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        theta = theta + step
        if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(theta)):
            break
    mu = float(np.exp(theta[0]))
    if not MU_RANGE[0] <= mu <= MU_RANGE[1]:
        raise FitDiverged(f"scale left the admissible range: mu={mu:g}")
    y_o = theta[1:].copy()
    fitted = Bubble(mu, y_o, n)
    delta = _c2_deviation(w, fitted, X)
    return mu, y_o, delta


def _c2_deviation(w: ScalarField, model: ScalarField, X: np.ndarray) -> float:
    uw, gw, lw = w._jet(X, True, True)
    um, gm, lm = model._jet(X, True, True)
    dval = np.abs(uw - um)
    dgrad = np.sqrt(_sq_dist(gw, gm))
    dlap = np.abs(lw - lm)
    return float(np.max(dval + dgrad + dlap))


def detect(inp: BlowupInput) -> BubbleReport | None:
    """Locate, rescale and fit one bubble; None when no fit meets the target.

    weighted_max locates the maximizer x_o and its certified bound, which
    the report carries as M_upper.  A fit whose scale diverges meets no
    target.  The fitted center may shift the expansion point within
    shift_cap * lam of the maximizer when that improves the measured
    deviation.
    """
    x_o, M_eps, M_upper = weighted_max(inp)
    w0 = rescale(inp, x_o)
    try:
        mu0, y0, delta0 = fit_bubble(w0, min(inp.R, 0.97 * w0.window_radius))
    except FitDiverged:
        return None

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
                        y_o=y_o, delta_measured=delta, M_upper=M_upper)


def excise(inp: BlowupInput, report: BubbleReport) -> BlowupInput:
    """Mask the detected bubble's window out of the next maximization."""
    ball = (report.x_1, report.lam * inp.R)
    return replace(inp, excluded=inp.excluded + (ball,))

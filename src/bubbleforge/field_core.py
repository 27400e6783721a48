"""Spherical solutions, field algebra and the curvature-function evaluator.

Every field exposes value/gradient/laplacian at arbitrary points of its
regular domain, vectorized over a leading batch axis.  The curvature
function of a positive field u is

    K(x) = -lap(u)(x) / (n (n - 2) u(x)^((n+2)/(n-2))),

so exact bubbles have K identically one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveValue, KappaTooLarge


def _dim(n) -> int:
    """The ambient dimension n as an int, raising ValueError unless n is an integer >= 3."""
    if int(n) != n or n < 3:
        raise ValueError("dimension must be an integer >= 3")
    return int(n)


def _point(x, n: int) -> np.ndarray:
    """One point x (n,) of R^n, a kernel pole xi or a centre, as a float copy; ValueError otherwise."""
    arr = np.array(x, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected a point in R^{n}, got shape {arr.shape}")
    return arr


def _same_dim(n: int, *objs) -> None:
    """Raise ValueError unless each of objs (a field, region, ball or kernel) lives in R^n."""
    for o in objs:
        if o.n != n:
            raise ValueError(f"expected an object of R^{n}, got one of R^{o.n}")


def _pointwise(fn, x, n: int):
    """Apply a column-batch function to point(s) x in R^n, keeping x's leading shape.

    With _point, the only conversion of caller coordinates: x (..., n) is
    flattened to m points and handed to fn as their transposed (n, m) view,
    and fn's (m,) or (k, m) result comes back contiguous as (...,) or
    (..., k).  One point (n,) gives a Python scalar (float or bool) or a (k,)
    array, bit for bit a batch's entry; another last axis raises ValueError.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1:] != (n,):
        raise ValueError(f"expected point(s) in R^{n}, got shape {arr.shape}")
    out = np.ascontiguousarray(fn(arr.reshape(-1, n).T).T)
    out = out.reshape(arr.shape[:-1] + out.shape[1:])
    return out.item() if out.ndim == 0 else out


def _sq_dist(X, c=None):
    """Squared distance |X - c|^2 of points given as coordinate rows X (n, ...); c = None is 0.

    The n squared differences are added row by row, in order, so for n <= 7
    the result is bit for bit np.sum((x - c)**2, axis=-1) of the same points
    x as an (..., n) batch, and its square root np.linalg.norm(x - c,
    axis=-1); from n = 8 on numpy sums that last axis pairwise and the two
    may differ by rounding.  c is a point (n,) or rows shaped as X.
    """
    d = X[0] if c is None else X[0] - c[0]
    s = d * d
    for i in range(1, len(X)):
        d = X[i] if c is None else X[i] - c[i]
        s += d * d
    return s


def _up(x, ulps=1):
    """x moved ulps floats toward +inf: the outward rounding of an upper bound."""
    for _ in range(ulps):
        x = np.nextafter(x, np.inf)
    return x


def _down(x, ulps=1):
    """x moved ulps floats toward -inf: the outward rounding of a lower bound."""
    for _ in range(ulps):
        x = np.nextafter(x, -np.inf)
    return x


def _row_dot(a, b):
    """Dot product per point of the coordinate rows a and b (n, ...), in _sq_dist's order.

    The sum starts from +0.0, as numpy's does, so a point of signed zeros
    gives +0.0: for n <= 7 this is bit for bit np.sum(a.T * b.T, axis=-1).
    """
    s = a[0] * b[0]
    s += 0.0
    for i in range(1, len(a)):
        s += a[i] * b[i]
    return s


class ScalarField:
    """Positive field with analytic value, gradient and Laplacian.

    A field implements one batch method, _jet(X, grad, d2), on an (n, m)
    float array X of coordinate rows: X[i] holds the i-th coordinates of
    the m points, and contiguous rows are the fast layout (a strided view
    gives the same bits).  It returns (u, g, lap): the (m,) values,
    gradients and (m,) Laplacians from one pass over the field.  g has the
    layout of X, so that g[i] is the contiguous i-th partial derivative and
    per-point factors scale it along the long axis; it is None, and no
    gradient array is built, unless grad.  lap is None, and no Laplacian
    term is formed, unless d2; u and g do not depend on d2, bit for bit.  A
    value-only jet, _jet(X, False, False), asks its sources for values
    alone.  The public methods accept a point (n,) or any batch (..., n)
    and return a float, an (n,) gradient or arrays of the batch's leading
    shape; _pointwise transposes the points once, and the gradient back.
    They read the jet, each asking only for what it returns, and a field
    without one raises NotImplementedError there.  A composite field calls
    its sources' _jet, passing on its own d2.  A jet keeps no state
    between calls: scans evaluate chunks of one field on several threads.
    The caller owns what a jet returns and may overwrite it: no two of u,
    g and lap share memory, and none shares memory with X, so a composite
    adds its sources' terms in place (ufuncs with out=, +=, *=) and keeps
    few point-sized arrays alive.

    Attributes
    ----------
    n : ambient dimension
    radial : value depends only on |x| (about the origin)
    inv_decay_coeff : limit of |x|^(n-2) * value(x) at infinity, or None
        when the field does not decay at that rate.  A finite coefficient
        marks the field's sphere-inversion image as continuously extendable
        at the inversion center.
    """

    n: int
    radial: bool = False
    inv_decay_coeff: float | None = None

    def value(self, x):
        return _pointwise(lambda X: self._jet(X, False, False)[0], x, self.n)

    def gradient(self, x):
        return _pointwise(lambda X: self._jet(X, True, False)[1], x, self.n)

    def laplacian(self, x):
        return _pointwise(lambda X: self._jet(X, False, True)[2], x, self.n)

    def _jet(self, X, grad, d2):
        raise NotImplementedError

    def _box_upper(self, lo, hi):
        """Upper bounds (k,) of the value on the boxes [lo, hi] given as (k, n)
        corner arrays, or None for a field without an enclosure.

        A bound holds for the exact value and for the value-only jet's float
        result at every point of its box.
        """
        return None


class RadialField(ScalarField):
    """Field whose value is a smooth profile of r = |x - center|.

    A subclass supplies one hook, _radial_jet(r, slope, d2), which returns
    (f, f'/r, lap) at the radii r and leaves them intact: f'/r is None
    unless slope and lap None unless d2; at r = 0, lap is the limit
    n f''(0), and _jet sets the gradient to zero whatever f'/r holds there.
    A value-only call forms f alone.  A profile that is a power of a
    rational function of r (Bubble, BaseField) takes that one non-integer
    power per point and forms its derivatives as products and quotients of
    it; CallableRadialField takes a profile given as (f, f', f'').  No two
    of f, f'/r and lap share memory, and none shares memory with r.
    """

    def __init__(self, n: int, center=None):
        self.n = _dim(n)
        self.center = np.zeros(self.n) if center is None else _point(center, self.n)
        self.radial = bool(np.all(self.center == 0.0))

    def _jet(self, X, grad, d2):
        r = _sq_dist(X, self.center)
        u, slope, lap = self._radial_jet(np.sqrt(r, out=r), grad, d2)
        if not grad:
            return u, None, lap
        g = X - self.center[:, None]
        g *= slope
        g[:, r == 0.0] = 0.0
        return u, g, lap


def _nonzero(r):
    """r with each zero replaced by 1.0, as a new array only when r holds a zero."""
    return r if r.all() else np.where(r == 0.0, 1.0, r)


class Bubble(RadialField):
    """Spherical solution (lam / (lam^2 + |x - center|^2))^((n-2)/2).

    With t = lam / (lam^2 + r^2) the bubble is u = t^((n-2)/2), and every
    derivative is u times a rational function of t: f'/r = -(n-2) u t / lam
    and lap(u) = -n(n-2) u^((n+2)/(n-2)) = -n(n-2) u t^2.  So a jet takes one
    non-integer power per point, and its u is the value-only jet's bit for
    bit.
    """

    def __init__(self, lam: float, center, n: int):
        super().__init__(n, center)
        if not lam > 0:
            raise ValueError("bubble scale must be positive")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("bubble center must be finite")
        self.lam = float(lam)
        self.inv_decay_coeff = self.lam ** ((self.n - 2) / 2)

    def __repr__(self):
        return f"Bubble(lam={self.lam!r}, center={self.center.tolist()!r}, n={self.n})"

    def _radial_jet(self, r, slope, d2):
        # t = lam / (lam^2 + r^2) in one buffer; a value is t^q in it
        t = r * r
        t += self.lam**2
        np.divide(self.lam, t, out=t)
        if not (slope or d2):
            t **= (self.n - 2) / 2
            return t, None, None
        u = t ** ((self.n - 2) / 2)
        k = None
        if slope:
            k = u * t
            k *= -(self.n - 2) / self.lam
        lap = None
        if d2:
            # lap(u) = -n(n-2) u t^2, written into t's buffer
            lap = np.multiply(t, t, out=t)
            lap *= u
            lap *= -self.n * (self.n - 2)
        return u, k, lap

    def _box_upper(self, lo, hi):
        # u decreases in r: its largest value on a box is at the point
        # nearest the center.  The steps repeat the value-only jet's on the
        # smallest squared distance, rounded outward past the rounding of
        # the sum, of the jet's r = sqrt(s) and r * r, and of the power
        gap = np.maximum(np.maximum(lo - self.center, self.center - hi), 0.0)
        t = _down(_sq_dist(gap.T), self.n + 3)
        t = _down(t + self.lam**2)
        t = _up(self.lam / t)
        return _up(t ** ((self.n - 2) / 2), 2)


class BaseField(RadialField):
    """The slow-decay floor field (|x|^2 + 1)^((2-n)/4), centered at origin.

    With w = 1 + r^2 and m = (2-n)/4 the field is u = w^m, f'/r = 2m u / w
    and lap(u) = ((2-n)/2) (u / w^2) (n + ((n-2)/2) r^2): one non-integer
    power per point.
    """

    def __init__(self, n: int):
        super().__init__(n)

    def __repr__(self):
        return f"BaseField(n={self.n})"

    def _radial_jet(self, r, slope, d2):
        m = (2 - self.n) / 4
        w = r * r
        w += 1.0
        if not (slope or d2):
            w **= m
            return w, None, None
        u = w ** m
        k = None
        if slope:
            k = u / w
            k *= 2 * m
        lap = None
        if d2:
            lap = r * r
            lap *= (self.n - 2) / 2
            lap += self.n
            lap *= u
            lap /= w
            lap /= w
            lap *= (2 - self.n) / 2
        return u, k, lap


class CallableRadialField(RadialField):
    """Radial field built from profile callables (f, f', f'').

    The jets write into what the callables return.  The field copies a
    result that is read-only, not a float array of r's shape, or shares
    memory with r or with another derivative (lambda r: r, or one function
    for f and f'); a callable that keeps the array it returns, as a cache
    would, must return a copy of it.
    """

    def __init__(self, n: int, f, df, d2f, center=None):
        super().__init__(n, center)
        self._f, self._df, self._d2f = f, df, d2f

    def _radial_jet(self, r, slope, d2):
        # f'/r in the buffer of f', lap = f'' + (n-1) f'/r in that of f''; at
        # r = 0, f'/r is f'(0) and lap the limit n f''(0)
        f = _writeable(self._f(r), r, [])
        if not (slope or d2):
            return f, None, None
        df = _writeable(self._df(r), r, [f])
        rs = _nonzero(r)
        lap = None
        if d2:
            lap = _writeable(self._d2f(r), r, [f, df])
            lim = None if rs is r else self.n * lap[r == 0.0]
            tmp = np.multiply(df, self.n - 1)
            tmp /= rs
            lap += tmp
            if lim is not None:
                lap[r == 0.0] = lim
        if slope:
            df /= rs
        return f, df if slope else None, lap


def _writeable(v, r, others):
    """v as an array a jet may write into: v itself if it is a writeable float
    array of r's shape sharing memory with neither r nor any of others, else
    a copy of it broadcast to r's shape."""
    if (isinstance(v, np.ndarray) and v.dtype == float and v.shape == r.shape
            and v.flags.writeable and not any(np.shares_memory(v, o) for o in [r, *others])):
        return v
    return np.array(np.broadcast_to(v, r.shape), float)


class SumField(ScalarField):
    """Pointwise sum of two fields on the same ambient space."""

    def __init__(self, f: ScalarField, g: ScalarField):
        if f.n != g.n:
            raise ValueError("summands live in different dimensions")
        self.n = f.n
        self.f, self.g = f, g
        self.radial = f.radial and g.radial
        if f.inv_decay_coeff is not None and g.inv_decay_coeff is not None:
            self.inv_decay_coeff = f.inv_decay_coeff + g.inv_decay_coeff

    def __repr__(self):
        return f"SumField({self.f!r}, {self.g!r})"

    def _box_upper(self, lo, hi):
        f, g = self.f._box_upper(lo, hi), self.g._box_upper(lo, hi)
        return None if f is None or g is None else _up(f + g)

    def _jet(self, X, grad, d2):
        u, g, lap = self.f._jet(X, grad, d2)
        u2, g2, lap2 = self.g._jet(X, grad, d2)
        u += u2
        if d2:
            lap += lap2
        if grad:
            g += g2
        return u, g, lap


@dataclass(frozen=True)
class KReport:
    """Result of a sup |K - 1| grid scan."""

    sup_abs_dev: float
    argmax: np.ndarray
    grid: dict
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "argmax", np.asarray(self.argmax, dtype=float))


# --- operations -----------------------------------------------------------


def k_function(f: ScalarField, x):
    """Curvature function K = -lap(f) / (n(n-2) f^((n+2)/(n-2))) at x."""
    return _pointwise(lambda X: _k_of(f.n, *f._jet(X, False, True)[::2]), x, f.n)


def _k_of(n: int, u, lap):
    """K from values u and Laplacians lap, raising NonpositiveValue unless u > 0.

    One place for the formula: k_function, the scans and the quadrature
    integrands of the representation identity all call it.
    """
    if np.any(np.asarray(u) <= 0.0):
        raise NonpositiveValue("field must be strictly positive where K is evaluated")
    # in one buffer: negation is exact, so lap / (-n(n-2) u^p) is -lap / (n(n-2) u^p)
    # bit for bit, a 0/0 or inf/inf giving the same default NaN; a scalar u
    # has no buffer to write into
    w = u ** ((n + 2) / (n - 2))
    w *= -n * (n - 2)
    return np.divide(lap, w, out=w if np.ndim(w) else None)


def _grad_term_of(n: int, u, g2):
    """|grad(u^(-2/(n-2)))|^2 from values u and squared gradient norms g2,
    raising NonpositiveValue unless u > 0; shared as _k_of is."""
    if np.any(np.asarray(u) <= 0.0):
        raise NonpositiveValue("field must be positive")
    return (4.0 / (n - 2) ** 2) * u ** (-2.0 * n / (n - 2)) * g2


def sum_field(f: ScalarField, g: ScalarField) -> SumField:
    """Pointwise sum of two fields."""
    return SumField(f, g)


def k_sum_limit(lam1: float, lam2: float, n) -> float:
    """Far-field limit of K for a sum of two bubbles with scales lam1, lam2."""
    n = _dim(n)
    if lam1 <= 0 or lam2 <= 0:
        raise ValueError("scales must be positive")
    num = lam1 ** ((n + 2) / 2) + lam2 ** ((n + 2) / 2)
    den = (lam1 ** ((n - 2) / 2) + lam2 ** ((n - 2) / 2)) ** ((n + 2) / (n - 2))
    return num / den


def inv_root_grad_sq(f: ScalarField, x):
    """|grad(f^(-2/(n-2)))|^2 computed from analytic value and gradient."""
    return _pointwise(lambda X: _grad_term_rows(f, X), x, f.n)


def _grad_term_rows(f: ScalarField, X):
    """inv_root_grad_sq on a column batch X (n, m), for the quadratures."""
    u, g, _ = f._jet(X, True, False)
    return _grad_term_of(f.n, u, _sq_dist(g))


def grad_inv_power(b: Bubble, x):
    """Closed form |grad(u^(-2/(n-2)))|^2 = 4 |x - center|^2 / lam^2 for a bubble."""
    return _pointwise(lambda X: 4.0 * _sq_dist(X, b.center) / b.lam**2, x, b.n)


def base_k(x, n) -> float:
    """Curvature function of the base field at x."""
    n = _dim(n)

    def k(X):
        r2 = _sq_dist(X)
        return 0.5 * (1.0 - ((n + 2) / (2.0 * n)) * r2 / (r2 + 1.0))

    return _pointwise(k, x, n)


def combined_k_bounds(kappa: float, n) -> tuple[float, float]:
    """Two-sided bounds on K of (field within kappa^2 of one) + base field."""
    n = _dim(n)
    if kappa * kappa >= 1.0:
        raise KappaTooLarge("need kappa^2 < 1")
    k2 = kappa * kappa
    floor = min((n - 2) / (4.0 * n), 1.0 - k2)
    lo = min(1.0 - k2, floor / 2.0 ** (4.0 / (n - 2)))
    hi = max(1.0 + k2, 0.5)
    return lo, hi

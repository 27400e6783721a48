"""Cut-and-glue constructions with C^2 radial cutoffs.

Three constructions are provided: a radial interpolation between two
centered bubbles (concentric), a two-ball splice that keeps one bubble on
each ball and their sum far away (disjoint), and the insertion of an exact
bubble into a host field across a thin annulus (bubble-insert).  Each is
made of blends phi A + (1 - phi) B with a radial cutoff phi, and one product
rule, _blend, forms their jets: the concentric glue blends its bubbles, the
insert glue its bubble and host, and the disjoint glue adds two blends with A = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BadConfig, BadRadii, NoSolution, OverlapError
from .field_core import (Bubble, RadialField, ScalarField, _dim, _nonzero, _point, _row_dot,
                         _sq_dist)
from .regions import Annulus

# sharp bound of the quintic smoothstep's second derivative on [0, 1]
SMOOTHSTEP_D2_MAX = 10.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class Cutoff:
    """C^2 radial transition: 1 on [0, r_in], 0 on [r_out, inf).

    Built on the quintic smoothstep 6t^5 - 15t^4 + 10t^3, whose first and
    second derivatives vanish at both ends, so gluing with it preserves C^2.
    c_phi bounds both |phi'| * (r_out - r_in) and |phi''| * (r_out - r_in)^2.
    """

    c_phi: ClassVar[float] = SMOOTHSTEP_D2_MAX

    r_in: float
    r_out: float

    def __post_init__(self):
        if not 0 < self.r_in < self.r_out:
            raise BadRadii("need 0 < r_in < r_out")

    @property
    def width(self) -> float:
        return self.r_out - self.r_in

    def _t(self, r):
        """(r - r_in) / width clipped to [0, 1], in one new array (a scalar for a scalar r)."""
        t = np.asarray(r, float) - self.r_in
        t /= self.width
        return np.clip(t, 0.0, 1.0, out=t if np.ndim(t) else None)

    @staticmethod
    def _phi_t(t):
        s = t * t
        s *= t
        p = 6.0 * t
        p += -15.0
        p *= t
        p += 10.0
        s *= p
        # s >= 0 exactly, but rounds to 1 + ulp just below t = 1; a scalar
        # t, from phi, has no buffer to write into
        out = s if np.ndim(s) else None
        return np.maximum(np.subtract(1.0, s, out=out), 0.0, out=out)

    def phi(self, r):
        return self._phi_t(self._t(r))

    def _jet(self, r, d2):
        """(phi, phi', phi'') at r, from one clipped t and one scratch array; phi'' is None unless d2.

        phi' = -30 t^2 (1 - t)^2 / width and phi'' = -60 t (2t - 1)(t - 1) / width^2,
        each product formed left to right; (1 - t)^2 is (1 - t) * (1 - t), as numpy's
        square, and so as its power 2, forms it.
        """
        t = self._t(r)
        phi = self._phi_t(t)
        dphi = -30.0 * t
        dphi *= t
        q = 1.0 - t
        q *= q
        dphi *= q
        dphi /= self.width
        if not d2:
            return phi, dphi, None
        q = 2.0 * t
        q -= 1.0
        d2phi = -60.0 * t
        d2phi *= q
        t -= 1.0
        d2phi *= t
        d2phi /= self.width**2
        return phi, dphi, d2phi


@dataclass(frozen=True)
class RhoMSolution:
    """Cut radius solving the admissible-band inequality for a given delta."""

    rho_m_big: float
    delta_bar: float
    alpha: float
    n: int
    band_lo: float
    band_hi: float

    @property
    def profile_at_cut(self) -> float:
        """(1/(1 + rho_M^2))^((n-2)/2) for the returned cut radius."""
        return (1.0 / (1.0 + self.rho_m_big**2)) ** ((self.n - 2) / 2)


def solve_rho_M(delta: float, alpha: float, n) -> RhoMSolution:
    """Pick the cut radius rho_M from the double inequality band.

    The band constrains (1/(1+rho_M^2))^((n-2)/2) between
    dbar^E + dbar^((n-2)/2) and 2 dbar^E, with dbar = delta^(2/(n-2)) and
    E = (n-2)(n-2-2 alpha)/(2(n+2)); the geometric midpoint maximizes margin.
    Raises NoSolution when no positive radius fits (delta too large).
    """
    n = _dim(n)
    if not 0 < delta < 1:
        raise ValueError("need delta in (0, 1)")
    if alpha <= 0 or 2.0 * (1.0 + alpha) >= n:
        raise ValueError("need alpha > 0 with 2(1 + alpha) < n")
    dbar = delta ** (2.0 / (n - 2))
    expo = (n - 2) * (n - 2 - 2.0 * alpha) / (2.0 * (n + 2))
    lo = dbar**expo + dbar ** ((n - 2) / 2)
    hi = 2.0 * dbar**expo
    if not lo < hi:
        raise NoSolution("admissible band is empty")
    mid = math.sqrt(lo * hi)
    base = mid ** (2.0 / (n - 2))  # 1/(1 + rho_M^2)
    if base >= 1.0:
        raise NoSolution("delta too large: no positive cut radius fits the band")
    rho_m_big = math.sqrt(1.0 / base - 1.0)
    return RhoMSolution(rho_m_big=rho_m_big, delta_bar=dbar, alpha=alpha,
                        n=n, band_lo=lo, band_hi=hi)


def _blend(n, cutoff_jet, s, a, b, dot_s, X, c, grad, d2, into=None):
    """The jet (u, g, lap) of phi A + (1 - phi) B, formed in place in the arrays of a and b.

    cutoff_jet is (phi, phi', phi'') at the radii s about the cutoff's centre
    c (None: the origin), s with each zero replaced by 1; a and b are the jets
    of A and B, and dot_s = (x - c).grad(A - B) / s.  a = None is A = 0: then
    dot_s = (x - c).grad B / s, the terms in A - B are subtracted, and the jet
    is added into the jet into, or formed in b's arrays without one.  g is
    (n, m) rows at the points X or, with X None, the slopes f'/r of radial A
    and B about c.
        u = phi u_A + (1 - phi) u_B
        g = phi g_A + (1 - phi) g_B + (phi'/s)(u_A - u_B)(x - c)
        lap = phi lap_A + (1 - phi) lap_B + (dot_s phi') 2 + (phi'' + (phi'/s)(n-1))(u_A - u_B)
    Each product and sum is formed left to right as written.  Where phi is 1
    or 0, phi' and phi'' are zeros, and the jet is A's or B's bit for bit.
    """
    p, dp, d2p = cutoff_jet
    ub, gb, lapb = b
    if a is None:  # u_A - u_B = -u_B
        u, g, lap = into or (None, None, None)
        d, add = ub, np.subtract
    else:
        u, g, lap = a
        d, add = (u - ub if grad or d2 else None), np.add
        for v in a:  # u_A, and g_A and lap_A where formed
            if v is not None:
                v *= p
    q = np.subtract(1.0, p, out=p)
    if d2:
        lapb *= q
        lap = lapb if lap is None else np.add(lap, lapb, out=lap)
        dot_s *= dp
        dot_s *= 2.0
        add(lap, dot_s, out=lap)
    if grad or d2:
        dp /= s
    if d2:
        # (phi'/s)(n-1) in the buffer of dot_s, which is spent
        d2p += np.multiply(dp, n - 1, out=dot_s)
        d2p *= d
        add(lap, d2p, out=lap)
    if grad:
        gb *= q
        g = gb if g is None else np.add(g, gb, out=g)
        dp *= d
        if X is not None:  # the rows x - c, times dp
            o = X * dp if c is None else X - c[:, None]
            dp = o if c is None else np.multiply(o, dp, out=o)
        add(g, dp, out=g)
    ub *= q
    return ub if u is None else np.add(u, ub, out=u), g, lap


class ConcentricGlueField(RadialField):
    """phi u1 + (1 - phi) u2 for centered bubbles; exact bubble on each side."""

    def __init__(self, b1: Bubble, b2: Bubble, rho: float, R: float):
        if b1.n != b2.n:
            raise BadConfig("bubbles live in different dimensions")
        if np.any(b1.center != 0.0) or np.any(b2.center != 0.0):
            raise BadConfig("concentric glue needs both bubbles centered at the origin")
        if not 0 < rho < R:
            raise BadConfig("need 0 < rho < R")
        super().__init__(b1.n, None)
        self.b1, self.b2 = b1, b2
        self.cut = Cutoff(float(rho), float(R))
        self.inv_decay_coeff = b2.inv_decay_coeff

    def __repr__(self):
        return (f"ConcentricGlueField(lam1={self.b1.lam!r}, lam2={self.b2.lam!r}, "
                f"rho={self.cut.r_in!r}, R={self.cut.r_out!r})")

    def _radial_jet(self, r, slope, d2):
        # the blend of the bubbles' closed-form jets in slope form, its cutoff
        # jet formed before their arrays exist
        need = slope or d2
        # a value needs no cutoff slope
        cj = self.cut._jet(r, d2) if need else (self.cut.phi(r), None, None)
        f1, k1, lap1 = self.b1._radial_jet(r, need, d2)
        f2, k2, lap2 = self.b2._radial_jet(r, need, d2)
        dot_s = None
        if d2:
            # x.grad(u1 - u2) / r = r (k1 - k2), in k1 unless the slopes are returned
            dot_s = np.subtract(k1, k2, out=None if slope else k1)
            dot_s *= r
        if not slope:
            k1 = k2 = None
        return _blend(self.n, cj, _nonzero(r) if need else r, (f1, k1, lap1), (f2, k2, lap2),
                      dot_s, None, None, slope, d2)


def _dot_with_slope(X, c, k, ck):
    """Per point of the column batch X, the dot product of X - c with the gradient k (X - ck)
    of a radial field about ck, added row by row in _row_dot's order, building neither array."""
    a, b = X[0] - c[0], X[0] - ck[0]
    b *= k
    s = a * b
    s += 0.0
    for i in range(1, X.shape[0]):
        np.subtract(X[i], c[i], out=a)
        np.subtract(X[i], ck[i], out=b)
        b *= k
        a *= b
        s += a
    return s


class DisjointGlueField(ScalarField):
    """(1 - phi2(|x - xi2|)) u1 + (1 - phi1(|x - xi1|)) u2.

    Each cutoff is 1 on its own fidelity ball, B(xi1, r1) or B(xi2, a), so u1
    survives alone near xi1, u2 near xi2, and their sum takes over once both
    cutoffs vanish.  Positivity is structural: the cutoff supports are
    disjoint.  The transitions span [r, (1+width) r] outside each ball, or
    [(1-width) r, r] inside it when inward, which allows tangent balls.
    """

    def __init__(self, b1: Bubble, r1: float, b2: Bubble, a: float,
                 width1: float = 1.0, width2: float = 1.0, inward: bool = False):
        if b1.n != b2.n:
            raise BadConfig("bubbles live in different dimensions")
        if min(r1, a) <= 0 or min(width1, width2) <= 0:
            raise BadConfig("radii and widths must be positive")
        if inward and max(width1, width2) >= 1.0:
            raise BadConfig("inward widths must be < 1")
        sep = float(np.linalg.norm(b1.center - b2.center))
        if sep < r1 + a:
            raise OverlapError("fidelity balls overlap")
        r1, a, w1, w2 = float(r1), float(a), float(width1), float(width2)
        span1 = (r1 * (1.0 - w1), r1) if inward else (r1, r1 * (1.0 + w1))
        span2 = (a * (1.0 - w2), a) if inward else (a, a * (1.0 + w2))
        if sep < span1[1] + span2[1]:
            raise OverlapError("cutoff supports intersect; shrink widths or use inward")
        self.b1, self.b2 = b1, b2
        self.n = b1.n
        self.cut1, self.cut2 = Cutoff(*span1), Cutoff(*span2)
        self.inward = bool(inward)
        self.inv_decay_coeff = b1.inv_decay_coeff + b2.inv_decay_coeff

    def __repr__(self):
        return f"DisjointGlueField(b1={self.b1!r}, b2={self.b2!r}, inward={self.inward})"

    def _jet(self, X, grad, d2):
        s1, s2 = _sq_dist(X, self.b1.center), _sq_dist(X, self.b2.center)
        np.sqrt(s1, out=s1)
        np.sqrt(s2, out=s2)
        jet = self._half(X, self.b1, s1, self.cut2, s2, self.b2.center, grad, d2)
        return self._half(X, self.b2, s2, self.cut1, s1, self.b1.center, grad, d2, into=jet)

    def _half(self, X, b, r, cut, s, c, grad, d2, into=None):
        # (1 - phi(s)) u_b, the blend with A = 0 of the bubble b at radii r and
        # the cutoff about the other centre c at radii s, added into the jet
        # into; its arrays are freed on return
        need = grad or d2
        u, k, lap = b._radial_jet(r, need, d2)
        ss = _nonzero(s) if need else s
        # what reads k first, so that k is freed before the cutoff's arrays exist
        dot_s = g = None
        if d2:
            dot_s = _dot_with_slope(X, c, k, b.center)
            dot_s /= ss
        if grad:
            g = X - b.center[:, None]
            g *= k
            g[:, r == 0.0] = 0.0
        del k
        # a value needs no cutoff slope
        cj = cut._jet(s, d2) if need else (cut.phi(s), None, None)
        return _blend(self.n, cj, ss, None, (u, g, lap), dot_s, X, c, grad, d2, into=into)


class InsertGlueField(ScalarField):
    """phi(|x|) bubble(x) + (1 - phi(|x|)) host(x1 + x), in bubble coordinates.

    phi falls across [lam rho_m, lam rho_M]; rho_m defaults to rho_M - 10 when
    that is positive (the wide-annulus regime) and to 0.8 rho_M otherwise.
    """

    def __init__(self, host: ScalarField, bubble: Bubble, x1, rho_M: float,
                 rho_m: float | None = None):
        if host.n != bubble.n:
            raise BadConfig("host and bubble live in different dimensions")
        if np.any(bubble.center != 0.0):
            raise BadConfig("inserted bubble must be centered at the origin")
        if rho_M <= 0:
            raise BadConfig("need rho_M > 0")
        if rho_m is None:
            rho_m = rho_M - 10.0 if rho_M > 10.0 else 0.8 * rho_M
        if not 0 < rho_m < rho_M:
            raise BadConfig("need 0 < rho_m < rho_M")
        self.host, self.bubble = host, bubble
        self.x1 = _point(x1, host.n)
        self.n = bubble.n
        self.rho_m, self.rho_M = float(rho_m), float(rho_M)
        self.cut = Cutoff(bubble.lam * self.rho_m, bubble.lam * self.rho_M)
        self.radial = host.radial and bool(np.all(self.x1 == 0.0))
        self.inv_decay_coeff = host.inv_decay_coeff

    def __repr__(self):
        return (f"InsertGlueField(lam={self.bubble.lam!r}, rho_m={self.rho_m!r}, "
                f"rho_M={self.rho_M!r})")

    def _jet(self, X, grad, d2):
        need = grad or d2
        uh, gh, laph = self.host._jet(self.x1[:, None] + X, need, d2)
        ub, gb, lapb = self.bubble._jet(X, need, d2)
        s = _sq_dist(X)
        np.sqrt(s, out=s)
        ss = _nonzero(s) if need else s
        dot_s = None
        if d2:
            # x.(g_b - g_h) / s, in g_b unless the gradients are returned
            dot_s = _row_dot(X, gb - gh if grad else np.subtract(gb, gh, out=gb))
            dot_s /= ss
            if not grad:
                gb = gh = None
        # a value needs no cutoff slope
        cj = self.cut._jet(s, d2) if need else (self.cut.phi(s), None, None)
        return _blend(self.n, cj, ss, (ub, gb, lapb), (uh, gh, laph), dot_s, X, None, grad, d2)


class GlueConfig:
    """One built glue field; each classmethod is one call of its class, which
    validates its own arguments.  GlueConfig and the glue_* functions are the
    two-step spelling of those calls."""

    def __init__(self, field: ScalarField):
        self.field = field

    def __repr__(self):
        return f"GlueConfig({self.field!r})"

    @classmethod
    def concentric(cls, *args, **kwargs) -> "GlueConfig":
        return cls(ConcentricGlueField(*args, **kwargs))

    @classmethod
    def disjoint(cls, *args, **kwargs) -> "GlueConfig":
        return cls(DisjointGlueField(*args, **kwargs))

    @classmethod
    def bubble_insert(cls, *args, **kwargs) -> "GlueConfig":
        return cls(InsertGlueField(*args, **kwargs))


def _built(cfg: GlueConfig, kind: type):
    """cfg's field, raising BadConfig unless it is a kind."""
    if not isinstance(cfg.field, kind):
        raise BadConfig(f"expected a {kind.__name__} config, got {cfg!r}")
    return cfg.field


def glue_concentric(cfg: GlueConfig) -> ConcentricGlueField:
    """Radial interpolation between two centered bubbles across [rho, R]."""
    return _built(cfg, ConcentricGlueField)


def glue_disjoint(cfg: GlueConfig) -> DisjointGlueField:
    """Two-ball splice of two bubbles with disjoint cutoff supports."""
    return _built(cfg, DisjointGlueField)


def glue_bubble_into(cfg: GlueConfig) -> InsertGlueField:
    """Replace the host by an exact bubble inside |x| < lam rho_m."""
    return _built(cfg, InsertGlueField)


def insert_annulus(w: InsertGlueField) -> Annulus:
    """The transition annulus of a bubble-insert field."""
    lam = w.bubble.lam
    return Annulus(np.zeros(w.n), lam * w.rho_m, lam * w.rho_M)

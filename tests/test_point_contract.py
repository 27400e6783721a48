"""Caller coordinates: one checked conversion for every point, xi and centre.

A point function takes a point (n,) or a batch (..., n) of points of R^n,
and a kernel pole xi or a centre is one point (n,).  Any other last axis
raises ValueError on entry, before anything is evaluated, and one point
gives a Python scalar, bit for bit the batch's entry.  So does a region,
ball, kernel or second field of another R^n than the field's.
"""

import numpy as np
import pytest

from bubbleforge import (
    Annulus,
    Ball,
    BlowupInput,
    Box,
    Bubble,
    CallableRadialField,
    GlueConfig,
    GridSpec,
    Inversion,
    Kernel,
    SingularProfile,
    SumField,
    ThmBParams,
    base_k,
    grad_inv_power,
    h_eval,
    int_absH_ball,
    inv_root_grad_sq,
    invert_point,
    k_function,
    lower_bound_3_9,
    rep_formula_report,
    rep_identity_report,
    sup_scan,
    weighted_grad_integral,
)
from bubbleforge.blowup import d_eps, weighted_u
from bubbleforge.glue import InsertGlueField
from bubbleforge.kelvin import KelvinField
from bubbleforge.potential import grad_h, verify_profile

N = 3
_BUBBLE = Bubble(0.7, [0.1, -0.2, 0.3], N)
_XI = np.array([0.05, 0.1, -0.1])
_INPUT = BlowupInput(field=_BUBBLE, epsilon=0.1, R=5.0, delta_target=0.2)
_REGIONS = {
    "ball": Ball(np.zeros(N), 1.3),
    "annulus": Annulus(np.zeros(N), 0.2, 1.3),
    "box": Box(-np.ones(N), np.ones(N)),
}

POINT_FUNCTIONS = {
    "value": _BUBBLE.value,
    "gradient": _BUBBLE.gradient,
    "laplacian": _BUBBLE.laplacian,
    "k_function": lambda x: k_function(_BUBBLE, x),
    "inv_root_grad_sq": lambda x: inv_root_grad_sq(_BUBBLE, x),
    "grad_inv_power": lambda x: grad_inv_power(_BUBBLE, x),
    "base_k": lambda x: base_k(x, N),
    "h_eval": lambda x: h_eval(Kernel(N), x, _XI),
    "grad_h": lambda x: grad_h(Kernel(N), x, _XI),
    "invert_point": lambda x: invert_point(Inversion(_XI, 1.0), x),
    "weighted_u": lambda x: weighted_u(_INPUT, x),
    **{f"{name}.contains": region.contains for name, region in _REGIONS.items()},
}


@pytest.mark.parametrize("dim", [N - 1, N + 1])
@pytest.mark.parametrize("fn", POINT_FUNCTIONS.values(), ids=POINT_FUNCTIONS.keys())
def test_points_of_another_dimension_raise(fn, dim):
    for x in (np.full(dim, 0.3), np.full((2, dim), 0.3)):
        with pytest.raises(ValueError):
            fn(x)


def _profile(p):
    return SingularProfile(p=p, mu=0.5, nu=0.5, c1=10.0, c2=10.0, delta=0.1)


_X = np.array([1.0, 0.5, 0.0])
_OFF = Bubble(1.0, [0.1, 0, 0], N)
_O = np.zeros(N)
_GS = GridSpec(points_per_axis=4, refine_factor=1, radial_points=8)


def _bubble_at(c):
    """A bubble of R^len(c) centred at c."""
    return Bubble(1.0, c, len(c))


def _unit_ball(c):
    """The unit ball about the origin of R^len(c): a radial field scanned or
    integrated over it takes the radial path."""
    return Ball(np.zeros(len(c)), 1.0)


# every taker of a kernel pole xi or of a centre, given one point c, and of a
# region, ball, kernel or field beside another field, given one of R^len(c)
POINT_TAKERS = {
    "h_eval": lambda c: h_eval(Kernel(N), _X, c),
    "grad_h": lambda c: grad_h(Kernel(N), _X, c),
    "int_absH_ball": lambda c: int_absH_ball(Kernel(N), 1.0, c),
    "weighted_grad_integral-radial": lambda c: weighted_grad_integral(
        Kernel(N), Bubble(1.0, np.zeros(N), N), Ball(np.zeros(N), 1.0), c, rel_tol=1e-3),
    "weighted_grad_integral-polar": lambda c: weighted_grad_integral(
        Kernel(N), _OFF, Ball(np.zeros(N), 1.0), c, rel_tol=1e-3),
    "rep_identity_report": lambda c: rep_identity_report(
        Bubble(0.5, np.zeros(N), N), Bubble(1.0, np.zeros(N), N), Ball(np.zeros(N), 1.0), c,
        rel_tol=1e-3),
    "rep_formula_report-p": lambda c: rep_formula_report(
        _OFF, _profile(c), Ball(np.zeros(N), 1.0), [0.5, 0, 0], m_sphere=4, m_boundary=8,
        rel_tol=1e-3),
    "Bubble": lambda c: Bubble(1.0, c, N),
    "CallableRadialField": lambda c: CallableRadialField(
        N, lambda r: 1.0 + 0 * r, lambda r: 0 * r, lambda r: 0 * r, center=c),
    "BlowupInput.excluded": lambda c: BlowupInput(
        field=_BUBBLE, epsilon=0.1, R=5.0, delta_target=0.2, excluded=((c, 0.05),)),
    "verify_profile-p": lambda c: verify_profile(_OFF, _profile(c)),
    "GlueConfig.bubble_insert-x1": lambda c: GlueConfig.bubble_insert(
        _OFF, Bubble(1.0, _O, N), c, rho_M=5.0),
    "InsertGlueField-x1": lambda c: InsertGlueField(_OFF, Bubble(1.0, _O, N), c, 5.0),
    "sup_scan-ball": lambda c: sup_scan(Bubble(1.0, _O, N), _unit_ball(c), _GS),
    "sup_scan-annulus": lambda c: sup_scan(_BUBBLE, Annulus(c, 0.2, 1.0), _GS),
    "sup_scan-box": lambda c: sup_scan(_BUBBLE, Box(c - 1.0, c + 1.0), _GS),
    "sup_scan-field": lambda c: sup_scan(_bubble_at(c), _REGIONS["box"], _GS),
    "weighted_grad_integral-ball": lambda c: weighted_grad_integral(
        Kernel(N), Bubble(1.0, _O, N), _unit_ball(c), _O, rel_tol=1e-3),
    "weighted_grad_integral-kernel": lambda c: weighted_grad_integral(
        Kernel(len(c)), Bubble(1.0, _O, N), Ball(_O, 1.0), np.zeros(len(c)), rel_tol=1e-3),
    "weighted_grad_integral-field": lambda c: weighted_grad_integral(
        Kernel(N), _bubble_at(c), Ball(_O, 1.0), _O, rel_tol=1e-3),
    "rep_identity_report-omega2": lambda c: rep_identity_report(
        Bubble(0.5, _O, N), Bubble(1.0, _O, N), _unit_ball(c), _O, rel_tol=1e-3),
    "rep_identity_report-u2": lambda c: rep_identity_report(
        Bubble(0.5, _O, N), _bubble_at(c), Ball(_O, 1.0), _O, rel_tol=1e-3),
    "rep_formula_report-omega": lambda c: rep_formula_report(
        _OFF, None, Ball(c, 1.0), _O, m_sphere=4, m_boundary=8, rel_tol=1e-3),
    "lower_bound_3_9-omega2": lambda c: lower_bound_3_9(
        Bubble(0.5, _O, N), Bubble(1.0, _O, N), _unit_ball(c), _O),
    "lower_bound_3_9-u2": lambda c: lower_bound_3_9(
        Bubble(0.5, _O, N), _bubble_at(c), Ball(_O, 1.0), _O),
}


# 1 is the dimension that numpy broadcasts against any other
@pytest.mark.parametrize("dim", [1, N - 1, N + 1])
@pytest.mark.parametrize("fn", POINT_TAKERS.values(), ids=POINT_TAKERS.keys())
def test_xi_and_centres_of_another_dimension_raise(fn, dim):
    fn(np.r_[0.2, np.zeros(N - 1)])  # one point of R^n is taken
    with pytest.raises(ValueError):
        fn(np.r_[0.2, np.zeros(dim - 1)])


def test_fields_keep_their_own_centres():
    c = np.zeros(N)
    b = Bubble(1.0, c, N)
    w = InsertGlueField(_OFF, Bubble(1.0, _O, N), c, 5.0)
    inv = Inversion(c, 1.0)
    kelvin = KelvinField(Bubble(1.0, _O, N), inv)
    kelvin_value = kelvin.value(_X)
    ball, annulus, prof = Ball(c, 1.0), Annulus(c, 0.2, 1.0), _profile(c)
    lo, hi = -np.ones(N), np.ones(N)
    box = Box(lo, hi)
    xi2 = np.array([2.0, 0.0, 0.0])
    params = ThmBParams(0.1, 0.1, 0.5, 0.5, _O, xi2)
    c[0], lo[0], xi2[0] = 2.0, 5.0, 0.5
    assert b.radial and not b.center.any() and b.value(_O) == 1.0
    assert not w.x1.any()
    assert not inv.center.any() and kelvin.radial and kelvin.value(_X) == kelvin_value
    assert not (ball.center.any() or annulus.center.any() or prof.p.any())
    assert np.all(box.lo < box.hi)
    assert params.separation == 2.0


# every integral with rays from a pole xi, at a pole on or outside the unit ball
OUTSIDE_POLE = {
    "int_absH_ball": lambda xi: int_absH_ball(Kernel(N), 1.0, xi),
    "weighted_grad_integral-radial": lambda xi: weighted_grad_integral(
        Kernel(N), Bubble(1.0, _O, N), Ball(_O, 1.0), xi, rel_tol=1e-3),
    "weighted_grad_integral-polar": lambda xi: weighted_grad_integral(
        Kernel(N), _OFF, Ball(_O, 1.0), xi, rel_tol=1e-3),
    "rep_identity_report": lambda xi: rep_identity_report(
        Bubble(0.5, _O, N), Bubble(1.0, _O, N), Ball(_O, 1.0), xi, rel_tol=1e-3),
    "lower_bound_3_9": lambda xi: lower_bound_3_9(
        Bubble(0.5, _O, N), Bubble(1.0, _O, N), Ball(_O, 1.0), xi),
    "rep_formula_report": lambda xi: rep_formula_report(
        _OFF, None, Ball(_O, 1.0), xi, m_sphere=4, m_boundary=8, rel_tol=1e-3),
    "rep_formula_report-p": lambda xi: rep_formula_report(
        _OFF, _profile(_O), Ball(_O, 1.0), xi, m_sphere=4, m_boundary=8, rel_tol=1e-3),
}


@pytest.mark.parametrize("xi", [[1.5, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                         ids=["1.5", "3", "boundary"])
@pytest.mark.parametrize("fn", OUTSIDE_POLE.values(), ids=OUTSIDE_POLE.keys())
def test_poles_off_the_ball_raise_before_evaluation(fn, xi, monkeypatch):
    def no_jet(self, *args):
        raise AssertionError("a field was evaluated")

    monkeypatch.setattr(Bubble, "_jet", no_jet)
    with pytest.raises(ValueError, match="xi must lie inside the ball"):
        fn(np.array(xi))


def test_one_point_gives_a_python_scalar():
    x = np.array([0.3, 0.1, 0.0])
    for region in _REGIONS.values():
        assert type(region.contains(x)) is bool
        assert region.contains(np.stack([x, 2 * x])).dtype == bool
    assert type(weighted_u(_INPUT, x)) is float
    assert type(d_eps(x, 0.1)) is float
    assert type(h_eval(Kernel(N), x, _XI)) is float


def test_one_point_inv_root_grad_sq_is_its_batch_value(rng):
    pts = rng.uniform(-2.0, 2.0, size=(500, N))
    for f in (_BUBBLE, SumField(_BUBBLE, Bubble(0.3, [-0.5, 0.2, 0.0], N))):
        batch = inv_root_grad_sq(f, pts)
        one = np.array([inv_root_grad_sq(f, x) for x in pts])
        assert one.tobytes() == batch.tobytes()

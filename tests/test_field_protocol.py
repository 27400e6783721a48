"""The shared point-or-batch contract of every field class."""

import sys
import tracemalloc

import numpy as np
import pytest

from bubbleforge import (
    BaseField,
    BlowupInput,
    Bubble,
    CallableRadialField,
    GlueConfig,
    Inversion,
    ScalarField,
    SumField,
    fit_bubble,
    glue_bubble_into,
    glue_concentric,
    glue_disjoint,
    inv_root_grad_sq,
    k_function,
    kelvin_bubble,
    lemma_5_4_compose,
    rescale,
)
from bubbleforge import kelvin
from bubbleforge.blowup import RescaledField, _c2_deviation, _fit_samples
from bubbleforge.cli import _power_field
from bubbleforge.field_core import _k_of, _sq_dist
from bubbleforge.glue import Cutoff
from bubbleforge.kelvin import KelvinField, _image


def _callable_radial(center=(0.2, 0, 0)):
    return CallableRadialField(
        3,
        lambda r: 1.0 / (1.0 + r * r),
        lambda r: -2.0 * r / (1.0 + r * r) ** 2,
        lambda r: (6.0 * r * r - 2.0) / (1.0 + r * r) ** 3,
        center=center,
    )


def _insert():
    host = SumField(Bubble(1.0, np.zeros(3), 3), BaseField(3))
    return glue_bubble_into(GlueConfig.bubble_insert(host, Bubble(0.5, np.zeros(3), 3),
                                                     [0.1, 0, 0], rho_M=2.0))


def _composed():
    f = kelvin_bubble(Bubble(0.8, [1.0, 0.5, 0], 3), Inversion([0, 0, 0], 1.0))
    return lemma_5_4_compose(f, Inversion([0.3, -0.2, 0.1], 1.7))


# each factory returns a field and the half-width of a cube of admissible points
FIELDS = {
    "bubble": lambda: (Bubble(0.7, [0.1, -0.2, 0.3], 3), 2.0),
    "bubble-n4": lambda: (Bubble(1.3, [0.5, 0, 0, -0.5], 4), 2.0),
    "base": lambda: (BaseField(3), 2.0),
    "callable-radial": lambda: (_callable_radial(), 2.0),
    "sum": lambda: (SumField(Bubble(1.0, [1, 0, 0], 3), Bubble(0.5, [-1, 0.5, 0], 3)), 2.0),
    "concentric": lambda: (glue_concentric(GlueConfig.concentric(
        Bubble(0.2, np.zeros(3), 3), Bubble(1.0, np.zeros(3), 3), 0.5, 1.5)), 2.0),
    "disjoint": lambda: (glue_disjoint(GlueConfig.disjoint(
        Bubble(0.1, [2.5, 0, 0], 3), 0.5, Bubble(1.0, np.zeros(3), 3), 0.5)), 3.0),
    "insert": lambda: (_insert(), 2.0),
    "kelvin": lambda: (KelvinField(
        SumField(Bubble(1.0, [0.5, 0, 0], 3), Bubble(0.7, [-0.5, 0.2, 0], 3)),
        Inversion([0.05, 0.1, -0.1], 1.2)), 2.0),
    "lemma-5-4": lambda: (_composed(), 2.0),
    "rescaled": lambda: (RescaledField(Bubble(0.1, [0.3, 0, 0], 3), [0.3, 0, 0], 0.1, 2.0), 1.0),
}


@pytest.mark.parametrize("make", FIELDS.values(), ids=FIELDS.keys())
def test_point_and_batch_shapes(make, rng):
    f, half = make()
    n = f.n
    pts = rng.uniform(-half, half, size=(6, n))
    val, grad, lap = f.value(pts), f.gradient(pts), f.laplacian(pts)
    assert val.shape == (6,) and grad.shape == (6, n) and lap.shape == (6,)
    for i, x in enumerate(pts):
        v, g, lp = f.value(x), f.gradient(x), f.laplacian(x)
        assert type(v) is float and type(lp) is float
        assert isinstance(g, np.ndarray) and g.shape == (n,)
        # one point is evaluated as a batch of one, bit for bit like its row
        assert v == val[i] and lp == lap[i] and np.array_equal(g, grad[i])
    cube = pts.reshape(2, 3, n)
    assert np.array_equal(f.value(cube), val.reshape(2, 3))
    assert np.array_equal(f.gradient(cube), grad.reshape(2, 3, n))
    assert np.array_equal(f.laplacian(cube), lap.reshape(2, 3))
    for bad in (np.zeros(n + 1), np.zeros((4, n - 1))):
        for method in (f.value, f.gradient, f.laplacian):
            with pytest.raises(ValueError):
                method(bad)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# FIELDS and the singular field |x|^beta of the rep-singular experiment
JET_FIELDS = {**FIELDS, "rep-singular": lambda: (_power_field(3, -0.5), 2.0)}


@pytest.mark.parametrize("make", JET_FIELDS.values(), ids=JET_FIELDS.keys())
def test_jet_is_value_gradient_laplacian(make, rng):
    f, half = make()
    pts = rng.uniform(-half, half, size=(64, f.n))
    X = np.ascontiguousarray(pts.T)  # the jet's column batch, (n, m)
    u, g, lap = f._jet(X, True, True)
    assert _same_bits(u, f.value(pts))
    # the jet's gradient has the layout of its points, (n, m)
    assert g.shape == (f.n, 64)
    assert _same_bits(np.ascontiguousarray(g.T), f.gradient(pts))
    assert _same_bits(lap, f.laplacian(pts))
    u2, g2, lap2 = f._jet(X, False, True)
    assert g2 is None and _same_bits(u2, u) and _same_bits(lap2, lap)
    # a gradient-only jet forms no Laplacian and moves no bit of u or g
    u3, g3, lap3 = f._jet(X, True, False)
    assert lap3 is None and _same_bits(u3, u) and _same_bits(g3, g)
    # a value-only jet forms neither derivative and moves no bit of u
    u4, g4, lap4 = f._jet(X, False, False)
    assert g4 is None and lap4 is None and _same_bits(u4, u)


@pytest.mark.parametrize("make", FIELDS.values(), ids=FIELDS.keys())
def test_column_batch_jet_is_the_per_point_evaluation(make, rng):
    f, half = make()
    pts = rng.uniform(-half, half, size=(24, f.n))
    X = np.ascontiguousarray(pts.T)
    assert X.shape == (f.n, 24) and X.flags.c_contiguous
    u, g, lap = f._jet(X, True, True)
    for j, x in enumerate(pts):
        assert u[j].hex() == f.value(x).hex()
        assert _same_bits(g[:, j], f.gradient(x))
        assert lap[j].hex() == f.laplacian(x).hex()
    # strided views of the same points: the transpose of the (m, n) batch,
    # and every other column of a wider buffer
    wide = np.zeros((f.n, 48))
    wide[:, ::2] = X
    for view in (pts.T, wide[:, ::2]):
        assert not view.flags.c_contiguous
        for got, want in zip(f._jet(view, True, True), (u, g, lap)):
            assert _same_bits(got, want)


@pytest.mark.parametrize("name", ["disjoint", "insert"])
def test_glue_value_jet_forms_no_cutoff_slope(name, rng, monkeypatch):
    f, half = FIELDS[name]()
    X = rng.uniform(-half, half, size=(f.n, 512))
    full = f._jet(X, True, True)[0]

    def slope(*args):
        raise AssertionError("a value-only jet formed a cutoff derivative")

    monkeypatch.setattr(Cutoff, "_jet", slope)
    u, g, lap = f._jet(X, False, False)
    assert g is None and lap is None
    assert [v.hex() for v in u.tolist()] == [v.hex() for v in full.tolist()]


class _NoJet(ScalarField):
    """A field that implements no batch method."""

    n = 3


@pytest.mark.parametrize("derivative", [
    lambda f, x: f.value(x), lambda f, x: f.gradient(x), lambda f, x: f.laplacian(x),
    k_function, inv_root_grad_sq,
], ids=["value", "gradient", "laplacian", "k_function", "inv_root_grad_sq"])
def test_field_without_jet_has_no_derivatives(derivative):
    # _jet is the one batch hook: without it a field has no value either
    f = _NoJet()
    x = np.array([[0.1, 0.2, 0.3], [1.0, 0.0, -1.0]])
    with pytest.raises(NotImplementedError):
        derivative(f, x)


class _SecondDerivativeFormed(Exception):
    pass


def test_callable_radial_value_and_gradient_never_call_d2f():
    def d2f(r):
        raise _SecondDerivativeFormed

    def field(second):
        return CallableRadialField(3, lambda r: 1.0 / (1.0 + r * r),
                                   lambda r: -2.0 * r / (1.0 + r * r) ** 2, second,
                                   center=[0.2, 0, 0])

    f, ref = field(d2f), _callable_radial()
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(64, 3))
    assert _same_bits(f.value(pts), ref.value(pts))
    assert _same_bits(f.gradient(pts), ref.gradient(pts))
    assert _same_bits(inv_root_grad_sq(f, pts), inv_root_grad_sq(ref, pts))
    with pytest.raises(_SecondDerivativeFormed):
        f.laplacian(pts)


def _c2_three_passes(w, model, pts):
    """The fit deviation from separate value, gradient and Laplacian passes."""
    dval = np.abs(np.asarray(w.value(pts)) - np.asarray(model.value(pts)))
    dgrad = np.sqrt(_sq_dist(np.asarray(w.gradient(pts)).T, np.asarray(model.gradient(pts)).T))
    dlap = np.abs(np.asarray(w.laplacian(pts)) - np.asarray(model.laplacian(pts)))
    return float(np.max(dval + dgrad + dlap))


def test_c2_deviation_of_a_fit_is_the_three_pass_deviation():
    f = SumField(Bubble(0.05, [0.3, 0, 0], 3), BaseField(3))
    w = rescale(BlowupInput(field=f, epsilon=0.1, R=2.0, delta_target=0.01), [0.29, 0.01, 0])
    r_fit = min(2.0, 0.97 * w.window_radius)
    mu, y_o, delta = fit_bubble(w, r_fit)
    model, X = Bubble(mu, y_o, 3), _fit_samples(3, r_fit)
    ref = _c2_three_passes(w, model, X.T)
    assert delta.hex() == ref.hex()
    assert _c2_deviation(w, model, X).hex() == ref.hex()


@pytest.mark.parametrize("name", ["disjoint", "lemma-5-4"])
def test_c2_deviation_is_the_three_pass_deviation(name, rng):
    f, half = FIELDS[name]()
    pts = rng.uniform(-half, half, size=(64, f.n))
    model = Bubble(0.9, [0.2, 0.1, 0], 3)
    assert _c2_deviation(f, model, pts.T).hex() == _c2_three_passes(f, model, pts).hex()


@pytest.mark.parametrize("name, calls", [("disjoint", 2), ("concentric", 1),
                                         ("sum", 2), ("kelvin", 3)])
def test_k_batch_distance_kernel_calls(name, calls, rng, monkeypatch):
    # one call per centre: each composite field shares its radii with its sources
    f, half = FIELDS[name]()
    pts = rng.uniform(-half, half, size=(32, f.n))
    seen = []

    def counted(*args, **kwargs):
        seen.append(1)
        return _sq_dist(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("bubbleforge") and hasattr(mod, "_sq_dist"):
            monkeypatch.setattr(mod, "_sq_dist", counted)
    k_function(f, pts)
    assert len(seen) == calls


@pytest.mark.parametrize("make", FIELDS.values(), ids=FIELDS.keys())
def test_k_of_keeps_the_bits_of_its_expression(make, rng):
    # K was -lap / (n(n-2) u^((n+2)/(n-2))) as one expression before _k_of
    # formed it in one buffer
    f, half = make()
    n = f.n
    u, _, lap = f._jet(rng.uniform(-half, half, size=(n, 256)), False, True)
    assert _same_bits(_k_of(n, u, lap), -lap / (n * (n - 2) * u ** ((n + 2) / (n - 2))))
    assert _same_bits(_k_of(n, float(u[0]), float(lap[0])),
                      -float(lap[0]) / (n * (n - 2) * float(u[0]) ** ((n + 2) / (n - 2))))


def _aliasing_profiles():
    """Profiles whose callables hand back memory the jets write into: r itself
    for f, f' and f'', one cached array for all three, or read-only
    broadcasts of a constant, with the same profiles as fresh arrays for
    reference."""
    seen = []  # (r, a copy of it) for every radius array a callable got

    def identity(r):
        seen.append((r, r.copy()))
        return r

    memo = {}

    def exp_once(r):
        seen.append((r, r.copy()))
        return memo.setdefault(id(r), (r, np.exp(r)))[1]

    def one(r):
        seen.append((r, r.copy()))
        return np.broadcast_to(1.0, r.shape)  # read-only

    def zero(r):
        return np.broadcast_to(0.0, r.shape)

    return seen, [((identity,) * 3, (lambda r: r.copy(),) * 3),
                  ((exp_once,) * 3, (np.exp,) * 3),
                  ((one, zero, zero), (np.ones_like, np.zeros_like, np.zeros_like))]


@pytest.mark.parametrize("grad, d2", [(False, False), (True, False), (False, True), (True, True)])
def test_callable_profile_may_return_its_radii(grad, d2, rng):
    # a jet writes into what a profile returns; the field copies what would
    # alias r or another derivative or is read-only, so a sum keeps the bits
    # of fresh arrays and leaves r intact
    seen, cases = _aliasing_profiles()
    X = rng.uniform(-2.0, 2.0, size=(3, 128))
    X[:, 0] = [0.2, 0.0, 0.0]  # the centre, r = 0
    b = Bubble(0.7, [0.1, -0.2, 0.3], 3)
    for aliasing, fresh in cases:
        got = SumField(CallableRadialField(3, *aliasing, center=[0.2, 0, 0]), b)._jet(X, grad, d2)
        ref = SumField(CallableRadialField(3, *fresh, center=[0.2, 0, 0]), b)._jet(X, grad, d2)
        for a, c in zip(got, ref):
            assert (a is None and c is None) or _same_bits(a, c)
    assert seen and all(_same_bits(r, copy) for r, copy in seen)


class _PowerCount(np.ndarray):
    """An array that counts the np.power calls made on it and on what ufuncs derive from it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.power:
            _PowerCount.calls += 1

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, _PowerCount) else a

        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        res = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return res.view(_PowerCount) if isinstance(res, np.ndarray) else res


def _powers(fn, *args):
    """np.power calls fn makes on the counted arrays among args."""
    _PowerCount.calls = 0
    fn(*args)
    return _PowerCount.calls


def _counted(a):
    # a counting copy: the caller's array stays a plain one
    return np.array(a).view(_PowerCount)


# numpy turns ``x ** 0.5`` into a square root, so n = 3 would hide the
# bubble's one power; from n = 4 on every exponent reaches np.power
@pytest.mark.parametrize("n", [4, 5, 6])
def test_closed_form_jets_take_one_power_per_point(n, monkeypatch):
    rng = np.random.default_rng(18 + n)
    sq = rng.uniform(0.0, 4.0, size=64)
    sq[0] = 0.0
    b = Bubble(0.7, rng.normal(size=n), n)
    assert _powers(b._radial_jet, _counted(np.sqrt(sq)), True, True) == 1
    assert _powers(BaseField(n)._radial_jet, _counted(np.sqrt(sq)), True, True) == 1
    # the Kelvin transform's own powers: its points, and so its offsets, are
    # counted, while its source's jet sees the plain image points
    monkeypatch.setattr(kelvin, "_image",
                        lambda inv, d, rho2: _image(inv, d, rho2).view(np.ndarray))
    f = KelvinField(b, Inversion(np.full(n, 3.0), 1.5))
    assert _powers(f._jet, _counted(rng.uniform(-1.0, 1.0, size=(n, 64))), True, True) == 1


# tracemalloc peak of one k_function call on 65,536 points, in KiB, measured
# with the jets that form their terms in place and rounded up by 1%, so a jet
# that keeps one more point-sized array (512 KiB) alive fails here
_K_PEAK_KIB = {
    "bubble": 1553,
    "bubble-n4": 1553,
    "base": 2051,
    "callable-radial": 3104,
    "sum": 2562,
    "concentric": 5174,
    "disjoint": 6208,
    "insert": 7827,
    "kelvin": 4656,
    "lemma-5-4": 5755,
    "rescaled": 3170,
}


@pytest.mark.parametrize("name", FIELDS)
def test_k_function_peak_memory(name, rng):
    f, half = FIELDS[name]()
    pts = rng.uniform(-half, half, size=(65536, f.n))
    k_function(f, pts[:8])
    tracemalloc.start()
    try:
        k_function(f, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _K_PEAK_KIB[name] * 1024

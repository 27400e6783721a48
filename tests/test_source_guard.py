"""Guards on the package source.

No reduction over a short last axis: a numpy sum, norm, all or any over
the last axis of an (m, n) batch with n = 3..6 runs several times slower
than adding the n columns, which field_core._sq_dist and _row_dot do (and
Box.contains with `&`).

No short-axis broadcast in a jet: a [:, None] or [..., None] subscript
in a field's _jet, or in the quadratures' ray-point helper, broadcasts a
per-point factor against the n coordinates of an (m, n) batch, an inner
loop of n = 3..6.  The jets take their points and keep their gradients as
(n, m) coordinate rows, which per-point factors scale along the long
axis, and the ray points are written one row at a time.  The only such
subscripts left turn a point c (n,) into a column, c[:, None], which
broadcasts along the m points of the rows; ALLOWED lists each.

One point layout: points travel as (n, m) coordinate rows.  No jet,
radial jet or distance kernel transposes an array (.T), the
column-at-a-time offsets writer _offsets is gone, and the scans' chunk
(GridSpec.chunk's default) and the quadratures' ray block
(potential._SEG_BLOCK) are one named constant.  Caller coordinates enter
through field_core._pointwise and _point alone, which check their
dimension and copy: no module calls np.moveaxis, and no xi, centre, box
corner lo or hi, profile point p or two-ball centre xi1, xi2 goes through
asarray, which would keep the caller's array.

One batch hook: a field's values and derivatives come from its _jet
alone, so no _value, _gradient or _laplacian hook is defined, and a _jet
calls its sources' _jet, never the public value, gradient or laplacian.

One Laplacian flag: every field jet, _jet(pts, grad, d2), and every
radial or cutoff jet takes the flag d2 that says whether the Laplacian
(or phi'') is wanted, and a jet that calls its sources' _jet or
_radial_jet passes its own d2 on, so a composite neither forms a
Laplacian its caller drops nor drops one its caller needs.

One radial hook: a radial field supplies _radial_jet alone, so no class
defines value_r or _profile, and every RadialField subclass defines
_radial_jet.

Field classes live in the field modules: no ScalarField subclass, direct
or not, is defined outside field_core.py, glue.py, kelvin.py and
blowup.py, so a field is built from theirs (the command line's |x|^beta
is a CallableRadialField) and not forked where it is used.

One cutoff product rule: in glue.py only _blend reads the derivatives of a
Cutoff jet; every glue hands its cutoff's jet to _blend whole, and _blend
forms each cutoff product term of u, grad u and lap u.

numpy as the only runtime dependency: no module of the package imports
scipy, and importing the command line loads none of it.

One clock in the command line: only cli._timed reads time.perf_counter,
so every report row is timed the same way and no runner times itself.

No allocator pinning: the page faults of a working set are mended by
shrinking it, not hidden by tuning glibc's malloc.  No module imports
ctypes, calls or names mallopt, or names a MALLOC_* environment variable.

No default dimension: no function of the package gives a parameter
named n a default, so every caller states the R^n it works in, and a
value whose dimension its inputs carry reads it from them.

One blow-up search: blowup.py imports nothing from regions, the home of
the grid engine, so the blow-up maximum takes its branch-and-bound alone
and grows no grid path beside it.

No test oracle in the package: the analytic jet is its only derivative
path, and the finite-difference stencil lives in tests/conftest.py.  No
module names fd_scale, imports a module fd or defines Dim, and every
module but the package's __init__ and its command-line entry point is
imported by another package module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bubbleforge"
REDUCTIONS = {"sum", "norm", "all", "any"}

# Deliberate exceptions as {(file name, line text stripped): reason}.
_CENTRE_COLUMN = "a point (n,) as a column, broadcast along the m points of (n, m) rows"
ALLOWED: dict[tuple[str, str], str] = {
    ("field_core.py", "g = X - self.center[:, None]"): _CENTRE_COLUMN,
    ("glue.py", "g = X - b.center[:, None]"): _CENTRE_COLUMN,
    ("glue.py", "o = X * dp if c is None else X - c[:, None]"): _CENTRE_COLUMN,
    ("glue.py", "uh, gh, laph = self.host._jet(self.x1[:, None] + X, need, d2)"): _CENTRE_COLUMN,
    ("kelvin.py", "d = X - self.inv.center[:, None]"): _CENTRE_COLUMN,
}


def _is_last_axis(node) -> bool:
    try:
        axis = ast.literal_eval(node)
    except ValueError:
        return False
    return axis == -1 or (isinstance(axis, tuple) and -1 in axis)


def _numpy_function(func) -> bool:
    """np.<name> or np.linalg.<name>."""
    base = func.value
    if isinstance(base, ast.Attribute) and base.attr == "linalg":
        base = base.value
    return isinstance(base, ast.Name) and base.id in ("np", "numpy")


def short_axis_reductions(source: str):
    """Line numbers of sum/norm/all/any calls over axis -1, as function or method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in REDUCTIONS):
            continue
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        # positional axis: np.sum(a, -1), or a.sum(-1) for the method
        pos = 1 if _numpy_function(node.func) else 0
        if not axes and len(node.args) > pos:
            axes = [node.args[pos]]
        if any(_is_last_axis(a) for a in axes):
            found.append(node.lineno)
    return found


def test_guard_finds_reductions_and_spares_stack():
    src = "\n".join([
        "np.linalg.norm(d, axis=-1)",
        "np.sum(d * d, axis=-1, keepdims=True)",
        "np.all(x >= lo, axis=-1)",
        "np.any(m, -1)",
        "d.sum(axis=(-1,))",
        "np.stack(cols, axis=-1)",
        "np.sum(d, axis=0)",
        "np.linalg.norm(d)",
    ])
    assert short_axis_reductions(src) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_short_axis_reductions(path):
    lines = path.read_text().splitlines()
    bad = [f"{path.name}:{i}: {lines[i - 1].strip()}"
           for i in short_axis_reductions(path.read_text())
           if (path.name, lines[i - 1].strip()) not in ALLOWED]
    assert not bad, "use field_core._sq_dist / _row_dot instead:\n" + "\n".join(bad)


# Functions that must build their arrays without short-axis broadcasts,
# as {file name: function names}; every name must occur in its file.
NO_BROADCAST = {
    "field_core.py": {"_jet"},
    "glue.py": {"_jet", "_half", "_blend"},
    "kelvin.py": {"_jet"},
    "potential.py": {"_ray_points"},
}


def _is_new_axis(node) -> bool:
    """None or np.newaxis."""
    if isinstance(node, ast.Constant):
        return node.value is None
    return isinstance(node, ast.Attribute) and node.attr == "newaxis"


def short_axis_broadcasts(source: str, names):
    """(function, line) of subscripts adding an axis after the first, such as
    [:, None] or [..., None], inside the functions or methods called names."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                    and any(map(_is_new_axis, node.slice.elts[1:]))):
                found.append((fn.name, node.lineno))
    return sorted(found)


def test_guard_finds_broadcasts_and_spares_columns():
    src = "\n".join([
        "class F:",
        "    def _jet(self, pts, grad):",
        "        g = k[:, None] * d",
        "        h = u[..., None] * d",
        "        e = dirs[blk, None, :]",
        "        q = k[:, np.newaxis]",
        "        g[:, r == 0.0] = 0.0",
        "        w = x[None, :] * y[:, 0]",
        "        return g * k",
        "    def _value(self, pts):",
        "        return k[:, None] * d",
        "def _ray_points(x0, r, dirs):",
        "    return x0[None, :] + r[..., None]",
    ])
    assert short_axis_broadcasts(src, {"_jet"}) == [("_jet", i) for i in (3, 4, 5, 6)]
    assert short_axis_broadcasts(src, {"_ray_points"}) == [("_ray_points", 13)]


@pytest.mark.parametrize("name", sorted(NO_BROADCAST))
def test_no_short_axis_broadcast_in_jets(name):
    path = SRC / name
    source = path.read_text()
    tree = ast.parse(source)
    defined = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert NO_BROADCAST[name] <= defined, f"{name} no longer defines {NO_BROADCAST[name] - defined}"
    lines = source.splitlines()
    bad = [f"{name}:{i}: {fn}: {lines[i - 1].strip()}"
           for fn, i in short_axis_broadcasts(source, NO_BROADCAST[name])
           if (name, lines[i - 1].strip()) not in ALLOWED]
    assert not bad, "build the (n, m) gradient by columns instead:\n" + "\n".join(bad)


ADAPTERS = {"_value", "_gradient", "_laplacian"}
HOOKS = {"_jet"}
PUBLIC = {"value", "gradient", "laplacian"}


def second_derivative_paths(source: str):
    """(function, line) of _value/_gradient/_laplacian definitions and of
    calls to a public value, gradient or laplacian inside a _jet."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name in ADAPTERS:
            found.append((fn.name, fn.lineno))
        elif fn.name in HOOKS:
            found += [(fn.name, node.lineno) for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in PUBLIC]
    return sorted(found)


def test_guard_finds_second_paths_and_spares_hooks():
    src = "\n".join([
        "class F:",
        "    def _gradient(self, pts):",
        "        return self._nested.gradient(pts)",
        "    def _laplacian(self, pts):",
        "        return self._jet(pts, False)[2]",
        "    def _value(self, pts):",
        "        return self.f.value(pts) + self.g._value(pts) + self.value_r(pts)",
        "    def _jet(self, pts, grad):",
        "        u, g, lap = self.src._jet(pts, grad)",
        "        return u, g, lap + self.src.laplacian(pts)",
        "    def value(self, x):",
        "        return self.src.value(x)",
    ])
    assert second_derivative_paths(src) == [("_gradient", 2), ("_jet", 10),
                                            ("_laplacian", 4), ("_value", 6)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_derivative_path(path):
    lines = path.read_text().splitlines()
    bad = [f"{path.name}:{i}: {fn}: {lines[i - 1].strip()}"
           for fn, i in second_derivative_paths(path.read_text())
           if (path.name, lines[i - 1].strip()) not in ALLOWED]
    assert not bad, "derive from _jet and call the sources' _jet:\n" + "\n".join(bad)


# the functions that take and pass on d2: the jets, and the cutoff product
# rule and the disjoint glue's half, which glue.py's jets call
JETS = {"_jet", "_radial_jet", "_blend", "_half"}
FLAG = "d2"


def _flag_argument(call):
    """The argument a jet call passes as its flag: keyword d2, else the last."""
    for kw in call.keywords:
        if kw.arg == FLAG:
            return kw.value
    return call.args[-1] if call.args else None


def jet_flag_breaks(source: str):
    """(function, line) of jets without a d2 parameter, and of calls from
    one to a jet, as a method or a function, that do not pass the caller's
    own d2 as the flag."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in JETS):
            continue
        if FLAG not in [a.arg for a in fn.args.args]:
            found.append((fn.name, fn.lineno))
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _point_name(node.func) in JETS:
                flag = _flag_argument(node)
                if not (isinstance(flag, ast.Name) and flag.id == FLAG):
                    found.append((fn.name, node.lineno))
    return sorted(found)


def test_guard_finds_jets_that_drop_the_flag():
    src = "\n".join([
        "class F:",
        "    def _jet(self, pts, grad):",
        "        return self.src._jet(pts, grad)",
        "class G:",
        "    def _jet(self, pts, grad, d2):",
        "        u, g, lap = self.f._jet(pts, grad, True)",
        "        s, u1, k1, lap1 = self.b._radial_jet(sq, True, d2)",
        "        p, dp, d2p = self.cut._jet(s, d2)",
        "        v = self.g._jet(pts, grad, d2=d2)",
        "        w = self.h._jet(pts, d2, grad)",
        "        return self.k._jet(pts)",
        "    def _radial_jet(self, sq, slope):",
        "        return self._radial_jet(sq, slope, d2=False)",
        "    def _radial_jet(self, r):",
        "        return self.b._radial_jet(r, True)",
        "    def _radial_jet(self, r, slope, d2):",
        "        return self.cut._jet(r, True)",
        "def k_function(f, x):",
        "    return f._jet(x, False, True)",
        "def _blend(n, cj, a, b, grad):",
        "    return a",
        "def _half(self, X, grad, d2, into=None):",
        "    jet = _blend(n, cj, None, b, grad, d2, into=into)",
        "    return _blend(n, cj, None, b, grad, into)",
    ])
    assert jet_flag_breaks(src) == [("_blend", 20), ("_half", 24), ("_jet", 2), ("_jet", 3),
                                    ("_jet", 6), ("_jet", 10), ("_jet", 11), ("_radial_jet", 12),
                                    ("_radial_jet", 13), ("_radial_jet", 14),
                                    ("_radial_jet", 15), ("_radial_jet", 17)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_jets_take_and_pass_on_the_laplacian_flag(path):
    lines = path.read_text().splitlines()
    bad = [f"{path.name}:{i}: {fn}: {lines[i - 1].strip()}"
           for fn, i in jet_flag_breaks(path.read_text())]
    assert not bad, f"take {FLAG} and pass it on to the sources' jets:\n" + "\n".join(bad)


def test_laplacian_flag_guard_sees_every_field_module():
    jets = {path.name for path in SRC.glob("*.py")
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef) and fn.name == "_jet"}
    assert {"field_core.py", "glue.py", "kelvin.py", "blowup.py"} <= jets


RETIRED_HOOKS = {"value_r", "_profile"}
RADIAL_HOOK = "_radial_jet"


def radial_hook_breaks(sources: dict[str, str]):
    """(module, class, line) of each class of sources ({module: source}) that
    defines value_r or _profile, and of each RadialField subclass, direct or
    not, that neither defines _radial_jet nor inherits it from a subclass."""
    classes = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                         for b in node.bases]
                methods = {fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)}
                classes[node.name] = (module, node.lineno, bases, methods)

    def radial(name):
        return name == "RadialField" or name in classes and any(map(radial, classes[name][2]))

    def hooked(name):
        return name in classes and (RADIAL_HOOK in classes[name][3]
                                    or any(map(hooked, classes[name][2])))

    return sorted((module, name, line) for name, (module, line, bases, methods) in classes.items()
                  if methods & RETIRED_HOOKS or name != "RadialField" and radial(name)
                  and not hooked(name))


def test_guard_finds_second_radial_hooks():
    sources = {
        "core": "\n".join([
            "class RadialField(ScalarField):",
            "    def _jet(self, X, grad, d2):",
            "        return self._radial_jet(X, grad, d2)",
            "class Bubble(RadialField):",
            "    def _radial_jet(self, r, slope, d2):",
            "        return r, None, None",
            "    def value_r(self, r):",
            "        return r",
            "class Wide(Bubble):",
            "    pass",
            "class Bare(RadialField):",
            "    def _jet(self, X, grad, d2):",
            "        return X, None, None",
        ]),
        "glue": "\n".join([
            "class Glue(core.RadialField):",
            "    def _profile(self, r, d2):",
            "        return r, r, r",
            "class Sum(ScalarField):",
            "    def _radial_jet(self, r, slope, d2):",
            "        return r, None, None",
        ]),
    }
    assert radial_hook_breaks(sources) == [("core", "Bare", 11), ("core", "Bubble", 4),
                                           ("glue", "Glue", 1)]


def test_one_radial_hook():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    bad = [f"{module}.py:{line}: {name}" for module, name, line in radial_hook_breaks(sources)]
    assert not bad, f"a radial field supplies {RADIAL_HOOK} alone:\n" + "\n".join(bad)
    # the guard sees every radial field of the package: without the hook, each is reported
    bare = {module: source.replace(f"def {RADIAL_HOOK}(", "def _gone(")
            for module, source in sources.items()}
    assert {name for _, name, _ in radial_hook_breaks(bare)} == {
        "Bubble", "BaseField", "CallableRadialField", "ConcentricGlueField"}


FIELD_MODULES = {"field_core", "glue", "kelvin", "blowup"}


def stray_field_classes(sources: dict[str, str]):
    """(module, class, line) of each ScalarField subclass, direct or not, that
    sources ({module: source}) define outside FIELD_MODULES."""
    bases, defs = {}, []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, []).extend(map(_point_name, node.bases))
                defs.append((module, node.name, node.lineno))

    def field(name):
        return name == "ScalarField" or any(map(field, bases.get(name, ())))

    return sorted((module, name, line) for module, name, line in defs
                  if module not in FIELD_MODULES and name != "ScalarField" and field(name))


def test_guard_finds_stray_field_classes():
    sources = {
        "field_core": "\n".join([
            "class ScalarField:",
            "    pass",
            "class RadialField(ScalarField):",
            "    pass",
        ]),
        "glue": "class Glue(RadialField):\n    pass",
        "cli": "\n".join([
            "class Config:",
            "    pass",
            "class _Power(core.RadialField):",
            "    pass",
            "class _Wide(Glue):",
            "    pass",
        ]),
        "potential": "class Kernel:\n    pass\nclass Ring(ScalarField):\n    pass",
    }
    assert stray_field_classes(sources) == [("cli", "_Power", 3), ("cli", "_Wide", 5),
                                            ("potential", "Ring", 3)]


def test_field_classes_live_in_the_field_modules():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert FIELD_MODULES <= set(sources)
    bad = [f"{module}.py:{line}: {name}" for module, name, line in stray_field_classes(sources)]
    assert not bad, "a field class outside the field modules:\n" + "\n".join(bad)


BLEND = "_blend"


def cutoff_jet_uses(source: str):
    """(function, line) of each cutoff jet, a call <cut...>._jet, whose value a
    function other than _blend reads: anything but handing it whole to a
    _blend call, directly, through a conditional expression, or through one
    name that only _blend calls read."""
    tree = ast.parse(source)
    names = {}  # function node -> its name, with its class's
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names.update({fn: f"{node.name}.{fn.name}" for fn in node.body
                          if isinstance(fn, ast.FunctionDef)})
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == BLEND:
            continue
        parent = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}

        def taker(node):
            """(value, node that takes it): node, or the conditional expression it is a branch of."""
            while isinstance(parent[node], ast.IfExp) and node is not parent[node].test:
                node = parent[node]
            return node, parent[node]

        def to_blend(node):
            node, up = taker(node)
            return isinstance(up, ast.Call) and _point_name(up.func) == BLEND and node in up.args

        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and _point_name(call.func) == "_jet"
                    and (_point_name(call.func.value) or "").startswith("cut")):
                continue
            up = taker(call)[1]
            if isinstance(up, ast.Assign) and len(up.targets) == 1 and isinstance(
                    up.targets[0], ast.Name):
                ok = all(to_blend(use) for use in ast.walk(fn) if isinstance(use, ast.Name)
                         and use.id == up.targets[0].id and isinstance(use.ctx, ast.Load))
            else:
                ok = to_blend(call)
            if not ok:
                found.append((names.get(fn, fn.name), call.lineno))
    return sorted(found)


def test_guard_finds_cutoff_jets_read_outside_blend():
    src = "\n".join([
        "def _blend(n, cutoff_jet, s, a, b, dot_s, X, c, grad, d2):",
        "    p, dp, d2p = cutoff_jet",
        "    return self.cut._jet(s, d2)[1] * dp",
        "class Glue:",
        "    def _jet(self, X, grad, d2):",
        "        p, dp, d2p = self.cut._jet(s, d2)",
        "        dp = self.cut1._jet(s, d2)[1]",
        "        cj = cut._jet(s, d2) if grad or d2 else (cut.phi(s), None, None)",
        "        u = _blend(self.n, cj, s, a, b, dot_s, X, None, grad, d2)",
        "        return _blend(n, cut2._jet(s, d2), s, a, b, dot_s, X, c, grad, d2), cj[1]",
        "    def _half(self, X, b, cut, s, grad, d2):",
        "        cj = cut._jet(s, d2)",
        "        u = _blend(self.n, cj, s, None, b, None, X, None, grad, d2)",
        "        return _blend(self.n, cut._jet(s, d2) if d2 else None, s, None, b, dot, X, c,",
        "                      grad, d2), self.b._jet(X, grad, d2), cut.phi(s)",
        "def _radial_jet(self, r, slope, d2):",
        "    p = self.cut._jet(r, d2) if self.cut._jet(r, d2) else None",
        "    return _blend(self.n, p, r, a, b, None, None, None, slope, d2)",
    ])
    assert cutoff_jet_uses(src) == [("Glue._jet", 6), ("Glue._jet", 7), ("Glue._jet", 8),
                                    ("_radial_jet", 17)]


def test_only_blend_reads_a_cutoff_jet():
    source = (SRC / "glue.py").read_text()
    lines = source.splitlines()
    bad = [f"glue.py:{i}: {fn}: {lines[i - 1].strip()}" for fn, i in cutoff_jet_uses(source)]
    assert not bad, f"hand the cutoff's jet to {BLEND} whole:\n" + "\n".join(bad)
    # the guard sees every cutoff jet of the glues: without _blend, each is reported
    bare = source.replace(f"{BLEND}(", "_gone(")
    assert {fn for fn, _ in cutoff_jet_uses(bare)} == {
        "ConcentricGlueField._radial_jet", "DisjointGlueField._half", "InsertGlueField._jet"}


def scipy_imports(source: str):
    """Line numbers of `import scipy...` and `from scipy... import ...`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
    return found


def test_guard_finds_scipy_imports():
    src = "\n".join([
        "import scipy",
        "from scipy.special import gamma",
        "import numpy as np, scipy.linalg as sl",
        "from scipy import special",
        "import scipyish",
        "from .scipy import x",
        "from numpy import linalg",
    ])
    assert scipy_imports(src) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    bad = scipy_imports(path.read_text())
    assert not bad, f"{path.name} imports scipy on lines {bad}; numpy is the only dependency"


def test_cli_import_loads_no_scipy():
    code = ("import sys, bubbleforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # only a threaded scan (--threads > 1) needs concurrent.futures
    code = ("import sys, bubbleforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def clock_reads(source: str):
    """Line numbers of perf_counter references outside a function named _timed."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_timed"
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in inside and (
        isinstance(node, ast.Attribute) and node.attr == "perf_counter"
        or isinstance(node, ast.Name) and node.id == "perf_counter"
        or isinstance(node, ast.alias) and node.name == "perf_counter"))


def test_guard_finds_clock_reads_outside_timed():
    src = "\n".join([
        "import time",
        "from time import perf_counter",
        "def _timed(runner, cfg, p):",
        "    t0 = time.perf_counter()",
        "    return runner(cfg, p), time.perf_counter() - t0",
        "class _Timer:",
        "    def __enter__(self):",
        "        self.t0 = time.perf_counter()",
        "clock = time.perf_counter",
        "def run(cfg):",
        "    return perf_counter() - _timed(None, cfg, {})[1]",
    ])
    assert clock_reads(src) == [2, 8, 9, 11]


def test_only_timed_reads_the_clock_in_cli():
    source = (SRC / "cli.py").read_text()
    timed = [fn for fn in ast.walk(ast.parse(source))
             if isinstance(fn, ast.FunctionDef) and fn.name == "_timed"]
    assert len(timed) == 1 and "time.perf_counter()" in ast.unparse(timed[0])
    lines = source.splitlines()
    bad = [f"cli.py:{i}: {lines[i - 1].strip()}" for i in clock_reads(source)]
    assert not bad, "let cli._timed time the rows:\n" + "\n".join(bad)



def _imported_modules(node):
    """Dotted names of the modules an import statement may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] * bool(base) + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
    return []


def oracle_traces(source: str):
    """Line numbers that name fd_scale, import a module fd or define Dim."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "fd_scale"
                or isinstance(node, ast.Attribute) and node.attr == "fd_scale"
                or isinstance(node, (ast.arg, ast.keyword)) and node.arg == "fd_scale"
                or isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "Dim"
                or isinstance(node, ast.Name) and node.id == "Dim"
                and isinstance(node.ctx, ast.Store)
                or any(m.rsplit(".", 1)[-1] == "fd" for m in _imported_modules(node))):
            found.append(node.lineno)
    return sorted(set(found))


def test_guard_finds_oracle_traces():
    src = "\n".join([
        "from .fd import fd_laplacian",
        "from . import fd",
        "import bubbleforge.fd as fd",
        "class Dim:",
        "    n: int",
        "def f(x, fd_scale=1.0):",
        "    return g(x, fd_scale=x.fd_scale)",
        "Dim = int",
        "from .field_core import _dim, Bubble",
        "import numpy.fft",
        "scale = 1e-3 * bubble.lam",
        "n = Dim(3).n",
    ])
    assert oracle_traces(src) == [1, 2, 3, 4, 6, 7, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_test_oracle_in_package(path):
    bad = oracle_traces(path.read_text())
    assert not bad, f"{path.name} lines {bad}: the FD oracle and its steps live in tests/conftest.py"


def regions_imports(source: str, package: str = "bubbleforge"):
    """Line numbers of the imports that load the package's regions module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for m in _imported_modules(node):
            parts = m.split(".")
            if getattr(node, "level", 0) == 0:  # absolute: bubbleforge.regions
                parts = parts[1:] if parts[0] == package else []
            if parts[:1] == ["regions"]:
                found.append(node.lineno)
                break
    return found


def test_guard_finds_regions_imports():
    src = "\n".join([
        "from .regions import _grid_chunks",
        "from . import regions",
        "import bubbleforge.regions as rg",
        "from bubbleforge.regions import grid_points",
        "from .regions_extra import x",
        "from .field_core import regions",
        "import regions",
        "from .potential import sphere_rule",
    ])
    assert regions_imports(src) == [1, 2, 3, 4]


def test_blowup_search_takes_no_grid():
    bad = regions_imports((SRC / "blowup.py").read_text())
    assert not bad, f"blowup.py imports regions on lines {bad}; the branch-and-bound is its one search"


def unimported_modules(sources: dict[str, str], package: str, entry: set[str]):
    """Modules of sources ({module name: source}) that no other one imports,
    leaving out __init__ and the entry-point modules."""
    imported = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            for m in _imported_modules(node):
                parts = m.split(".")
                if getattr(node, "level", 0) == 0:  # absolute: bubbleforge.<module>
                    parts = parts[1:] if parts[0] == package else []
                if parts and parts[0] != name:
                    imported.add(parts[0])
    return sorted(set(sources) - imported - entry - {"__init__"})


def test_guard_finds_unimported_modules():
    sources = {
        "__init__": "from .core import k\nfrom . import glue",
        "core": "from .oracle import lap\nimport numpy",
        "glue": "from bubbleforge.core import k\nimport bubbleforge",
        "regions": "from .regions import _helper",
        "oracle": "import numpy as np",
        "stray": "from .core import k",
        "cli": "from .core import k",
    }
    assert unimported_modules(sources, "bubbleforge", {"cli"}) == ["regions", "stray"]


def test_every_module_is_imported_by_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    scripts = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]["scripts"]
    entry = {target.split(":")[0].rsplit(".", 1)[-1] for target in scripts.values()}
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert entry <= set(sources)
    assert unimported_modules(sources, SRC.name, entry) == [], "a module no package module imports"


ROW_KERNELS = {"_jet", "_radial_jet", "_sq_dist", "_row_dot"}
POINTS = {"xi", "center", "lo", "hi", "p", "xi1", "xi2"}  # names that hold one point (n,)


def _point_name(node):
    """The name a bare or attribute argument ends in: xi for xi, p for prof.p."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def layout_breaks(source: str):
    """(name, line) of a definition of _offsets, of any other use of that
    name or of moveaxis, of an asarray call on a point (a name or attribute
    in POINTS), and of each .T inside a _jet, _radial_jet, _sq_dist or
    _row_dot."""
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_offsets":
            found.append(("_offsets", node.lineno))
        for name in ("_offsets", "moveaxis"):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name):
                found.append((name, node.lineno))
        if (isinstance(node, ast.Call) and node.args
                and _point_name(node.args[0]) in POINTS
                and "asarray" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))):
            found.append((f"asarray({_point_name(node.args[0])})", node.lineno))
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in ROW_KERNELS:
            found += [(fn.name, node.lineno) for node in ast.walk(fn)
                      if isinstance(node, ast.Attribute) and node.attr == "T"]
    return sorted(found)


def test_guard_finds_transposes_and_offsets():
    src = "\n".join([
        "from .field_core import _offsets",
        "def _offsets(pts, c):",
        "    return pts.T - c",
        "class F:",
        "    def _jet(self, X, grad, d2):",
        "        g = self.src._jet(X.T, grad, d2)[1]",
        "        return g.T",
        "    def _radial_jet(self, r, slope, d2):",
        "        return r.T",
        "def _sq_dist(X, c=None):",
        "    return (X.T ** 2).sum(axis=1)",
        "def gradient(self, x):",
        "    return g.T + kelvin._offsets(x, c)",
        "def h_eval(k, x, xi):",
        "    X = np.moveaxis(np.asarray(x, dtype=float), -1, 0)",
        "    return _h_rows(k, X, np.asarray(xi, dtype=float))",
        "from numpy import asarray, moveaxis",
        "c = asarray(xi); d = asarray(x); e = np.asarray(xi0); f = _point(xi, n)",
        "class Ball:",
        "    def __post_init__(self):",
        "        object.__setattr__(self, 'center', np.asarray(self.center, dtype=float))",
        "        lo, hi = np.asarray(self.lo), np.asarray(hi, float)",
        "        p = np.asarray(prof.p); q = np.asarray(self.xi1) - np.asarray(xi2)",
        "        r = np.asarray(self.radius); s = np.asarray(self.pts); t = _point(self.center, 3)",
    ])
    assert layout_breaks(src) == [("_jet", 6), ("_jet", 7), ("_offsets", 1), ("_offsets", 2),
                                  ("_offsets", 13), ("_radial_jet", 9), ("_sq_dist", 11),
                                  ("asarray(center)", 21), ("asarray(hi)", 22),
                                  ("asarray(lo)", 22), ("asarray(p)", 23), ("asarray(xi)", 16),
                                  ("asarray(xi)", 18), ("asarray(xi1)", 23), ("asarray(xi2)", 23),
                                  ("moveaxis", 15), ("moveaxis", 17)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_points_travel_as_coordinate_rows(path):
    lines = path.read_text().splitlines()
    bad = [f"{path.name}:{i}: {fn}: {lines[i - 1].strip()}"
           for fn, i in layout_breaks(path.read_text())]
    assert not bad, ("take and keep (n, m) coordinate rows, converting caller coordinates "
                     "with _pointwise or _point:\n" + "\n".join(bad))


def _assigned_name(tree, target: str):
    """The name a module-level `target = <name>` assigns, or None."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == target
                and isinstance(node.value, ast.Name)):
            return node.value.id
    return None


def test_scan_chunk_and_ray_block_are_one_constant():
    regions = ast.parse((SRC / "regions.py").read_text())
    [spec] = [node for node in regions.body
              if isinstance(node, ast.ClassDef) and node.name == "GridSpec"]
    [default] = [node.value for node in spec.body if isinstance(node, ast.AnnAssign)
                 and isinstance(node.target, ast.Name) and node.target.id == "chunk"]
    assert isinstance(default, ast.Name), "GridSpec.chunk's default must be a named constant"
    assert _assigned_name(regions, default.id) is None  # a value, not an alias
    assert any(isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == default.id for t in node.targets)
        for node in regions.body), f"regions.py does not define {default.id}"
    potential = ast.parse((SRC / "potential.py").read_text())
    assert _assigned_name(potential, "_SEG_BLOCK") == default.id
    imported = {alias.name for node in potential.body if isinstance(node, ast.ImportFrom)
                and node.module == "regions" for alias in node.names}
    assert default.id in imported


def allocator_pinning(source: str):
    """Line numbers that import ctypes, call or name mallopt, or name a MALLOC_*
    environment variable (any string constant starting MALLOC_)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules = _imported_modules(node)
        text = node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""
        if (any(m.split(".")[0] == "ctypes" for m in modules)
                or text.split(".")[0] in ("ctypes", "mallopt") or text.startswith("MALLOC_")
                or isinstance(node, ast.Name) and node.id == "mallopt"
                or isinstance(node, ast.Attribute) and node.attr == "mallopt"):
            found.append(node.lineno)
    return sorted(set(found))


def test_guard_finds_allocator_pinning():
    src = "\n".join([
        "import ctypes",
        "from ctypes import CDLL",
        "libc = ctypes.CDLL(None); libc.mallopt(-1, 1 << 23)",
        "os.environ['MALLOC_TRIM_THRESHOLD_'] = '8388608'",
        "os.environ.setdefault('MALLOC_MMAP_THRESHOLD_', '4194304')",
        "t = os.getenv('MALLOC_ARENA_MAX')",
        "m = importlib.import_module('ctypes.util')",
        "f = getattr(libc, 'mallopt')",
        "import ctypeslib, numpy.ctypeslib",
        "x = np.empty(8); os.environ.get('OPENBLAS_NUM_THREADS')",
        "s = 'malloc trim'",
    ])
    assert allocator_pinning(src) == [1, 2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_allocator_pinning(path):
    bad = allocator_pinning(path.read_text())
    assert not bad, f"{path.name} lines {bad}: shrink the working set instead of pinning malloc"


def dimension_defaults(source: str):
    """Line numbers of the functions and lambdas that give a parameter named n a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if any(arg.arg == "n" for arg in defaulted):
                found.append(node.lineno)
    return found


def test_guard_finds_dimension_defaults():
    src = "\n".join([
        "def f(x, n=3): pass",
        "def g(x, *, n=None): pass",
        "async def h(n=4, /): pass",
        "k = lambda x, n=3: x",
        "def ok(n, m=3): pass",
        "def ok2(x, *, n): pass",
        "def ok3(n, /, x=1, *, y=2): pass",
        "def ok4(nn=3, n_candidates=8): pass",
    ])
    assert dimension_defaults(src) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dimension_default(path):
    bad = dimension_defaults(path.read_text())
    assert not bad, f"{path.name} lines {bad}: a dimension n has no default"

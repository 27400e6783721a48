"""Guards on the package source.

No reduction over a short last axis: a numpy sum, norm, all or any over
the last axis of an (m, n) batch with n = 3..6 runs several times slower
than adding the n columns, which field_core._sq_dist and _row_dot do (and
Box.contains with `&`).

numpy as the only runtime dependency: no module of the package imports
scipy, and importing the command line loads none of it.
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
ALLOWED: dict[tuple[str, str], str] = {}


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

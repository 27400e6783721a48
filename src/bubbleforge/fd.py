"""Central finite-difference stencils used as cross-check oracles.

These are deliberately independent from the analytic derivative code paths:
they only ever call a field's value function.
"""

from __future__ import annotations

import numpy as np


def fd_laplacian(value, x, h: float = 1e-4) -> float:
    """Second-order central Laplacian (2n+1 point stencil) at a single point."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    c = float(value(x))
    acc = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        acc += float(value(x + e)) - 2.0 * c + float(value(x - e))
    return acc / (h * h)

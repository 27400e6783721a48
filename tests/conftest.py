import numpy as np
import pytest

from bubbleforge import inv_root_grad_sq, k_function


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_rotation(rng, n: int) -> np.ndarray:
    """Haar-ish random rotation from the QR of a Gaussian matrix."""
    m = rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# --- finite-difference oracle -------------------------------------------------
# Independent of the package's analytic jets: these call a field's value only,
# and every caller passes its step h.


def fd_laplacian(value, x, h: float) -> float:
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


def fd_k(f, x, h: float) -> float:
    """Curvature function K of f at a single point x, its Laplacian by fd_laplacian."""
    n = f.n
    u = f.value(x)
    return -fd_laplacian(f.value, x, h) / (n * (n - 2) * u ** ((n + 2) / (n - 2)))


def identity_3_4_residual(f, x, h: float) -> float:
    """Residual of the transformed-Laplacian identity (3.4) at a single point.

    lap(f^(-4/(n-2)))(x) by fd_laplacian, minus the analytic right side
    4n K(x) + (n+2) |grad(f^(-2/(n-2)))(x)|^2; the two agree up to the
    stencil error for any positive C^2 field.
    """
    n = f.n
    lhs = fd_laplacian(lambda y: f.value(y) ** (-4.0 / (n - 2)), x, h)
    return lhs - (4.0 * n * k_function(f, x) + (n + 2) * inv_root_grad_sq(f, x))

"""Trigonometric basis, primitives, and Fejer smoothing of grid paths.

The basis on [0, T] is indexed so that index 0 is the constant, odd index
2m-1 is the sine and even index 2m the cosine at frequency m;
``basis_value`` and ``basis_primitive`` evaluate element l at an array of
times.  Primitives are chosen with zero mean over [0, T], which makes the
coefficient of the de-ramped path a single forward integral of the
primitive (``fejer_coefficient``; ``fejer_coefficient_quadrature`` is its
direct-quadrature oracle).

The Fejer mean averages the partial sums over *complete frequency blocks*
(constant + m sine/cosine pairs), i.e. the classical positive-kernel
construction; averaging truncations that split a sine/cosine pair does not
contract in sup-norm.  The smoothing order ``n`` therefore counts frequency
pairs, and the operator uses basis indices up to 2n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .grids import GridPath, TimeGrid
from .regularization import forward_integral

__all__ = [
    "basis_value",
    "basis_primitive",
    "terminal_ramp",
    "fejer_coefficient",
    "fejer_coefficient_quadrature",
    "fejer_weights",
    "fejer_mean",
    "fejer_smooth",
]


def basis_value(l: int, horizon: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if l == 0:
        return np.full_like(t, 1.0 / np.sqrt(horizon))
    m = (l + 1) // 2
    w = 2.0 * m * np.pi / horizon
    amp = np.sqrt(2.0 / horizon)
    return amp * (np.sin(w * t) if l % 2 == 1 else np.cos(w * t))


def basis_primitive(l: int, horizon: float, t) -> np.ndarray:
    """Primitive of basis ``l`` with zero mean over [0, T]."""
    t = np.asarray(t, dtype=float)
    if l == 0:
        return t / np.sqrt(horizon) - np.sqrt(horizon) / 2.0
    m = (l + 1) // 2
    w = 2.0 * m * np.pi / horizon
    amp = np.sqrt(horizon / 2.0) / (m * np.pi)
    return -amp * np.cos(w * t) if l % 2 == 1 else amp * np.sin(w * t)


def terminal_ramp(x: GridPath) -> GridPath:
    """The linear ramp t -> x(T) t / T; fixed points are exactly the ramps."""
    frac = x.grid.nodes() / x.horizon
    return GridPath(x.grid, frac[:, None] * x.terminal()[None, :])


def fejer_coefficient(x: GridPath, l: int) -> np.ndarray:
    """Basis coefficient of x minus its terminal ramp, as a forward integral.

    Equals -integral of the (zero-mean) primitive of basis ``l`` against dx,
    which in turn equals the L2 inner product <x - ramp, e_l>.
    """
    if l < 0:
        raise DomainError("basis index must be >= 0")
    return -forward_integral(lambda s: basis_primitive(l, x.horizon, s), x, x.horizon)


# 3-point Gauss-Legendre on [0,1]; exact through degree 5 per cell.
_GL3_NODES = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


def fejer_coefficient_quadrature(x: GridPath, l: int) -> np.ndarray:
    """Direct quadrature of <x - ramp, e_l>; oracle for fejer_coefficient."""
    grid = x.grid
    diff = x.values - terminal_ramp(x).values
    nodes = grid.nodes()
    total = np.zeros(x.dimension)
    for c, w in zip(_GL3_NODES, _GL3_WEIGHTS):
        s = nodes[:-1] + c * grid.dt
        vals = (1.0 - c) * diff[:-1] + c * diff[1:]
        e = basis_value(l, x.horizon, s)
        total += w * (e @ vals)
    return total * grid.dt


def fejer_weights(n: int) -> np.ndarray:
    """Cesaro weights for basis indices 0..2n: pair m gets (n+1-m)/(n+1)."""
    if n < 0:
        raise DomainError("Fejer order must be >= 0")
    l = np.arange(2 * n + 1)
    m = (l + 1) // 2
    return (n + 1.0 - m) / (n + 1.0)


@lru_cache(maxsize=32)
def _basis_matrix(horizon: float, steps: int, top_index: int) -> np.ndarray:
    t = TimeGrid(horizon, steps).nodes()
    return np.stack([basis_value(l, horizon, t) for l in range(top_index + 1)])


def fejer_mean(x: GridPath, n: int) -> GridPath:
    """Fejer mean of x minus its ramp: a sup-norm contraction of x - ramp."""
    w = fejer_weights(n)
    coeffs = np.stack([fejer_coefficient(x, l) for l in range(2 * n + 1)])
    e = _basis_matrix(x.horizon, x.grid.steps, 2 * n)
    return GridPath(x.grid, e.T @ (w[:, None] * coeffs))


def fejer_smooth(x: GridPath, n: int) -> GridPath:
    """Fejer reconstruction of the path: ramp + mean - mean(0).

    Preserves the terminal value exactly and is uniformly bounded by
    5 ||x||_inf whatever n; it converges uniformly to x for paths pinned at
    zero at time 0 (the anchoring of the mean re-zeroes the start point).
    """
    sigma = fejer_mean(x, n)
    ramp = terminal_ramp(x)
    return GridPath(x.grid, ramp.values + sigma.values - sigma.values[0])

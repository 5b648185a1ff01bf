"""Cylinder terminal functionals and pathwise derivatives.

A cylinder functional evaluates a smooth g on a vector of forward integrals
of the path against fixed weight functions; it is the class for which the
candidate solution of the path-dependent heat equation reduces to a
finite-dimensional problem (solved, with its analytic pathwise derivatives,
in :mod:`pathheat.solver`).  The coordinates of one path form a row of
length m = d * n_factors; g, its gradient and its Hessian act on stacks of
rows (k, m), returning (k,), (k, m) and (k, m, m).  Pathwise derivatives
are the time derivative with the past frozen (horizontal) and ordinary
derivatives in the present value (vertical).  This module holds the
coordinates, the weight matrix, the Fejer approximation of a generic
functional in cylinder form and the Fejer smoothing itself as a linear map
of path values.

The basis on [0, T] has the constant at index 0 and, at frequency m, the
sine at odd index 2m-1 and the cosine at even index 2m.  Its primitives
have zero mean over [0, T], so the coefficient of the de-ramped path is one
forward integral of a primitive (``fejer_coefficient``, with the quadrature
oracle ``fejer_coefficient_quadrature``).  The Fejer mean averages the
partial sums over *complete frequency blocks* (constant + m sine/cosine
pairs), the classical positive kernel; averaging truncations that split a
pair does not contract in sup-norm, so the order ``n`` counts frequency
pairs.  F_n maps x to its terminal ramp x(T) t/T plus the Fejer mean of x
minus that ramp, less that mean at 0, and uses basis indices up to 2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .grids import GridPath, TimeGrid
from .regularization import by_parts, forward_integral, weights_at

__all__ = [
    "CylinderSpec",
    "PathwiseDerivs",
    "cylinder_coordinates",
    "cylinder_sigma",
    "basis_value",
    "basis_primitive",
    "fejer_coefficient",
    "fejer_coefficient_quadrature",
    "fejer_weights",
    "cylinder_approx",
    "fejer_smoothing",
]


@dataclass(frozen=True)
class PathwiseDerivs:
    """Horizontal derivative, vertical gradient, and vertical Hessian.

    One point: a float and shapes (d,) and (d, d).  Row form: the
    derivatives of n points, with shapes (n,), (n, d) and (n, d, d).  Each
    Hessian is symmetrized on its own.
    """

    horizontal: float | np.ndarray
    vertical: np.ndarray
    vertical2: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vertical, float))
        h = np.atleast_2d(np.asarray(self.vertical2, float))
        object.__setattr__(self, "vertical", v)
        object.__setattr__(self, "vertical2", (h + np.swapaxes(h, -1, -2)) / 2.0)

    def heat_operator(self) -> float | np.ndarray:
        """horizontal + (1/2) trace(vertical Hessian): a float for one
        point, one value per row (n,) in row form."""
        out = self.horizontal + 0.5 * np.trace(self.vertical2, axis1=-2, axis2=-1)
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class CylinderSpec:
    """g applied to forward integrals of the path against weights psi.

    The evaluators act on coordinate rows: ``zs`` has shape (k, m) with
    m = d * n_factors, each row the blocks z_0..z_n of length d.  ``g(zs)``
    returns shape (k,), ``gradient(zs)`` (k, m) and ``hessian(zs)``
    (k, m, m); the derivative evaluators are optional but required by
    operations that differentiate.  Each weight psi_l takes an array of
    times and must be continuous; g of class C^2 with polynomial growth is
    the caller's contract.
    """

    g: Callable[[np.ndarray], np.ndarray]
    psi: Sequence[Callable[[np.ndarray], np.ndarray]]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    @property
    def n_factors(self) -> int:
        return len(self.psi)


def cylinder_coordinates(spec: CylinderSpec, t: float,
                         paths: Sequence[GridPath]) -> np.ndarray:
    """The integral vectors z(t, x) of n paths x on one grid: coordinate rows
    (n, d * n_factors).

    Depends only on x(. ^ t): integrating against the stopped path beyond t
    adds nothing, so the coordinates are non-anticipative.  The rows take
    one :func:`by_parts` call, and each equals bit for bit the row of its
    path passed alone.
    """
    paths = list(paths)
    if not paths:
        raise DomainError("cylinder coordinates need at least one path")
    grid = paths[0].grid
    if any(p.grid != grid for p in paths):
        raise DomainError("the paths of one call must share a grid")
    k = grid.index_of(t)
    z = by_parts(weights_at(spec.psi, grid.nodes()[: k + 1]),
                 np.stack([p.values[: k + 1] for p in paths]))
    return z.reshape(len(paths), -1)


def cylinder_sigma(spec: CylinderSpec, t: float, dimension: int) -> np.ndarray:
    """Stacked weight matrix: block l is psi_l(t) * identity, shape (d*n, d)."""
    return np.kron(weights_at(spec.psi, np.asarray([t], float)), np.eye(dimension))


# ---------------------------------------------------------------------------
# Fejer basis and cylindrical approximation of a generic path functional
# ---------------------------------------------------------------------------

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
    nodes = grid.nodes()
    diff = x.values - (nodes / x.horizon)[:, None] * x.terminal()[None, :]
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


def _fejer_basis(n: int, grid: TimeGrid) -> tuple[list, np.ndarray]:
    """Weights and synthesis matrix of the order-n Fejer coordinates.

    The weights are 1 for the terminal-value coordinate and the zero-mean
    basis primitives for the others.  For coordinates
    z = (x(T), int E_1 dx, ..., int E_2n dx) the smoothed path on ``grid``
    is x(T) * t/T - sum_l w_l z_l (e_l - e_l(0)) (the constant basis
    element drops out, e_0 - e_0(0) = 0), one row per coordinate of the
    synthesis matrix (2n+1, M+1).
    """
    if n < 0:
        raise DomainError("approximation order must be >= 0")
    T = grid.horizon
    nodes = grid.nodes()
    weights = fejer_weights(n)                      # indices 0..2n
    cols = [nodes / T]
    psi = [lambda s: 1.0]
    for l in range(1, 2 * n + 1):
        cols.append(-weights[l] * (basis_value(l, T, nodes) - basis_value(l, T, 0.0)))
        psi.append((lambda s, _l=l: basis_primitive(_l, T, s)))
    return psi, np.stack(cols)


def cylinder_approx(xi_batch: Callable[[np.ndarray, TimeGrid], np.ndarray], n: int,
                    grid: TimeGrid, dimension: int = 1) -> CylinderSpec:
    """Approximate a path functional by xi(F_n x) in cylinder form.

    ``xi_batch`` evaluates xi on path values (k, M+1, d), returning (k,).
    The returned spec uses weight 1 for the terminal-value coordinate and the
    zero-mean basis primitives for the others; its g reconstructs the smoothed
    paths on ``grid`` from coordinate rows (k, d * (2n+1)) with one matrix
    product, so the spec at the coordinates of x gives xi(F_n x) up to
    rounding (to 1e-8 against the tests' oracle ``fejer_smooth``).
    """
    psi, synth = _fejer_basis(n, grid)

    def g(zs: np.ndarray) -> np.ndarray:
        zb = np.asarray(zs, float).reshape(len(zs), 2 * n + 1, dimension)
        paths = np.tensordot(zb, synth, axes=([1], [0])).transpose(0, 2, 1)
        return np.asarray(xi_batch(paths, grid), float)

    return CylinderSpec(g=g, psi=psi, name=f"fejer{n}")


def fejer_smoothing(n: int, grid: TimeGrid) -> Callable[[np.ndarray], np.ndarray]:
    """The Fejer smoothing F_n of :func:`cylinder_approx` as a linear map of
    path values (..., M+1, d) on ``grid`` to the smoothed values, same shape.

    One :func:`by_parts` call of the paths against the spec's weights on
    the whole grid, then one product with its synthesis matrix: xi of the
    result is the spec's g at the coordinates of the path at the horizon,
    and agrees to 1e-12 with the tests' oracle ``fejer_smooth``.  F_n keeps the
    terminal value.  Both steps act on each path on its own (the product is
    a stack of per-path products, not one stacked product, which can round
    differently), so a stack of paths gives bit for bit the paths one by one.
    """
    psi, synth = _fejer_basis(n, grid)
    w = weights_at(psi, grid.nodes())
    return lambda values: synth.T @ by_parts(w, values)

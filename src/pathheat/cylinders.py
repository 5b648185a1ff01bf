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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .fourier import basis_value, basis_primitive, fejer_weights
from .grids import GridPath, TimeGrid
from .regularization import by_parts, weights_at

__all__ = [
    "CylinderSpec",
    "PathwiseDerivs",
    "cylinder_coordinates",
    "cylinder_sigma",
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
# Fejer cylindrical approximation of a generic path functional
# ---------------------------------------------------------------------------

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
    """Approximate a path functional by xi(fejer_smooth(x, n)) in cylinder form.

    ``xi_batch`` evaluates xi on path values (k, M+1, d), returning (k,).
    The returned spec uses weight 1 for the terminal-value coordinate and the
    zero-mean basis primitives for the others; its g reconstructs the smoothed
    paths on ``grid`` from coordinate rows (k, d * (2n+1)) with one matrix
    product, so evaluating the spec on the coordinates of x reproduces
    xi(fejer_smooth(x, n)) up to rounding (the tests hold it to 1e-8).
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
    and agrees with xi(fejer_smooth(x, n)) up to rounding.  F_n keeps the
    terminal value.  Both steps act on each path on its own (the product is
    a stack of per-path products, not one stacked product, which can round
    differently), so a stack of paths gives bit for bit the paths one by one.
    """
    psi, synth = _fejer_basis(n, grid)
    w = weights_at(psi, grid.nodes())
    return lambda values: synth.T @ by_parts(w, values)

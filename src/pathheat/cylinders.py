"""Cylinder terminal functionals, lifted maps, and pathwise derivatives.

A cylinder functional evaluates a smooth g on a vector of forward integrals
of the path against fixed weight functions; it is the class for which the
candidate solution of the path-dependent heat equation reduces to a
finite-dimensional problem (solved, with its analytic pathwise derivatives,
in :mod:`pathheat.solver`).  The coordinates of one path form a row of
length m = d * n_factors; g, its gradient and its Hessian act on stacks of
rows (k, m), returning (k,), (k, m) and (k, m, m).  Lifted maps add a free
"present value" argument y that models a jump of size y - x(t) at the
current time; pathwise derivatives are the time derivative with the past
frozen (horizontal) and ordinary derivatives in y (vertical).  This module
holds the coordinates, the weight matrix, the Fejer approximation of a
generic functional in cylinder form, and finite-difference derivatives of
any lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DomainError, ToleranceError
from .fourier import basis_value, basis_primitive, fejer_smooth, fejer_weights
from .grids import GridPath, PathPoint, TimeGrid, stop_path
from .regularization import by_parts, weights_at

__all__ = [
    "CylinderSpec",
    "LiftedFunctional",
    "PathwiseDerivs",
    "cylinder_coordinates",
    "cylinder_sigma",
    "cylinder_approx",
    "CylinderApproximation",
    "fd_pathwise_derivs",
    "consistency_check",
    "ConsistencyReport",
]


@dataclass(frozen=True)
class PathwiseDerivs:
    """Horizontal derivative, vertical gradient, and vertical Hessian.

    Row form: the derivatives of n points, with shapes (n,), (n, d) and
    (n, d, d); each Hessian is symmetrized on its own.
    """

    horizontal: float
    vertical: np.ndarray        # shape (d,)
    vertical2: np.ndarray       # shape (d, d), symmetric

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vertical, float))
        h = np.atleast_2d(np.asarray(self.vertical2, float))
        object.__setattr__(self, "vertical", v)
        object.__setattr__(self, "vertical2", (h + np.swapaxes(h, -1, -2)) / 2.0)

    def heat_operator(self) -> float:
        """horizontal + (1/2) trace(vertical Hessian)."""
        return float(self.horizontal + 0.5 * np.trace(self.vertical2))


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
                         x: GridPath | Sequence[GridPath]) -> np.ndarray:
    """The integral vector z(t, x): one coordinate row of shape
    (d * n_factors,) for a path, a stack of rows (n, d * n_factors) for a
    sequence of n paths on one grid.

    Depends only on x(. ^ t): integrating against the stopped path beyond t
    adds nothing, so the coordinates are non-anticipative.  A stack takes
    one :func:`by_parts` call, and its rows equal bit for bit the rows of
    the paths one at a time.
    """
    single = isinstance(x, GridPath)
    paths = [x] if single else list(x)
    if not paths:
        raise DomainError("cylinder coordinates need at least one path")
    grid = paths[0].grid
    if any(p.grid != grid for p in paths):
        raise DomainError("the paths of one call must share a grid")
    k = grid.index_of(t)
    z = by_parts(weights_at(spec.psi, grid.nodes()[: k + 1]),
                 np.stack([p.values[: k + 1] for p in paths]))
    z = z.reshape(len(paths), -1)
    return z[0] if single else z


def cylinder_sigma(spec: CylinderSpec, t: float, dimension: int) -> np.ndarray:
    """Stacked weight matrix: block l is psi_l(t) * identity, shape (d*n, d)."""
    return np.kron(weights_at(spec.psi, np.asarray([t], float)), np.eye(dimension))


# ---------------------------------------------------------------------------
# Fejer cylindrical approximation of a generic path functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderApproximation:
    """xi composed with the order-n Fejer reconstruction, in cylinder form."""

    spec: CylinderSpec
    evaluate: Callable[[GridPath], float]
    order: int


def cylinder_approx(xi_batch: Callable[[np.ndarray, TimeGrid], np.ndarray], n: int,
                    grid: TimeGrid, dimension: int = 1) -> CylinderApproximation:
    """Approximate a path functional by xi(fejer_smooth(x, n)).

    ``xi_batch`` evaluates xi on path values (k, M+1, d), returning (k,).
    The returned spec uses weight 1 for the terminal-value coordinate and the
    zero-mean basis primitives for the others; its g reconstructs the smoothed
    paths on ``grid`` from coordinate rows (k, d * (2n+1)) with one matrix
    product, so evaluating the spec on the coordinates of x reproduces
    xi(fejer_smooth(x, n)) up to rounding (the tests hold it to 1e-8).
    """
    if n < 0:
        raise DomainError("approximation order must be >= 0")
    T = grid.horizon
    nodes = grid.nodes()
    weights = fejer_weights(n)                      # indices 0..2n
    # Path synthesis matrix for coordinates z = (x(T), int E_1 dx, ..., int E_2n dx):
    # reconstructed = x(T) * t/T - sum_l w_l z_l (e_l - e_l(0));  the constant
    # basis element drops out (e_0 - e_0(0) = 0).
    cols = [nodes / T]
    for l in range(1, 2 * n + 1):
        cols.append(-weights[l] * (basis_value(l, T, nodes) - basis_value(l, T, 0.0)))
    synth = np.stack(cols)                           # (2n+1, M+1)

    def g(zs: np.ndarray) -> np.ndarray:
        zb = np.asarray(zs, float).reshape(len(zs), 2 * n + 1, dimension)
        paths = np.tensordot(zb, synth, axes=([1], [0])).transpose(0, 2, 1)
        return np.asarray(xi_batch(paths, grid), float)

    psi = [lambda s: 1.0]
    for l in range(1, 2 * n + 1):
        psi.append((lambda s, _l=l: basis_primitive(_l, T, s)))
    spec = CylinderSpec(g=g, psi=psi, name=f"fejer{n}")

    def evaluate(x: GridPath) -> float:
        return float(xi_batch(fejer_smooth(x, n).values[None], grid)[0])

    return CylinderApproximation(spec=spec, evaluate=evaluate, order=n)


# ---------------------------------------------------------------------------
# Lifted maps and pathwise derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedFunctional:
    """A map u_hat(t, x, y) on path space with a free present value y.

    ``evaluate`` must be non-anticipative: replacing x by x(. ^ t) leaves the
    value unchanged.  Derivative evaluators are optional; ``horizontal`` takes
    (t, x) (it is only ever used with y = x(t)), the vertical ones (t, x, y).
    """

    evaluate: Callable[[float, GridPath, np.ndarray], float]
    horizontal: Optional[Callable[[float, GridPath], float]] = None
    vertical: Optional[Callable[[float, GridPath, np.ndarray], np.ndarray]] = None
    vertical2: Optional[Callable[[float, GridPath, np.ndarray], np.ndarray]] = None
    name: str = ""

    def has_derivatives(self) -> bool:
        return (self.horizontal is not None and self.vertical is not None
                and self.vertical2 is not None)

    def restrict(self, t: float, x: GridPath) -> float:
        """Value on the continuous path: y = x(t)."""
        return float(self.evaluate(t, x, x.value_at(t)))

    def derivs(self, t: float, x: GridPath, y: Optional[np.ndarray] = None) -> PathwiseDerivs:
        if not self.has_derivatives():
            raise ContractError(f"lift {self.name!r} has no derivative evaluators")
        if y is None:
            y = x.value_at(t)
        return PathwiseDerivs(
            horizontal=float(self.horizontal(t, x)),
            vertical=np.asarray(self.vertical(t, x, y), float),
            vertical2=np.asarray(self.vertical2(t, x, y), float),
        )


def fd_pathwise_derivs(u: LiftedFunctional, t: float, x: GridPath,
                       delta: float | None = None, h: float | None = None,
                       y: Optional[np.ndarray] = None) -> PathwiseDerivs:
    """Finite-difference pathwise derivatives of a lifted map.

    Horizontal: one-sided quotient in time with the path stopped at t and the
    present value held at x(t).  Vertical: central first and second differences
    in y only; the grid path itself is never mutated.
    """
    t = x.grid.snap(t)
    scale = max(1.0, x.sup_norm())
    if delta is None:
        delta = 1e-4 * scale
    if h is None:
        h = 1e-4 * scale
    if delta < 1e-12 or h < 1e-12:
        raise ToleranceError("fd steps below double-precision resolution")
    if y is None:
        y = x.value_at(t)
    y = np.atleast_1d(np.asarray(y, float))
    d = x.dimension

    if t + delta > x.horizon:
        raise DomainError("horizontal difference needs t + delta <= horizon")
    frozen = stop_path(x, t)
    yt = x.value_at(t)
    horizontal = (u.evaluate(t + delta, frozen, yt) - u.evaluate(t, x, yt)) / delta

    base = u.evaluate(t, x, y)
    vertical = np.zeros(d)
    vertical2 = np.zeros((d, d))
    shifted = {}
    for i in range(d):
        for s in (+1, -1):
            e = y.copy()
            e[i] += s * h
            shifted[(i, s)] = u.evaluate(t, x, e)
        vertical[i] = (shifted[(i, 1)] - shifted[(i, -1)]) / (2 * h)
        vertical2[i, i] = (shifted[(i, 1)] - 2 * base + shifted[(i, -1)]) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            vals = {}
            for si in (+1, -1):
                for sj in (+1, -1):
                    e = y.copy()
                    e[i] += si * h
                    e[j] += sj * h
                    vals[(si, sj)] = u.evaluate(t, x, e)
            vertical2[i, j] = vertical2[j, i] = (
                vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]
            ) / (4 * h**2)
    return PathwiseDerivs(horizontal=horizontal, vertical=vertical, vertical2=vertical2)


@dataclass
class ConsistencyReport:
    """Outcome of comparing two liftings of the same functional."""

    precondition_ok: bool
    value_gap: float
    horizontal_gap: float
    vertical_gap: float
    vertical2_gap: float
    n_samples: int

    def max_derivative_gap(self) -> float:
        return max(self.horizontal_gap, self.vertical_gap, self.vertical2_gap)

    def agrees(self, tol: float) -> bool:
        return self.precondition_ok and self.max_derivative_gap() <= tol


def consistency_check(lift1: LiftedFunctional, lift2: LiftedFunctional,
                      samples: Sequence[PathPoint],
                      value_tol: float = 1e-10,
                      delta: float | None = None,
                      h: float | None = None) -> ConsistencyReport:
    """Compare fd pathwise derivatives of two liftings at y = x(t).

    First verifies the liftings agree on continuous paths over the sample set
    (the precondition under which their derivatives must coincide); then
    reports the largest derivative discrepancy.
    """
    value_gap = 0.0
    for p in samples:
        v1 = lift1.restrict(p.t, p.path)
        v2 = lift2.restrict(p.t, p.path)
        value_gap = max(value_gap, abs(v1 - v2))
    precondition_ok = value_gap <= value_tol

    hg = vg = v2g = 0.0
    if precondition_ok:
        for p in samples:
            d1 = fd_pathwise_derivs(lift1, p.t, p.path, delta=delta, h=h)
            d2 = fd_pathwise_derivs(lift2, p.t, p.path, delta=delta, h=h)
            hg = max(hg, abs(d1.horizontal - d2.horizontal))
            vg = max(vg, float(np.max(np.abs(d1.vertical - d2.vertical))))
            v2g = max(v2g, float(np.max(np.abs(d1.vertical2 - d2.vertical2))))
    return ConsistencyReport(precondition_ok=precondition_ok, value_gap=value_gap,
                             horizontal_gap=hg, vertical_gap=vg, vertical2_gap=v2g,
                             n_samples=len(samples))

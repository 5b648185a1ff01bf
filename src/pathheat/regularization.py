"""Deterministic calculus via regularization on grid paths.

The forward integral of a bounded-variation integrand g against a path f is
evaluated through the integration-by-parts identity

    integral_{[0,t]} g d-f  =  g(t) f(t) - integral_{(0,t]} f dg,

which is exact for piecewise-linear paths when the Stieltjes term uses cell
midpoints.  One kernel, :func:`by_parts`, applies it to weights at nodes
0..k, shape (n, k+1), and path values of shape (..., k+1, d), giving
(..., n, d); :func:`weights_at` evaluates integrands at nodes as those
(n, k+1) rows.  The regularized difference-quotient form is kept as a test
oracle, together with the epsilon-bracket estimator of quadratic covariation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ResolutionError
from .grids import GridPath, TimeGrid

__all__ = [
    "BracketEstimate",
    "by_parts",
    "weights_at",
    "forward_integral",
    "forward_integral_limit",
    "mutual_bracket",
]

def weights_at(fns: Sequence[Callable], s: np.ndarray) -> np.ndarray:
    """Integrands evaluated at the times ``s``, shape (len(fns), len(s)); a
    scalar result (a constant integrand) is broadcast over ``s``."""
    return np.stack([np.broadcast_to(np.asarray(fn(s), float), s.shape)
                     for fn in fns])


def by_parts(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Forward integrals of n integrands against paths, by parts.

    ``weights`` holds the integrands at nodes 0..k, shape (n, k+1);
    ``values`` the paths at the same nodes, shape (..., k+1, d).  Returns
    shape (..., n, d): row l is w_l(t_k) f(t_k) minus the Stieltjes sum of
    the cell-midpoint path values against the node differences of w_l.  Each
    row is its own dot product, so a stack of paths gives bit for bit the
    rows of the paths one by one, and a row does not depend on the other
    weights of the call.
    """
    boundary = weights[:, -1, None] * values[..., -1, None, :]
    mids = (values[..., :-1, :] + values[..., 1:, :]) / 2.0
    return boundary - np.stack([dw @ mids for dw in np.diff(weights, axis=-1)],
                               axis=-2)


def _cells_until(grid: TimeGrid, t: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Node index of t plus node/midpoint times of the cells in (0, t]."""
    k = grid.index_of(t)
    nodes = grid.nodes()[: k + 1]
    mids = (nodes[:-1] + nodes[1:]) / 2.0
    return k, nodes, mids


def forward_integral(g: Callable, f: GridPath, t: float) -> np.ndarray:
    """Forward integral of g against f over [0, t] by integration by parts.

    ``g`` is a bounded-variation integrand on [0, T], taking an array of
    times.  Returns a vector of f's dimension.  The initial-value atom
    g(0) f(0) is part of the identity: with g == 1 the result is f(t).
    """
    k, nodes, _ = _cells_until(f.grid, t)
    return by_parts(weights_at([g], nodes), f.values[: k + 1])[0]


def forward_integral_limit(g: Callable, f: GridPath, t: float,
                           eps: float) -> np.ndarray:
    """Regularized difference-quotient form of the forward integral.

    Evaluates (1/eps) * integral of g_(0,t](s) (f_[0,t](s+eps) - f_[0,t](s)) ds
    with the two extensions frozen exactly as defined: f is held at f(t) right
    of t and at 0 left of 0; g is held at g(0) left of 0 and at 0 right of t.
    ``eps`` must be a positive multiple of the grid step (snapped); the
    integral is exact for cellwise-quadratic integrands (Simpson per cell).
    """
    grid = f.grid
    m = int(round(eps / grid.dt))
    if m < 1 or eps <= 0:
        raise ResolutionError(f"eps={eps} is below the grid step {grid.dt}")
    eps = m * grid.dt
    k, nodes, mids = _cells_until(grid, t)

    # s in [-eps, 0): integrand is g(0) * f(s+eps) / eps, an initial-value atom.
    g0 = float(weights_at([g], np.zeros(1))[0, 0])
    j = min(m, k)
    # trapezoid of f over [0, j*dt] plus frozen tail if eps overshoots t
    ftrap = np.zeros(f.dimension)
    if j > 0:
        ftrap = (np.sum(f.values[1:j], axis=0)
                 + 0.5 * (f.values[0] + f.values[j])) * grid.dt
    if m > j:
        ftrap = ftrap + f.values[k] * (m - j) * grid.dt
    atom = g0 * ftrap / eps

    if k == 0:
        return atom

    # s in [0, t]: g(s) * (f((s+eps) ^ t) - f(s)) / eps, piecewise quadratic.
    idx = np.arange(k + 1)
    shift = np.minimum(idx + m, k)
    h_nodes = f.values[shift] - f.values[idx]
    h_mids = (h_nodes[:-1] + h_nodes[1:]) / 2.0
    g_nodes, g_mids = weights_at([g], nodes)[0], weights_at([g], mids)[0]
    integrand_nodes = g_nodes[:, None] * h_nodes
    integrand_mids = g_mids[:, None] * h_mids
    simpson = (integrand_nodes[:-1] + 4.0 * integrand_mids + integrand_nodes[1:]) / 6.0
    return atom + np.sum(simpson, axis=0) * grid.dt / eps


@dataclass(frozen=True)
class BracketEstimate:
    """Cumulative epsilon-bracket t -> (1/eps) int_0^t dX_i dX_j along a grid."""

    epsilon: float
    grid: TimeGrid
    values: np.ndarray  # shape (M+1,), values at grid nodes

    def value_at(self, t: float) -> float:
        return float(self.values[self.grid.index_of(t)])

    def terminal(self) -> float:
        return float(self.values[-1])


def mutual_bracket(x_i: GridPath, x_j: GridPath, eps: float) -> BracketEstimate:
    """Regularized covariation of two scalar path components.

    The integrand (X_i((s+eps)^T) - X_i(s)) (X_j((s+eps)^T) - X_j(s)) / eps is
    piecewise quadratic on the grid when eps is a multiple of the step, so
    per-cell Simpson integrates it exactly; ``eps`` is snapped accordingly.
    """
    if x_i.grid != x_j.grid:
        raise ContractError("bracket components must share a grid")
    if x_i.dimension != 1 or x_j.dimension != 1:
        raise ContractError("mutual_bracket takes scalar components")
    grid = x_i.grid
    m = int(round(eps / grid.dt))
    if m < 1 or eps <= 0:
        raise ResolutionError(f"eps={eps} is below the grid step {grid.dt}")
    eps = m * grid.dt

    a = x_i.values[:, 0]
    b = x_j.values[:, 0]
    idx = np.arange(grid.steps + 1)
    shift = np.minimum(idx + m, grid.steps)
    da = a[shift] - a
    db = b[shift] - b
    prod_nodes = da * db
    prod_mids = ((da[:-1] + da[1:]) / 2.0) * ((db[:-1] + db[1:]) / 2.0)
    cell = (prod_nodes[:-1] + 4.0 * prod_mids + prod_nodes[1:]) / 6.0 * grid.dt
    out = np.concatenate([[0.0], np.cumsum(cell)]) / eps
    return BracketEstimate(epsilon=eps, grid=grid, values=out)

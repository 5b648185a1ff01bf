"""Numerical verification of the pathwise change-of-variable (Ito) formula
along simulated continuous semimartingales.

The verifier draws an Euler ensemble of the model and hands the whole
ensemble, shape (n, M+1, d), to a ``profiles`` callback that returns the lift
and its pathwise derivatives at every node of every path.  The residual at
node m is

    [u(t_m,X) - u(0,X)] - [trapz horizontal + sum vertical . dX
                           + 1/2 sum trace(vertical2 . d<X>)],

with left-point sums and the model bracket d<X> = volatility volatility^T dt,
computed with array operations along the time axis for all paths at once.
Left-point sums against Brownian increments converge at order 1/2, which a
sweep of the terminal residual over dt exposes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grids import SemimartingaleSpec, TimeGrid, euler_paths
from .solver import MCConfig, MCEstimate, sample_increments

__all__ = ["ito_verify", "brownian_spec", "ou_spec", "SEMIMARTINGALE_PRESETS"]


def _model_bracket(spec: SemimartingaleSpec, grid: TimeGrid,
                   vals: np.ndarray) -> np.ndarray:
    """Covariation increments volatility volatility^T dt per cell, shape
    (n, M, d, d)."""
    n, _, d = vals.shape
    sig = np.empty((n, grid.steps, d, d))
    for k in range(grid.steps):
        sig[:, k] = spec.volatility(grid.node(k), vals[:, k])
    return np.einsum("nkij,nklj->nkil", sig, sig) * grid.dt


def ito_verify(profiles, spec: SemimartingaleSpec, grid: TimeGrid,
               cfg: MCConfig) -> MCEstimate:
    """Mean |residual(T)| of the pathwise formula over an Euler ensemble.

    ``profiles(values)`` takes the paths, shape (n, M+1, d), and returns
    u and the horizontal derivative, each (n, M+1), the vertical gradient
    (n, M+1, d) and the vertical Hessian (n, M+1, d, d) at every node.  A
    profile of another shape raises :class:`DomainError`.
    """
    vals = euler_paths(spec, grid, sample_increments(
        grid, 0, spec.dimension, cfg.seed, np.arange(cfg.n_samples)))
    n, m1, d = vals.shape
    shapes = [(n, m1), (n, m1), (n, m1, d), (n, m1, d, d)]
    u, h, v1, v2 = arrays = [np.asarray(a, float) for a in profiles(vals)]
    for name, a, shape in zip(("u", "horizontal", "vertical", "vertical2"),
                              arrays, shapes):
        if a.shape != shape:
            raise DomainError(f"profile {name} has shape {a.shape}, not {shape}")

    dx = np.diff(vals, axis=1)
    time_term = np.cumsum((h[:, :-1] + h[:, 1:]) / 2.0 * grid.dt, axis=1)
    ito_term = np.cumsum(np.einsum("nki,nki->nk", v1[:, :-1], dx), axis=1)
    tr_term = 0.5 * np.cumsum(np.einsum(
        "nkij,nkij->nk", v2[:, :-1], _model_bracket(spec, grid, vals)), axis=1)
    residual = u[:, 1:] - (u[:, :1] + time_term + ito_term + tr_term)
    return MCEstimate.from_samples(np.abs(residual[:, -1]), cfg.seed)


# ---------------------------------------------------------------------------
# Semimartingale presets
# ---------------------------------------------------------------------------

def brownian_spec() -> SemimartingaleSpec:
    """Standard Brownian motion from 0 in one dimension."""
    eye = np.eye(1)
    return SemimartingaleSpec(
        drift=lambda t, s: np.zeros_like(s),
        volatility=lambda t, s: eye,
        initial=np.zeros(1))


def ou_spec() -> SemimartingaleSpec:
    """Ornstein-Uhlenbeck dX = -X dt + dW from 0.5 in one dimension."""
    eye = np.eye(1)
    return SemimartingaleSpec(
        drift=lambda t, s: -s,
        volatility=lambda t, s: eye,
        initial=np.full(1, 0.5))


SEMIMARTINGALE_PRESETS = {
    "brownian": brownian_spec,
    "ou": ou_spec,
}

"""Numerical verification of the pathwise change-of-variable (Ito) formula
along simulated continuous semimartingales.

Per sample path the verifier compares u(t, X) - u(0, X) with the sum of the
time integral of the horizontal derivative (trapezoid), left-point Riemann
sums of the vertical gradient against the increments, and half the trace
term against the quadratic covariation.  The covariation integrator can be
the model bracket (volatility * volatility^T dt, the bracket of the
simulated model), the realized products of increments, or the regularized
epsilon-bracket estimator; left-point sums against Brownian increments
converge at order 1/2, which the residual sweep exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cylinders import LiftedFunctional, fd_pathwise_derivs
from .errors import ContractError, DomainError, ResolutionError
from .grids import GridPath, SemimartingaleSpec, TimeGrid, euler_paths, stop_path
from .regularization import mutual_bracket
from .solver import MCConfig, MCEstimate, sample_increments

__all__ = ["ItoReport", "ito_verify", "with_fd_derivatives",
           "brownian_spec", "ou_spec", "SEMIMARTINGALE_PRESETS"]


@dataclass
class ItoReport:
    """Residual summary of one verification run."""

    grid_dt: float
    n_samples: int
    bracket: str
    residual_terminal: MCEstimate          # mean |residual(T)| with stderr
    signed_terminal: MCEstimate            # mean residual(T)
    sup_residual: float                    # worst |residual| over all (path, node)
    fd_based: bool
    sample_series: np.ndarray = field(repr=False)  # (k, M+1) first few paths

    @property
    def hypothesis_note(self) -> str:
        if self.fd_based:
            return ("derivatives supplied by finite differences; smoothness of "
                    "the lift is assumed, not checked")
        return "analytic derivative evaluators supplied"


def _bracket_increments(spec: SemimartingaleSpec, grid: TimeGrid,
                        vals: np.ndarray, mode: str,
                        eps: Optional[float]) -> np.ndarray:
    """Covariation increments per cell, shape (n, M, d, d)."""
    n, _, d = vals.shape
    if mode == "model":
        out = np.empty((n, grid.steps, d, d))
        for k in range(grid.steps):
            sig = np.asarray(spec.volatility(grid.node(k), vals[:, k]), float)
            if sig.ndim == 2:
                sig = np.broadcast_to(sig, (n, d, d))
            out[:, k] = np.einsum("nij,nkj->nik", sig, sig) * grid.dt
        return out
    if mode == "realized":
        dx = np.diff(vals, axis=1)
        return np.einsum("nki,nkj->nkij", dx, dx)
    if mode == "regularized":
        if eps is None:
            eps = grid.dt
        if eps < grid.dt:
            raise ResolutionError("bracket eps below grid resolution")
        out = np.empty((n, grid.steps, d, d))
        for s in range(n):
            for i in range(d):
                for j in range(i, d):
                    est = mutual_bracket(GridPath(grid, vals[s, :, i]),
                                         GridPath(grid, vals[s, :, j]), eps)
                    inc = np.diff(est.values)
                    out[s, :, i, j] = inc
                    out[s, :, j, i] = inc
        return out
    raise DomainError(f"unknown bracket mode {mode!r}")


def ito_verify(u: LiftedFunctional, spec: SemimartingaleSpec, grid: TimeGrid,
               cfg: MCConfig, bracket: str = "model",
               bracket_eps: Optional[float] = None,
               keep_series: int = 4, fd_based: bool = False,
               profiles=None) -> ItoReport:
    """Residual of the pathwise formula over an Euler ensemble.

    ``u`` must supply all three derivative evaluators (wrap with
    :func:`with_fd_derivatives` otherwise, and say so via ``fd_based``).
    The residual at node m is

        [u(t_m,X) - u(0,X)] - [trapz horizontal + sum vertical . dX
                               + 1/2 sum trace(vertical2 . bracket)].

    ``profiles(x)`` may return the node arrays (u, horizontal, vertical,
    vertical2) in one shot for lifts with a vectorized form; it must agree
    with the pointwise evaluators.
    """
    if profiles is None and not u.has_derivatives():
        raise ContractError("lift lacks derivative evaluators; see with_fd_derivatives")
    vals = euler_paths(spec, grid, sample_increments(
        grid, 0, spec.dimension, cfg.seed, np.arange(cfg.n_samples)))
    n, m1, d = vals.shape
    nodes = grid.nodes()
    db = _bracket_increments(spec, grid, vals, bracket, bracket_eps)

    res_T = np.empty(n)
    sup_res = 0.0
    kept = []
    for s in range(n):
        path = GridPath(grid, vals[s])
        if profiles is not None:
            uvals, hvals, v1, v2 = profiles(path)
            uvals = np.asarray(uvals, float)
            hvals = np.asarray(hvals, float)
            v1 = np.asarray(v1, float).reshape(m1, d)
            v2 = np.asarray(v2, float).reshape(m1, d, d)
        else:
            uvals = np.empty(m1)
            hvals = np.empty(m1)
            v1 = np.empty((m1, d))
            v2 = np.empty((m1, d, d))
            for k in range(m1):
                t = nodes[k]
                y = vals[s, k]
                uvals[k] = u.evaluate(t, path, y)
                v1[k] = np.asarray(u.vertical(t, path, y), float)
                v2[k] = np.asarray(u.vertical2(t, path, y), float)
                if k < m1 - 1:
                    hvals[k] = u.horizontal(t, path)
            # the horizontal derivative lives on [0, T); reuse the last
            # interior value at T if the evaluator cannot extend there
            try:
                h_end = float(u.horizontal(nodes[-1], path))
            except Exception:
                h_end = math.nan
            hvals[-1] = h_end if np.isfinite(h_end) else hvals[-2]
        dx = np.diff(vals[s], axis=0)
        time_term = np.concatenate([[0.0], np.cumsum(
            (hvals[:-1] + hvals[1:]) / 2.0 * grid.dt)])
        ito_term = np.concatenate([[0.0], np.cumsum(
            np.einsum("ki,ki->k", v1[:-1], dx))])
        tr_term = np.concatenate([[0.0], 0.5 * np.cumsum(
            np.einsum("kij,kij->k", v2[:-1], db[s]))])
        rhs = uvals[0] + time_term + ito_term + tr_term
        series = uvals - rhs
        res_T[s] = series[-1]
        sup_res = max(sup_res, float(np.max(np.abs(series))))
        if s < keep_series:
            kept.append(series)

    return ItoReport(
        grid_dt=grid.dt,
        n_samples=n,
        bracket=bracket,
        residual_terminal=MCEstimate.from_samples(np.abs(res_T), cfg.seed),
        signed_terminal=MCEstimate.from_samples(res_T, cfg.seed),
        sup_residual=sup_res,
        fd_based=fd_based,
        sample_series=np.array(kept),
    )


def with_fd_derivatives(u: LiftedFunctional, delta: Optional[float] = None,
                        h: Optional[float] = None) -> LiftedFunctional:
    """Attach finite-difference derivative evaluators to a bare lift."""

    def horizontal(t, x):
        if t + (delta or 1e-4) > x.horizon:
            # one-sided backward difference at the right edge
            dd = delta or 1e-4
            frozen = stop_path(x, t)
            yt = x.value_at(t)
            return (u.evaluate(t, x, yt)
                    - u.evaluate(t - dd, frozen, yt)) / dd
        return fd_pathwise_derivs(u, t, x, delta=delta, h=h).horizontal

    def vertical(t, x, y):
        return fd_pathwise_derivs(u, t, x, delta=None, h=h, y=y).vertical

    def vertical2(t, x, y):
        return fd_pathwise_derivs(u, t, x, delta=None, h=h, y=y).vertical2

    return LiftedFunctional(evaluate=u.evaluate, horizontal=horizontal,
                            vertical=vertical, vertical2=vertical2,
                            name=u.name + "+fd")


# ---------------------------------------------------------------------------
# Semimartingale presets
# ---------------------------------------------------------------------------

def brownian_spec(dimension: int = 1, start: float = 0.0) -> SemimartingaleSpec:
    eye = np.eye(dimension)
    return SemimartingaleSpec(
        drift=lambda t, s: np.zeros_like(s),
        volatility=lambda t, s: eye,
        initial=np.full(dimension, start))


def ou_spec(rate: float = 1.0, vol: float = 1.0, start: float = 0.5,
            dimension: int = 1) -> SemimartingaleSpec:
    eye = vol * np.eye(dimension)
    return SemimartingaleSpec(
        drift=lambda t, s: -rate * s,
        volatility=lambda t, s: eye,
        initial=np.full(dimension, start))


SEMIMARTINGALE_PRESETS = {
    "brownian": brownian_spec,
    "ou": ou_spec,
}

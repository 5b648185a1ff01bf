"""Deterministic calculus via regularization on grid paths.

The forward integral of a bounded-variation integrand g against a path f is
evaluated through the integration-by-parts identity

    integral_{[0,t]} g d-f  =  g(t) f(t) - integral_{(0,t]} f dg,

which is exact for piecewise-linear paths when the Stieltjes term uses cell
midpoints.  One kernel, :func:`by_parts`, applies it to weights at nodes
0..k, shape (n, k+1), and path values of shape (..., k+1, d), giving
(..., n, d); :func:`weights_at` evaluates integrands at nodes as those
(n, k+1) rows.  The regularized difference-quotient form lives in the
tests, as the oracle of :func:`forward_integral`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .grids import GridPath

__all__ = [
    "by_parts",
    "weights_at",
    "forward_integral",
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


def forward_integral(g: Callable, f: GridPath, t: float) -> np.ndarray:
    """Forward integral of g against f over [0, t] by integration by parts.

    ``g`` is a bounded-variation integrand on [0, T], taking an array of
    times, and ``t`` is a node of f's grid.  Returns a vector of f's
    dimension.  The initial-value atom g(0) f(0) is part of the identity:
    with g == 1 the result is f(t).
    """
    k = f.grid.index_of(t)
    return by_parts(weights_at([g], f.grid.nodes()[: k + 1]), f.values[: k + 1])[0]

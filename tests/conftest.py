import tracemalloc

import numpy as np
import pytest

from pathheat.audit import _AUDIT_ANCHORS, random_lift_points, random_pairs
from pathheat.cylinders import (PathwiseDerivs, basis_value, fejer_coefficient,
                                fejer_weights)
from pathheat.errors import DomainError
from pathheat.gauge import (horizontal_smoothed_distance, mean_gaussian_norm,
                            perturbation_sum, vertical_smoothed_distance)
from pathheat.grids import (GridPath, PathPoint, TimeGrid, _stopped_values,
                            stopped_sup_distances)


@pytest.fixture(scope="session")
def grid100() -> TimeGrid:
    return TimeGrid(1.0, 100)


@pytest.fixture(scope="session")
def grid64() -> TimeGrid:
    return TimeGrid(1.0, 64)


@pytest.fixture(scope="session")
def sine_path(grid100) -> GridPath:
    return GridPath.from_function(grid100, lambda t: np.sin(2 * np.pi * t))


def make_brownian(grid: TimeGrid, seed: int, dimension: int = 1,
                  start: float = 0.0) -> GridPath:
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((grid.steps, dimension)) * np.sqrt(grid.dt)
    vals = np.vstack([np.full((1, dimension), start), start + np.cumsum(dw, axis=0)])
    return GridPath(grid, vals)


def nearest_index(grid: TimeGrid, t: float) -> int:
    """Index of the node nearest to ``t`` in [0, T]; raises outside it.

    The package's ``TimeGrid.index_of`` takes nodes only; the test helpers
    that freeze a path at any time round to a node here.
    """
    if not (-1e-9 * grid.horizon <= t <= grid.horizon * (1 + 1e-9)):
        raise DomainError(f"time {t} outside [0, {grid.horizon}]")
    return min(max(round(t / grid.dt), 0), grid.steps)


def stop_path(x: GridPath, t: float) -> GridPath:
    """Freeze ``x`` at (the node nearest to) ``t``: equal on [0,t], constant after."""
    k = nearest_index(x.grid, t)
    if k == x.grid.steps:
        return x
    return GridPath(x.grid, _stopped_values(x.values, k))


def sup_norm(x: GridPath) -> float:
    """Exact sup over [0, T] of the Euclidean norm of the path."""
    return float(np.max(np.linalg.norm(x.values, axis=1)))


def terminal_ramp(x: GridPath) -> GridPath:
    """The linear ramp t -> x(T) t / T; fixed points are exactly the ramps."""
    frac = x.grid.nodes() / x.horizon
    return GridPath(x.grid, frac[:, None] * x.terminal()[None, :])


def fejer_mean(x: GridPath, n: int) -> GridPath:
    """Fejer mean of x minus its ramp: a sup-norm contraction of x - ramp.

    Sums the 2n+1 basis elements weighted by their coefficients, one
    forward integral each: the independent oracle of the package's one
    by-parts call in ``cylinders.fejer_smoothing``.
    """
    w = fejer_weights(n)
    coeffs = np.stack([fejer_coefficient(x, l) for l in range(2 * n + 1)])
    t = x.grid.nodes()
    e = np.stack([basis_value(l, x.horizon, t) for l in range(2 * n + 1)])
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


def write_path_csv(x: GridPath, target) -> None:
    """Write one row per grid node with 17 significant digits, header
    "t,x1,...,xd": the input format of ``read_path_csv``."""
    close = False
    if isinstance(target, (str, bytes)):
        target = open(target, "w")
        close = True
    try:
        cols = ",".join(f"x{i + 1}" for i in range(x.dimension))
        target.write(f"t,{cols}\n")
        for t, row in zip(x.grid.nodes(), x.values):
            target.write("%.17g," % t + ",".join("%.17g" % v for v in row) + "\n")
    finally:
        if close:
            target.close()


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` (numpy's buffers included)
    while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def value_at(x: GridPath, t: float) -> np.ndarray:
    """Linear interpolation of x between nodes; exact at nodes."""
    grid = x.grid
    if not (-1e-9 <= t <= x.horizon * (1 + 1e-9)):
        raise DomainError(f"time {t} outside [0, {x.horizon}]")
    pos = np.clip(t / grid.dt, 0.0, float(grid.steps))
    k = int(np.floor(pos))
    if k >= grid.steps:
        return x.values[-1].copy()
    frac = pos - k
    return (1.0 - frac) * x.values[k] + frac * x.values[k + 1]


def fd_pathwise_derivs(evaluate, t: float, x: GridPath,
                       delta: float | None = None, h: float | None = None,
                       y: np.ndarray | None = None) -> PathwiseDerivs:
    """Finite-difference pathwise derivatives of a map ``evaluate(t, x, y)``
    with a free present value y: the independent reference for the analytic
    derivatives.

    Horizontal: one-sided quotient in time with the path stopped at t and the
    present value held at x(t).  Vertical: central first and second differences
    in y only; the grid path itself is never mutated.
    """
    t = x.grid.node(nearest_index(x.grid, t))
    scale = max(1.0, sup_norm(x))
    if delta is None:
        delta = 1e-4 * scale
    if h is None:
        h = 1e-4 * scale
    if delta < 1e-12 or h < 1e-12:
        raise DomainError("fd steps below double-precision resolution")
    if y is None:
        y = value_at(x, t)
    y = np.atleast_1d(np.asarray(y, float))
    d = x.dimension

    if t + delta > x.horizon:
        raise DomainError("horizontal difference needs t + delta <= horizon")
    frozen = stop_path(x, t)
    yt = value_at(x, t)
    horizontal = (evaluate(t + delta, frozen, yt) - evaluate(t, x, yt)) / delta

    base = evaluate(t, x, y)
    vertical = np.zeros(d)
    vertical2 = np.zeros((d, d))
    shifted = {}
    for i in range(d):
        for s in (+1, -1):
            e = y.copy()
            e[i] += s * h
            shifted[(i, s)] = evaluate(t, x, e)
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
                    vals[(si, sj)] = evaluate(t, x, e)
            vertical2[i, j] = vertical2[j, i] = (
                vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]
            ) / (4 * h**2)
    return PathwiseDerivs(horizontal=horizontal, vertical=vertical, vertical2=vertical2)


def audit_maxima_loop(dimension, grid, n_tuples, seed, config) -> list[float]:
    """Observed maxima of ``audit.derivative_bound_audit``, in its check
    order, from a loop over its tuples through the public one-point
    functions, and the perturbation sum one point at a time: the oracle of
    the audit's batched kernel calls."""
    tuples = list(random_lift_points(grid, dimension, n_tuples, seed))
    anchors = [a for a, _, _, _ in tuples[:_AUDIT_ANCHORS]]
    observed = [0.0] * 8
    for anchor, t, x, y in tuples:
        sd = vertical_smoothed_distance(anchor, t, x, y, config)
        _, sat = horizontal_smoothed_distance(anchor, t, x, y, config)
        pert = perturbation_sum(anchors, [PathPoint(t, x)], config).derivs
        parts = (sd.gradient, sd.hessian, sat.horizontal, sat.vertical,
                 sat.vertical2, pert.horizontal, pert.vertical, pert.vertical2)
        observed = [max(o, float(np.max(np.abs(p)))) for o, p in zip(observed, parts)]
    return observed


def sandwich_maxima_loop(dimension, grid, n_samples, seed, config) -> list[float]:
    """Observed maxima of ``audit.sandwich_audit`` without a calibrated
    constant, in its check order, from a loop over its samples through the
    public one-point functions."""
    czeta = mean_gaussian_norm(dimension)
    worst = [-np.inf] * 5
    for anchor, point in random_pairs(grid, dimension, n_samples, seed):
        y = point.present_value()
        val = vertical_smoothed_distance(anchor, point.t, point.path, y, config).value
        sat, _ = horizontal_smoothed_distance(anchor, point.t, point.path, y, config)
        dist = stopped_sup_distances((point,), (anchor,))[0]
        sides = (val - dist, (dist - 2 * czeta) - val, (dist - czeta) - val, -val,
                 sat - min(dist, 1.0))
        worst = [max(w, side) for w, side in zip(worst, sides)]
    return worst

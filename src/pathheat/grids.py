"""Paths on a uniform time grid, the stopped-path pseudometric, and
Brownian / semimartingale simulation.

A path is stored by its values at the nodes of a uniform grid on [0, T] and
is understood as the piecewise-linear interpolant between nodes.  Sup-norms
of such paths are exact maxima over nodes (the Euclidean norm is convex
along a segment), and stopping at a node is an exact operation.  Times fed
to stopped-path operations must be nodes: :meth:`TimeGrid.index_of` is the
one time-to-node lookup, and it rejects an off-grid time rather than move
it, so that equality of stopped representatives is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "TimeGrid",
    "GridPath",
    "PathPoint",
    "SemimartingaleSpec",
    "stack_points",
    "path_distance",
    "path_distances",
    "brownian_increments",
    "extend_with_increments",
    "euler_paths",
    "read_path_csv",
]

_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with M steps (M+1 nodes)."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def node(self, k: int) -> float:
        return k * self.horizon / self.steps

    def index_of(self, t: float) -> int:
        """Index of the node t (within _SNAP_TOL * T); raises a
        :class:`DomainError` naming the nearest node for any other time."""
        if not (-_SNAP_TOL * self.horizon <= t <= self.horizon * (1 + _SNAP_TOL)):
            raise DomainError(f"time {t} outside [0, {self.horizon}]")
        k = min(max(int(round(t / self.dt)), 0), self.steps)
        if abs(t - self.node(k)) > _SNAP_TOL * self.horizon:
            raise DomainError(f"time {t:g} is not a grid node; the nearest node "
                              f"is {self.node(k):.12g}")
        return k


@dataclass(frozen=True)
class GridPath:
    """Piecewise-linear path: values at the nodes of a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray  # shape (M+1, d)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.steps + 1:
            raise DomainError(
                f"values has {v.shape[0]} rows, grid has {self.grid.steps + 1} nodes")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    def terminal(self) -> np.ndarray:
        return self.values[-1].copy()

    def component(self, i: int) -> "GridPath":
        return GridPath(self.grid, self.values[:, i].copy())

    @staticmethod
    def constant(grid: TimeGrid, value) -> "GridPath":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return GridPath(grid, np.tile(v, (grid.steps + 1, 1)))

    @staticmethod
    def zero(grid: TimeGrid, dimension: int = 1) -> "GridPath":
        return GridPath(grid, np.zeros((grid.steps + 1, dimension)))

    @staticmethod
    def from_function(grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "GridPath":
        vals = np.asarray(fn(grid.nodes()), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return GridPath(grid, vals)


@dataclass(frozen=True)
class PathPoint:
    """A point (t, x) of the path space at a node t of x's grid.

    A t within _SNAP_TOL * T of a node is stored as that node; any other t
    raises a :class:`DomainError` naming the nearest node.

    Only the stopped portion x(. ^ t) is observable through the operations
    of this package; two points at zero pseudometric distance behave
    identically everywhere.
    """

    t: float
    path: GridPath
    # the node of t, set once from t
    node_index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        grid = self.path.grid
        k = grid.index_of(self.t)
        object.__setattr__(self, "node_index", k)
        object.__setattr__(self, "t", grid.node(k))

    def present_value(self) -> np.ndarray:
        return self.path.values[self.node_index].copy()


def _check_compatible(x: GridPath, y: GridPath) -> None:
    if x.dimension != y.dimension:
        raise DomainError(f"dimension mismatch: {x.dimension} vs {y.dimension}")
    if x.grid != y.grid:
        raise DomainError("paths live on different grids")


def _stopped_values(values: np.ndarray, k) -> np.ndarray:
    """The stopped representative x(. ^ t_k) at the nodes: values[min(j, k)]
    for j = 0..M.

    ``values`` has shape (..., M+1, d) and the node index ``k`` is an int or
    an integer array over the leading axes.  This is the one stopping rule
    behind the pseudometric.
    """
    idx = np.minimum(np.arange(values.shape[-2]), np.expand_dims(k, -1))
    return np.take_along_axis(values, idx[..., None], axis=-2)


def stack_points(points) -> tuple[np.ndarray, np.ndarray]:
    """Times, shape (n,), and stopped representatives, shape (n, M+1, d), of
    a nonempty sequence of points on one grid and in one dimension."""
    first = points[0].path
    for p in points:
        _check_compatible(first, p.path)
    times = np.array([p.t for p in points])
    values = np.stack([p.path.values for p in points])
    return times, _stopped_values(values, np.array([p.node_index for p in points]))


def _sup_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.max(np.linalg.norm(a - b, axis=-1), axis=-1)


def path_distances(times: np.ndarray, stopped: np.ndarray, t: float,
                   x_stopped: np.ndarray) -> np.ndarray:
    """The pseudometric from many points to one, |t_i - t| + max_k ||x_i(t_k
    ^ t_i) - x(t_k ^ t)||, for ``times`` and ``stopped`` as returned by
    :func:`stack_points` and one point's time and stopped values."""
    return np.abs(times - t) + _sup_gap(stopped, x_stopped)


def stopped_sup_distances(points, others) -> np.ndarray:
    """Sup-norm distance of the stopped representatives of each pair
    (points[i], others[i]), in one array call; each equals the pair's alone."""
    n = len(points)
    _, stopped = stack_points((*points, *others))
    return _sup_gap(stopped[:n], stopped[n:])


def path_distance(p: PathPoint, q: PathPoint) -> float:
    """The pseudometric |t - t'| + ||x(. ^ t) - x'(. ^ t')||_inf.

    Vanishes exactly when the two stopped grid representatives and the two
    (node) times coincide; it does not separate paths that differ only
    after their stopping times.
    """
    times, stopped = stack_points((p, q))
    return float(path_distances(times[0], stopped[0], times[1], stopped[1]))


# ---------------------------------------------------------------------------
# Brownian extension and semimartingale simulation
# ---------------------------------------------------------------------------

def brownian_increments(grid: TimeGrid, k_from: int, dimension: int,
                        rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Gaussian increments for nodes k_from+1 .. M, shape (M-k_from, d).

    With ``n``, shape (n, M-k_from, d): n paths drawn one after another from
    ``rng``, bit for bit the same as n consecutive single draws.
    """
    shape = (grid.steps - k_from, dimension)
    if n is not None:
        shape = (n, *shape)
    return rng.standard_normal(shape) * np.sqrt(grid.dt)


def extend_with_increments(t: float, x: GridPath, dW: np.ndarray) -> np.ndarray:
    """Values of the extension of ``x`` after ``t`` driven by ``dW``.

    ``dW`` has shape (..., M-k, d) with k the node of t; the result, shape
    (..., M+1, d), equals x on [0, t] and x(t) + cumulative-sum(dW) after.
    A Brownian path from zero is an extension of :meth:`GridPath.zero`.
    Feeding the tail of the same increments from a later time reproduces
    the same sample (the flow identity of the extension).
    """
    k = x.grid.index_of(t)
    need = (x.grid.steps - k, x.dimension)
    dW = np.asarray(dW, float)
    if dW.shape[-2:] != need:
        raise DomainError(f"increments shape {dW.shape} does not end in {need}")
    out = np.empty(dW.shape[:-2] + (x.grid.steps + 1, x.dimension))
    out[..., : k + 1, :] = x.values[: k + 1]
    tail = out[..., k + 1:, :]
    np.cumsum(dW, axis=-2, out=tail)
    tail += x.values[k]
    return out


@dataclass(frozen=True)
class SemimartingaleSpec:
    """Drift/volatility pair for an Euler-Maruyama simulation.

    ``drift(t, state)`` returns shape (..., d) and ``volatility(t, state)``
    shape (..., d, d); both must broadcast over a leading batch axis and be
    bounded on compacts (caller contract).
    """

    drift: Callable[[float, np.ndarray], np.ndarray]
    volatility: Callable[[float, np.ndarray], np.ndarray]
    initial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial",
                           np.atleast_1d(np.asarray(self.initial, dtype=float)))

    @property
    def dimension(self) -> int:
        return self.initial.size


def euler_paths(spec: SemimartingaleSpec, grid: TimeGrid, dW: np.ndarray) -> np.ndarray:
    """Euler-Maruyama paths from ``spec.initial`` driven by increments ``dW``
    of shape (..., M, d); returns values of shape (..., M+1, d)."""
    d = spec.dimension
    if dW.shape[-2:] != (grid.steps, d):
        raise DomainError(f"increments shape {dW.shape} does not end in {(grid.steps, d)}")
    vals = np.empty(dW.shape[:-2] + (grid.steps + 1, d))
    vals[..., 0, :] = spec.initial
    for k in range(grid.steps):
        t = grid.node(k)
        state = vals[..., k, :]
        mu = np.asarray(spec.drift(t, state), float)
        sig = np.asarray(spec.volatility(t, state), float)
        vals[..., k + 1, :] = (state + mu * grid.dt
                               + np.einsum("...ij,...j->...i", sig, dW[..., k, :]))
        if not np.all(np.isfinite(vals[..., k + 1, :])):
            raise NumericError(f"non-finite state after Euler step at t={t}")
    return vals


# ---------------------------------------------------------------------------
# CSV input: header "t,x1,...,xd", one row per node of a uniform grid
# ---------------------------------------------------------------------------

def read_path_csv(source) -> GridPath:
    """Header "t,x1,...,xd", then finite rows of as many values on a uniform
    grid from t = 0.  A row of another width or with a value that is not a
    number raises :class:`DomainError` naming the data row, counted from 1."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            return read_path_csv(fh)
    header = source.readline().strip().split(",")
    if header[0] != "t":
        raise DomainError("path CSV must start with a 't' column")
    rows = [line for line in source if line.split("#", 1)[0].strip()]
    if len(rows) < 2:
        raise DomainError(f"path CSV needs at least 2 data rows, not {len(rows)}")
    data = np.empty((len(rows), len(header)))
    for n, line in enumerate(rows, 1):
        fields = line.split("#", 1)[0].split(",")
        if len(fields) != len(header):
            raise DomainError(f"path CSV data row {n} has {len(fields)} values, "
                              f"not the header's {len(header)}")
        try:
            data[n - 1] = [float(v) for v in fields]
        except ValueError:
            raise DomainError(f"path CSV data row {n} holds a value that is not "
                              "a number") from None
    if not np.all(np.isfinite(data)):
        row = int(np.argmin(np.all(np.isfinite(data), axis=1))) + 1
        raise DomainError(f"path CSV holds a non-finite value in data row {row}")
    t = data[:, 0]
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-15):
        raise DomainError("path CSV nodes are not a uniform grid")
    if t[0] != 0.0:
        raise DomainError(f"path CSV times must start at 0, not {t[0]:g}")
    grid = TimeGrid(horizon=float(t[-1]), steps=len(t) - 1)
    return GridPath(grid, data[:, 1:])

"""Random path-space samples for calibration runs and bound audits.

The generators mix Brownian samples, constants, smooth paths and time
shifts so that the anchored-distance machinery sees both smooth and rough
geometry, points before and after their anchors, and near-diagonal pairs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .grids import (GridPath, PathPoint, TimeGrid, brownian_increments,
                    extend_with_increments)
from .streams import StreamKind, substream

__all__ = ["random_path", "random_pairs", "random_lift_points"]


def random_path(grid: TimeGrid, dimension: int, rng: np.random.Generator) -> GridPath:
    kind = rng.integers(0, 4)
    if kind == 1:  # constant
        return GridPath.constant(grid, rng.standard_normal(dimension))
    if kind == 2:  # low-frequency smooth path
        t = grid.nodes() / grid.horizon
        coef = rng.standard_normal((3, dimension))
        vals = (coef[0] * np.sin(np.pi * t)[:, None]
                + coef[1] * np.sin(2 * np.pi * t)[:, None]
                + coef[2] * (t * t)[:, None])
        return GridPath(grid, vals)
    # kinds 0 and 3: Brownian from zero, with a drift at kind 3
    dw = brownian_increments(grid, 0, dimension, rng)
    if kind == 3:
        dw += rng.standard_normal(dimension) * grid.dt
    zero = GridPath.zero(grid, dimension)
    return GridPath(grid, extend_with_increments(0.0, zero, dw))


def random_pairs(grid: TimeGrid, dimension: int, n: int,
                 seed: int) -> Iterator[tuple[PathPoint, PathPoint]]:
    """(anchor, point) pairs covering rough/smooth and near/far geometry."""
    rng = substream(seed, StreamKind.PAIRS, 0)
    for _ in range(n):
        anchor_path = random_path(grid, dimension, rng)
        t0 = grid.node(int(rng.integers(0, grid.steps + 1)))
        anchor = PathPoint(t0, anchor_path)
        style = rng.integers(0, 3)
        if style == 0:  # unrelated path
            path = random_path(grid, dimension, rng)
        elif style == 1:  # perturbed copy of the anchor path
            bump = random_path(grid, dimension, rng)
            scale = 10.0 ** rng.uniform(-3, 0)
            path = GridPath(grid, anchor_path.values + scale * bump.values)
        else:  # time-shifted copy
            shift = int(rng.integers(0, grid.steps // 2 + 1))
            vals = np.roll(anchor_path.values, shift, axis=0)
            vals[:shift] = anchor_path.values[0]
            path = GridPath(grid, vals)
        t = grid.node(int(rng.integers(0, grid.steps + 1)))
        yield anchor, PathPoint(t, path)


def random_lift_points(grid: TimeGrid, dimension: int, n: int, seed: int
                       ) -> Iterator[tuple[PathPoint, float, GridPath, np.ndarray]]:
    """(anchor, t, x, y) tuples with y off the path for derivative audits."""
    rng = substream(seed, StreamKind.LIFT_POINTS, 0)
    for anchor, point in random_pairs(grid, dimension, n, seed + 1):
        y = point.present_value() + rng.standard_normal(dimension)
        yield anchor, point.t, point.path, y

"""Constructive smooth variational principle on a finite set of path points.

Given the values of an objective G on a finite search space and a starting
point whose value is within eps of the supremum, the iteration repeatedly
subtracts geometrically weighted gauge terms anchored at the running
maximizers and re-maximizes.  On a finite space the exact argmax makes every
step either strictly increase the perturbed value or halt, so the anchor
sequence is eventually constant and all conclusions (anchor proximity, value
gain, and strict maximality of the perturbed objective) can be checked
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, InputError
from .gauge import GaugeResult, completed_sum, smooth_gauge
from .grids import PathPoint, path_distance, stack_points

__all__ = ["SearchSpace", "VPResult", "smooth_variational_principle"]

MAX_ITERATIONS = 1000
STRICTNESS_FLOOR = 1e-12


@dataclass(frozen=True)
class SearchSpace:
    """Finite list of path points on one grid, deduplicated under the
    pseudometric (points at zero distance are interchangeable).

    Dedupe contract: a point is dropped exactly when a point already kept
    has the same node time and identical stopped values, where -0.0 and
    0.0 count as identical.  A path that differs from a kept one only after
    its stopping time is dropped; the same path at another time is kept.
    The first occurrence is kept and the kept points stay in input order.
    The stopped representatives of all points are stacked once, O(n (M+1) d)
    memory, and each point is looked up by the exact key (time, bytes of
    its stopped values), O(n) lookups in all.  Empty input, points on
    different grids or of different dimensions, and a point with a
    non-finite stopped value (named by its index) raise
    :class:`DomainError`.
    """

    points: tuple[PathPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise DomainError("search space must be nonempty")
        times, stopped = stack_points(self.points)
        finite = np.isfinite(stopped).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"search-space point {int(np.argmin(finite))} "
                              "has non-finite stopped values")
        # adding 0.0 turns -0.0 into 0.0, so that equal values have equal bytes
        first: dict[tuple[float, bytes], int] = {}
        for i, (t, row) in enumerate(zip((times + 0.0).tolist(), stopped + 0.0)):
            first.setdefault((t, row.tobytes()), i)
        object.__setattr__(self, "points",
                           tuple(self.points[i] for i in first.values()))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass
class ItemRecord:
    """Per-anchor record for the proximity conclusion, in both argument orders."""

    index: int
    gauge_limit_to_anchor: float
    gauge_anchor_to_limit: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.gauge_limit_to_anchor <= self.bound + 1e-12

    @property
    def ok_reversed(self) -> bool:
        return self.gauge_anchor_to_limit <= self.bound + 1e-12


@dataclass
class VPResult:
    """Anchors, limit and the checks of the three conclusions.  ``phi`` is
    the perturbation on every point of the space, in space order: the
    completed sum of the gauge columns the iteration built."""

    anchors: list[PathPoint]
    anchor_indices: list[int]
    limit: PathPoint
    limit_index: int
    iterations: int
    item_i: list[ItemRecord]
    item_ii_lhs: float
    item_ii_rhs: float
    item_iii_margin: float
    phi: GaugeResult = field(repr=False)

    @property
    def item_i_ok(self) -> bool:
        return all(r.ok for r in self.item_i)

    @property
    def item_ii_ok(self) -> bool:
        return self.item_ii_lhs <= self.item_ii_rhs + 1e-12

    @property
    def item_iii_ok(self) -> bool:
        return self.item_iii_margin > STRICTNESS_FLOOR

    def all_items_ok(self) -> bool:
        return self.item_i_ok and self.item_ii_ok and self.item_iii_ok


def smooth_variational_principle(values: np.ndarray, eps: float, delta: float,
                                 start: PathPoint, space: SearchSpace) -> VPResult:
    """Perturbed maximization with smooth gauge terms on a finite space.

    ``values`` holds the objective G on ``space``, one finite value per
    point in space order; any other length or a non-finite entry raises
    :class:`DomainError`.  Requires G(start) >= max G - eps.  Anchor
    weights follow the geometric schedule delta / 2^n.  Ties in the argmax
    are broken by the lowest index for determinism.
    """
    if eps <= 0 or delta <= 0:
        raise DomainError("eps and delta must be positive")
    values = np.asarray(values, dtype=float)
    if values.shape != (len(space),) or not np.isfinite(values).all():
        raise DomainError(f"values must be {len(space)} finite numbers, one per "
                          "point of the search space")
    pts = list(space.points)
    start_idx = _index_of(space, start)
    sup = float(np.max(values))
    if values[start_idx] < sup - eps - 1e-12:
        raise InputError(
            f"start value {values[start_idx]:.6g} below sup - eps = {sup - eps:.6g}")

    # gauge columns: gauge(p, anchor) for every p in the space, per anchor
    anchor_indices = [start_idx]
    columns = [smooth_gauge(pts, pts[start_idx])]
    perturbed = values - delta * columns[0].value
    current = start_idx
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ConvergenceError(f"no fixed point after {MAX_ITERATIONS} steps")
        nxt = int(np.argmax(perturbed))
        if nxt == current:
            break
        current = nxt
        anchor_indices.append(current)
        columns.append(smooth_gauge(pts, pts[current]))
        perturbed = (perturbed - delta * 2.0 ** (-(len(anchor_indices) - 1))
                     * columns[-1].value)

    limit_idx = current
    limit = pts[limit_idx]
    anchors = [pts[i] for i in anchor_indices]

    # exact geometric completion: the final anchor repeats forever
    phi = completed_sum(columns)

    # the limit is the last anchor, so both gauge orders are column entries
    item_i = [ItemRecord(index=i, gauge_limit_to_anchor=float(col.value[limit_idx]),
                         gauge_anchor_to_limit=float(columns[-1].value[idx]),
                         bound=eps / (2.0 ** i * delta))
              for i, (idx, col) in enumerate(zip(anchor_indices, columns))]

    item_ii_lhs = float(values[start_idx])
    item_ii_rhs = float(values[limit_idx] - delta * phi.value[limit_idx])

    score = values - delta * phi.value
    others = np.delete(score, limit_idx)
    margin = float(score[limit_idx] - np.max(others)) if others.size else np.inf

    return VPResult(anchors=anchors, anchor_indices=anchor_indices, limit=limit,
                    limit_index=limit_idx, iterations=iterations, item_i=item_i,
                    item_ii_lhs=item_ii_lhs, item_ii_rhs=item_ii_rhs,
                    item_iii_margin=margin, phi=phi)


def _index_of(space: SearchSpace, p: PathPoint) -> int:
    for i, q in enumerate(space.points):
        if path_distance(p, q) == 0.0:
            return i
    raise InputError("start point is not in the search space")

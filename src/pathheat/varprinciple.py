"""Constructive smooth variational principle on a finite set of path points.

Given the values of an objective G on a finite search space and a starting
point whose value is within eps of the supremum, the iteration repeatedly
subtracts geometrically weighted gauge terms anchored at the running
maximizers and re-maximizes.  On a finite space the exact argmax makes every
step either strictly increase the perturbed value or halt, so the anchor
sequence is eventually constant and all conclusions (anchor proximity, value
gain, and strict maximality of the perturbed objective) can be checked
exactly.

The perturbation is bounded (Borwein & Preiss, Trans. AMS 303, 1987), so
only a level set of G can hold a maximizer.  Every gauge lies in
[0, T^2 + 1] on a horizon T: its time term is at most T^2 and its
saturated smoothed distance lies in [0, 1).  The completion weights sum to
2, so delta phi moves no value by more than 2 delta (T^2 + 1), for every
partial sum of the iteration as for phi itself.  A point whose G lies
below G_(2) - 2 delta (T^2 + 1), G_(2) the second-largest value, is
therefore beaten by the best or the second-best point of G under every
perturbation: it is never an argmax of the iteration, nor the runner-up of
item (iii).  The gauge columns are built only on the other points and the
start, the live rows, fixed once before the iteration.  A gauge value does
not depend on the other rows of its call, so anchors, limit, iterations
and items are bit for bit those of columns on the whole space.  The cut
lies lower by a margin for rounding: the two bounds of the gauge hold at
the rule level up to ``GAUGE_SLACK`` each (the rounding allowance of the
audits), and the perturbed sums round at a relative ``SUM_ROUNDING``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cylinders import PathwiseDerivs
from .errors import ConvergenceError, DomainError, InputError
from .gauge import GaugeResult, completed_sum, perturbation_sum, smooth_gauge
from .grids import PathPoint, path_distance, stack_points

__all__ = ["SearchSpace", "VPResult", "smooth_variational_principle"]

MAX_ITERATIONS = 1000
STRICTNESS_FLOOR = 1e-12
# Rounding allowance of the gauge's bounds, 0 <= gauge <= T^2 + 1, which
# hold at the rule level; ``audit.sandwich_audit`` allows as much there.
GAUGE_SLACK = 1e-9
# Relative rounding allowance of two perturbed values compared: each takes
# at most 2 (MAX_ITERATIONS + 1) roundings of 2^-53, 4.4e-13 for the pair.
SUM_ROUNDING = 1e-12


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
    """Anchors, limit and the checks of the three conclusions.  ``live``
    holds the indices, ascending, of the points the gauge columns were
    built on, and ``live_phi`` the perturbation on them, row for row."""

    anchors: list[PathPoint]
    anchor_indices: list[int]
    limit: PathPoint
    limit_index: int
    iterations: int
    item_i: list[ItemRecord]
    item_ii_lhs: float
    item_ii_rhs: float
    item_iii_margin: float
    space: SearchSpace = field(repr=False)
    live: np.ndarray = field(repr=False)
    live_phi: GaugeResult = field(repr=False)

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

    @property
    def limit_phi(self) -> GaugeResult:
        """The perturbation at the limit alone, one row, from the live rows."""
        row = [int(np.searchsorted(self.live, self.limit_index))]
        d = self.live_phi.derivs
        return GaugeResult(value=self.live_phi.value[row], derivs=PathwiseDerivs(
            horizontal=d.horizontal[row], vertical=d.vertical[row],
            vertical2=d.vertical2[row]))

    @cached_property
    def phi(self) -> GaugeResult:
        """The perturbation on every point of the space, in space order: the
        completed sum of the anchors' gauge columns.  Filled on first read,
        the rows off the live set by one :func:`perturbation_sum` call: each
        value is bit for bit that of a column of its own, derivatives agree
        to within 1e-13."""
        n = len(self.space)
        rest = np.setdiff1d(np.arange(n), self.live)
        if not rest.size:
            return self.live_phi
        other = perturbation_sum(self.anchors,
                                 [self.space.points[i] for i in rest])

        def merge(live, off):
            out = np.empty((n,) + live.shape[1:])
            out[self.live], out[rest] = live, off
            return out

        a, b = self.live_phi, other
        return GaugeResult(value=merge(a.value, b.value), derivs=PathwiseDerivs(
            horizontal=merge(a.derivs.horizontal, b.derivs.horizontal),
            vertical=merge(a.derivs.vertical, b.derivs.vertical),
            vertical2=merge(a.derivs.vertical2, b.derivs.vertical2)))


def smooth_variational_principle(values: np.ndarray, eps: float, delta: float,
                                 start: PathPoint, space: SearchSpace) -> VPResult:
    """Perturbed maximization with smooth gauge terms on a finite space.

    ``values`` holds the objective G on ``space``, one finite value per
    point in space order; any other length or a non-finite entry raises
    :class:`DomainError`, as do an ``eps`` or ``delta`` that is not finite
    and positive.  Requires G(start) >= max G - eps.  Anchor weights follow
    the geometric schedule delta / 2^n.  Ties in the argmax are broken by
    the lowest index for determinism.

    The live rows are the start and every point with G at or above
    G_(2) - r - SUM_ROUNDING (|G_(2)| + r), r = 2 delta (T^2 + 1 +
    2 GAUGE_SLACK): each anchor's column is one :func:`smooth_gauge` call
    on them only.  No other point can be an argmax or item (iii)'s
    runner-up (module docstring), so the result is bit for bit that of
    columns on the whole space.
    """
    for name, x in (("eps", eps), ("delta", delta)):
        if not (math.isfinite(x) and x > 0):
            raise DomainError(f"{name} must be finite and positive, not {x:g}")
    values = np.asarray(values, dtype=float)
    if values.shape != (len(space),) or not np.isfinite(values).all():
        raise DomainError(f"values must be {len(space)} finite numbers, one per "
                          "point of the search space")
    start_idx = _index_of(space, start)
    sup = float(np.max(values))
    if values[start_idx] < sup - eps - 1e-12:
        raise InputError(
            f"start value {values[start_idx]:.6g} below sup - eps = {sup - eps:.6g}")

    live = _live_rows(values, delta, space.points[0].path.grid.horizon, start_idx)
    pts = [space.points[i] for i in live]
    g = values[live]
    # positions in the live rows from here on
    start_pos = int(np.searchsorted(live, start_idx))

    # gauge columns: gauge(p, anchor) for every live p, per anchor
    anchor_pos = [start_pos]
    columns = [smooth_gauge(pts, pts[start_pos])]
    perturbed = g - delta * columns[0].value
    current = start_pos
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ConvergenceError(f"no fixed point after {MAX_ITERATIONS} steps")
        nxt = int(np.argmax(perturbed))
        if nxt == current:
            break
        current = nxt
        anchor_pos.append(current)
        columns.append(smooth_gauge(pts, pts[current]))
        perturbed = (perturbed - delta * 2.0 ** (-(len(anchor_pos) - 1))
                     * columns[-1].value)

    limit_pos = current
    anchor_indices = [int(live[i]) for i in anchor_pos]

    # exact geometric completion: the final anchor repeats forever
    phi = completed_sum(columns)

    # the limit is the last anchor, so both gauge orders are column entries
    item_i = [ItemRecord(index=i, gauge_limit_to_anchor=float(col.value[limit_pos]),
                         gauge_anchor_to_limit=float(columns[-1].value[pos]),
                         bound=eps / (2.0 ** i * delta))
              for i, (pos, col) in enumerate(zip(anchor_pos, columns))]

    item_ii_lhs = float(values[start_idx])
    item_ii_rhs = float(g[limit_pos] - delta * phi.value[limit_pos])

    score = g - delta * phi.value
    others = np.delete(score, limit_pos)
    margin = float(score[limit_pos] - np.max(others)) if others.size else np.inf

    return VPResult(anchors=[pts[i] for i in anchor_pos],
                    anchor_indices=anchor_indices, limit=pts[limit_pos],
                    limit_index=int(live[limit_pos]), iterations=iterations,
                    item_i=item_i, item_ii_lhs=item_ii_lhs, item_ii_rhs=item_ii_rhs,
                    item_iii_margin=margin, space=space, live=live, live_phi=phi)


def _live_rows(values: np.ndarray, delta: float, horizon: float,
               start_idx: int) -> np.ndarray:
    """Indices, ascending, of the start and of the points at or above the
    cut below the second-largest value (see
    :func:`smooth_variational_principle`)."""
    if values.size < 2:
        return np.arange(values.size)
    second = float(np.partition(values, -2)[-2])
    reach = 2.0 * delta * (horizon * horizon + 1.0 + 2.0 * GAUGE_SLACK)
    live = values >= second - reach - SUM_ROUNDING * (abs(second) + reach)
    live[start_idx] = True
    return np.flatnonzero(live)


def _index_of(space: SearchSpace, p: PathPoint) -> int:
    for i, q in enumerate(space.points):
        if path_distance(p, q) == 0.0:
            return i
    raise InputError("start point is not in the search space")

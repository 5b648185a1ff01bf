"""Randomized audits of the gauge machinery and the samples they draw:
uniform derivative bounds, two-sided distance comparisons, and the
lower-bound constant, calibrated and then validated on fresh samples.

The samples mix Brownian, constant, smooth and time-shifted paths, so the
audits see smooth and rough geometry, points before and after their anchors,
and near-diagonal pairs.  Every audit evaluates its tuples as the rows of one
or two calls of the gauge kernel (``gauge._smoothed_rows``), each row with
its own anchor: a row gives both the mollified distance and its saturation.

Each role of a ``gauge-check`` run at seed s reads ``random_pairs`` (stream
kind PAIRS) at one seed: the sandwich audit s, the derivative audit s + 1
(its y from LIFT_POINTS at s), the estimator's probes s + 2 (y from
LIFT_POINTS at s + 1), the calibration s + 2 and the validation s + 3.  Only
the calibration shares a stream: its first 16 pairs are the estimator's 16
probes, which audit nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .gauge import (HORIZONTAL_BOUND, SATURATED_GRAD_BOUND,
                    SATURATED_HESS_BOUND, VERTICAL_GRAD_BOUND,
                    VERTICAL_HESS_BOUND, _smoothed_rows, mean_gaussian_norm,
                    perturbation_bounds, perturbation_sum)
from .grids import (GridPath, PathPoint, TimeGrid, brownian_increments,
                    extend_with_increments, stopped_sup_distances)
from .quadrature import QuadratureConfig
from .streams import StreamKind, substream

__all__ = ["random_path", "random_pairs", "random_lift_points", "BoundCheck",
           "estimate_gauge_quadrature_error", "derivative_bound_audit",
           "sandwich_audit", "ALPHA_SHRINK", "GaugeDiagnostics",
           "calibrate_alpha", "validate_alpha"]

_AUDIT_TOL = 1e-6  # rounding allowance on top of the quadrature error
_SANDWICH_TOL = 1e-9  # rounding allowance of sides exact at the rule level
_AUDIT_ANCHORS = 3  # anchors of the audited perturbation sum


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


@dataclass
class BoundCheck:
    name: str
    bound: float
    observed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.observed <= self.bound + self.tolerance

    def csv_row(self) -> list:
        return [self.name, f"{self.bound:.12g}", f"{self.observed:.12g}",
                f"{self.tolerance:.3g}", "pass" if self.passed else "FAIL"]


def _lift_rows(tuples):
    """Anchors, points and present values of (anchor, t, x, y) tuples, as
    kernel rows."""
    return ([a for a, _, _, _ in tuples], [PathPoint(t, x) for _, t, x, _ in tuples],
            np.array([y for _, _, _, y in tuples]))


def _pair_rows(pairs):
    """Mollified distances, saturations and stopped distances D of (anchor,
    point) pairs at y = x(t), from one kernel call and one array call."""
    anchors, points = [a for a, _ in pairs], [p for _, p in pairs]
    (values, _, _), (saturated, _, _, _) = _smoothed_rows(anchors, points, None,
                                                          QuadratureConfig())
    return values, saturated, stopped_sup_distances(points, anchors)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def estimate_gauge_quadrature_error(dimension: int, grid: TimeGrid,
                                    config: QuadratureConfig,
                                    n_probe: int = 16, seed: int = 5) -> dict:
    """Refinement-based error estimate for the smoothed-distance outputs.

    Compares the configured rule against its refinement on probe tuples,
    one kernel call each over all probes, and returns the largest
    discrepancy per output family, inflated by a safety factor of 2; this
    feeds the tolerance of the bound audits.
    """
    rows = _lift_rows(list(random_lift_points(grid, dimension, n_probe, seed)))
    _, coarse = _smoothed_rows(*rows, config)
    _, fine = _smoothed_rows(*rows, config.refined(dimension))
    return {name: 2.0 * _max_abs(c - f) for name, c, f in
            zip(("value", "horizontal", "vertical", "vertical2"), coarse, fine)}


def derivative_bound_audit(dimension: int, grid: TimeGrid, n_tuples: int,
                           seed: int) -> list[BoundCheck]:
    """Observed maxima of all smoothing-stage derivatives vs their constants.

    Audits, over random (anchor, t, x, y) tuples: the mollified distance
    (gradient, Hessian), its time-smoothed saturation (all three derivative
    families), both from the rows of one kernel call, and the anchored
    perturbation sum with the anchors of the first ``_AUDIT_ANCHORS``
    tuples at all tuple points.  Tolerances are ``_AUDIT_TOL`` plus the
    refinement-based quadrature error on probes of seed ``seed + 1``.
    """
    config = QuadratureConfig()
    qe = estimate_gauge_quadrature_error(dimension, grid, config, seed=seed + 1)
    tuples = list(random_lift_points(grid, dimension, n_tuples, seed))
    anchors, points, y = _lift_rows(tuples)
    (_, grad, hess), (_, hor, vert, vert2) = _smoothed_rows(anchors, points, y, config)
    pb = perturbation_bounds(grid.horizon)
    pert = perturbation_sum(anchors[:_AUDIT_ANCHORS], points, config).derivs
    return [
        BoundCheck("distance_gradient", VERTICAL_GRAD_BOUND, _max_abs(grad),
                   _AUDIT_TOL + qe["vertical"]),
        BoundCheck("distance_hessian", VERTICAL_HESS_BOUND, _max_abs(hess),
                   _AUDIT_TOL + qe["vertical2"]),
        BoundCheck("saturated_horizontal", HORIZONTAL_BOUND, _max_abs(hor),
                   _AUDIT_TOL + qe["horizontal"]),
        BoundCheck("saturated_gradient", SATURATED_GRAD_BOUND, _max_abs(vert),
                   _AUDIT_TOL + qe["vertical"]),
        BoundCheck("saturated_hessian", SATURATED_HESS_BOUND, _max_abs(vert2),
                   _AUDIT_TOL + qe["vertical2"]),
        BoundCheck("perturbation_horizontal", pb["horizontal"],
                   _max_abs(pert.horizontal), _AUDIT_TOL + 2 * qe["horizontal"]),
        BoundCheck("perturbation_gradient", pb["vertical"], _max_abs(pert.vertical),
                   _AUDIT_TOL + 2 * qe["vertical"]),
        BoundCheck("perturbation_hessian", pb["vertical2"], _max_abs(pert.vertical2),
                   _AUDIT_TOL + 2 * qe["vertical2"]),
    ]


def sandwich_audit(dimension: int, grid: TimeGrid, n_samples: int, seed: int,
                   alpha: GaugeDiagnostics | None = None) -> list[BoundCheck]:
    """Two-sided comparisons of the smoothed distances with the raw stopped
    distance D at every sample.

    The mollified distance and its time-smoothed saturation of every sample
    come from the rows of one kernel call, and the stopped distances of all
    samples from one array call.  Upper sides and nonnegativity
    hold exactly at the rule level (symmetric nodes, positive weights,
    same-rule |z| subtraction), so the tolerance is a pure rounding
    allowance.  Both lower offsets are audited: the provable two-constant
    one and the sharper one-constant version, which the symmetrization
    argument also yields for the subtracted definition.  The optional
    calibrated constant is validated on these (fresh) samples.
    """
    czeta = mean_gaussian_norm(dimension)
    values, saturated, dist = _pair_rows(
        list(random_pairs(grid, dimension, n_samples, seed)))
    sides = {"upper": values - dist, "lower2": (dist - 2 * czeta) - values,
             "lower1": (dist - czeta) - values, "neg": -values,
             "sat_upper": saturated - np.minimum(dist, 1.0)}
    if alpha is not None:
        floor = alpha.alpha * _lower_bound_scale(dist, dimension)
        sides["alpha"] = floor - values
        sides["alpha_sat"] = floor / (1.0 + dist) - saturated
    worst = {k: float(np.max(side)) for k, side in sides.items()}
    tol = _SANDWICH_TOL
    checks = [
        BoundCheck("distance_upper", 0.0, worst["upper"], tol),
        BoundCheck("distance_lower_two_constants", 0.0, worst["lower2"], tol),
        BoundCheck("distance_lower_one_constant", 0.0, worst["lower1"], tol),
        BoundCheck("distance_nonnegative", 0.0, worst["neg"], tol),
        BoundCheck("saturated_upper", 0.0, worst["sat_upper"], tol),
    ]
    if alpha is not None:
        checks.append(BoundCheck("calibrated_lower", 0.0, worst["alpha"], tol))
        checks.append(BoundCheck("calibrated_lower_saturated", 0.0,
                                 worst["alpha_sat"], tol))
    return checks


# ---------------------------------------------------------------------------
# Calibration of the polynomial lower-bound constant
# ---------------------------------------------------------------------------

# Factor by which the calibrated alpha shrinks the empirical infimum ratio;
# fixed, whatever the calibration sample size.
ALPHA_SHRINK = 0.9


@dataclass
class GaugeDiagnostics:
    """Empirically calibrated constants for one dimension."""

    dimension: int
    alpha: float
    item3_constant: float
    n_samples: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError("alpha must lie in (0, 1]")


def _lower_bound_scale(dist: np.ndarray, d: int) -> np.ndarray:
    """min(D^{d+1}, D) per stopped distance D in dimension d.  The powers
    are taken in Python floats, whose pow rounds otherwise than numpy's
    vectorized one, so each value is the one a scalar evaluation gives."""
    return np.minimum([x ** (d + 1) for x in dist.tolist()], dist)


def calibrate_alpha(samples) -> GaugeDiagnostics:
    """Estimate the lower-bound constant as ``ALPHA_SHRINK`` times the
    infimum of value / min(D^{d+1}, D) over the samples, for the stopped
    distance D and the mollified distance value.

    ``samples`` is an iterable of (anchor, point) pairs, evaluated as the
    rows of one kernel call, with their stopped distances from one array
    call; a pair at D = 0 does not constrain alpha.  The dimension d is
    that of the samples' paths.  Only existence of a positive constant is
    guaranteed in general, so the value is empirical and should be
    validated on fresh samples before use.
    """
    pairs = list(samples)
    ratio_min = np.inf
    if pairs:
        dimension = pairs[0][1].path.dimension
        values, _, dist = _pair_rows(pairs)
        far = dist >= 1e-9
        if far.any():
            scale = _lower_bound_scale(dist[far], dimension)
            ratio_min = float(np.min(values[far] / scale))
    if not np.isfinite(ratio_min):
        raise DomainError("calibration needs samples at positive distance")
    item3 = float(np.max((dist - values) / mean_gaussian_norm(dimension)))
    alpha = min(ALPHA_SHRINK * ratio_min, 1.0)
    return GaugeDiagnostics(dimension=dimension, alpha=alpha,
                            item3_constant=item3, n_samples=len(pairs))


def validate_alpha(diag: GaugeDiagnostics, grid: TimeGrid, n_samples: int,
                   seed: int) -> list[BoundCheck]:
    """Run the calibrated lower bounds against a fresh sample set."""
    return [c for c in sandwich_audit(diag.dimension, grid, n_samples, seed,
                                      alpha=diag)
            if c.name.startswith("calibrated")]

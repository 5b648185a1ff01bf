"""Randomized audits of the gauge machinery: uniform derivative bounds,
two-sided distance comparisons, and validation of the calibrated
lower-bound constant on fresh samples.

Every audit evaluates its tuples as the rows of one or two calls of the
gauge kernel (``gauge._smoothed_rows``), each row with its own anchor: a
row gives both the mollified distance and its time-smoothed saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauge import (HORIZONTAL_BOUND, SATURATED_GRAD_BOUND,
                    SATURATED_HESS_BOUND, VERTICAL_GRAD_BOUND,
                    VERTICAL_HESS_BOUND, GaugeDiagnostics, _lower_bound_scale,
                    _smoothed_rows, mean_gaussian_norm, perturbation_bounds,
                    perturbation_sum)
from .grids import PathPoint, TimeGrid, stopped_sup_distances
from .quadrature import QuadratureConfig
from .sampling import random_lift_points, random_pairs

__all__ = ["BoundCheck", "estimate_gauge_quadrature_error",
           "derivative_bound_audit", "sandwich_audit", "validate_alpha"]

_AUDIT_TOL = 1e-6  # rounding allowance on top of the quadrature error
_SANDWICH_TOL = 1e-9  # rounding allowance of sides exact at the rule level
_AUDIT_ANCHORS = 3  # anchors of the audited perturbation sum


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
    pairs = list(random_pairs(grid, dimension, n_samples, seed))
    anchors, points = [a for a, _ in pairs], [p for _, p in pairs]
    (values, _, _), (saturated, _, _, _) = _smoothed_rows(anchors, points, None,
                                                          QuadratureConfig())
    dist = stopped_sup_distances(points, anchors)
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


def validate_alpha(diag: GaugeDiagnostics, grid: TimeGrid, n_samples: int,
                   seed: int) -> list[BoundCheck]:
    """Run the calibrated lower bounds against a fresh sample set."""
    return [c for c in sandwich_audit(diag.dimension, grid, n_samples, seed,
                                      alpha=diag)
            if c.name.startswith("calibrated")]

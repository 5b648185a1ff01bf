"""Orchestrated experiments: the comparison-theorem desk pipeline and two
convergence sweeps, the Fejer reconstruction error per order (``approx``)
and the pathwise-formula residual per grid size (``ito-check``).

The comparison pipeline exercises, on a finite search space, the machinery
that proves uniqueness: cylindrical smoothing of the terminal condition,
exponential scaling, perturbed maximization with the smooth gauge, and the
bounded-operator estimate of the perturbation at the limit point.  The run
reports the inequality chain

    lambda G(p0)  <=  lambda (G(limit) - delta phi(limit))  <=  delta L phi(limit)

whose left link is exact by construction and whose right link applies when
the limit time is interior; a limit at the terminal time is the structural
escape branch and is reported as such, consistent with the theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cylinders import cylinder_approx, cylinder_coordinates
from .errors import InputError
from .fourier import fejer_coefficient, fejer_coefficient_quadrature, fejer_smooth
from .gauge import perturbation_bounds
from .grids import (GridPath, PathPoint, TimeGrid, brownian_increments,
                    extend_with_increments)
from .ito import SEMIMARTINGALE_PRESETS, ito_verify
from .quadrature import QuadratureConfig
from .solver import (MCConfig, build_terminal, candidate_solution,
                     finite_dim_solution)
from .streams import StreamKind, substream
from .varprinciple import SearchSpace, smooth_variational_principle

__all__ = [
    "ComparisonReport",
    "DeltaRow",
    "SUBSOLUTION_OFFSET",
    "FACTOR_Z_SAMPLES",
    "comparison_demo",
    "brownian_search_space",
    "tn_convergence_rows",
    "dt_convergence_rows",
]

# comparison-demo's "subsolution" mode takes u = solution - SUBSOLUTION_OFFSET
SUBSOLUTION_OFFSET = 0.25
# nodes of the Monte-Carlo z-rule of comparison-demo's factor values
FACTOR_Z_SAMPLES = 4096


def brownian_search_space(grid: TimeGrid, n_paths: int, seed: int,
                          times: Optional[list[float]] = None,
                          amplitude: float = 1.0) -> SearchSpace:
    """Search space of scaled Brownian paths pinned at zero, with point times
    drawn from ``times`` (default: quarter nodes of the horizon)."""
    rng = substream(seed, StreamKind.SEARCH_SPACE, 0)
    if times is None:
        times = [0.25 * grid.horizon, 0.5 * grid.horizon, 0.75 * grid.horizon]
    vals = extend_with_increments(0.0, GridPath.zero(grid),
                                  brownian_increments(grid, 0, 1, rng, n=n_paths))
    vals *= amplitude
    return SearchSpace(tuple(PathPoint(times[i % len(times)], GridPath(grid, v))
                             for i, v in enumerate(vals)))


_FINITE_SPACE_CAVEAT = (
    "the tangency link is guaranteed only at a global maximum over the whole "
    "path space; on a finite space it is reported, not asserted")


@dataclass
class DeltaRow:
    delta: float
    limit_time: float
    interior: bool
    chain_left: float
    chain_mid: float
    chain_right: float
    phi_at_limit: float
    operator_phi: float
    operator_bound: float
    items_ok: bool
    exact_link_ok: bool
    operator_ok: bool
    tangency_link_ok: Optional[bool]
    endpoint_ok: bool
    iterations: int

    @property
    def machinery_ok(self) -> bool:
        return self.items_ok and self.exact_link_ok and self.operator_ok


@dataclass
class ComparisonReport:
    """Per-delta chain values plus the machinery verdict.

    "consistent" certifies everything the theory guarantees at desk scale:
    the perturbed-maximization conclusions, the exact left link of the chain,
    and the uniform operator bound on the perturbation.  In subsolution mode
    the endpoint inequality (left <= right) is also required: a strict
    subsolution must survive the vanishing-delta estimate.  In candidate
    mode the endpoint's failure at small delta together with a positive
    start gap is the contradiction mechanism itself and is reported as
    ``contradiction_exhibited``.
    """

    mode: str
    lam: float
    eps: float
    order: int
    coordinates: int
    n_points: int
    start_value: float
    sup_value: float
    stat_allowance: float
    rows: list[DeltaRow] = field(default_factory=list)
    caveat: str = _FINITE_SPACE_CAVEAT

    @property
    def verdict(self) -> str:
        for row in self.rows:
            if not row.machinery_ok:
                return "violated"
            if self.mode == "subsolution" and not row.endpoint_ok:
                return "violated"
        return "consistent"

    @property
    def rhs_monotone(self) -> bool:
        rhs = [row.chain_right for row in self.rows]
        return all(b < a for a, b in zip(rhs, rhs[1:]))

    @property
    def contradiction_exhibited(self) -> bool:
        last = self.rows[-1]
        return (self.mode == "candidate"
                and self.start_value > self.stat_allowance
                and not last.endpoint_ok)


def comparison_demo(grid: TimeGrid, seed: int,
                    terminal: str = "running_max",
                    order: int = 16,
                    n_paths: int = 200,
                    n_mc: int = 2000,
                    lam: float = 0.5,
                    deltas: tuple[float, ...] = (0.1, 0.05, 0.025),
                    mode: str = "candidate",
                    start_index: int = 0,
                    gauge_config: QuadratureConfig = QuadratureConfig(),
                    progress: Optional[Callable[[str], None]] = None
                    ) -> ComparisonReport:
    """Run the comparison machinery end to end on a finite space.

    ``mode`` "candidate" takes the rough side u to be the Monte-Carlo
    solution itself (the machinery should then report no contradiction);
    "subsolution" takes u = solution - ``SUBSOLUTION_OFFSET``, a strict
    subsolution.  The factor values of v_n use the Monte-Carlo z-rule with
    ``FACTOR_Z_SAMPLES`` nodes.

    u takes one :func:`candidate_solution` call per distinct point time:
    the j-th time in increasing order gets seed + 101 + j, and all points
    at that time share its draws.  ``stat_allowance`` stays a bound per
    point, 3 lam max exp(lam t) (stderr of u + stderr of v_n): each point's
    estimate and stderr are exactly those of the point alone under its
    time's seed, so common draws do not weaken it; they only correlate the
    errors of points at one time, which makes their differences less noisy.
    ``deltas`` must be finite, positive and strictly decreasing, as the
    vanishing-delta estimate and the monotone right side assume; anything
    else raises :class:`InputError` before any Monte-Carlo work.
    """
    if mode not in ("candidate", "subsolution"):
        raise InputError("mode must be 'candidate' or 'subsolution'")
    if not lam > 0:
        raise InputError(f"the scaling rate lam must be positive, got {lam}")
    if not deltas:
        raise InputError("the perturbation weights deltas must not be empty")
    for delta in deltas:
        if not (math.isfinite(delta) and delta > 0):
            raise InputError(f"every perturbation weight delta must be finite "
                             f"and positive, got {delta}")
    for a, b in zip(deltas, deltas[1:]):
        if not b < a:
            raise InputError(f"the perturbation weights deltas must strictly "
                             f"decrease, got {b} after {a}")
    say = progress or (lambda s: None)
    xi = build_terminal(terminal, grid)

    # Step I: cylindrical smoothing of the terminal condition.
    spec_n = cylinder_approx(xi.batch, order, grid, dimension=1)
    n_coords = 2 * order + 1
    factor_config = QuadratureConfig(z_rule="monte-carlo",
                                     z_samples=FACTOR_Z_SAMPLES,
                                     z_seed=seed + 17)

    space = brownian_search_space(grid, n_paths, seed)
    pts = list(space.points)
    if not 0 <= start_index < len(pts):
        raise InputError(f"start_index {start_index} outside the {len(pts)} "
                         "points of the space")
    say(f"space of {len(pts)} points; smoothing order {order} "
        f"({n_coords} coordinates)")

    # Step II: exponential scaling of both sides.  The Monte-Carlo values
    # and the factor matrix depend only on the time: one call of each per
    # time, the MC call on draws common to the time's points.
    times = np.array([p.t for p in pts])
    u_vals = np.empty(len(pts))
    u_err = np.empty(len(pts))
    vn_vals = np.empty(len(pts))
    vn_err = np.empty(len(pts))
    # not np.unique: numpy 2.4's imports numpy.ma on its first call
    for j, t in enumerate(sorted(set(times.tolist()))):
        at_t = np.flatnonzero(times == t)
        paths = [pts[i].path for i in at_t]
        ests = candidate_solution(xi, t, paths,
                                  MCConfig(n_samples=n_mc, seed=seed + 101 + j))
        u_vals[at_t] = [est.mean for est in ests]
        u_err[at_t] = [est.stderr for est in ests]
        z = cylinder_coordinates(spec_n, t, paths)
        sol = finite_dim_solution(spec_n, t, z, factor_config,
                                  derivatives=False, horizon=grid.horizon)
        vn_vals[at_t] = sol.value
        vn_err[at_t] = sol.value_stderr
    if mode == "subsolution":
        u_vals = u_vals - SUBSOLUTION_OFFSET
    scale = np.exp(lam * times)
    g_vals = scale * (u_vals - vn_vals)
    say("solution values estimated on the space")

    sup_g = float(np.max(g_vals))
    start = pts[start_index]
    eps = max(sup_g - g_vals[start_index], 1e-9) * (1.0 + 1e-9) + 1e-12
    stat = float(lam * 3.0 * np.max(scale * (u_err + vn_err)))
    bounds = perturbation_bounds(grid.horizon)
    op_bound = bounds["horizontal"] + 0.5 * bounds["vertical2"]

    report = ComparisonReport(mode=mode, lam=lam, eps=eps, order=order,
                              coordinates=n_coords, n_points=len(pts),
                              start_value=float(g_vals[start_index]),
                              sup_value=sup_g, stat_allowance=stat)

    # Steps III-V per delta.
    for delta in deltas:
        res = smooth_variational_principle(g_vals, eps, delta, start, space,
                                           gauge_config)
        phi = float(res.phi.value[res.limit_index])
        lphi = float(res.phi.derivs.heat_operator()[res.limit_index])
        interior = bool(res.limit.t < grid.horizon - 1e-12)
        chain_left = lam * float(g_vals[start_index])
        chain_mid = lam * float(g_vals[res.limit_index] - delta * phi)
        chain_right = delta * lphi
        tangency = bool(chain_mid <= chain_right + stat) if interior else None
        report.rows.append(DeltaRow(
            delta=delta, limit_time=res.limit.t, interior=interior,
            chain_left=chain_left, chain_mid=chain_mid, chain_right=chain_right,
            phi_at_limit=phi, operator_phi=lphi, operator_bound=op_bound,
            items_ok=bool(res.all_items_ok()),
            exact_link_ok=bool(chain_left <= chain_mid + 1e-9),
            operator_ok=bool(abs(lphi) <= op_bound + 1e-6),
            tangency_link_ok=tangency,
            endpoint_ok=bool(chain_left <= chain_right + stat),
            iterations=res.iterations))
        say(f"delta={delta:g}: limit at t={res.limit.t:g}, "
            f"chain=({chain_left:.4g}, {chain_mid:.4g}, {chain_right:.4g})")
    return report


# ---------------------------------------------------------------------------
# Convergence sweeps
# ---------------------------------------------------------------------------

def tn_convergence_rows(grid: TimeGrid, orders=(4, 8, 16, 32, 64, 128)):
    """Fejer reconstruction error on the unit sine path, per order; the
    orders must be strictly increasing."""
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise InputError(f"Fejer orders must be strictly increasing, not {orders}")
    x = GridPath.from_function(grid, lambda t: np.sin(2 * np.pi * t / grid.horizon))
    rows = []
    for n in orders:
        err = float(np.max(np.abs(fejer_smooth(x, n).values - x.values)))
        cf = float(np.abs(fejer_coefficient(x, 1)
                          - fejer_coefficient_quadrature(x, 1))[0])
        rows.append({"order": n, "sup_error": err, "coefficient_gap": cf})
    return rows


def dt_convergence_rows(horizon: float, seed: int, n_samples: int = 256,
                        exponents=(6, 7, 8, 9, 10), preset: str = "brownian"):
    """Terminal residual of the pathwise formula for the square lift across
    grid resolutions, with the fitted log-log slope in each row."""
    if len(set(exponents)) < 2:
        raise InputError("fitting a slope needs at least two distinct exponents")

    def profiles(values: np.ndarray):
        n, m1, d = values.shape
        return (np.sum(values * values, axis=2), np.zeros((n, m1)),
                2.0 * values, np.broadcast_to(2.0 * np.eye(d), (n, m1, d, d)))

    spec = SEMIMARTINGALE_PRESETS[preset]()
    rows = []
    dts, errs = [], []
    for e in exponents:
        grid = TimeGrid(horizon, 2**e)
        est = ito_verify(profiles, spec, grid,
                         MCConfig(n_samples=n_samples, seed=seed))
        dts.append(grid.dt)
        errs.append(est.mean)
        rows.append({"dt": grid.dt, "mean_abs_residual": est.mean,
                     "stderr": est.stderr})
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    for row in rows:
        row["slope"] = slope
    return rows

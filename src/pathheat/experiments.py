"""Orchestrated experiments: the comparison-theorem desk pipeline and two
convergence sweeps, the error of ``cylinders.fejer_smoothing`` per order
(``approx``) and the pathwise-formula residual per grid size (``ito-check``).

The comparison pipeline exercises, on a finite search space, the machinery
that proves uniqueness: cylindrical smoothing of the terminal condition,
exponential scaling, perturbed maximization with the smooth gauge, and the
bounded-operator estimate of the perturbation at the limit point.  The run
reports the inequality chain

    lambda G(p0)  <=  lambda (G(limit) - delta phi(limit))  <=  delta L phi(limit)

whose left link is exact by construction and whose right link applies when
the limit time is interior; a limit at the terminal time is the structural
escape branch and is reported as such, consistent with the theory.

G is exp(lambda t) (u - v_n), with v_n the solution for the Fejer-smoothed
terminal: one Monte-Carlo estimate on draws common to both sides, with no
factor solution.  The smoothing modulus E ||Y - F_n Y||_inf at the start
point, which bounds u - v_n there for a terminal Lipschitz in the sup norm,
is one more estimate on the start point's draws.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cylinders import (fejer_coefficient, fejer_coefficient_quadrature,
                        fejer_smoothing)
from .errors import InputError
from .gauge import perturbation_bounds
from .grids import (GridPath, PathPoint, TimeGrid, brownian_increments,
                    extend_with_increments)
from .ito import SEMIMARTINGALE_PRESETS, ito_verify
from .solver import (MCConfig, TerminalFunctional, build_terminal,
                     candidate_solution)
from .streams import StreamKind, substream
from .varprinciple import SearchSpace, smooth_variational_principle

__all__ = [
    "ComparisonReport",
    "DeltaRow",
    "SUBSOLUTION_OFFSET",
    "comparison_demo",
    "brownian_search_space",
    "tn_convergence_rows",
    "dt_convergence_rows",
]

_log = logging.getLogger(__name__)

# comparison-demo's "subsolution" mode takes u = solution - SUBSOLUTION_OFFSET
SUBSOLUTION_OFFSET = 0.25


def _smoothing_modulus(smoothing) -> TerminalFunctional:
    """The terminal v -> ||v - S v||_inf, the largest Euclidean norm over the
    nodes, of a linear smoothing S of paths."""
    def batch(values, grid):
        gap = values - smoothing(values)
        return np.sqrt(np.max(np.einsum("nmd,nmd->nm", gap, gap), axis=1))

    return TerminalFunctional(name="smoothing_modulus", batch=batch)


def brownian_search_space(grid: TimeGrid, n_paths: int, seed: int) -> SearchSpace:
    """Search space of Brownian paths from zero, point i at the node nearest
    to the quarter q = i mod 3 + 1 of the horizon.

    That node is round(q M / 4) for M steps, rounded half to even: 0.2, 0.5
    and 0.8 at M = 10, 0.24, 0.5 and 0.76 at M = 50, and the quarters
    themselves when 4 divides M.
    """
    rng = substream(seed, StreamKind.SEARCH_SPACE, 0)
    times = [grid.node(round(q * grid.steps / 4)) for q in (1, 2, 3)]
    vals = extend_with_increments(0.0, GridPath.zero(grid),
                                  brownian_increments(grid, 0, 1, rng, n=n_paths))
    return SearchSpace(tuple(PathPoint(times[i % len(times)], GridPath(grid, v))
                             for i, v in enumerate(vals)))


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
    mode the endpoint's failure at small delta together with a start gap
    beyond the smoothing bias is the contradiction mechanism itself and is
    reported as ``contradiction_exhibited``.

    ``modulus`` and ``modulus_stderr`` estimate m(p0) = E ||Y - F_n Y||_inf
    at the start point p0 = (t0, x), on the draws of u - v_n; ``bias_bound``
    is L exp(lam t0) (m(p0) + 3 stderr) for a terminal with sup-norm
    Lipschitz constant L, and None for a terminal without one.
    """

    mode: str
    lam: float
    start_value: float
    stat_allowance: float
    modulus: float
    modulus_stderr: float
    bias_bound: Optional[float]
    rows: list[DeltaRow] = field(default_factory=list)

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
        """Candidate mode only: the endpoint fails at the smallest delta
        while lam G(p0) > lam ``bias_bound`` + ``stat_allowance``.

        u - v_n = E[xi(Y) - xi(F_n Y)], and |xi(Y) - xi(F_n Y)| <=
        L ||Y - F_n Y||_inf holds pathwise for a terminal L-Lipschitz in the
        sup norm, so G(p0) <= L exp(lam t0) m(p0): the smoothing bias alone
        can open a start gap this large, and only a gap beyond it, by more
        than the statistical allowance, contradicts the comparison.  A
        terminal with no such constant (``bias_bound`` None, e.g.
        ``terminal_square`` and the ``cyl:*`` terminals) never reports one.
        """
        last = self.rows[-1]
        return (self.mode == "candidate" and self.bias_bound is not None
                and self.lam * self.start_value
                > self.lam * self.bias_bound + self.stat_allowance
                and not last.endpoint_ok)


def comparison_demo(grid: TimeGrid, seed: int,
                    terminal: str = "running_max",
                    order: int = 16,
                    n_paths: int = 200,
                    n_mc: int = 2000,
                    lam: float = 0.5,
                    deltas: tuple[float, ...] = (0.1, 0.05, 0.025),
                    mode: str = "candidate") -> ComparisonReport:
    """Run the comparison machinery end to end on a finite space, from its
    first point p0 = (t0, x).

    ``mode`` "candidate" takes the rough side u to be the Monte-Carlo
    solution itself (the machinery should then report no contradiction);
    "subsolution" takes u = solution - ``SUBSOLUTION_OFFSET``, a strict
    subsolution.  v_n solves the equation for the terminal xi o F_n, F_n
    the order-``order`` Fejer smoothing, so u - v_n = E[xi(Y) - xi(F_n Y)]
    over the Brownian extensions Y that u averages over: one
    :func:`candidate_solution` call with :func:`cylinders.fejer_smoothing`
    per distinct point time, the j-th time in increasing order on
    seed + 101 + j, on draws common to both sides and to the time's points.
    G = exp(lam t) (u - v_n), less exp(lam t) ``SUBSOLUTION_OFFSET`` in
    subsolution mode.  ``stat_allowance`` = 3 lam max exp(lam t)
    stderr(u - v_n) is a bound per point, since each point's estimate
    equals that of the point alone.  m(p0) = E ||Y - F_n Y||_inf, the bound
    behind :attr:`ComparisonReport.contradiction_exhibited`, is one more
    :func:`candidate_solution` call, of the terminal ||v - F_n v||_inf on
    p0's path alone under the seed of p0's time: sample i is a pure function
    of (seed, i), so it reads the draws of p0's u - v_n.  ``deltas`` must be
    finite, positive and strictly decreasing, as the vanishing-delta
    estimate and the monotone right side assume; anything else raises
    :class:`InputError` before any Monte-Carlo work.  Progress goes to this
    module's logger at INFO.
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
    xi = build_terminal(terminal, grid)

    # Step I: cylindrical smoothing of the terminal condition.
    smoothing = fejer_smoothing(order, grid)
    n_coords = 2 * order + 1

    space = brownian_search_space(grid, n_paths, seed)
    pts = list(space.points)
    _log.info("space of %d points; smoothing order %d (%d coordinates)",
              len(pts), order, n_coords)

    # Step II: exponential scaling of u - v_n, one Monte-Carlo call per time
    # on draws common to the time's points and to both sides.
    times = np.array([p.t for p in pts])
    ests = [None] * len(pts)
    # not np.unique: numpy 2.4's imports numpy.ma on its first call
    cfgs = {t: MCConfig(n_samples=n_mc, seed=seed + 101 + j)
            for j, t in enumerate(sorted(set(times.tolist())))}
    for t, cfg in cfgs.items():
        at_t = np.flatnonzero(times == t)
        for i, est in zip(at_t, candidate_solution(
                xi, t, [pts[i].path for i in at_t], cfg, smoothing)):
            ests[i] = est
    gap = np.array([est.mean for est in ests])
    gap_err = np.array([est.stderr for est in ests])
    if mode == "subsolution":
        gap = gap - SUBSOLUTION_OFFSET
    scale = np.exp(lam * times)
    g_vals = scale * gap
    _log.info("u - v_n estimated on the space")

    sup_g = float(np.max(g_vals))
    eps = max(sup_g - g_vals[0], 1e-9) * (1.0 + 1e-9) + 1e-12
    stat = float(lam * 3.0 * np.max(scale * gap_err))
    m0 = candidate_solution(_smoothing_modulus(smoothing), pts[0].t,
                            pts[0].path, cfgs[pts[0].t])
    bias_bound = (None if xi.lipschitz is None else float(
        xi.lipschitz * scale[0] * (m0.mean + 3.0 * m0.stderr)))
    bounds = perturbation_bounds(grid.horizon)
    op_bound = bounds["horizontal"] + 0.5 * bounds["vertical2"]

    report = ComparisonReport(mode=mode, lam=lam, start_value=float(g_vals[0]),
                              stat_allowance=stat,
                              modulus=m0.mean, modulus_stderr=m0.stderr,
                              bias_bound=bias_bound)

    # Steps III-V per delta.
    for delta in deltas:
        res = smooth_variational_principle(g_vals, eps, delta, pts[0], space)
        at_limit = res.limit_phi
        phi = float(at_limit.value[0])
        lphi = float(at_limit.derivs.heat_operator()[0])
        interior = bool(res.limit.t < grid.horizon - 1e-12)
        chain_left = lam * float(g_vals[0])
        chain_mid = lam * float(g_vals[res.limit_index] - delta * phi)
        chain_right = delta * lphi
        tangency = bool(chain_mid <= chain_right + stat) if interior else None
        report.rows.append(DeltaRow(
            delta=delta, limit_time=res.limit.t, interior=interior,
            chain_left=chain_left, chain_mid=chain_mid, chain_right=chain_right,
            phi_at_limit=phi, operator_phi=lphi,
            items_ok=bool(res.all_items_ok()),
            exact_link_ok=bool(chain_left <= chain_mid + 1e-9),
            operator_ok=bool(abs(lphi) <= op_bound + 1e-6),
            tangency_link_ok=tangency,
            endpoint_ok=bool(chain_left <= chain_right + stat),
            iterations=res.iterations))
        _log.info("delta=%g: limit at t=%g, chain=(%.4g, %.4g, %.4g)", delta,
                  res.limit.t, chain_left, chain_mid, chain_right)
    return report


# ---------------------------------------------------------------------------
# Convergence sweeps
# ---------------------------------------------------------------------------

def tn_convergence_rows(grid: TimeGrid, orders=(4, 8, 16, 32, 64, 128)):
    """Sup error of :func:`fejer_smoothing` on the unit sine path per order,
    and the order-independent gap between the forward-integral and quadrature
    coefficients of the first sine; the orders must be strictly increasing."""
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise InputError(f"Fejer orders must be strictly increasing, not {orders}")
    x = GridPath.from_function(grid, lambda t: np.sin(2 * np.pi * t / grid.horizon))
    cf = float(np.abs(fejer_coefficient(x, 1) - fejer_coefficient_quadrature(x, 1))[0])
    rows = []
    for n in orders:
        err = float(np.max(np.abs(fejer_smoothing(n, grid)(x.values) - x.values)))
        rows.append({"order": n, "sup_error": err, "coefficient_gap": cf})
    return rows


def dt_convergence_rows(horizon: float, seed: int, n_samples: int = 256,
                        exponents=(6, 7, 8, 9, 10), preset: str = "brownian"):
    """Terminal residual of the pathwise formula for the square lift across
    grid resolutions, with the fitted log-log slope and its standard error
    in each row.

    The slope is a least-squares fit of log residual on log dt weighted by
    the per-level stderrs: level i has sd s_i / r_i on the log scale (the
    delta method), and ``slope_stderr`` is the fit's standard error from
    those sds alone, not rescaled by the scatter about the line.  It treats
    the levels as independent; they draw from the same sample streams, so
    their errors tend to move together and the figure errs on the wide side.
    """
    if len(set(exponents)) < 2:
        raise InputError("fitting a slope needs at least two distinct exponents")

    def profiles(values: np.ndarray):
        n, m1, d = values.shape
        return (np.sum(values * values, axis=2), np.zeros((n, m1)),
                2.0 * values, np.broadcast_to(2.0 * np.eye(d), (n, m1, d, d)))

    spec = SEMIMARTINGALE_PRESETS[preset]()
    rows = []
    for e in exponents:
        grid = TimeGrid(horizon, 2**e)
        est = ito_verify(profiles, spec, grid,
                         MCConfig(n_samples=n_samples, seed=seed))
        rows.append({"dt": grid.dt, "mean_abs_residual": est.mean,
                     "stderr": est.stderr})
    dts, errs, stderrs = (np.array([row[key] for row in rows])
                          for key in ("dt", "mean_abs_residual", "stderr"))
    coef, cov = np.polyfit(np.log(dts), np.log(errs), 1, w=errs / stderrs,
                           cov="unscaled")
    for row in rows:
        row["slope"] = float(coef[0])
        row["slope_stderr"] = float(math.sqrt(cov[0, 0]))
    return rows

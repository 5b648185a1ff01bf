"""Monte-Carlo candidate solution of the path-dependent heat equation, the
flow (tower) identity residual, the finite-dimensional factor solution for
cylinder terminal conditions, and pointwise operator checks.

The candidate solution at (t, x) is the expectation of the terminal
functional over Brownian extensions of x from time t.  For cylinder
functionals the same value has an exact finite-dimensional representation
through a Gaussian with covariance built from the weight functions; the two
routes cross-validate each other, and the finite-dimensional route supplies
analytic pathwise derivatives for operator residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .cylinders import (CylinderSpec, LiftedFunctional,
                        cylinder_pathwise_derivs, make_cylinder_lift)
from .errors import ContractError, DomainError, InputError, NumericError
from .grids import (GridPath, PathPoint, TimeGrid, brownian_increments,
                    extend_with_increments)
from .quadrature import QuadratureConfig, gaussian_rule, legendre_rule
from .streams import StreamKind, sample_stream, substream
from .varprinciple import SearchSpace

__all__ = [
    "TerminalFunctional",
    "MCConfig",
    "MCEstimate",
    "sample_increments",
    "candidate_solution",
    "running_max_exact_solution",
    "flow_residual",
    "FiniteDimSolution",
    "finite_dim_solution",
    "make_factor_engine",
    "solution_lift",
    "pde_residual",
    "viscosity_spotcheck",
    "SpotcheckReport",
    "build_terminal",
    "terminal_names",
]

@dataclass(frozen=True)
class TerminalFunctional:
    """Terminal condition xi acting on grid paths.

    ``batch`` evaluates xi on an array of path values (n, M+1, d) at once;
    ``bound`` is an a-priori sup bound when xi is bounded; ``cylinder``
    carries the finite-dimensional representation when xi has one.
    Continuity of xi is the caller's contract.
    """

    name: str
    batch: Callable[[np.ndarray, TimeGrid], np.ndarray]
    bound: Optional[float] = None
    cylinder: Optional[CylinderSpec] = None

    def evaluate_batch(self, values: np.ndarray, grid: TimeGrid) -> np.ndarray:
        return np.asarray(self.batch(values, grid), float)


# Samples per chunk of candidate_solution; even, so that an antithetic pair
# never straddles two chunks.
_CHUNK = 4096


@dataclass(frozen=True)
class MCConfig:
    n_samples: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_samples < 2:
            raise DomainError("need at least 2 Monte-Carlo samples")
        if self.antithetic and (self.n_samples % 2 or self.n_samples < 4):
            raise DomainError("antithetic sampling needs an even sample count "
                              "of at least 4 (two pairs)")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int

    @staticmethod
    def from_samples(samples: np.ndarray, seed: int) -> "MCEstimate":
        n = samples.size
        return MCEstimate(mean=float(np.mean(samples)),
                          stderr=float(np.std(samples, ddof=1) / math.sqrt(n)),
                          n_samples=n, seed=seed)

    @staticmethod
    def merge(parts: Sequence["MCEstimate"]) -> "MCEstimate":
        """Count-weighted mean with pooled (ddof=1) variance."""
        n = sum(p.n_samples for p in parts)
        mean = sum(p.mean * p.n_samples for p in parts) / n
        sumsq = sum((p.n_samples - 1) * p.stderr**2 * p.n_samples
                    + p.n_samples * p.mean**2 for p in parts)
        var = (sumsq - n * mean**2) / max(n - 1, 1)
        return MCEstimate(mean=float(mean),
                          stderr=float(math.sqrt(max(var, 0.0) / n)),
                          n_samples=n, seed=parts[0].seed)


def sample_increments(grid: TimeGrid, k: int, d: int, seed: int, idx,
                      antithetic: bool = False,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Brownian increments after node k for the sample indices ``idx``,
    shape (len(idx), M-k, d).

    Sample i draws from stream i, so a sample is a pure function of
    (seed, i) whatever the partition of the indices.  Under ``antithetic``
    the pair 2j, 2j+1 opens stream j once and the odd member mirrors it.
    ``out`` receives the increments in place.
    """
    idx = np.asarray(idx, dtype=np.int64).tolist()
    if out is None:
        out = np.empty((len(idx), grid.steps - k, d))
    if out.shape[1] == 0:
        return out
    for row, i in enumerate(idx):
        if antithetic and i % 2 and row and idx[row - 1] == i - 1:
            np.negative(out[row - 1], out=out[row])
            continue
        sample_stream(seed, i // 2 if antithetic else i).standard_normal(out=out[row])
        if antithetic and i % 2:
            np.negative(out[row], out=out[row])
    out *= math.sqrt(grid.dt)
    return out


def candidate_solution(xi: TerminalFunctional, t: float, x: GridPath,
                       cfg: MCConfig) -> MCEstimate:
    """Monte-Carlo mean of xi over Brownian extensions from (t, x).

    Sample i is a pure function of (seed, i); partitioning an ensemble by
    sample index cannot change the result.  Under antithetic sampling the
    standard error is that of the pair means.
    """
    grid = x.grid
    k = grid.index_of(t)
    total = np.empty(cfg.n_samples)
    buf = np.empty((min(_CHUNK, cfg.n_samples), grid.steps + 1, x.dimension))
    for lo in range(0, cfg.n_samples, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, cfg.n_samples))
        vals = buf[: idx.size]
        sample_increments(grid, k, x.dimension, cfg.seed, idx, cfg.antithetic,
                          out=vals[:, k + 1:])
        extend_with_increments(t, x, vals[:, k + 1:], out=vals)
        out = xi.evaluate_batch(vals, grid)
        if not np.all(np.isfinite(out)):
            bad = int(idx[np.flatnonzero(~np.isfinite(out))[0]])
            raise NumericError(f"terminal functional non-finite at sample {bad}")
        total[idx] = out
    est = MCEstimate.from_samples(total, cfg.seed)
    if cfg.antithetic:
        pairs = total.reshape(-1, 2).mean(axis=1)
        est = replace(est, stderr=float(np.std(pairs, ddof=1) / math.sqrt(pairs.size)))
    if xi.bound is not None and abs(est.mean) > xi.bound + 1e-12:
        raise NumericError("mean escaped the declared bound of the functional")
    return est


def running_max_exact_solution(t: float, x: GridPath, cfg: MCConfig) -> MCEstimate:
    """Unbiased estimate of E[sup of the *continuous* Brownian extension].

    The running maximum of a Brownian path exceeds the maximum over grid
    nodes by an O(sqrt(dt)) gap; sampling each cell's bridge maximum in
    closed form removes that discretization bias entirely, so the estimate
    targets the continuum value at any grid resolution.  Scalar paths only.
    """
    if x.dimension != 1:
        raise DomainError("the exact running-max estimator is one-dimensional")
    grid = x.grid
    k = grid.index_of(t)
    past_max = float(np.max(x.values[: k + 1, 0]))
    if k == grid.steps:
        return MCEstimate(mean=past_max, stderr=0.0,
                          n_samples=cfg.n_samples, seed=cfg.seed)
    samples = np.empty(cfg.n_samples)
    for i in range(cfg.n_samples):
        rng = substream(cfg.seed, StreamKind.BRIDGE, i)
        dw = brownian_increments(grid, k, 1, rng)
        u = rng.random(grid.steps - k)
        nodes = extend_with_increments(t, x, dw)[k:, 0]
        a, b = nodes[:-1], nodes[1:]
        cell_max = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 2.0 * grid.dt * np.log(u)))
        samples[i] = max(past_max, float(np.max(cell_max)))
    return MCEstimate.from_samples(samples, cfg.seed)


def flow_residual(xi: TerminalFunctional, t: float, t_prime: float, x: GridPath,
                  cfg: MCConfig, n_inner: int = 1000) -> MCEstimate:
    """Residual of the tower identity between times t <= t' <= T.

    Couples the two expectations through the outer samples: each outer
    extension Y contributes xi(Y) minus an inner Monte-Carlo estimate of the
    solution restarted at (t', Y).  At t' = t the identity is the
    non-anticipativity of the solution and holds pointwise, so the residual
    is returned as exactly zero; at t' = T the inner estimate collapses to
    xi(Y) and the coupling is exact as well.
    """
    grid = x.grid
    k = grid.index_of(t)
    kp = grid.index_of(t_prime)
    if not (k <= kp):
        raise DomainError("flow residual needs t <= t'")
    if kp == k:
        return MCEstimate(mean=0.0, stderr=0.0, n_samples=cfg.n_samples,
                          seed=cfg.seed)
    d = x.dimension
    diffs = np.empty(cfg.n_samples)
    for i in range(cfg.n_samples):
        outer = extend_with_increments(
            t, x, sample_increments(grid, k, d, cfg.seed, [i]))
        xi_outer = float(xi.evaluate_batch(outer, grid)[0])
        inner_dw = brownian_increments(grid, kp, d,
                                       substream(cfg.seed, StreamKind.FLOW_INNER, i),
                                       n=n_inner)
        inner = extend_with_increments(t_prime, GridPath(grid, outer[0]), inner_dw)
        diffs[i] = xi_outer - float(np.mean(xi.evaluate_batch(inner, grid)))
    return MCEstimate.from_samples(diffs, cfg.seed)


# ---------------------------------------------------------------------------
# Finite-dimensional factor solution for cylinder terminal conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDimSolution:
    """Value and derivatives of the factor problem at (t, z).

    ``value_stderr`` is populated when the Gaussian rule is Monte Carlo.
    """

    value: float
    time_derivative: float
    gradient: Optional[np.ndarray]
    hessian: Optional[np.ndarray]
    value_stderr: float = 0.0


def _pair_integrals(spec: CylinderSpec, t: float, horizon: float) -> np.ndarray:
    """Matrix of integrals of psi_i psi_j over [t, T] to ~1e-12 absolute.

    Small factor counts use adaptive quadrature pair by pair; larger ones
    (Fejer approximation specs) use one vectorized high-order fixed rule,
    with enough nodes per oscillation for the trigonometric weights.
    """
    n = spec.n_factors
    out = np.empty((n, n))
    if t >= horizon:
        out[:] = 0.0
        return out
    if n <= 4:
        # imported here: scipy.integrate adds about 0.2 s to every start of
        # the package, and only these small specs use it
        from scipy.integrate import quad as _adaptive_quad

        for i in range(n):
            for j in range(i, n):
                val, _ = _adaptive_quad(
                    lambda s, _i=i, _j=j: float(np.asarray(spec.psi[_i](np.asarray([s])))[0]
                                                * np.asarray(spec.psi[_j](np.asarray([s])))[0]),
                    t, horizon, epsabs=1e-12, epsrel=1e-12, limit=200)
                out[i, j] = out[j, i] = val
        return out
    nodes_count = max(512, 24 * n)
    s, w = legendre_rule(t, horizon, nodes_count)
    vals = np.stack([np.broadcast_to(np.asarray(spec.psi[i](s), float), s.shape)
                     for i in range(n)])
    return (vals * w) @ vals.T


def _factor_matrix(spec: CylinderSpec, t: float, horizon: float,
                   dimension: int) -> np.ndarray:
    """A with A A^T = covariance of the stacked weight-integral Gaussian."""
    pair = _pair_integrals(spec, t, horizon)
    lam, vec = np.linalg.eigh(pair)
    if np.min(lam) < -1e-10 * max(1.0, float(np.max(np.abs(lam)))):
        raise NumericError("pair-integral covariance is not positive semidefinite")
    root = vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    return np.kron(root, np.eye(dimension))


def _expect(spec: CylinderSpec, z: np.ndarray, shift: np.ndarray,
            weights: np.ndarray, want_derivs: bool, mc_rule: bool):
    pts = z[None, :] + shift
    if spec.g_batch is not None:
        gv = np.asarray(spec.g_batch(pts), float)
    else:
        gv = np.array([float(spec.g(p)) for p in pts])
    value = float(weights @ gv)
    stderr = 0.0
    if mc_rule and gv.size > 1:
        stderr = float(np.std(gv, ddof=1) / math.sqrt(gv.size))
    grad = hess = None
    if want_derivs:
        if spec.gradient is None or spec.hessian is None:
            raise ContractError(
                f"cylinder spec {spec.name!r} lacks gradient/hessian evaluators")
        grad = np.zeros(z.size)
        hess = np.zeros((z.size, z.size))
        for w, p in zip(weights, pts):
            grad += w * np.asarray(spec.gradient(p), float)
            hess += w * np.asarray(spec.hessian(p), float)
    return value, grad, hess, stderr


def finite_dim_solution(spec: CylinderSpec, t: float, z: np.ndarray,
                        config: QuadratureConfig = QuadratureConfig(),
                        dimension: int = 1, derivatives: bool = True,
                        time_step: Optional[float] = None,
                        horizon: float = 1.0) -> FiniteDimSolution:
    """Heat-semigroup value of the factor problem at (t, z).

    Averages g over z + A(t) U with U standard normal, where A(t) A(t)^T is
    the covariance of the remaining weight integrals; Gauss-Hermite tensor
    rule up to 3 total dimensions, fixed-seed antithetic Monte Carlo above.
    At t = T the Gaussian degenerates and the value is g(z) exactly.  The
    time derivative is a central finite difference of the value: it is
    computed independently of the spatial derivatives, so operator residuals
    built from this object genuinely test the heat equation.
    """
    z = np.asarray(z, float)
    if t > horizon + 1e-12:
        raise DomainError("t beyond horizon")
    m = z.size
    if m != dimension * spec.n_factors:
        raise DomainError(f"z has size {m}, expected {dimension * spec.n_factors}")

    mc_rule = config.resolve_z(m, allow_exact=False, gh_max_dim=3) == "monte-carlo"

    def value_at(tt: float, want_derivs: bool):
        if tt >= horizon:
            g0 = float(spec.g(z))
            if want_derivs:
                if spec.gradient is None or spec.hessian is None:
                    raise ContractError(
                        f"cylinder spec {spec.name!r} lacks gradient/hessian evaluators")
                return g0, np.asarray(spec.gradient(z), float), \
                    np.asarray(spec.hessian(z), float), 0.0
            return g0, None, None, 0.0
        a = _factor_matrix(spec, tt, horizon, dimension)
        u, w = gaussian_rule(config, m, allow_exact=False, gh_max_dim=3)
        return _expect(spec, z, u @ a.T, w, want_derivs, mc_rule)

    value, grad, hess, stderr = value_at(t, derivatives)
    if t >= horizon:
        return FiniteDimSolution(value=value, time_derivative=math.nan,
                                 gradient=grad, hessian=hess, value_stderr=stderr)
    h = time_step if time_step is not None else 1e-5 * horizon
    if t + h <= horizon:
        vp = value_at(t + h, False)[0]
        vm = value_at(t - h, False)[0] if t - h >= 0 else value
        dt_est = (vp - vm) / (2 * h) if t - h >= 0 else (vp - value) / h
    else:
        vm1 = value_at(t - h, False)[0]
        vm2 = value_at(t - 2 * h, False)[0]
        dt_est = (3.0 * value - 4.0 * vm1 + vm2) / (2 * h)
    return FiniteDimSolution(value=value, time_derivative=float(dt_est),
                             gradient=grad, hessian=hess, value_stderr=stderr)


def make_factor_engine(spec: CylinderSpec, config: QuadratureConfig = QuadratureConfig(),
                       dimension: int = 1, horizon: float = 1.0,
                       derivatives: bool = True):
    """Engine callable (t, z) -> FiniteDimSolution for the derivative chain."""

    def engine(t: float, z: np.ndarray) -> FiniteDimSolution:
        return finite_dim_solution(spec, t, z, config, dimension=dimension,
                                   derivatives=derivatives, horizon=horizon)

    return engine


def pde_residual(spec: CylinderSpec, t: float, x: GridPath,
                 config: QuadratureConfig = QuadratureConfig()) -> float:
    """Heat-operator residual of the cylinder solution at (t, x); ~0 when the
    factor solution solves its finite-dimensional equation."""
    if t >= x.horizon:
        raise DomainError("residual needs t < horizon")
    engine = make_factor_engine(spec, config, dimension=x.dimension,
                                horizon=x.horizon)
    derivs = cylinder_pathwise_derivs(spec, engine, t, x)
    return derivs.heat_operator()


def solution_lift(spec: CylinderSpec, config: QuadratureConfig = QuadratureConfig(),
                  dimension: int = 1, horizon: float = 1.0) -> LiftedFunctional:
    """The smoothed cylinder solution as a lifted map with derivatives."""
    engine = make_factor_engine(spec, config, dimension=dimension, horizon=horizon)
    return make_cylinder_lift(spec, engine)


# ---------------------------------------------------------------------------
# Viscosity-inequality spot checks
# ---------------------------------------------------------------------------

_SPOTCHECK_CAVEAT = (
    "extremum certified only over the supplied finite space; the defining "
    "tangency condition quantifies over the whole path space and is strictly "
    "stronger")


@dataclass
class SpotcheckReport:
    mode: str
    certified: bool
    extremum_gap: float
    operator_value: float
    satisfied: Optional[bool]
    caveat: str = _SPOTCHECK_CAVEAT


def viscosity_spotcheck(u: Callable[[PathPoint], float], phi: LiftedFunctional,
                        point: PathPoint, mode: str, space: SearchSpace,
                        cert_tol: float = 1e-9,
                        sign_tol: float = 1e-8) -> SpotcheckReport:
    """Check the sub/supersolution inequality of the heat equation at a
    candidate extremum of u - phi over a finite space.

    ``mode`` is "sub" (max, operator value <= 0 required) or "super" (min,
    >= 0).  If the extremum certificate fails over the space, no sign is
    asserted and the report says so.
    """
    if mode not in ("sub", "super"):
        raise InputError("mode must be 'sub' or 'super'")
    gap_vals = [u(p) - phi.restrict(p.t, p.path) for p in space]
    here = u(point) - phi.restrict(point.t, point.path)
    if mode == "sub":
        gap = here - max(gap_vals)
    else:
        gap = min(gap_vals) - here
    certified = gap >= -cert_tol
    derivs = phi.derivs(point.t, point.path)
    value = -derivs.horizontal - 0.5 * float(np.trace(derivs.vertical2))
    if not certified:
        return SpotcheckReport(mode=mode, certified=False, extremum_gap=gap,
                               operator_value=value, satisfied=None)
    ok = value <= sign_tol if mode == "sub" else value >= -sign_tol
    return SpotcheckReport(mode=mode, certified=True, extremum_gap=gap,
                           operator_value=value, satisfied=bool(ok))


# ---------------------------------------------------------------------------
# Terminal-functional registry
# ---------------------------------------------------------------------------

def _one(s):
    return np.ones_like(np.asarray(s, float))


def _cylinder_batch(spec: CylinderSpec, grid: TimeGrid):
    """Batched coordinates + g for scalar paths (vectorized over samples)."""
    nodes = grid.nodes()
    mids_w = []
    ends = []
    for l in range(spec.n_factors):
        pv = np.asarray(spec.psi[l](nodes), float)
        if pv.shape != nodes.shape:
            pv = np.broadcast_to(pv, nodes.shape).astype(float)
        mids_w.append(np.diff(pv))
        ends.append(pv[-1])

    def batch(values: np.ndarray, g: TimeGrid) -> np.ndarray:
        x = values[:, :, 0]
        mids = (x[:, :-1] + x[:, 1:]) / 2.0
        zs = np.stack([ends[l] * x[:, -1] - mids @ mids_w[l]
                       for l in range(spec.n_factors)], axis=1)
        return np.asarray(spec.g_batch(zs), float)

    return batch


def _linear_spec() -> CylinderSpec:
    return CylinderSpec(
        g=lambda z: float(z[0]),
        gradient=lambda z: np.array([1.0]),
        hessian=lambda z: np.array([[0.0]]),
        psi=[_one], name="linear",
        g_batch=lambda zs: zs[:, 0])


def _quadratic_spec() -> CylinderSpec:
    return CylinderSpec(
        g=lambda z: float(z[0] ** 2),
        gradient=lambda z: np.array([2.0 * z[0]]),
        hessian=lambda z: np.array([[2.0]]),
        psi=[_one], name="quadratic",
        g_batch=lambda zs: zs[:, 0] ** 2)


def _exponential_spec() -> CylinderSpec:
    return CylinderSpec(
        g=lambda z: float(np.exp(z[0])),
        gradient=lambda z: np.array([np.exp(z[0])]),
        hessian=lambda z: np.array([[np.exp(z[0])]]),
        psi=[_one], name="exponential",
        g_batch=lambda zs: np.exp(zs[:, 0]))


def _trig2_spec(horizon: float) -> CylinderSpec:
    w = math.pi / horizon

    def g(z):
        return float(np.sin(z[0]) * np.cos(z[1]))

    def gradient(z):
        return np.array([np.cos(z[0]) * np.cos(z[1]),
                         -np.sin(z[0]) * np.sin(z[1])])

    def hessian(z):
        s0, c0 = np.sin(z[0]), np.cos(z[0])
        s1, c1 = np.sin(z[1]), np.cos(z[1])
        return np.array([[-s0 * c1, -c0 * s1], [-c0 * s1, -s0 * c1]])

    return CylinderSpec(
        g=g, gradient=gradient, hessian=hessian,
        psi=[lambda s: np.cos(w * np.asarray(s, float)),
             lambda s: np.sin(w * np.asarray(s, float))],
        name="trig2",
        g_batch=lambda zs: np.sin(zs[:, 0]) * np.cos(zs[:, 1]))


_CYLINDER_BUILDERS = {
    "cyl:linear": lambda horizon: _linear_spec(),
    "cyl:quadratic": lambda horizon: _quadratic_spec(),
    "cyl:exponential": lambda horizon: _exponential_spec(),
    "cyl:trig2": _trig2_spec,
}


def terminal_names() -> list[str]:
    return ["terminal_value", "terminal_square", "running_max",
            *sorted(_CYLINDER_BUILDERS)]


def build_terminal(name: str, grid: TimeGrid) -> TerminalFunctional:
    """Look up a terminal functional by registry name (scalar paths)."""
    if name == "terminal_value":
        return TerminalFunctional(name=name, batch=lambda v, g: v[:, -1, 0])
    if name == "terminal_square":
        return TerminalFunctional(name=name, batch=lambda v, g: v[:, -1, 0] ** 2)
    if name == "running_max":
        return TerminalFunctional(
            name=name, batch=lambda v, g: np.max(v[:, :, 0], axis=1))
    if name in _CYLINDER_BUILDERS:
        spec = _CYLINDER_BUILDERS[name](grid.horizon)
        return TerminalFunctional(name=name, batch=_cylinder_batch(spec, grid),
                                  cylinder=spec)
    raise InputError(f"unknown terminal functional {name!r}; "
                     f"known: {', '.join(terminal_names())}")

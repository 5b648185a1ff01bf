"""Monte-Carlo candidate solution of the path-dependent heat equation and
the finite-dimensional factor solution for cylinder terminal conditions
with its pathwise derivatives.

The candidate solution at (t, x) is the expectation of the terminal
functional over Brownian extensions of x from time t, estimated by Monte
Carlo with the extension's walk and its positive part at a few grid nodes
up to T as control variates, and with more than one node also the walk's
running max over as many equally spaced nodes, whose mean Spitzer's
identity gives (:func:`candidate_solution`, one estimate per path, all
paths at one time on common draws; :func:`control_nodes` picks the nodes,
more of them as n grows).  Given a linear smoothing S of paths,
the same draws estimate E[xi(Y) - xi(S Y)] instead, which is how
comparison-demo takes u - v_n.  For cylinder functionals the
solution is also a finite-dimensional Gaussian average of g at the
coordinates z(t, x) (:func:`finite_dim_solution`, one average per
coordinate row, all rows at one time; its callers are pde-check and the
tests); the two routes cross-validate each other.  The pathwise
derivatives of the cylinder solution at paths on one grid follow by the
chain rule through the weight matrix: the vertical ones from the gradient
and Hessian of the average, the horizontal one from a difference quotient
of values in time (:func:`cylinder_pathwise_derivs`, :func:`pde_residual`).
Every row or path of a call gives, bit for bit, what it gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .cylinders import (CylinderSpec, PathwiseDerivs, cylinder_coordinates,
                        cylinder_sigma)
from .errors import ContractError, DomainError, InputError, NumericError
from .grids import GridPath, TimeGrid
from .quadrature import QuadratureConfig, gaussian_rule, legendre_rule
from .regularization import by_parts, weights_at
from .streams import sample_stream

__all__ = [
    "TerminalFunctional",
    "MCConfig",
    "MCEstimate",
    "sample_increments",
    "control_nodes",
    "candidate_solution",
    "FiniteDimSolution",
    "finite_dim_solution",
    "cylinder_pathwise_derivs",
    "pde_residual",
    "build_terminal",
    "terminal_names",
]

@dataclass(frozen=True)
class TerminalFunctional:
    """Terminal condition xi acting on grid paths.

    ``batch`` evaluates xi on an array of path values (n, M+1, d) at once,
    returning shape (n,); ``bound`` is an a-priori sup bound when xi is
    bounded; ``lipschitz`` is a constant L with |xi(x) - xi(y)| <= L ||x - y||_inf
    for all paths, when one is known; ``cylinder`` carries the
    finite-dimensional representation when xi has one.  Continuity of xi is
    the caller's contract.
    """

    name: str
    batch: Callable[[np.ndarray, TimeGrid], np.ndarray]
    bound: Optional[float] = None
    lipschitz: Optional[float] = None
    cylinder: Optional[CylinderSpec] = None

    def evaluate_batch(self, values: np.ndarray, grid: TimeGrid) -> np.ndarray:
        return _rows(f"terminal {self.name!r}", (len(values),),
                     self.batch, values, grid)


def _rows(who: str, shape: tuple, fn, *args) -> np.ndarray:
    """``fn(*args)`` as a float array, which must have the row shape
    ``shape``; an evaluator written for one row fails here, naming ``who``."""
    try:
        out = np.asarray(fn(*args), float)
    except TypeError as exc:
        raise ContractError(f"{who} failed on {shape[0]} rows: {exc}") from exc
    if out.shape != shape:
        raise ContractError(f"{who} returned shape {out.shape}, not {shape}")
    return out


# Most samples per chunk of candidate_solution; even, so that an antithetic
# pair never straddles two chunks.
_CHUNK = 4096

# Floats per chunk of candidate_solution's walk buffer, (chunk, M+1, d): 2 MiB,
# about one L2 cache, so that a chunk holds fewer than _CHUNK samples once
# (M+1) d > 64.
_WALK_FLOATS = 1 << 18

# Floor of the residual sum of squares of candidate_solution's fit, per unit
# of sum(y^2): the rounding level of a difference of sums of y^2.
_RSS_FLOOR = 64 * float(np.finfo(float).eps)

# Most control nodes of candidate_solution's fit: with d = 1, M = 1000 and
# n = 20,000 the residual sd of the running max on S and S^+ alone was 0.277
# at 1 node, 0.166 at 8 and 0.162 at 32; with Spitzer's control added it is
# 0.191 at 2 nodes, 0.101 at 8 and 0.052 at 32.
_MAX_NODES = 8


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
    """Monte-Carlo mean with its standard error.

    :meth:`from_samples` gives the plain sample mean.
    :func:`candidate_solution` instead returns a control-variate estimate:
    the intercept of a least-squares fit of the samples on the walk
    S_j = X_s - x(t), with known mean 0, and S_j^+, with known mean
    sqrt((s - t) / (2 pi)), per path component j at each of the K control
    nodes s of :func:`control_nodes`, the last of which is T.  At K >= 2
    each component also has Spitzer's control C_j = max(0, S_j at the nodes
    k + i h, i = 1..K), h = floor((M - k) / K), with known mean
    sum_i sqrt(i h dt / (2 pi)) / i.  That in-sample fit biases the mean by
    O(p/n); its stderr is sqrt(RSS / (n - p) / n) with p = 1 + (2K + 1)d
    fitted coefficients (1 + 2d at K = 1), floored at the rounding level of
    RSS.  Under antithetic sampling n counts samples but the fit runs on the
    n/2 pair means, with the pair means of S_j^+ and C_j as the only
    controls (S cancels inside a pair) and p = 1 + (K + 1)d (1 + d at K = 1).
    """

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


def sample_increments(grid: TimeGrid, k: int, d: int, seed: int, idx,
                      antithetic: bool = False,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Brownian increments after node k for the sample indices ``idx``,
    shape (len(idx), M-k, d).

    Sample i draws from stream i, so a sample is a pure function of
    (seed, i) whatever the partition of the indices.  One generator is
    reseated at each sample's stream, not built anew per sample.  Under
    ``antithetic`` the pair 2j, 2j+1 opens stream j once and the odd member
    mirrors it.  ``out`` receives the increments in place.
    """
    idx = np.asarray(idx, dtype=np.int64).tolist()
    if out is None:
        out = np.empty((len(idx), grid.steps - k, d))
    if out.shape[1] == 0:
        return out
    rng = None
    for row, i in enumerate(idx):
        if antithetic and i % 2 and row and idx[row - 1] == i - 1:
            np.negative(out[row - 1], out=out[row])
            continue
        rng = sample_stream(seed, i // 2 if antithetic else i, rng)
        rng.standard_normal(out=out[row])
        if antithetic and i % 2:
            np.negative(out[row], out=out[row])
    out *= math.sqrt(grid.dt)
    return out


def _moments(z: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, column means and centred cross products of the rows of z."""
    mean = z.mean(axis=0)
    dz = z - mean
    return z.shape[0], mean, dz.T @ dz


def _pool(a, b):
    """Moments of the union of two row sets from the moments of each
    (Chan, Golub & LeVeque's pairwise update)."""
    if a is None:
        return b
    (na, ma, ca), (nb, mb, cb) = a, b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), ca + cb + np.outer(delta, delta) * (na * nb / n)


def _spaced_max_mean(count: int, step: float) -> float:
    """E max(0, W_step, W_2step, ..., W_(count step)) for a standard
    Brownian motion W: by Spitzer's identity the sum over i = 1..count of
    E[W_(i step)^+] / i, with E[W_s^+] = sqrt(s / (2 pi))."""
    return math.fsum(math.sqrt(i * step / (2.0 * math.pi)) / i
                     for i in range(1, count + 1))


def control_nodes(grid: TimeGrid, t: float, cfg: MCConfig, d: int) -> np.ndarray:
    """Grid nodes k_1 < ... < k_K = M at which :func:`candidate_solution`
    fits its controls from time t, spread evenly over (k, M] for the node k
    of t, which must be a node; empty at t = T.

    K = max(1, min(8, M - k, floor(sqrt(units) / (16 d)))) for the fitted
    units (n samples, or n/2 pair means under antithetic sampling).  The
    in-sample fit biases the mean by O(p/n) for p fitted coefficients, and
    p grows like sqrt(n) here, so the bias stays a few hundredths of the
    O(1/sqrt n) stderr.  Below 1024 d^2 units K = 1: the last node alone.
    The nodes are unequal where K does not divide M - k (12, 13, 12, 13
    steps at M - k = 50, K = 4), so Spitzer's control, whose identity needs
    i.i.d. increments, reads the walk at the K equally spaced nodes
    k + i floor((M - k) / K) instead.
    """
    k = grid.index_of(t)
    span = grid.steps - k
    if span == 0:
        return np.empty(0, dtype=np.int64)
    units = cfg.n_samples // 2 if cfg.antithetic else cfg.n_samples
    count = max(1, min(_MAX_NODES, span, math.isqrt(units) // (16 * d)))
    return k + np.arange(1, count + 1) * span // count


def candidate_solution(xi: TerminalFunctional, t: float,
                       x: GridPath | Sequence[GridPath], cfg: MCConfig,
                       smoothing: Optional[Callable[[np.ndarray], np.ndarray]] = None
                       ) -> MCEstimate | tuple[MCEstimate, ...]:
    """Control-variate Monte-Carlo mean of xi over Brownian extensions from
    (t, x), with t a node of the grid of x.

    Let S_s = X_s - x(t) be the walk of the extension after t.  For every
    terminal and start path, each component j has E S_{s,j} = 0 and
    E S_{s,j}^+ = sqrt((s - t) / (2 pi)).  The controls are S_j and S_j^+ at
    the K nodes of :func:`control_nodes`, the last of which is T (so B =
    S_T, the increment of the extension, is always among them).  At K >= 2
    each component j also has the running max C_j = max(0, S_j at k + h,
    k + 2h, ..., k + Kh) over K equally spaced nodes, h = floor((M - k) / K);
    by Spitzer's identity E C_j = sum_{i=1}^{K} E[S_{j, ih}^+] / i =
    sum_i sqrt(i h dt / (2 pi)) / i.  (At K = 1, C_j would be S_T^+, which
    is already a control, so there is no C_j.)  The (2K + 1)d controls are regressed out
    of the samples by least squares, and the estimate is the fitted
    intercept at the known control means.  Fitting the coefficients on the
    samples themselves biases the mean by O(p/n); K grows like sqrt(n),
    which keeps that bias a few hundredths of the O(1/sqrt n) standard
    error.  The stderr is sqrt(RSS / (n - p) / n), with RSS the residual sum
    of squares and p = 1 + (2K + 1)d fitted coefficients, so n must exceed
    p.  Below 1024 d^2 fitted units K = 1, and the fit is the one on B and
    B^+ alone, p = 1 + 2d.  Under antithetic sampling S cancels inside each
    pair: the units are the n/2 pair means, the controls are the pair means
    of S_j^+ (that is |S_j| / 2) and of C_j, each of which keeps its known
    mean, and p = 1 + (K + 1)d (1 + d at K = 1).  At t = T there is no
    control and the estimate is the plain mean.

    RSS is a difference of sums and is known only to about eps * sum(y^2)
    of the fitted units y; it is floored at ``_RSS_FLOOR`` * sum(y^2), so
    that an exactly linear terminal, whose residual is pure rounding, still
    reports an error bar covering its rounding error.

    The fit is built from centred moments pooled chunk by chunk, so up to
    rounding (about 1e-15 relative) it is a function of the sample set
    alone, whatever the chunk size; sample i is a pure function of (seed, i).
    A chunk holds at most ``_CHUNK`` samples and, unless one antithetic
    pair is already larger, at most ``_WALK_FLOATS`` (2 MiB) walk floats;
    working memory is a few buffers of that size per call, whatever n and M
    are.

    ``x`` may also be a sequence of paths on one grid and in one dimension;
    the call then returns a tuple with one estimate per path.  The paths
    share their draws (common random numbers): each chunk of increments is
    drawn once, sample i from stream (seed, i), and summed once, and every
    path extends from its own x(t) by that one walk.  Each path keeps its
    own terminal evaluation and its own control-variate fit, so its estimate
    equals, bit for bit, the estimate for that path alone.  A single path is
    a batch of one.

    ``smoothing`` is a linear map S of path values (..., M+1, d) that maps
    each path of a stack bit for bit as it maps that path alone, such as
    :func:`cylinders.fejer_smoothing`.  Given it, each path's one estimate
    is the fit of the difference xi(Y) - xi(S Y) on the same controls; the
    non-finite check reads the difference, and a declared bound b of xi
    bounds it by 2 b.  By linearity S Y is S(x stopped at t) + S(walk),
    with the walk zero up to node k: the walk is smoothed once per chunk
    and the stopped paths once per call.  A single path without
    ``smoothing`` extends over the walk in place.
    """
    paths = (x,) if isinstance(x, GridPath) else tuple(x)
    if not paths:
        raise DomainError("candidate_solution needs at least one path")
    grid, d = paths[0].grid, paths[0].dimension
    if any(p.grid != grid for p in paths):
        raise DomainError("the paths of one call must share a grid")
    if any(p.dimension != d for p in paths):
        raise DomainError("the paths of one call must share a dimension")
    k = grid.index_of(t)
    n = cfg.n_samples
    units = n // 2 if cfg.antithetic else n
    nodes = control_nodes(grid, t, cfg, d)
    count = nodes.size
    # the spacing h of Spitzer's control at K >= 2 (0: no such control); at
    # K = 1 it would be S_T^+, already a control
    h = (grid.steps - k) // count if count >= 2 else 0
    n_controls = count * d * (1 if cfg.antithetic else 2) + (d if h else 0)
    p = 1 + n_controls
    if units <= p:
        least = 2 * (p + 1) if cfg.antithetic else p + 1
        raise DomainError(f"the control-variate fit of {p} coefficients needs "
                          f"at least {least} samples at d = {d}, not {n}")
    positive_means = np.repeat(np.sqrt((nodes - k) * grid.dt / (2.0 * math.pi)), d)
    control_means = (positive_means if cfg.antithetic else
                     np.concatenate([np.zeros_like(positive_means), positive_means]))
    if h:
        control_means = np.concatenate(
            [control_means, np.full(d, _spaced_max_mean(count, h * grid.dt))])
    moments = [None] * len(paths)
    # even, at least one antithetic pair
    chunk = min(_CHUNK, max(2, _WALK_FLOATS // ((grid.steps + 1) * d) // 2 * 2))
    buf = np.empty((min(chunk, n), grid.steps + 1, d))
    # the walk from 0, zero up to node k; a single path without smoothing
    # extends over it in place
    full_walk = buf if len(paths) == 1 and smoothing is None else np.zeros_like(buf)
    walk = full_walk[:, k + 1:]
    if smoothing is not None:
        stopped = np.stack([path.values for path in paths])
        stopped[:, k + 1:] = stopped[:, k, None]
        smooth_stopped = smoothing(stopped)
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        steps = walk[: idx.size]
        sample_increments(grid, k, d, cfg.seed, idx, cfg.antithetic, out=steps)
        np.cumsum(steps, axis=1, out=steps)
        # Spitzer's control, common to all paths: max(0, S at k + h, ...,
        # k + K h), read before a single path overwrites the walk
        spitzer = ([np.maximum(steps[:, h - 1:count * h:h].max(axis=1), 0.0)]
                   if h else [])
        if smoothing is not None:
            smooth_walk = smoothing(full_walk[: idx.size])
        vals = buf[: idx.size]
        for j, path in enumerate(paths):
            x_t = path.values[k]
            vals[:, : k + 1] = path.values[: k + 1]
            np.add(steps, x_t, out=vals[:, k + 1:])
            out = xi.evaluate_batch(vals, grid)
            if smoothing is not None:
                out = out - xi.evaluate_batch(smooth_walk + smooth_stopped[j], grid)
            if not np.all(np.isfinite(out)):
                bad = int(idx[np.flatnonzero(~np.isfinite(out))[0]])
                raise NumericError(f"terminal functional non-finite at sample "
                                   f"{bad} of path {j}")
            # the walk at the control nodes, node by node; none at t = T
            walk_at = (vals[:, nodes] - x_t).reshape(idx.size, -1)
            cols = [np.maximum(walk_at, 0.0), *spitzer, out[:, None]]
            if not cfg.antithetic:
                cols.insert(0, walk_at)
            # the controls, then the fitted units
            z = np.concatenate(cols, axis=1)
            if cfg.antithetic:
                z = z.reshape(idx.size // 2, 2, z.shape[1]).mean(axis=1)
            moments[j] = _pool(moments[j], _moments(z))
    bound = xi.bound if xi.bound is None or smoothing is None else 2 * xi.bound
    c = n_controls
    ests = []
    for _, mean, cross in moments:
        beta = np.linalg.lstsq(cross[:c, :c], cross[:c, c], rcond=None)[0]
        ybar, syy, sxy = mean[c], cross[c, c], cross[:c, c]
        rss = max(syy - sxy @ beta, _RSS_FLOOR * (syy + units * ybar**2))
        est = MCEstimate(mean=float(ybar - beta @ (mean[:c] - control_means)),
                         stderr=float(math.sqrt(rss / (units - p) / units)),
                         n_samples=n, seed=cfg.seed)
        if bound is not None and abs(est.mean) > bound + 1e-12:
            raise NumericError("mean escaped the declared bound of the functional")
        ests.append(est)
    return ests[0] if isinstance(x, GridPath) else tuple(ests)


# ---------------------------------------------------------------------------
# Finite-dimensional factor solution for cylinder terminal conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDimSolution:
    """Values of the factor problem at n coordinate rows at one time t, with
    their gradients and Hessians in z when they were asked for.

    ``value`` and ``value_stderr`` have shape (n,), ``gradient`` (n, m) and
    ``hessian`` (n, m, m), or None.  ``value_stderr`` is populated when the
    Gaussian rule is Monte Carlo; it is the standard error of the means of
    the rule's antithetic pairs.
    """

    value: np.ndarray
    value_stderr: np.ndarray
    gradient: Optional[np.ndarray] = None
    hessian: Optional[np.ndarray] = None


def _pair_integrals(spec: CylinderSpec, t: float, horizon: float) -> np.ndarray:
    """Matrix of integrals of psi_i psi_j over [t, T] to ~1e-12 absolute.

    One Gauss-Legendre rule with max(64, 8 n) nodes for n factors: the
    weights are smooth, and the trigonometric ones of an order-k Fejer spec
    (n = 2k + 1) make at most k oscillations on [0, T], so every
    oscillation gets at least 16 nodes.
    """
    n = spec.n_factors
    if t >= horizon:
        return np.zeros((n, n))
    s, w = legendre_rule(t, horizon, max(64, 8 * n))
    vals = weights_at(spec.psi, s)
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


def finite_dim_solution(spec: CylinderSpec, t: float, z: np.ndarray,
                        config: QuadratureConfig = QuadratureConfig(),
                        dimension: int = 1, derivatives: bool = True,
                        horizon: float = 1.0) -> FiniteDimSolution:
    """Heat-semigroup values of the factor problem at (t, z), 0 <= t <= T.

    ``z`` of shape (n, m) holds the coordinate rows of n points at the same
    time t.  Each row gets one Gaussian average: g over z + A(t) U with U
    standard normal, where A(t) A(t)^T is the covariance of the remaining
    weight integrals; Gauss-Hermite tensor rule up to 3 total dimensions,
    fixed-seed antithetic Monte Carlo above.  At t = T the Gaussian
    degenerates and the value is g(z) exactly.  ``derivatives`` adds the
    gradient and Hessian in z, averaged over the same nodes; the time
    derivative is not computed here (see :func:`cylinder_pathwise_derivs`).
    The spec's evaluators get the rule's k nodes of one row as rows (k, m)
    and must return (k,), (k, m) and (k, m, m); another shape raises
    :class:`ContractError`.

    The rule and A(t) are built once per call, and each row's average runs
    on that row's own nodes, so every row equals bit for bit the same row
    passed alone.  Its callers are pde-check, through
    :func:`cylinder_pathwise_derivs`, and the tests, which hold it against
    :func:`candidate_solution`.
    """
    z = np.asarray(z, float)
    if z.ndim != 2:
        raise DomainError(f"z must be coordinate rows (n, m), got shape {z.shape}")
    if not 0.0 <= t <= horizon + 1e-12:
        raise DomainError(f"time {t} outside [0, {horizon}]")
    n, m = z.shape
    if m != dimension * spec.n_factors:
        raise DomainError(f"z has size {m}, expected {dimension * spec.n_factors}")
    mc_rule = config.resolve_z(m, allow_exact=False, gh_max_dim=3) == "monte-carlo"
    if derivatives and (spec.gradient is None or spec.hessian is None):
        raise ContractError(
            f"cylinder spec {spec.name!r} lacks gradient/hessian evaluators")

    if t >= horizon:
        shift, weights = np.zeros((1, m)), np.ones(1)
    else:
        u, weights = gaussian_rule(config, m, allow_exact=False, gh_max_dim=3)
        shift = u @ _factor_matrix(spec, t, horizon, dimension).T
    k = len(shift)
    who = f"cylinder spec {spec.name!r}"
    values = np.empty(n)
    stderrs = np.zeros(n)
    grad = np.empty((n, m)) if derivatives else None
    hess = np.empty((n, m, m)) if derivatives else None
    # one row at a time: a stack of all rows' nodes would hold n * k rows
    for i, row in enumerate(z):
        pts = row + shift
        gv = _rows(f"{who} g", (k,), spec.g, pts)
        values[i] = weights @ gv
        if mc_rule and gv.size > 1:
            # the rule's second half mirrors its first (z, -z), so the pair
            # means are the independent samples
            pairs = gv.reshape(2, -1).mean(axis=0)
            stderrs[i] = np.std(pairs, ddof=1) / math.sqrt(pairs.size)
        if derivatives:
            grad[i] = weights @ _rows(f"{who} gradient", (k, m), spec.gradient, pts)
            hess[i] = np.tensordot(
                weights, _rows(f"{who} hessian", (k, m, m), spec.hessian, pts),
                axes=1)
    return FiniteDimSolution(value=values, value_stderr=stderrs,
                             gradient=grad, hessian=hess)


def _time_quotient(spec: CylinderSpec, t: float, z: np.ndarray,
                   config: QuadratureConfig, dimension: int,
                   horizon: float) -> np.ndarray:
    """d/dt of the factor values at fixed coordinate rows z, for 0 <= t < T.

    A difference quotient of value-only averages with h = 1e-5 T: central
    where [t - h, t + h] lies in [0, T], forward where t - h < 0 and
    second-order backward where t + h > T.
    """
    if t >= horizon:
        raise DomainError("horizontal derivative needs t < horizon")

    def value(tt: float) -> np.ndarray:
        return finite_dim_solution(spec, tt, z, config, dimension,
                                   derivatives=False, horizon=horizon).value

    h = 1e-5 * horizon
    if t + h > horizon:
        return (3.0 * value(t) - 4.0 * value(t - h) + value(t - 2 * h)) / (2 * h)
    if t - h < 0:
        return (value(t + h) - value(t)) / h
    return (value(t + h) - value(t - h)) / (2 * h)


def cylinder_pathwise_derivs(spec: CylinderSpec, t: float,
                             paths: Sequence[GridPath],
                             config: QuadratureConfig = QuadratureConfig()
                             ) -> PathwiseDerivs:
    """Pathwise derivatives of the cylinder solution at (t, x) for each path
    x of a sequence on one grid, t < T, in row form.

    The chain rule through the stacked weight matrix sigma gives

        horizontal = d/dt factor,   vertical = sigma^T grad,
        vertical2  = sigma^T hess sigma.

    The horizontal derivative is a difference quotient of factor values in
    time, computed independently of the spatial derivatives, so a residual
    built from these derivatives genuinely tests the heat equation.  The
    products with sigma are taken one row at a time: a product over stacked
    rows can round differently from the row alone.
    """
    z = cylinder_coordinates(spec, t, paths)
    d, horizon = paths[0].dimension, paths[0].horizon
    horizontal = _time_quotient(spec, t, z, config, d, horizon)
    sol = finite_dim_solution(spec, t, z, config, dimension=d, horizon=horizon)
    sigma = cylinder_sigma(spec, t, d)
    return PathwiseDerivs(
        horizontal=horizontal,
        vertical=np.stack([sigma.T @ g for g in sol.gradient]),
        vertical2=np.stack([sigma.T @ h @ sigma for h in sol.hessian]))


def pde_residual(spec: CylinderSpec, t: float, paths: Sequence[GridPath],
                 config: QuadratureConfig = QuadratureConfig()) -> np.ndarray:
    """Heat-operator residuals (n,) of the cylinder solution at (t, x) for
    the n paths x on one grid, t < T; ~0 when the factor solution solves
    its finite-dimensional equation."""
    return cylinder_pathwise_derivs(spec, t, paths, config).heat_operator()


# ---------------------------------------------------------------------------
# Terminal-functional registry
# ---------------------------------------------------------------------------

def _linear_spec() -> CylinderSpec:
    return CylinderSpec(
        g=lambda zs: zs[:, 0],
        gradient=np.ones_like,
        hessian=lambda zs: np.zeros((len(zs), 1, 1)),
        psi=[lambda s: 1.0], name="linear")


def _quadratic_spec() -> CylinderSpec:
    return CylinderSpec(
        g=lambda zs: zs[:, 0] ** 2,
        gradient=lambda zs: 2.0 * zs,
        hessian=lambda zs: np.full((len(zs), 1, 1), 2.0),
        psi=[lambda s: 1.0], name="quadratic")


def _exponential_spec() -> CylinderSpec:
    return CylinderSpec(
        g=lambda zs: np.exp(zs[:, 0]),
        gradient=np.exp,
        hessian=lambda zs: np.exp(zs)[:, :, None],
        psi=[lambda s: 1.0], name="exponential")


def _trig2_spec(horizon: float) -> CylinderSpec:
    w = math.pi / horizon

    def g(zs):
        return np.sin(zs[:, 0]) * np.cos(zs[:, 1])

    def gradient(zs):
        s, c = np.sin(zs), np.cos(zs)
        return np.stack([c[:, 0] * c[:, 1], -s[:, 0] * s[:, 1]], axis=1)

    def hessian(zs):
        s, c = np.sin(zs), np.cos(zs)
        diag, off = -s[:, 0] * c[:, 1], -c[:, 0] * s[:, 1]
        return np.stack([diag, off, off, diag], axis=1).reshape(-1, 2, 2)

    return CylinderSpec(
        g=g, gradient=gradient, hessian=hessian,
        psi=[lambda s: np.cos(w * np.asarray(s, float)),
             lambda s: np.sin(w * np.asarray(s, float))],
        name="trig2")


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
        return TerminalFunctional(name=name, batch=lambda v, g: v[:, -1, 0],
                                  lipschitz=1.0)
    if name == "terminal_square":
        return TerminalFunctional(name=name, batch=lambda v, g: v[:, -1, 0] ** 2)
    if name == "running_max":
        return TerminalFunctional(
            name=name, batch=lambda v, g: np.max(v[:, :, 0], axis=1), lipschitz=1.0)
    if name in _CYLINDER_BUILDERS:
        spec = _CYLINDER_BUILDERS[name](grid.horizon)
        w = weights_at(spec.psi, grid.nodes())
        return TerminalFunctional(
            name=name, cylinder=spec,
            batch=lambda v, g: spec.g(by_parts(w, v[..., :1]).reshape(len(v), -1)))
    raise InputError(f"unknown terminal functional {name!r}; "
                     f"known: {', '.join(terminal_names())}")

"""Smooth gauge machinery: mollified sup-distance to an anchored path point,
its time-smoothed saturation, the gauge built from them, and perturbation
sums with uniformly bounded pathwise derivatives.

Structure of the computation
----------------------------
For a fixed anchor (t0, x0) and evaluation data (t, x, y), the mollified
distance is a Gaussian average of

    N(z) = || x(. ^ t) - x0(. ^ t0) - (y - x(t) + z) 1_[t,T] ||_inf,

minus the average of |z|.  On a grid this norm splits exactly into a
z-independent prefix (the stopped-path distance up to t) and a suffix which
is the farthest distance from z to a finite candidate set, so N is cheap to
evaluate at many z nodes.  Derivatives in y reduce to Gaussian moments of N.

All Gaussian rules used here have symmetric nodes and positive weights that
sum to one, and the |z| average is subtracted *under the same rule*.  The
two-sided comparison with the plain stopped-path distance D,

    D - E|z|  <=  value  <=  D,

then holds exactly at the quadrature level (the proofs only use node
symmetry and the triangle inequality), not merely up to quadrature error.

The time smoothing averages the saturated ratio v/(1+v) of the mollified
distance at shifted times (t+s)^T against the kernel sqrt(s/2pi) e^{-s/2}.
The substitution s = u^2 removes the sqrt kink at s = 0.  For t < t0 the
integrand still has a kink wherever t+s crosses a grid node (the anchor is
linearly interpolated there and the running extremes change), so the s-rule
is composite: Gauss-Legendre panels in u whose edges sit at sqrt(t_k - t)
for the grid nodes t_k in (t, t0].  From t0 on the integrand is constant,
and the kernel mass beyond t0 - t is integrated in closed form.  For t >= t0
the whole integral is one evaluation with weight 1, and the horizontal
derivative is exactly 0.  A switch of the max inside a panel is still a
kink, where the rule converges only algebraically; the refinement estimate
of ``audit.estimate_gauge_quadrature_error`` measures what that costs.  In
d >= 2 the shifted times meet the z-rule in bounded blocks: values are
bit-identical to a per-time loop, derivatives move at the 1e-14 level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, ndtr

from .cylinders import PathwiseDerivs
from .errors import DomainError, NumericError
from .grids import GridPath, PathPoint, stopped_sup_distance
from .quadrature import (QuadratureConfig, composite_legendre_rule,
                         gaussian_rule, legendre_rule)

__all__ = [
    "QuadratureConfig",
    "GaugeDiagnostics",
    "normal_density",
    "mean_gaussian_norm",
    "mean_gaussian_norm_quadrature",
    "horizontal_kernel",
    "horizontal_kernel_derivative",
    "horizontal_kernel_mass",
    "SmoothedDistance",
    "vertical_smoothed_distance",
    "horizontal_smoothed_distance",
    "smooth_gauge",
    "GaugeResult",
    "perturbation_sum",
    "PerturbationResult",
    "floored_norm_profile",
    "floored_norm_profile_slope",
    "curvature_profile",
    "VERTICAL_GRAD_BOUND",
    "VERTICAL_HESS_BOUND",
    "HORIZONTAL_BOUND",
    "SATURATED_GRAD_BOUND",
    "SATURATED_HESS_BOUND",
    "perturbation_bounds",
]

# Uniform derivative bounds of the smoothing stages (dimension-free).
VERTICAL_GRAD_BOUND = 1.0
VERTICAL_HESS_BOUND = math.sqrt(2.0 / math.pi)
HORIZONTAL_BOUND = math.sqrt(2.0 / (math.pi * math.e))
SATURATED_GRAD_BOUND = 1.0
SATURATED_HESS_BOUND = math.sqrt(2.0 / math.pi) + 2.0


def perturbation_bounds(horizon: float) -> dict[str, float]:
    """Derivative bounds for perturbation sums over anchors on [0, T]."""
    return {
        "horizontal": 2.0 * (2.0 * horizon + HORIZONTAL_BOUND),
        "vertical": 2.0 * SATURATED_GRAD_BOUND,
        "vertical2": 2.0 * SATURATED_HESS_BOUND,
    }


# ---------------------------------------------------------------------------
# Kernels and closed-form constants
# ---------------------------------------------------------------------------

def normal_density(z) -> np.ndarray:
    """Standard Gaussian density on R^d; z has shape (..., d)."""
    z = np.atleast_2d(np.asarray(z, float))
    d = z.shape[-1]
    return np.exp(-0.5 * np.sum(z * z, axis=-1)) / (2.0 * np.pi) ** (d / 2.0)


def mean_gaussian_norm(dimension: int) -> float:
    """E|Z| for a d-dimensional standard Gaussian: sqrt(2) Gamma((d+1)/2) / Gamma(d/2)."""
    if dimension < 1:
        raise DomainError("dimension must be >= 1")
    return math.sqrt(2.0) * math.exp(
        gammaln((dimension + 1) / 2.0) - gammaln(dimension / 2.0))


def mean_gaussian_norm_quadrature(dimension: int, nodes: int = 128,
                                  r_max: float = 12.0) -> float:
    """E|Z| by radial Gauss-Legendre quadrature (smooth integrand, no kink)."""
    r, w = legendre_rule(0.0, r_max, nodes)
    log_c = (1.0 - dimension / 2.0) * math.log(2.0) - gammaln(dimension / 2.0)
    dens = np.exp(log_c + (dimension - 1) * np.log(np.maximum(r, 1e-300))
                  - 0.5 * r * r)
    return float(np.sum(w * r * dens))


def horizontal_kernel(s) -> np.ndarray:
    """The time mollifier sqrt(s / 2 pi) exp(-s/2); vanishes at s = 0."""
    s = np.asarray(s, float)
    if np.any(s < 0):
        raise DomainError("kernel argument must be >= 0")
    return np.sqrt(s / (2.0 * np.pi)) * np.exp(-0.5 * s)


def horizontal_kernel_derivative(s) -> np.ndarray:
    s = np.asarray(s, float)
    if np.any(s < 0):
        raise DomainError("kernel argument must be >= 0")
    out = np.empty_like(s, dtype=float)
    pos = s > 0
    sp = s[pos]
    out[pos] = (1.0 - sp) * np.exp(-0.5 * sp) / (2.0 * np.sqrt(2.0 * np.pi * sp))
    out[~pos] = np.inf
    return out


def horizontal_kernel_mass(s: float) -> float:
    """Closed-form mass of the kernel on [0, s]."""
    if s <= 0:
        return 0.0
    a = math.sqrt(s)
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))
    return 2.0 * cdf - 2.0 * a * phi - 1.0


# Tensor Gauss-Hermite is used for the gauge only up to dimension 2; the
# anchored integrands are kinked, so higher dimensions switch to the
# antithetic Monte-Carlo rule.
_GAUGE_GH_MAX_DIM = 2
_PROFILE_BLOCK = 1 << 15  # floats (rows x z nodes) per d >= 2 profile block


def _z_rule(config: QuadratureConfig, dimension: int):
    return gaussian_rule(config, dimension, allow_exact=True,
                         gh_max_dim=_GAUGE_GH_MAX_DIM)


# ---------------------------------------------------------------------------
# Exact one-dimensional Gaussian moments of the piecewise-linear norm profile
# ---------------------------------------------------------------------------

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _linear_piece_moments(alpha, beta, lo, hi):
    """Gaussian moments of (alpha + beta z) over [lo, hi]: static, z, z^2-1."""
    pl, pu = np.exp(-0.5 * lo * lo) / _SQRT2PI, np.exp(-0.5 * hi * hi) / _SQRT2PI
    cl, cu = ndtr(lo), ndtr(hi)
    m0 = cu - cl
    m1 = pl - pu
    m2 = (cu - hi * pu) - (cl - lo * pl)          # int z^2 phi
    m3 = (lo * lo + 2.0) * pl - (hi * hi + 2.0) * pu  # int z^3 phi
    i_val = alpha * m0 + beta * m1
    i_z = alpha * m1 + beta * m2
    i_h = alpha * (m2 - m0) + beta * (m3 - m1)
    return i_val, i_z, i_h


_Z_CUTOFF = 39.0  # Gaussian mass beyond this is zero in double precision


def _piecewise_moments(a, lo, hi):
    """Moments of max(a, hi - z, z - lo), elementwise over arrays.

    The floor a is the middle piece on [hi - a, lo + a]; when the interval
    is wider than 2a that piece is empty and the other two meet at its
    midpoint.
    """
    mid = 0.5 * (lo + hi)
    zl = np.minimum(hi - a, mid)
    zr = np.maximum(lo + a, mid)
    pieces = ((hi, -1.0, -np.inf, zl), (a, 0.0, zl, zr),
              (-lo, 1.0, zr, np.inf))
    val = grad = hess = 0.0
    for alpha, beta, l, u in pieces:
        l = np.maximum(l, -_Z_CUTOFF)
        u = np.minimum(u, _Z_CUTOFF)
        keep = l < u
        v, g, h = _linear_piece_moments(alpha, beta, l, u)
        val = val + np.where(keep, v, 0.0)
        grad = grad + np.where(keep, g, 0.0)
        hess = hess + np.where(keep, h, 0.0)
    return val, grad, hess


# E|z| computed through the same pieces, so that the value at the anchor
# cancels to exactly 0.0 in floating point.
_EXACT_ABS_NORM = float(_piecewise_moments(np.zeros(1), np.zeros(1),
                                            np.zeros(1))[0][0])


def _exact_profile_1d(a, lo, hi):
    """Value/gradient/hessian Gaussian moments of max(a, hi - z, z - lo).

    ``a >= 0`` is the floor; [lo, hi] the candidate interval (farthest-point
    distance from z to it is max(hi - z, z - lo)).  Closed form via the
    normal cdf, elementwise over arrays; the E|z| subtraction reuses the
    same closed forms.
    """
    val, grad, hess = _piecewise_moments(a, lo, hi)
    return val - _EXACT_ABS_NORM, grad, hess


# ---------------------------------------------------------------------------
# Anchored evaluation context
# ---------------------------------------------------------------------------

class _AnchorContext:
    """Geometry of the mollified distance for fixed (anchor, t, x, y),
    reusable across the shifted times (t+s) ^ T of the time smoothing."""

    def __init__(self, anchor: PathPoint, t: float, x: GridPath, y: np.ndarray):
        if x.grid != anchor.path.grid:
            raise DomainError("point and anchor must share a time grid")
        if x.dimension != anchor.path.dimension:
            raise DomainError("dimension mismatch between point and anchor")
        grid = x.grid
        self.grid = grid
        self.kt = grid.index_of(t)
        self.k0 = anchor.node_index
        xv = x.values
        av = anchor.path.values
        k = np.arange(grid.steps + 1)
        stopped_anchor = av[np.minimum(k, self.k0)]
        self.x_t = xv[self.kt].astype(float)
        y = np.atleast_1d(np.asarray(y, float))
        if y.shape != (x.dimension,):
            raise DomainError(f"present value must have shape ({x.dimension},)")
        self.center = 2.0 * self.x_t - y
        diff = xv[: self.kt + 1] - stopped_anchor[: self.kt + 1]
        self.base = float(np.max(np.linalg.norm(diff, axis=1)))
        if self.kt >= self.k0:
            self.q = stopped_anchor[self.k0][None, :]
            self.prefix_add = np.array([self.base])
        else:
            self.q = stopped_anchor[self.kt : self.k0 + 1].copy()
            gaps = np.linalg.norm(self.x_t[None, :] - self.q, axis=1)
            self.prefix_add = np.maximum.accumulate(gaps)
        self.single = self.kt >= self.k0
        self.t0 = grid.node(self.k0)

    def _locate(self, t_primes: np.ndarray):
        """Prefix floors, partial candidates, and first whole-node offsets
        at the shifted times t' >= t."""
        n = t_primes.size
        if self.single:  # suffix = single candidate
            return (np.full(n, self.base), np.repeat(self.q, n, axis=0),
                    np.ones(n, dtype=int))
        grid = self.grid
        n_last = self.q.shape[0] - 1
        # t'/dt can fall an ulp short of kt at t' = t; clamp, not wrap to -1
        j = np.maximum(np.minimum(t_primes, grid.horizon) / grid.dt - self.kt, 0.0)
        last = (t_primes >= self.t0) | (j >= n_last)
        jf = np.where(last, n_last - 1, np.floor(j)).astype(int)
        frac = np.where(last, 1.0, j - jf)[:, None]
        partial = (1.0 - frac) * self.q[jf] + frac * self.q[jf + 1]
        prefix = np.maximum(np.maximum(self.base, self.prefix_add[jf]),
                            np.linalg.norm(self.x_t - partial, axis=1))
        return prefix, partial, jf + 1


def _node_distances(p: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """|p_i - z_j| for rows p (n, d) and nodes zt (d, nz), with no (n, nz, d)
    temporary; squares are summed axis by axis, as ``np.linalg.norm`` does."""
    sq = np.zeros((len(p), zt.shape[1]))
    diff = np.empty_like(sq)
    for pk, zk in zip(p.T, zt):
        sq += np.square(np.subtract.outer(pk, zk, out=diff), out=diff)
    return np.sqrt(sq, out=sq)


def _profile_rule(ctx: _AnchorContext, t_primes: np.ndarray, config: QuadratureConfig):
    """Mollified-distance value/gradient/hessian at each shifted time.

    In d >= 2 the shifted times go through the z-rule in blocks of at most
    ``_PROFILE_BLOCK`` floats (or one row), with values bit-identical to one
    time at a time; per-block matrix products move derivatives by ~1e-14.
    """
    d = ctx.center.size
    n = len(t_primes)
    rule = _z_rule(config, d)
    prefix, partial, j0 = ctx._locate(t_primes)
    if rule is None:  # exact one-dimensional rule
        c = float(ctx.center[0])
        qs = ctx.q[:, 0]
        # right-running extremes of the candidate values; the sentinel at
        # j0 = len(qs) leaves the partial candidate alone
        run_min = np.append(np.minimum.accumulate(qs[::-1])[::-1], np.inf)
        run_max = np.append(np.maximum.accumulate(qs[::-1])[::-1], -np.inf)
        q_lo = np.minimum(partial[:, 0], run_min[j0])
        q_hi = np.maximum(partial[:, 0], run_max[j0])
        v, g, h = _exact_profile_1d(prefix, c - q_hi, c - q_lo)
        return v, g[:, None], h[:, None, None]

    z, w = rule
    abs_norm = float(np.sum(w * np.linalg.norm(z, axis=1)))
    # farthest-point running maxima over candidate suffixes, per z node; the
    # -inf sentinel row at j0 = nq leaves the partial candidate alone
    dist = _node_distances(ctx.center - ctx.q, z.T)            # (nq, nz)
    run = np.full((len(dist) + 1, len(z)), -np.inf)
    np.maximum.accumulate(dist[::-1], axis=0, out=run[-2::-1])
    wz = w[:, None] * z
    wzz = (wz[:, :, None] * z[:, None, :]).reshape(-1, d * d)
    values, grads, hesses = np.empty(n), np.empty((n, d)), np.empty((n, d, d))
    rows = max(1, _PROFILE_BLOCK // len(z))
    for lo in range(0, n, rows):
        b = slice(lo, lo + rows)
        s_part = _node_distances(ctx.center - partial[b], z.T)
        nvals = np.maximum(prefix[b, None], np.maximum(s_part, run[j0[b]]))
        mass = np.sum(w * nvals, axis=1)
        values[b] = mass - abs_norm
        grads[b] = nvals @ wz
        hesses[b] = ((nvals @ wzz).reshape(-1, d, d)
                     - mass[:, None, None] * np.eye(d))
    return values, grads, hesses


# ---------------------------------------------------------------------------
# Public smoothing stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothedDistance:
    """Vertically mollified anchored distance with its y-derivatives."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def vertical_smoothed_distance(anchor: PathPoint, t: float, x: GridPath,
                               y: np.ndarray,
                               config: QuadratureConfig = QuadratureConfig()
                               ) -> SmoothedDistance:
    """Gaussian mollification, in the jump direction, of the anchored
    stopped-path distance; nonnegative, 1-Lipschitz in y."""
    ctx = _AnchorContext(anchor, t, x, np.atleast_1d(np.asarray(y, float)))
    v, g, h = _profile_rule(ctx, np.asarray([x.grid.snap(t)]), config)
    if not np.isfinite(v[0]):
        raise NumericError("mollified distance integral diverged")
    return SmoothedDistance(value=float(v[0]), gradient=g[0], hessian=h[0])


def _s_rule(ctx: _AnchorContext, tau: float, config: QuadratureConfig):
    """Shifted times tau + s with kernel and kernel-derivative weights.

    The profile at t' = tau + s is smooth between grid nodes and constant
    from the anchor time t0 on.  The rule is composite Gauss-Legendre in
    u = sqrt(s), with a panel edge at sqrt(t_k - tau) for each grid node t_k
    in (tau, t0], up to s_end = min(t0 - tau, s_max).  The last point carries
    the closed-form kernel mass and derivative beyond s_end; for tau >= t0 it
    is the only point, with weights 1 and 0.
    """
    grid = ctx.grid
    s_end = min(ctx.t0 - tau, config.s_max)
    if s_end <= 0.0:
        return np.array([tau]), np.ones(1), np.zeros(1)
    s_k = np.arange(ctx.kt + 1, ctx.k0) * grid.horizon / grid.steps - tau
    s_k = s_k[(s_k > 0.0) & (s_k < s_end)]
    edges = np.sqrt(np.concatenate(([0.0], s_k, [s_end])))
    uu, gw = composite_legendre_rule(edges, config.s_nodes)
    ss = uu * uu
    base = np.exp(-0.5 * ss) / _SQRT2PI
    tail_t = ctx.t0 if s_end < config.s_max else tau + s_end
    pts = np.append(tau + ss, tail_t)
    wv = np.append(gw * 2.0 * ss * base, 1.0 - horizontal_kernel_mass(s_end))
    wh = np.append(gw * (1.0 - ss) * base, -float(horizontal_kernel(s_end)))
    return pts, wv, wh


def _time_smoothed(ctx: _AnchorContext, tau: float, config: QuadratureConfig
                   ) -> tuple[float, PathwiseDerivs]:
    """Time smoothing from tau >= t_k of the scene frozen at stopping node k.

    ``horizontal_smoothed_distance`` evaluates it at tau = t_k; a later tau
    moves the start of the smoothing off the grid with the path still
    stopped at t_k, which is what a sub-grid difference quotient in time
    needs.
    """
    pts, wv, wh = _s_rule(ctx, tau, config)
    vals, grads, hesses = _profile_rule(ctx, pts, config)
    ratio = vals / (1.0 + vals)
    value = float(np.sum(wv * ratio))
    # a single point means tau >= t0: the scene is frozen, exactly 0
    horizontal = -float(np.sum(wh * ratio)) if wh.size > 1 else 0.0
    inv2 = wv / (1.0 + vals) ** 2
    inv3 = wv / (1.0 + vals) ** 3
    vertical = inv2 @ grads
    vertical2 = (np.einsum("s,sij->ij", inv2, hesses)
                 - 2.0 * np.einsum("s,si,sj->ij", inv3, grads, grads))
    derivs = PathwiseDerivs(horizontal=horizontal, vertical=vertical,
                            vertical2=vertical2)
    return value, derivs


def horizontal_smoothed_distance(anchor: PathPoint, t: float, x: GridPath,
                                 y: Optional[np.ndarray] = None,
                                 config: QuadratureConfig = QuadratureConfig()
                                 ) -> tuple[float, PathwiseDerivs]:
    """Time-smoothed, saturated mollified distance with all derivatives.

    The saturation v/(1+v) keeps the value in [0, 1); averaging it at shifted
    times against the vanishing-at-zero kernel makes the map differentiable
    in the time direction with |horizontal| <= sqrt(2/(pi e)), while the
    vertical bounds 1 and sqrt(2/pi)+2 come through the chain rule.
    """
    t = x.grid.snap(t)
    if y is None:
        y = x.value_at(t)
    ctx = _AnchorContext(anchor, t, x, np.atleast_1d(np.asarray(y, float)))
    return _time_smoothed(ctx, t, config)


@dataclass(frozen=True)
class GaugeResult:
    value: float
    derivs: PathwiseDerivs
    time_term: float
    distance_term: float


def smooth_gauge(point: PathPoint, anchor: PathPoint,
                 config: QuadratureConfig = QuadratureConfig()) -> GaugeResult:
    """The gauge (t - t0)^2 + smoothed distance, with derivatives in the point.

    Vanishes exactly when the point coincides with the anchor (same stopped
    representative and time); smallness forces the pseudometric to be small
    through the calibrated lower bound of the smoothed distance.
    """
    chi, derivs = horizontal_smoothed_distance(anchor, point.t, point.path,
                                               point.present_value(), config)
    dt = point.t - anchor.t
    out = PathwiseDerivs(horizontal=derivs.horizontal + 2.0 * dt,
                         vertical=derivs.vertical, vertical2=derivs.vertical2)
    return GaugeResult(value=dt * dt + chi, derivs=out,
                       time_term=dt * dt, distance_term=chi)


@dataclass(frozen=True)
class PerturbationResult:
    value: float
    derivs: PathwiseDerivs
    tail_bound: float
    exact_tail: bool


def perturbation_sum(anchors: Sequence[PathPoint], point: PathPoint,
                     config: QuadratureConfig = QuadratureConfig(),
                     repeat_last: bool = False) -> PerturbationResult:
    """Geometric sum 2^{-n} gauge(point, anchor_n) over the anchor sequence.

    With ``repeat_last`` the final anchor stands for an eventually-constant
    tail and the geometric completion is exact; otherwise the truncated sum
    is returned together with the certified remainder bound
    2^{1-N} (T^2 + 1), using gauge <= T^2 + 1.
    """
    if not anchors:
        raise DomainError("perturbation_sum needs at least one anchor")
    horizon = point.path.horizon
    value = 0.0
    hor = 0.0
    vert = np.zeros(point.path.dimension)
    vert2 = np.zeros((point.path.dimension,) * 2)
    n = len(anchors)
    for i, a in enumerate(anchors):
        weight = 2.0 ** (-i)
        if repeat_last and i == n - 1:
            weight = 2.0 ** (-(n - 1)) * 2.0
        res = smooth_gauge(point, a, config)
        value += weight * res.value
        hor += weight * res.derivs.horizontal
        vert = vert + weight * res.derivs.vertical
        vert2 = vert2 + weight * res.derivs.vertical2
    if repeat_last:
        tail = 0.0
    else:
        tail = 2.0 ** (1 - n) * (horizon**2 + 1.0)
    return PerturbationResult(
        value=value,
        derivs=PathwiseDerivs(horizontal=hor, vertical=vert, vertical2=vert2),
        tail_bound=tail,
        exact_tail=repeat_last,
    )


# ---------------------------------------------------------------------------
# Radial profiles (diagnostics for the calibrated lower bound)
# ---------------------------------------------------------------------------

def _upper_radial_moment(dimension: int, k: int, a: float) -> float:
    """int_a^inf r^k chi_d(r) dr in terms of incomplete gamma functions."""
    s = (k + dimension) / 2.0
    coef = 2.0 ** (k / 2.0) * math.exp(gammaln(s) - gammaln(dimension / 2.0))
    return coef * float(gammaincc(s, 0.5 * a * a))


def floored_norm_profile(dimension: int, a: float) -> float:
    """E[max(a, |Z|)] - E|Z| for the d-dimensional standard Gaussian."""
    if a < 0:
        raise DomainError("profile argument must be >= 0")
    below = float(gammainc(dimension / 2.0, 0.5 * a * a))
    return (a * below + _upper_radial_moment(dimension, 1, a)
            - mean_gaussian_norm(dimension))


def floored_norm_profile_slope(dimension: int, a: float) -> float:
    """d/da of the profile: the chi-distribution cdf P(|Z| <= a)."""
    if a < 0:
        raise DomainError("profile argument must be >= 0")
    return float(gammainc(dimension / 2.0, 0.5 * a * a))


def curvature_profile(dimension: int, a: float) -> float:
    """E[max(a, |Z|) (|Z|^2 - d)]: positive, strictly decreasing to zero.

    Its value at 0 equals E|Z|; positivity on [0, 2 E|Z|] is what makes the
    mollified distance strictly convex at the anchor and hence the
    polynomial lower bound possible.
    """
    if a < 0:
        raise DomainError("profile argument must be >= 0")
    d = dimension
    i0 = _upper_radial_moment(d, 0, a)
    i1 = _upper_radial_moment(d, 1, a)
    i2 = _upper_radial_moment(d, 2, a)
    i3 = _upper_radial_moment(d, 3, a)
    return a * (d * i0 - i2) + i3 - d * i1


# ---------------------------------------------------------------------------
# Calibration of the polynomial lower-bound constant
# ---------------------------------------------------------------------------

@dataclass
class GaugeDiagnostics:
    """Empirically calibrated constants for one dimension."""

    dimension: int
    alpha: float
    item3_constant: float
    n_samples: int
    seed: int
    max_abs_derivs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError("alpha must lie in (0, 1]")


def lower_bound_ratio(anchor: PathPoint, point: PathPoint,
                      config: QuadratureConfig = QuadratureConfig()
                      ) -> tuple[float, float, float]:
    """(distance D, mollified value, value / min(D^{d+1}, D)); a ratio of inf
    (D = 0) does not constrain alpha."""
    d = point.path.dimension
    val = vertical_smoothed_distance(anchor, point.t, point.path,
                                     point.present_value(), config).value
    dist = stopped_sup_distance(point, anchor)
    if dist < 1e-9:
        return dist, val, np.inf
    return dist, val, val / min(dist ** (d + 1), dist)


def calibrate_alpha(dimension: int, samples, config: QuadratureConfig = QuadratureConfig(),
                    shrink: float = 0.9, seed: int = 0) -> GaugeDiagnostics:
    """Estimate the lower-bound constant as the shrunk infimum ratio.

    ``samples`` is an iterable of (anchor, point) pairs; only existence of a
    positive constant is guaranteed in general, so the value is empirical and
    should be validated on fresh samples before use.
    """
    ratio_min = np.inf
    item3 = -np.inf
    count = 0
    czeta = mean_gaussian_norm(dimension)
    for anchor, point in samples:
        dist, val, ratio = lower_bound_ratio(anchor, point, config)
        if np.isfinite(ratio):
            ratio_min = min(ratio_min, ratio)
        item3 = max(item3, (dist - val) / czeta)
        count += 1
    if not np.isfinite(ratio_min) or count == 0:
        raise DomainError("calibration needs samples at positive distance")
    alpha = min(shrink * ratio_min, 1.0)
    return GaugeDiagnostics(dimension=dimension, alpha=alpha,
                            item3_constant=item3, n_samples=count, seed=seed)

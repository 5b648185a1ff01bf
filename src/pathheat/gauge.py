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

In d = 1 the suffix is the farthest distance max(hi - z, z - lo) from z to
the candidate interval [lo, hi], floored by the prefix a, and the rule is
exact: the profile max(a, hi - z, z - lo) is linear on each of the three
intervals cut by its breakpoints zl <= zr, so its Gaussian moments are
closed forms in the normal cdf Phi and density phi at zl and zr alone.
Phi is the package's own numpy version of Cody's rational erf/erfc
approximations (Math. Comp. 23, 1969); it shares exp(-z^2/2) with phi, and
the package needs no special-function library.

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

Gauge columns
-------------
``smooth_gauge`` takes a sequence of points and returns one gauge column
against one anchor; it is the only way to evaluate a gauge.  The points
are grouped by snapped node.  The points of a group share the s-rule (it
depends on the node, the anchor's node and tau = t only), the candidates
with their suffix extremes and the partial candidates at the shifted times;
per point there are only the center, the present value, the prefix distance
and its running maxima.  In d = 1 the closed form then runs on (points,
shifted times) arrays, so the normal cdf runs a few times per column rather
than per point; in d >= 2 the points go one at a time through the z-rule.
Both go in blocks bounded by ``_PROFILE_BLOCK``.  In d >= 2 the z-rule
itself goes in chunks of ``_Z_CHUNK_FLOATS // max(nq + 1, d^2)`` nodes for
nq candidates, so that the distances and running maxima over (candidates,
z nodes) and the second moments over (z nodes, d^2) take at most 2 MiB
each, whatever the rule's size and the grid's (a d = 3 column holds
100,000 Monte-Carlo nodes).  The one-point smoothing
stages are the batch of one of the same kernel, and every value of a batch
is bit-identical to the point alone: the arithmetic is elementwise, and the
sums over shifted times run along each point's row.

Every perturbation sum_n 2^{-n} gauge(., anchor_n), the variational
principle's, ``perturbation_sum`` and the audit's, is ``completed_sum`` of
gauge columns: its anchors are eventually constant, so the last weight is
doubled and the geometric tail is exact.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cylinders import PathwiseDerivs
from .errors import DomainError, NumericError
from .grids import GridPath, PathPoint, stopped_sup_distance
from .quadrature import (QuadratureConfig, composite_legendre_rule,
                         gaussian_rule, legendre_rule)

__all__ = [
    "QuadratureConfig",
    "GaugeDiagnostics",
    "ALPHA_SHRINK",
    "calibrate_alpha",
    "mean_gaussian_norm",
    "mean_gaussian_norm_quadrature",
    "horizontal_kernel",
    "horizontal_kernel_mass",
    "SmoothedDistance",
    "vertical_smoothed_distance",
    "horizontal_smoothed_distance",
    "smooth_gauge",
    "GaugeResult",
    "completed_sum",
    "perturbation_sum",
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

def mean_gaussian_norm(dimension: int) -> float:
    """E|Z| for a d-dimensional standard Gaussian: sqrt(2) Gamma((d+1)/2) / Gamma(d/2)."""
    if dimension < 1:
        raise DomainError("dimension must be >= 1")
    return math.sqrt(2.0) * math.exp(
        math.lgamma((dimension + 1) / 2.0) - math.lgamma(dimension / 2.0))


def mean_gaussian_norm_quadrature(dimension: int) -> float:
    """E|Z| by 128-node radial Gauss-Legendre quadrature on [0, 12] (smooth
    integrand, no kink)."""
    r, w = legendre_rule(0.0, 12.0, 128)
    log_c = (1.0 - dimension / 2.0) * math.log(2.0) - math.lgamma(dimension / 2.0)
    dens = np.exp(log_c + (dimension - 1) * np.log(np.maximum(r, 1e-300))
                  - 0.5 * r * r)
    return float(np.sum(w * r * dens))


def horizontal_kernel(s) -> np.ndarray:
    """The time mollifier sqrt(s / 2 pi) exp(-s/2); vanishes at s = 0."""
    s = np.asarray(s, float)
    if np.any(s < 0):
        raise DomainError("kernel argument must be >= 0")
    return np.sqrt(s / (2.0 * np.pi)) * np.exp(-0.5 * s)


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
# Floats (shifted-time rows x z nodes of one chunk) per d >= 2 profile block.
_PROFILE_BLOCK = 1 << 15
# Floats per array of a z chunk of a d >= 2 profile, 2 MiB: a chunk has
# _Z_CHUNK_FLOATS // max(nq + 1, d^2) nodes for nq candidates, so that its
# running maxima (nq + 1 rows) and second moments (d^2 columns) fit, and
# memory stays bounded in the rule's size and the grid's.
_Z_CHUNK_FLOATS = 1 << 18
# A (point, shifted time) pair of a batch block counts as this many floats of
# _PROFILE_BLOCK: the d = 1 closed form stacks its two breakpoints, runs the
# normal cdf's numerators and denominators on four stacked rows of them and
# keeps tens of temporaries of the block's size alive, and a d >= 2 pair
# carries a (d, d) Hessian.
_PAIR_FLOATS = 16


def _z_rule(config: QuadratureConfig, dimension: int):
    return gaussian_rule(config, dimension, allow_exact=True,
                         gh_max_dim=_GAUGE_GH_MAX_DIM)


# ---------------------------------------------------------------------------
# Exact one-dimensional Gaussian moments of the piecewise-linear norm profile
# ---------------------------------------------------------------------------

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_INV_SQRTPI = 1.0 / math.sqrt(math.pi)

# Cody's rational Chebyshev approximations (Math. Comp. 23, 1969), as in his
# nested form: erf(y) = y P(y^2) / Q(y^2) on |y| <= 0.46875, and
# erfc(y) = exp(-y^2) P(y) / Q(y) on (0.46875, 4] and, with x = 1/y^2,
# exp(-y^2) (1/sqrt(pi) - x P(x) / Q(x)) / y beyond 4.  The last numerator
# coefficient leads; the denominators are monic.
_ERF_NUM = (3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03,
            1.85777706184603153e-1)
_ERF_DEN = (2.36012909523441209e01, 2.44024637934444173e02,
            1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_MID_NUM = (5.64188496988670089e-1, 8.88314979438837594e00,
                 6.61191906371416295e01, 2.98635138197400131e02,
                 8.81952221241769090e02, 1.71204761263407058e03,
                 2.05107837782607147e03, 1.23033935479799725e03,
                 2.15311535474403846e-8)
_ERFC_MID_DEN = (1.57449261107098347e01, 1.17693950891312499e02,
                 5.37181101862009858e02, 1.62138957456669019e03,
                 3.29079923573345963e03, 4.36261909014324716e03,
                 3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_FAR_NUM = (3.05326634961232344e-1, 3.60344899949804439e-1,
                 1.25781726111229246e-1, 1.60837851487422766e-2,
                 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_FAR_DEN = (2.56852019228982242e00, 1.87295284992346725e00,
                 5.27905102951428412e-1, 6.05183413124413191e-2,
                 2.33520497626869185e-3)


def _cody_table(*pairs) -> np.ndarray:
    """Coefficients of Cody's rational functions, shape (degree + 1, 2, k)
    for k (numerator, denominator) pairs: highest degree first, numerators
    before denominators, padded with leading zeros to one degree.  A leading
    zero leaves Horner's accumulator at exactly 0, so a padded row
    reproduces his nested form bit for bit."""
    rows = [[[num[-1], *num[:len(den)]] for num, den in pairs],
            [[1.0, *den] for _, den in pairs]]
    width = max(len(r) for part in rows for r in part)
    return np.array([[[0.0] * (width - len(r)) + r for r in part]
                     for part in rows]).transpose(2, 0, 1)


_ERF_ERFC_TABLE = _cody_table((_ERF_NUM, _ERF_DEN), (_ERFC_MID_NUM, _ERFC_MID_DEN))
_ERFC_FAR_TABLE = _cody_table((_ERFC_FAR_NUM, _ERFC_FAR_DEN))


def _cody_ratios(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The k rational functions of ``table`` at x, shape (k, ...): function
    i at row i of x.  One Horner pass runs all numerators and denominators,
    so the number of array operations grows with the degree only."""
    coef = table.reshape(table.shape + (1,) * (x.ndim - 1))
    acc = coef[0] * x
    for c in coef[1:-1]:
        acc += c
        acc *= x
    acc += coef[-1]
    num, den = acc
    return num / den


def _normal_cdf_pdf(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The standard normal cdf Phi and density phi, elementwise, sharing one
    exp(-z^2/2).

    With y = |z|/sqrt(2), Phi(z) is 1/2 + erf(z/sqrt(2))/2 for y <= 0.46875;
    beyond, the tail q = erfc(y)/2 = exp(-z^2/2) R(y)/2 is Phi(z) for z < 0
    and 1 - q otherwise.  Phi(0) is exactly 1/2, Phi(z) + Phi(-z) = 1 to an
    ulp, and the absolute error is a few ulps.  The y > 4 branch runs only
    on the elements that need it.
    """
    e = np.exp(-0.5 * z * z)
    x = np.empty((2,) + z.shape)
    y = np.multiply(np.abs(z), _SQRT1_2, out=x[1])
    np.multiply(y, y, out=x[0])
    r_erf, r_mid = _cody_ratios(x, _ERF_ERFC_TABLE)
    half_e = 0.5 * e
    q = half_e * r_mid
    far = y > 4.0
    if far.any():
        yf = y[far]
        inv = 1.0 / (yf * yf)
        r_far = _cody_ratios(inv[None], _ERFC_FAR_TABLE)[0]
        q[far] = half_e[far] * ((_INV_SQRTPI - inv * r_far) / yf)
    cdf = np.where(y <= 0.46875, 0.5 + 0.5 * (z * _SQRT1_2 * r_erf),
                   np.where(z < 0.0, q, 1.0 - q))
    return cdf, e / _SQRT2PI


_Z_CUTOFF = 39.0  # Gaussian mass beyond this is zero in double precision


def _piecewise_moments(a, lo, hi):
    """Moments of max(a, hi - z, z - lo), elementwise over arrays.

    The floor a is the middle piece on [zl, zr] = [hi - a, lo + a]; when
    the interval is wider than 2a that piece is empty and zl = zr is the
    midpoint, where the other two pieces meet.  Integrating z^k phi piece by
    piece leaves Phi and phi at the two breakpoints only, clipped to
    +-``_Z_CUTOFF``:

        val  = (hi - a) Phi(zl) + (a + lo) Phi(zr) - lo + phi(zl) + phi(zr)
        grad = (a - hi + zl) phi(zl) + (zr - a - lo) phi(zr)
               + 1 - Phi(zl) - Phi(zr)
        hess = (zl (zl - hi + a) + 1) phi(zl) + (zr (zr - lo - a) + 1) phi(zr)
    """
    # the two breakpoints, their offsets hi - a and a + lo, and everything
    # after go as (left, right) rows of one array
    mid = 0.5 * (lo + hi)
    shape = (2,) + np.broadcast(a, lo, hi).shape
    offset, z = np.empty(shape), np.empty(shape)
    np.subtract(hi, a, out=offset[0])
    np.add(a, lo, out=offset[1])
    np.minimum(offset[0], mid, out=z[0])
    np.maximum(offset[1], mid, out=z[1])
    np.minimum(np.maximum(z, -_Z_CUTOFF, out=z), _Z_CUTOFF, out=z)
    cdf, pdf = _normal_cdf_pdf(z)
    dz = z - offset
    v, g, h = offset * cdf, dz * pdf, (z * dz + 1.0) * pdf
    val = v[0] + v[1] - lo + pdf[0] + pdf[1]
    grad = g[0] + g[1] + 1.0 - cdf[0] - cdf[1]
    return val, grad, h[0] + h[1]


# E|z| computed through the same breakpoint form, so that the value at the
# anchor cancels to exactly 0.0 in floating point.
_EXACT_ABS_NORM = float(_piecewise_moments(np.zeros(1), np.zeros(1),
                                            np.zeros(1))[0][0])


def _exact_profile_1d(a, lo, hi):
    """Value/gradient/hessian Gaussian moments of max(a, hi - z, z - lo).

    ``a >= 0`` is the floor; [lo, hi] the candidate interval (farthest-point
    distance from z to it is max(hi - z, z - lo)).  Closed form in Phi and
    phi at the two breakpoints of the profile (:func:`_piecewise_moments`),
    elementwise over arrays, with the package's own numpy normal cdf; the
    E|z| subtraction goes through the same form, so it cancels exactly at
    the anchor.
    """
    val, grad, hess = _piecewise_moments(a, lo, hi)
    return val - _EXACT_ABS_NORM, grad, hess


# ---------------------------------------------------------------------------
# Anchored evaluation context
# ---------------------------------------------------------------------------

class _AnchorContext:
    """Geometry of the mollified distance for a fixed anchor and points
    (t, x_i) with present values y_i that share the stopping node of t,
    reusable across the shifted times (t+s) ^ T of the time smoothing.

    The candidates ``q`` and the partial candidates at the shifted times
    depend on the node and the anchor only.  Per point there is one row of
    each of ``x_t``, ``center`` = 2 x_i(t) - y_i, ``base`` (the stopped-path
    distance up to t) and ``prefix_add`` (its running maxima over the
    candidates).  ``y=None`` takes the present values x_i(t).
    """

    def __init__(self, anchor: PathPoint, points: Sequence[PathPoint],
                 y: Optional[np.ndarray] = None):
        grid = anchor.path.grid
        for p in points:
            if p.path.grid != grid:
                raise DomainError("point and anchor must share a time grid")
            if p.path.dimension != anchor.path.dimension:
                raise DomainError("dimension mismatch between point and anchor")
        self.grid = grid
        self.kt = points[0].node_index
        self.k0 = anchor.node_index
        k = np.arange(grid.steps + 1)
        stopped_anchor = anchor.path.values[np.minimum(k, self.k0)]
        paths = np.stack([p.path.values[: self.kt + 1] for p in points])
        self.x_t = paths[:, self.kt]
        if y is None:
            y = self.x_t
        elif y.shape != self.x_t.shape:
            raise DomainError(
                f"present value must have shape ({self.x_t.shape[1]},)")
        self.center = 2.0 * self.x_t - y
        diff = paths - stopped_anchor[: self.kt + 1]
        self.base = np.max(np.linalg.norm(diff, axis=-1), axis=-1)
        self.single = self.kt >= self.k0
        if self.single:
            self.q = stopped_anchor[self.k0][None, :]
            self.prefix_add = self.base[:, None]
        else:
            self.q = stopped_anchor[self.kt : self.k0 + 1]
            gaps = np.linalg.norm(self.x_t[:, None, :] - self.q, axis=-1)
            self.prefix_add = np.maximum.accumulate(gaps, axis=1)
        self.t0 = grid.node(self.k0)

    def rows(self, b: slice) -> "_AnchorContext":
        """The same context restricted to the points in ``b``."""
        sub = copy.copy(self)
        for name in ("x_t", "center", "base", "prefix_add"):
            setattr(sub, name, getattr(self, name)[b])
        return sub

    def _locate(self, t_primes: np.ndarray):
        """Prefix floors, one row per point, and the shared partial
        candidates and first whole-node offsets at the shifted times
        t' >= t."""
        n = t_primes.size
        if self.single:  # suffix = single candidate
            return (np.broadcast_to(self.base[:, None], (self.base.size, n)),
                    np.repeat(self.q, n, axis=0), np.ones(n, dtype=int))
        grid = self.grid
        n_last = self.q.shape[0] - 1
        # t'/dt can fall an ulp short of kt at t' = t; clamp, not wrap to -1
        j = np.maximum(np.minimum(t_primes, grid.horizon) / grid.dt - self.kt, 0.0)
        last = (t_primes >= self.t0) | (j >= n_last)
        jf = np.where(last, n_last - 1, np.floor(j)).astype(int)
        frac = np.where(last, 1.0, j - jf)[:, None]
        partial = (1.0 - frac) * self.q[jf] + frac * self.q[jf + 1]
        prefix = np.maximum(np.maximum(self.base[:, None], self.prefix_add[:, jf]),
                            np.linalg.norm(self.x_t[:, None, :] - partial, axis=-1))
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
    """Mollified-distance value/gradient/hessian of each point of the
    context at each shifted time: shapes (n, m), (n, m, d) and (n, m, d, d)
    for n points and m times.

    In d = 1 the closed form runs once on the (points, times) arrays.  In
    d >= 2 the z-rule goes in chunks of ``_Z_CHUNK_FLOATS // max(nq + 1,
    d^2)`` nodes for nq candidates.  Within a chunk the points go one at a
    time, and their shifted times in blocks of at most ``_PROFILE_BLOCK``
    floats (or one row), with values bit-identical to one time at a time;
    per-block matrix products move derivatives by ~1e-14.  The mass,
    gradient and Hessian sum over the chunks, and the mass and |z| offset
    are subtracted once at the end, so one chunk (d = 2 at up to 128 steps)
    gives what an unchunked rule gives; more chunks move values by ~5e-16
    and derivatives by ~2e-14, and the value at the anchor is still exactly
    0.
    """
    n, d = ctx.center.shape
    m = len(t_primes)
    rule = _z_rule(config, d)
    prefix, partial, j0 = ctx._locate(t_primes)
    if rule is None:  # exact one-dimensional rule
        qs = ctx.q[:, 0]
        # right-running extremes of the candidate values; the sentinel at
        # j0 = len(qs) leaves the partial candidate alone
        run_min = np.append(np.minimum.accumulate(qs[::-1])[::-1], np.inf)
        run_max = np.append(np.maximum.accumulate(qs[::-1])[::-1], -np.inf)
        q_lo = np.minimum(partial[:, 0], run_min[j0])
        q_hi = np.maximum(partial[:, 0], run_max[j0])
        c = ctx.center
        v, g, h = _exact_profile_1d(prefix, c - q_hi, c - q_lo)
        return v, g[..., None], h[..., None, None]

    z, w = rule
    # z chunks of at most _Z_CHUNK_FLOATS per array; the |z| offset is summed
    # chunk by chunk, as the masses are, so that it cancels exactly at the
    # anchor
    size = max(1, _Z_CHUNK_FLOATS // max(len(ctx.q) + 1, d * d))
    rows = max(1, _PROFILE_BLOCK // min(size, len(z)))
    abs_norm = 0.0
    mass = np.empty((n, m))
    grads, hesses = np.empty((n, m, d)), np.empty((n, m, d, d))
    for z_lo in range(0, len(z), size):
        zc, wc = z[z_lo:z_lo + size], w[z_lo:z_lo + size]
        abs_norm += float(np.sum(wc * np.linalg.norm(zc, axis=1)))
        wz = wc[:, None] * zc
        wzz = (wz[:, :, None] * zc[:, None, :]).reshape(-1, d * d)
        for i, center in enumerate(ctx.center):
            # farthest-point running maxima over candidate suffixes, per z
            # node; the -inf sentinel row at j0 = nq leaves the partial
            # candidate alone
            dist = _node_distances(center - ctx.q, zc.T)           # (nq, nz)
            run = np.full((len(dist) + 1, len(zc)), -np.inf)
            np.maximum.accumulate(dist[::-1], axis=0, out=run[-2::-1])
            for lo in range(0, m, rows):
                b = slice(lo, lo + rows)
                s_part = _node_distances(center - partial[b], zc.T)
                nvals = np.maximum(prefix[i, b, None], np.maximum(s_part, run[j0[b]]))
                parts = (np.sum(wc * nvals, axis=1), nvals @ wz,
                         (nvals @ wzz).reshape(-1, d, d))
                for total, part in zip((mass, grads, hesses), parts):
                    if z_lo:
                        total[i, b] += part
                    else:
                        total[i, b] = part
    hesses -= mass[..., None, None] * np.eye(d)
    return mass - abs_norm, grads, hesses


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
    point = PathPoint(t, x)
    ctx = _AnchorContext(anchor, (point,), np.atleast_1d(np.asarray(y, float))[None])
    v, g, h = _profile_rule(ctx, np.asarray([point.t]), config)
    if not np.isfinite(v[0, 0]):
        raise NumericError("mollified distance integral diverged")
    return SmoothedDistance(value=float(v[0, 0]), gradient=g[0, 0], hessian=h[0, 0])


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


def _time_smoothed(ctx: _AnchorContext, tau: float, config: QuadratureConfig):
    """Time smoothing from tau >= t_k of the scene frozen at stopping node k.

    Returns, one row per point of the context, the value (n,), the
    horizontal derivative (n,), the vertical gradient (n, d) and Hessian
    (n, d, d).  The points share the s-rule and go through the profile in
    blocks of at most ``_PROFILE_BLOCK / _PAIR_FLOATS`` (point, shifted
    time) pairs, or of one point, so memory stays bounded in the batch
    size.  The sums over shifted times run along each row, so a row's value
    is bit-identical to the same point alone.  ``_smoothed_rows`` evaluates
    it at tau = t_k; a later tau moves the start of the smoothing off the
    grid with the path still stopped at t_k, which is what a sub-grid
    difference quotient in time needs.
    """
    pts, wv, wh = _s_rule(ctx, tau, config)
    n = ctx.base.size
    step = max(1, _PROFILE_BLOCK // (_PAIR_FLOATS * pts.size))
    blocks = ([ctx] if n <= step else
              [ctx.rows(slice(lo, lo + step)) for lo in range(0, n, step)])
    sums = []
    for block in blocks:
        vals, grads, hesses = _profile_rule(block, pts, config)
        k, m, d = grads.shape
        ratio = vals / (1.0 + vals)
        # a single point means tau >= t0: the scene is frozen, exactly 0
        horizontal = -np.sum(wh * ratio, axis=1) if wh.size > 1 else np.zeros(k)
        inv2 = (wv / (1.0 + vals) ** 2)[:, None, :]
        inv3 = (wv / (1.0 + vals) ** 3)[:, :, None]
        vertical2 = ((inv2 @ hesses.reshape(k, m, d * d)).reshape(k, d, d)
                     - 2.0 * (np.swapaxes(inv3 * grads, 1, 2) @ grads))
        sums.append((np.sum(wv * ratio, axis=1), horizontal,
                     (inv2 @ grads)[:, 0], vertical2))
    if len(sums) == 1:
        return sums[0]
    return tuple(np.concatenate(parts) for parts in zip(*sums))


def _smoothed_rows(anchor: PathPoint, points: Sequence[PathPoint],
                   y: Optional[np.ndarray], config: QuadratureConfig):
    """:func:`_time_smoothed` of each point, from its own node: the points
    are grouped by node, and each group shares one context and s-rule."""
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault(p.node_index, []).append(i)
    results = []
    for members in groups.values():
        ctx = _AnchorContext(anchor, [points[i] for i in members],
                             None if y is None else y[members])
        results.append(_time_smoothed(ctx, ctx.grid.node(ctx.kt), config))
    if len(results) == 1:
        return results[0]
    # back from node groups to input order
    order = np.concatenate([np.array(m) for m in groups.values()])
    return tuple(np.concatenate(parts)[np.argsort(order)]
                 for parts in zip(*results))


def horizontal_smoothed_distance(anchor: PathPoint, t: float, x: GridPath,
                                 y: np.ndarray,
                                 config: QuadratureConfig = QuadratureConfig()
                                 ) -> tuple[float, PathwiseDerivs]:
    """Time-smoothed, saturated mollified distance with all derivatives.

    The saturation v/(1+v) keeps the value in [0, 1); averaging it at shifted
    times against the vanishing-at-zero kernel makes the map differentiable
    in the time direction with |horizontal| <= sqrt(2/(pi e)), while the
    vertical bounds 1 and sqrt(2/pi)+2 come through the chain rule.
    """
    value, horizontal, vertical, vertical2 = _smoothed_rows(
        anchor, (PathPoint(t, x),), np.atleast_1d(np.asarray(y, float))[None], config)
    return float(value[0]), PathwiseDerivs(horizontal=float(horizontal[0]),
                                           vertical=vertical[0],
                                           vertical2=vertical2[0])


@dataclass(frozen=True)
class GaugeResult:
    """A gauge column, or a perturbation built from columns, on n points:
    ``value`` (n,) and ``derivs`` in row form, (n,), (n, d) and (n, d, d)."""

    value: np.ndarray
    derivs: PathwiseDerivs


def smooth_gauge(points: Sequence[PathPoint], anchor: PathPoint,
                 config: QuadratureConfig = QuadratureConfig()) -> GaugeResult:
    """The gauge (t - t0)^2 + smoothed distance of each point against one
    anchor, with its derivatives in the point: one gauge column.

    Vanishes exactly when a point coincides with the anchor (same stopped
    representative and time); smallness forces the pseudometric to be small
    through the calibrated lower bound of the smoothed distance.  The
    points are grouped by node: the points of a group share the s-rule,
    the candidates and the partial candidates, and only their centers and
    prefix distances differ.  Each value equals bit for bit that of the
    point in a column of its own; derivatives agree to within 1e-13.  An
    empty sequence, or points on another grid or of another dimension,
    raise :class:`DomainError`.
    """
    points = tuple(points)
    if not points:
        raise DomainError("smooth_gauge needs at least one point")
    chi, hor, vert, vert2 = _smoothed_rows(anchor, points, None, config)
    dt = np.array([p.t for p in points]) - anchor.t
    return GaugeResult(value=dt * dt + chi,
                       derivs=PathwiseDerivs(horizontal=hor + 2.0 * dt,
                                             vertical=vert, vertical2=vert2))


def completed_sum(columns: Sequence[GaugeResult]) -> GaugeResult:
    """sum_i w_i column_i over gauge columns in anchor order, with the
    completion weights w_i = 2^{-i} and the last one doubled: the last
    anchor repeats forever, and its geometric tail sums to 2^{1-N}.  The
    columns are added one at a time from zero, so each row is the same
    ordered sum as for a point in columns of its own.
    """
    if not columns:
        raise DomainError("a perturbation needs at least one anchor")
    weights = [2.0 ** (-i) for i in range(len(columns))]
    weights[-1] *= 2.0

    def parts(g: GaugeResult):
        return g.value, g.derivs.horizontal, g.derivs.vertical, g.derivs.vertical2

    value, hor, vert, vert2 = sums = [np.zeros_like(a) for a in parts(columns[0])]
    for w, col in zip(weights, columns):
        for acc, part in zip(sums, parts(col)):
            acc += w * part
    return GaugeResult(value=value, derivs=PathwiseDerivs(
        horizontal=hor, vertical=vert, vertical2=vert2))


def perturbation_sum(anchors: Sequence[PathPoint], points: Sequence[PathPoint],
                     config: QuadratureConfig = QuadratureConfig()) -> GaugeResult:
    """The perturbation phi = sum_n 2^{-n} gauge(., anchor_n) on the points,
    for an anchor sequence whose last anchor repeats forever: the
    :func:`completed_sum` of one gauge column per anchor."""
    points = tuple(points)
    return completed_sum([smooth_gauge(points, a, config) for a in anchors])


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


def calibrate_alpha(dimension: int, samples,
                    config: QuadratureConfig = QuadratureConfig()) -> GaugeDiagnostics:
    """Estimate the lower-bound constant as ``ALPHA_SHRINK`` times the
    infimum ratio.

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
    alpha = min(ALPHA_SHRINK * ratio_min, 1.0)
    return GaugeDiagnostics(dimension=dimension, alpha=alpha,
                            item3_constant=item3, n_samples=count)

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
of ``audit.estimate_gauge_quadrature_error`` measures what that costs.  A
panel has 3 nodes where the z-rule is exact (d = 1), where the s-rule sets
the error; 1 where it is tensor Gauss-Hermite (d = 2), whose error is
orders of magnitude larger; and 2 where it is not (Monte Carlo, d >= 3)
(``QuadratureConfig.resolve_s``).  In d >= 2
the shifted times meet the z-rule in bounded blocks: values are
bit-identical to a per-time loop, derivatives move at the 1e-14 level.

Rows, groups and the flat pass
------------------------------
Every gauge evaluation is one call of one kernel on rows (anchor, point,
present value).  A row yields both smoothing stages: its mollified distance
at t' = t, evaluated as one more shifted time with weight 0 in the sums,
and its time-smoothed saturation with all derivatives.  ``smooth_gauge``
makes a column of rows against one anchor, ``perturbation_sum`` the rows
of all its anchors at once, the one-point stages a row of their own, and
the audits and ``audit.calibrate_alpha`` all their tuples in one or two calls.

The rows with one anchor and one stopping node form a group.  A group
shares its s-rule (it depends on the node, the anchor's node and tau = t
only), its candidates, and at each shifted time the partial candidate and
the suffix extremes of the candidates; per row there are only the center,
the prefix distance and its running maxima.  The groups of a call are built
together, with arithmetic over all of them at once.  The per-element work
then runs as one flat pass over every (row, shifted time) element of every
group, in blocks of whole rows of at most ``_PROFILE_BLOCK //
_PAIR_FLOATS`` elements.  In d = 1 a block runs the prefix floor and the
closed form once, so the normal cdf runs a few times per call rather than
per row; in d >= 2 each row of a block goes through the z-rule, which
itself goes in chunks of at most ``_Z_CHUNK_FLOATS // max(nq + 1, d^2)``
nodes for nq candidates.  The distances and running maxima over
(candidates, z nodes) and the second moments over (z nodes, d^2) then take
at most 2 MiB each, whatever the rule's size and the grid's (a d = 3 row
holds 100,000 Monte-Carlo nodes).  A squared distance to the z nodes is a
sum of per-axis tables (``_ZRule``): for the d = 2 tensor rule with 21
nodes per axis, two (m, 21) tables and one broadcast add give the (m, 441)
squares, where the Monte-Carlo rule has one (m, nz) table per axis.  The
weighted sums over a row's shifted times are segment sums over the flat
elements of the block, one array call per output for all rows at once.
Every value of a batch is bit-identical to the row alone: the arithmetic is
elementwise, and each segment sum runs along its own row only.

Every perturbation sum_n 2^{-n} gauge(., anchor_n), the variational
principle's, ``perturbation_sum`` and the audit's, is ``completed_sum`` of
gauge columns: its anchors are eventually constant, so the last weight is
doubled and the geometric tail is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .cylinders import PathwiseDerivs
from .errors import DomainError, NumericError
from .grids import GridPath, PathPoint, TimeGrid, _stopped_values
from .quadrature import (_GAUGE_GH_MAX_DIM, QuadratureConfig,
                         composite_legendre_rule, gaussian_rule, legendre_rule)

__all__ = [
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


# Floats (shifted-time rows x z nodes of one chunk) per d >= 2 profile block.
_PROFILE_BLOCK = 1 << 15
# Floats per array of a z chunk of a d >= 2 profile, 2 MiB: a chunk has
# _Z_CHUNK_FLOATS // max(nq + 1, d^2) nodes for nq candidates, so that its
# running maxima (nq + 1 rows) and second moments (d^2 columns) fit, and
# memory stays bounded in the rule's size and the grid's.
_Z_CHUNK_FLOATS = 1 << 18
# A (row, shifted time) element of a flat-pass block counts as this many
# floats of _PROFILE_BLOCK: the d = 1 closed form stacks its two breakpoints,
# runs the normal cdf's numerators and denominators on four stacked rows of
# them and keeps tens of temporaries of the block's size alive, and a d >= 2
# element carries a (d, d) Hessian.
_PAIR_FLOATS = 16


class _ZRule:
    """A d >= 2 z-rule of the gauge: nodes ``z`` (nz, d), weights ``w`` and
    one node table per axis.  Table k broadcasts over the rule's node shape,
    over which the nodes run row-major, and holds their k-th coordinates:
    (n, 1) and (1, n) for the d = 2 tensor rule with n nodes per axis, and
    ``z[:, k]`` itself, shape (nz,), for a rule without axis structure (the
    Monte-Carlo rule).  The broadcast sum of the tables (u_k - table_k)^2
    gives |u - z|^2 with the same floats as the sum over the flat nodes.
    """

    def __init__(self, z: np.ndarray, w: np.ndarray, axes=None):
        self.z, self.w = z, w
        self.axes = tuple(z.T) if axes is None else tuple(axes)
        self.rows = len(self.axes[0])
        self.whole = None  # the whole rule's chunk, once one chunk holds it

    def chunks(self, size: int):
        """The rule in chunks of whole rows of its first axis, at most
        ``size`` nodes each (or one row): per chunk the node tables, the
        weights and the moments E|z|, w z and w z z^T of its nodes."""
        inner = len(self.w) // self.rows
        step = max(1, size // inner)
        if step >= self.rows:
            if self.whole is None:
                self.whole = (self.axes, self.w, _rule_moments(self.z, self.w))
            yield self.whole
            return
        for lo in range(0, self.rows, step):
            nodes = slice(lo * inner, (lo + step) * inner)
            axes = tuple(a[lo:lo + step] if len(a) == self.rows else a
                         for a in self.axes)
            yield axes, self.w[nodes], _rule_moments(self.z[nodes], self.w[nodes])


def _rule_moments(z: np.ndarray, w: np.ndarray):
    """E|z|, w z and w z z^T (flattened to d^2 columns) of rule nodes."""
    d = z.shape[1]
    wz = w[:, None] * z
    return (float(np.sum(w * np.linalg.norm(z, axis=1))), wz,
            (wz[:, :, None] * z[:, None, :]).reshape(-1, d * d))


@lru_cache(maxsize=8)
def _z_rule(config: QuadratureConfig, dimension: int) -> Optional[_ZRule]:
    """The gauge's z-rule in ``dimension``, None for the exact 1-d rule.  A
    tensor Gauss-Hermite rule comes with its per-axis tables."""
    rule = gaussian_rule(config, dimension, allow_exact=True,
                         gh_max_dim=_GAUGE_GH_MAX_DIM)
    if rule is None:
        return None
    z, w = rule
    if config.resolve_z(dimension, True, _GAUGE_GH_MAX_DIM) != "gauss-hermite":
        return _ZRule(z, w)
    shape = (config.z_nodes,) * dimension
    # axis k's table: the k-th coordinates along axis k, at index 0 elsewhere
    return _ZRule(z, w, [z[:, k].reshape(shape)[tuple(
        slice(None) if i == k else slice(0, 1) for i in range(dimension))]
        for k in range(dimension)])


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
# Rows, anchor groups and the flat pass
# ---------------------------------------------------------------------------

def _s_rules(grid: TimeGrid, kt: np.ndarray, k0: np.ndarray, tau: np.ndarray,
             config: QuadratureConfig, dimension: int):
    """The s-rules of groups at nodes ``kt`` against anchors at ``k0`` from
    the smoothing starts ``tau`` (arrays over the groups), back to back:
    shifted times tau + s, kernel and kernel-derivative weights, and the
    size of each rule.  A panel has ``config.resolve_s(dimension)`` nodes.

    The profile at t' = tau + s is smooth between grid nodes and constant
    from the anchor time t0 on.  A rule is composite Gauss-Legendre in
    u = sqrt(s), with a panel edge at sqrt(t_k - tau) for each grid node t_k
    in (tau, t0], up to s_end = t0 - tau.  The last point, t0, carries the
    closed-form kernel mass and derivative beyond s_end; for tau >= t0 it
    is the only point, with weights 1 and 0.  A start tau later than the
    node kt moves the smoothing off the grid with the path still stopped at
    t_k, which is what a sub-grid difference quotient in time needs.  The
    panels of all groups go through one composite rule, so every node and
    weight is the one the group's rule alone has.
    """
    t0 = k0 * grid.horizon / grid.steps
    s_end = t0 - tau
    live = s_end > 0.0
    # the nodes t_k strictly between tau and tau + s_end
    n_in = np.where(live, np.maximum(k0 - kt - 1, 0), 0)
    owner = np.repeat(np.arange(kt.size), n_in)
    k = np.arange(n_in.sum()) - np.repeat(np.cumsum(n_in) - n_in - kt - 1, n_in)
    s_k = k * grid.horizon / grid.steps - tau[owner]
    keep = (s_k > 0.0) & (s_k < s_end[owner])
    s_k, owner = s_k[keep], owner[keep]
    inside = np.bincount(owner, minlength=kt.size)
    panels = np.where(live, inside + 1, 0)
    # edges 0, s_k..., s_end of each live rule, back to back; the panels
    # from one rule's last edge to the next rule's first are dropped
    n_edges = np.where(live, panels + 1, 0)
    first = np.cumsum(n_edges) - n_edges
    ends = (first + panels)[live]
    edges = np.zeros(n_edges.sum())
    edges[ends] = s_end[live]
    edges[np.arange(s_k.size)
          + np.repeat(first + 1 - (np.cumsum(inside) - inside), inside)] = s_k
    nodes = config.resolve_s(dimension)
    uu, gw = composite_legendre_rule(np.sqrt(edges), nodes)
    inner = np.ones(max(edges.size - 1, 0), dtype=bool)
    inner[ends[:-1]] = False
    inner = np.repeat(inner, nodes)
    uu, gw = uu[inner], gw[inner]
    ss = uu * uu
    base = np.exp(-0.5 * ss) / _SQRT2PI
    sizes = np.where(live, panels * nodes + 1, 1)
    tail = np.cumsum(sizes) - 1
    body = np.ones(tail[-1] + 1, dtype=bool)
    body[tail] = False
    pts, wv, wh = np.empty(body.size), np.empty(body.size), np.empty(body.size)
    pts[body] = np.repeat(tau, sizes - 1) + ss
    wv[body] = gw * 2.0 * ss * base
    wh[body] = gw * (1.0 - ss) * base
    pts[tail] = np.where(live, t0, tau)
    wv[tail], wh[tail] = 1.0, 0.0
    wv[tail[live]] = [1.0 - horizontal_kernel_mass(s) for s in s_end[live].tolist()]
    wh[tail[live]] = -horizontal_kernel(s_end[live])
    return pts, wv, wh, sizes


def _locate(grid: TimeGrid, t_primes: np.ndarray, group: np.ndarray,
            kt: np.ndarray, k0: np.ndarray, stopped: np.ndarray):
    """Where shifted times t' >= t_k fall among the candidates of their
    groups: ``group`` gives each time's group, and ``kt``, ``k0`` and the
    stopped anchor values ``stopped`` are per group.

    Returns, per time, the column ``jf`` of the candidates' running maxima
    that t' has passed, the first whole candidate ``j0`` after it (relative
    to t_k) and the partial candidate, linearly interpolated between the
    candidates at the nodes around t'.
    """
    kt, k0 = kt[group], k0[group]
    single = kt >= k0
    n_last = k0 - kt
    # t'/dt can fall an ulp short of kt at t' = t; clamp, not wrap to -1
    j = np.maximum(np.minimum(t_primes, grid.horizon) / grid.dt - kt, 0.0)
    last = (t_primes >= k0 * grid.horizon / grid.steps) | (j >= n_last)
    jf = np.where(last, n_last - 1, np.floor(j)).astype(int)
    frac = np.where(last, 1.0, j - jf)[:, None]
    # a single candidate, the frozen anchor, is already in the base
    jf = np.where(single, 0, jf)
    lo = np.minimum(kt + jf, k0)
    q = stopped[group, lo]
    partial = np.where(single[:, None], q, (1.0 - frac) * q
                       + frac * stopped[group, np.minimum(lo + 1, grid.steps)])
    return jf, jf + 1, partial


class _AnchorGroups:
    """The rows (anchor_i, x_i, y_i) of a batch on one grid, sorted into
    groups that share the anchor and the stopping node t_k, and all the
    data of the flat pass, built for all groups at once.  Row ``order[i]``
    of the batch is row i in group order.  ``y=None`` takes the present
    values x_i(t); ``starts`` (the smoothing starts, the rows' times when
    None) must agree within a group.

    Per group: ``kt``, the anchor's node ``k0``, the stopped anchor values
    and the number ``width`` of shifted times.  Per shifted time t', the
    groups' times back to back (t = t_k first, then the s-rule's nodes):
    the weights ``wv``, ``wh`` (0 at t), and the :func:`_locate` data
    ``jf``, ``j0`` and ``partial``; in d = 1 also the extremes ``q_lo``,
    ``q_hi`` of the candidate suffix.  Per row: ``x_t``, ``center`` =
    2 x_i(t) - y_i, the squared stopped-path distance ``base_sq`` up to t,
    and ``run_gap_sq``, the running maxima of the squared distances to the
    candidates, over the nodes from ``gap_start`` on.  The candidates are
    the anchor's values from t_k to t0, or its frozen value once t_k >= t0.
    """

    def __init__(self, anchors: Sequence[PathPoint], points: Sequence[PathPoint],
                 y: Optional[np.ndarray], starts: Optional[np.ndarray],
                 config: QuadratureConfig):
        if not points:
            raise DomainError("a gauge evaluation needs at least one point and one anchor")
        grid = anchors[0].path.grid
        d = anchors[0].path.dimension
        for p in (*anchors, *points):
            if p.path.grid is not grid and p.path.grid != grid:
                raise DomainError("point and anchor must share a time grid")
            if p.path.values.shape[1] != d:
                raise DomainError("dimension mismatch between point and anchor")
        times = np.array([p.t for p in points])
        kt = np.array([p.node_index for p in points])
        anchor_index: dict = {}
        key = kt + (grid.steps + 1) * np.array(
            [anchor_index.setdefault(id(a), len(anchor_index)) for a in anchors])
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        taus = times[first] if starts is None else np.asarray(starts, float)[first]
        self.order = np.argsort(inverse, kind="stable")
        self.row_group = inverse[self.order]
        self.kt = kt[first]
        self.k0 = np.array([anchors[i].node_index for i in first])
        self.stopped = _stopped_values(_stack_paths(anchors, first), self.k0)

        # per row
        kt = kt[self.order]
        paths = _stack_paths(points, self.order)
        self.x_t = paths[np.arange(kt.size), kt]
        if y is None:
            y = self.x_t
        elif y.shape != (len(points), d):
            raise DomainError(f"present value must have shape ({d},)")
        else:
            y = y[self.order]
        self.center = 2.0 * self.x_t - y
        # the base reads the nodes up to t_k, the running maxima the nodes
        # from t_k to t0: both over the nodes the batch needs, no more, and
        # both squared (the square root is monotone, so taking it after the
        # maxima gives the same floats)
        end = kt.max() + 1
        nodes = np.arange(end)
        self.base_sq = np.max(np.where(nodes <= kt[:, None], _squares(
            paths[:, :end] - self.stopped[self.row_group, :end]), -np.inf), axis=1)
        self.gap_start = kt.min()
        nodes = np.arange(self.gap_start, max(end, self.k0.max() + 1))
        gaps = _squares(self.x_t[:, None, :] - self.stopped[self.row_group[:, None], nodes])
        self.run_gap_sq = np.maximum.accumulate(
            np.where(nodes >= kt[:, None], gaps, -np.inf), axis=1)

        # per shifted time: t itself, with weight 0, then the s-rule
        pts, wv, wh, sizes = _s_rules(grid, self.kt, self.k0, taus, config, d)
        self.width = sizes + 1
        at_t = np.cumsum(self.width) - self.width
        rule = np.ones(self.width.sum(), dtype=bool)
        rule[at_t] = False
        t_primes = np.empty(rule.size)
        t_primes[at_t] = self.kt * grid.horizon / grid.steps
        t_primes[rule] = pts
        self.wv, self.wh = np.zeros(rule.size), np.zeros(rule.size)
        self.wv[rule], self.wh[rule] = wv, wh
        group = np.repeat(np.arange(first.size), self.width)
        self.jf, self.j0, self.partial = _locate(grid, t_primes, group, self.kt,
                                                 self.k0, self.stopped)
        if d == 1:
            kt, k0 = self.kt[group], self.k0[group]
            # right-running extremes of the candidate values; the sentinel
            # past t0 leaves the partial candidate alone
            values = self.stopped[:, ::-1, 0]
            sentinel = np.full((first.size, 1), np.inf)
            run_min = np.hstack((np.minimum.accumulate(values, axis=1)[:, ::-1], sentinel))
            run_max = np.hstack((np.maximum.accumulate(values, axis=1)[:, ::-1], -sentinel))
            j0 = np.where(kt + self.j0 > k0, grid.steps + 1, kt + self.j0)
            self.q_lo = np.minimum(self.partial[:, 0], run_min[group, j0])
            self.q_hi = np.maximum(self.partial[:, 0], run_max[group, j0])

    def candidates(self, g: int) -> np.ndarray:
        """The candidates of group g, shape (nq, d)."""
        return self.stopped[g, min(self.kt[g], self.k0[g]) : self.k0[g] + 1]


def _prefix_floor(base_sq, run_gap_sq, x_t, partial) -> np.ndarray:
    """The z-independent floor of the norm at each element, from squared
    norms: the stopped distance up to t, the running maximum over the
    candidates that t' has passed, and the distance to the partial
    candidate."""
    return np.sqrt(np.maximum(np.maximum(base_sq, run_gap_sq), _squares(x_t - partial)))


def _squares(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis of v, summed axis by axis
    as ``np.linalg.norm`` sums them, but with no reduction over a short last
    axis."""
    sq = np.square(v[..., 0])
    for k in range(1, v.shape[-1]):
        sq += np.square(v[..., k])
    return sq


def _stack_paths(points: Sequence[PathPoint], rows: np.ndarray) -> np.ndarray:
    """The path values of the points at ``rows``, shape (len(rows), M+1, d)."""
    first = points[rows[0]].path.values
    return np.concatenate([points[i].path.values for i in rows.tolist()]).reshape(
        (len(rows),) + first.shape)


def _node_squares(p: np.ndarray, axes, out: np.ndarray) -> np.ndarray:
    """|p_i - z_j|^2 for rows p (n, d) and the nodes of a rule chunk with
    node tables ``axes``, into ``out`` (n, nz): the per-axis tables
    (p_ik - table_k)^2, of shape (n, table shape), summed axis by axis as
    ``np.linalg.norm`` sums them, by broadcasting over the chunk's shape."""
    full = out.reshape((len(p),) + np.broadcast_shapes(*(a.shape for a in axes)))
    tables = [np.square(np.subtract.outer(pk, ak)) for pk, ak in zip(p.T, axes)]
    # a 1-d rule adds +0.0, which leaves every square as it is
    np.add(tables[0], tables[1] if len(tables) > 1 else 0.0, out=full)
    for table in tables[2:]:
        full += table
    return out


def _z_profile(center: np.ndarray, q: np.ndarray, floor: np.ndarray,
               partial: np.ndarray, j0: np.ndarray, rule: _ZRule):
    """Mollified-distance value/gradient/hessian of one row in d >= 2 at m
    shifted times, from their floors, partial candidates and first whole
    candidates: shapes (m,), (m, d) and (m, d, d).

    The z-rule goes in chunks of at most ``_Z_CHUNK_FLOATS // max(nq + 1,
    d^2)`` nodes for nq candidates (:meth:`_ZRule.chunks`), and within a
    chunk the times go in blocks of at most ``_PROFILE_BLOCK`` floats (or
    one time), with values bit-identical to one time at a time; per-block
    matrix products move derivatives by ~1e-14.  Distances go squared until
    the last maximum: the square root is monotone, so the maxima are the
    same floats.  The running maxima over the candidate suffixes are a loop
    over the candidates, last first, along contiguous rows.  The mass,
    gradient and Hessian sum over the chunks, and the mass and |z| offset
    are subtracted once at the end, so one chunk (d = 2 at up to 128 steps)
    gives what an unchunked rule gives; more chunks move values by ~5e-16
    and derivatives by ~2e-14, and the value at the anchor is still exactly
    0.  A rule that one chunk holds computes its moments once.
    """
    m, d = partial.shape
    nq = len(q)
    size = max(1, _Z_CHUNK_FLOATS // max(nq + 1, d * d))
    times = max(1, _PROFILE_BLOCK // min(size, len(rule.w)))
    # the |z| offset is summed chunk by chunk, as the masses are, so that it
    # cancels exactly at the anchor
    abs_norm = 0.0
    mass, grads, hesses = np.empty(m), np.empty((m, d)), np.empty((m, d, d))
    for first, (axes, wc, (abs_c, wz, wzz)) in enumerate(rule.chunks(size)):
        abs_norm += abs_c
        # farthest-point running maxima over candidate suffixes, per z node;
        # the -inf sentinel row at j0 = nq leaves the partial candidate alone
        run = np.empty((nq + 1, len(wc)))
        _node_squares(center - q, axes, run[:nq])
        run[nq] = -np.inf
        for j in range(nq - 2, -1, -1):
            np.maximum(run[j], run[j + 1], out=run[j])
        for lo in range(0, m, times):
            b = slice(lo, lo + times)
            p = center - partial[b]
            nvals = _node_squares(p, axes, np.empty((len(p), len(wc))))
            np.maximum(nvals, run[j0[b]], out=nvals)
            np.maximum(floor[b, None], np.sqrt(nvals, out=nvals), out=nvals)
            parts = (np.sum(wc * nvals, axis=1), nvals @ wz,
                     (nvals @ wzz).reshape(-1, d, d))
            for total, part in zip((mass, grads, hesses), parts):
                if first:
                    total[b] += part
                else:
                    total[b] = part
    hesses -= mass[:, None, None] * np.eye(d)
    return mass - abs_norm, grads, hesses


def _smoothed_groups(groups: _AnchorGroups, config: QuadratureConfig):
    """The flat pass: every (row, shifted time) element of every group.

    Returns, one row per row of the groups in group order, the mollified
    distance at t' = t with its y-gradient and Hessian, then the time-
    smoothed saturation with its horizontal derivative, vertical gradient
    and Hessian: shapes (n,), (n, d), (n, d, d), (n,), (n,), (n, d) and
    (n, d, d).  A row's elements lie back to back, t' = t first, and go in
    blocks of whole rows of at most ``_PROFILE_BLOCK // _PAIR_FLOATS``
    elements (or one row), whatever their groups.  The prefix floor and, in
    d = 1, the closed form run once per block; in d >= 2 each row goes
    through :func:`_z_profile`.  The weighted sums over a row's shifted
    times are segment sums (``np.add.reduceat``) from the row's first
    element, t' = t, whose weights are 0, so a row's value is bit-identical
    to the same row alone, and to the plain sum over its s-rule elements.
    """
    d = groups.center.shape[1]
    rule = _z_rule(config, d)
    row_group, width, n = groups.row_group, groups.width, groups.base_sq.size
    row_width = width[row_group]
    cum = np.concatenate(([0], np.cumsum(row_width)))
    # element index minus time index, per row
    shift = cum[:-1] - (np.cumsum(width) - width)[row_group]
    run_gap_sq = groups.run_gap_sq.ravel()
    gap_off = (np.arange(n) * groups.run_gap_sq.shape[1] + groups.kt[row_group]
               - groups.gap_start)
    out = (np.empty(n), np.empty((n, d)), np.empty((n, d, d)),
           np.empty(n), np.empty(n), np.empty((n, d)), np.empty((n, d, d)))
    cap = max(1, _PROFILE_BLOCK // _PAIR_FLOATS)
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(cum, cum[r0] + cap, "right")) - 1)
        ri = np.repeat(np.arange(r0, r1), row_width[r0:r1])
        ti = np.arange(cum[r0], cum[r1]) - shift[ri]
        floor = _prefix_floor(groups.base_sq[ri], run_gap_sq[gap_off[ri] + groups.jf[ti]],
                              groups.x_t[ri], groups.partial[ti])
        if rule is None:
            c = groups.center[ri, 0]
            v, g, h = _exact_profile_1d(floor, c - groups.q_hi[ti], c - groups.q_lo[ti])
            g, h = g[:, None], h[:, None, None]
        else:
            v, g, h = np.empty(ti.size), np.empty((ti.size, d)), np.empty((ti.size, d, d))
            partial, j0 = groups.partial[ti], groups.j0[ti]
            for r in range(r0, r1):
                e = slice(cum[r] - cum[r0], cum[r + 1] - cum[r0])
                v[e], g[e], h[e] = _z_profile(groups.center[r],
                                              groups.candidates(row_group[r]),
                                              floor[e], partial[e], j0[e], rule)
        starts = cum[r0:r1] - cum[r0]
        for total, part in zip(out, (v, g, h)):
            total[r0:r1] = part[starts]
        # the weighted sums over each row's shifted times, as segment sums
        # over its elements: t' = t has weight 0 and adds a zero first
        w = groups.wv[ti]
        ratio = v / (1.0 + v)
        inv2, inv3 = w / (1.0 + v) ** 2, w / (1.0 + v) ** 3
        out[3][r0:r1] = np.add.reduceat(w * ratio, starts)
        # a single shifted time means tau >= t0: the scene is frozen,
        # exactly 0
        out[4][r0:r1] = np.where(row_width[r0:r1] > 2, -np.add.reduceat(
            groups.wh[ti] * ratio, starts), 0.0)
        out[5][r0:r1] = np.add.reduceat(inv2[:, None] * g, starts)
        out[6][r0:r1] = (np.add.reduceat(inv2[:, None, None] * h, starts)
                         - 2.0 * np.add.reduceat(inv3[:, None, None] * g[:, :, None]
                                                 * g[:, None, :], starts))
        r0 = r1
    return out


def _smoothed_rows(anchors: Sequence[PathPoint], points: Sequence[PathPoint],
                   y: Optional[np.ndarray], config: QuadratureConfig):
    """The gauge kernel on rows (anchor_i, point_i, y_i), ``y=None`` for
    the present values: :func:`_smoothed_groups` of the rows' groups, in
    row order.  A row whose results are not finite (a NaN or infinity in
    what it reads, or an overflow) raises :class:`NumericError`, naming
    the first such row.
    """
    groups = _AnchorGroups(anchors, points, y, None, config)
    parts = []
    for x in _smoothed_groups(groups, config):
        # back from group order to row order
        rows = np.empty_like(x)
        rows[groups.order] = x
        parts.append(rows)
    bad = ~(np.isfinite(parts[0]) & np.isfinite(parts[3]))
    if bad.any():
        raise NumericError(f"the smoothed distance of row {int(np.argmax(bad))} "
                           "is not finite: its path, present value or anchor "
                           "holds a non-finite or overflowing value")
    return parts[:3], parts[3:]


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
    stopped-path distance; nonnegative, 1-Lipschitz in y.  ``t`` must be a
    node of x's grid."""
    (v, g, h), _ = _smoothed_rows((anchor,), (PathPoint(t, x),),
                                  np.atleast_1d(np.asarray(y, float))[None], config)
    return SmoothedDistance(value=float(v[0]), gradient=g[0], hessian=h[0])


def horizontal_smoothed_distance(anchor: PathPoint, t: float, x: GridPath,
                                 y: np.ndarray,
                                 config: QuadratureConfig = QuadratureConfig()
                                 ) -> tuple[float, PathwiseDerivs]:
    """Time-smoothed, saturated mollified distance with all derivatives.

    The saturation v/(1+v) keeps the value in [0, 1); averaging it at shifted
    times against the vanishing-at-zero kernel makes the map differentiable
    in the time direction with |horizontal| <= sqrt(2/(pi e)), while the
    vertical bounds 1 and sqrt(2/pi)+2 come through the chain rule.  ``t``
    must be a node of x's grid.
    """
    _, (value, horizontal, vertical, vertical2) = _smoothed_rows(
        (anchor,), (PathPoint(t, x),), np.atleast_1d(np.asarray(y, float))[None], config)
    return float(value[0]), PathwiseDerivs(horizontal=float(horizontal[0]),
                                           vertical=vertical[0],
                                           vertical2=vertical2[0])


@dataclass(frozen=True)
class GaugeResult:
    """A gauge column, or a perturbation built from columns, on n points:
    ``value`` (n,) and ``derivs`` in row form, (n,), (n, d) and (n, d, d)."""

    value: np.ndarray
    derivs: PathwiseDerivs


def _gauge_columns(anchors: Sequence[PathPoint], points: Sequence[PathPoint],
                   config: QuadratureConfig) -> list[GaugeResult]:
    """One gauge column per anchor over the points, from one kernel call
    whose rows are (anchor, point), anchor by anchor."""
    points = tuple(points)
    n = len(points)
    _, (chi, hor, vert, vert2) = _smoothed_rows(
        [a for a in anchors for _ in points], points * len(anchors), None, config)
    times = np.array([p.t for p in points])
    columns = []
    for i, anchor in enumerate(anchors):
        rows = slice(i * n, (i + 1) * n)
        dt = times - anchor.t
        columns.append(GaugeResult(
            value=dt * dt + chi[rows],
            derivs=PathwiseDerivs(horizontal=hor[rows] + 2.0 * dt,
                                  vertical=vert[rows], vertical2=vert2[rows])))
    return columns


def smooth_gauge(points: Sequence[PathPoint], anchor: PathPoint,
                 config: QuadratureConfig = QuadratureConfig()) -> GaugeResult:
    """The gauge (t - t0)^2 + smoothed distance of each point against one
    anchor, with its derivatives in the point: one gauge column.

    Vanishes exactly when a point coincides with the anchor (same stopped
    representative and time); smallness forces the pseudometric to be small
    through the calibrated lower bound of the smoothed distance.  The
    points are rows of one kernel call: the points of a node share the
    s-rule, the candidates and the partial candidates, and only their
    centers and prefix distances differ.  Each value equals bit for bit that
    of the point in a column of its own; derivatives agree to within 1e-13.
    An empty sequence, or points on another grid or of another dimension,
    raise :class:`DomainError`.
    """
    return _gauge_columns((anchor,), points, config)[0]


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
    :func:`completed_sum` of the gauge columns of the anchors, all rows of
    one kernel call."""
    return completed_sum(_gauge_columns(tuple(anchors), points, config))


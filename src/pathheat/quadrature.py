"""Gaussian quadrature rules shared by the gauge and solver modules.

All rules return (nodes, weights) for expectations against the standard
normal law: symmetric node sets with positive weights summing to one.
Symmetry and positivity are load-bearing: several two-sided bounds in this
package are proved at the level of any such rule, so they hold exactly for
the computed values rather than up to quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .streams import sample_stream

__all__ = [
    "QuadratureConfig",
    "gauss_hermite_rule",
    "monte_carlo_gaussian_rule",
    "gaussian_rule",
    "legendre_rule",
    "composite_legendre_rule",
]


# Tensor Gauss-Hermite is used for the gauge only up to dimension 2; the
# anchored integrands are kinked, so higher dimensions switch to the
# antithetic Monte-Carlo rule.
_GAUGE_GH_MAX_DIM = 2


@dataclass(frozen=True)
class QuadratureConfig:
    """Rules for Gaussian (z) integrals and the time-kernel (s) integral.

    ``z_rule``: "auto" picks the exact piecewise rule in dimension 1 (the
    gauge only), then tensor Gauss-Hermite up to a caller's limit and
    antithetic Monte Carlo beyond it.  The limit is dimension 2 for the
    gauge (``_GAUGE_GH_MAX_DIM``) and 3 for the factor solution of the
    solver.  A forced "exact" raises where no exact rule exists, and
    ``z_samples`` counts antithetic pairs twice, so it is even and >= 4.
    The s-integral is composite Gauss-Legendre in the substituted variable
    u = sqrt(s), which removes the kernel's square-root kink.  Its panels end
    at the grid nodes between t and the anchor time t0, where the integrand
    has kinks, and ``s_nodes`` counts the nodes of one panel.  The constant
    integrand beyond t0 - t is integrated in closed form; for
    t >= t0 that is the whole integral, one evaluation.  A kink inside a
    panel, where a max switches, still converges only algebraically, which
    is why the gauge's error is estimated by refinement (``refined`` doubles
    every node count).

    ``s_nodes=None`` sizes the s-rule to the gauge's z-rule, per dimension
    (:meth:`resolve_s`): 3 nodes per panel where the z-rule is exact (d = 1),
    where the s-rule sets the error; 1 where it is tensor Gauss-Hermite (the
    d = 2 default, or forced), whose error of about 1e-2 is orders of
    magnitude above the s-rule's; and 2 where it is not (Monte Carlo,
    d >= 3), whose error is small enough that one node per panel would set
    it.  A count set by the caller keeps its meaning in every dimension.
    """

    z_rule: str = "auto"
    z_nodes: int = 21
    z_samples: int = 100_000
    z_seed: int = 20210
    s_nodes: Optional[int] = None  # Gauss-Legendre nodes per s-rule panel

    def __post_init__(self):
        if self.z_nodes <= 0 or (self.s_nodes is not None and self.s_nodes <= 0):
            raise DomainError("node counts must be positive")
        _antithetic_half(self.z_samples)

    def resolve_z(self, dimension: int, allow_exact: bool = True,
                  gh_max_dim: int = 3) -> str:
        exact = dimension == 1 and allow_exact
        if self.z_rule == "exact" and not exact:
            raise DomainError(f"z_rule 'exact' has no evaluator here (dimension "
                              f"{dimension}); it serves only 1-d gauge integrals")
        if self.z_rule != "auto":
            return self.z_rule
        if exact:
            return "exact"
        if dimension <= gh_max_dim:
            return "gauss-hermite"
        return "monte-carlo"

    def resolve_s(self, dimension: int) -> int:
        """Gauss-Legendre nodes per s-rule panel of the gauge in
        ``dimension``: ``s_nodes`` if set, else 3 where the gauge's z-rule
        resolves to exact, 1 where it resolves to tensor Gauss-Hermite and
        2 where it is not (Monte Carlo)."""
        if self.s_nodes is not None:
            return self.s_nodes
        kind = self.resolve_z(dimension, gh_max_dim=_GAUGE_GH_MAX_DIM)
        return {"exact": 3, "gauss-hermite": 1}.get(kind, 2)

    def refined(self, dimension: int) -> "QuadratureConfig":
        """Every node count doubled (``z_nodes`` to 2n + 1), the s-rule's
        as :meth:`resolve_s` resolves it in ``dimension``."""
        return QuadratureConfig(z_rule=self.z_rule, z_nodes=2 * self.z_nodes + 1,
                                z_samples=2 * self.z_samples, z_seed=self.z_seed,
                                s_nodes=2 * self.resolve_s(dimension))


@lru_cache(maxsize=32)
def gauss_hermite_rule(dimension: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule for E f(Z), Z standard normal in R^d."""
    x, w = hermgauss(nodes)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    zg = np.meshgrid(*([z1] * dimension), indexing="ij")
    wg = np.meshgrid(*([w1] * dimension), indexing="ij")
    z = np.stack([g.ravel() for g in zg], axis=-1)
    wt = np.ones(z.shape[0])
    for g in wg:
        wt = wt * g.ravel()
    return z, wt


def _antithetic_half(samples: int) -> int:
    if samples < 4 or samples % 2:
        raise DomainError(f"z_samples={samples}: the Monte-Carlo z-rule needs "
                          "an even count of at least 4 (two antithetic pairs)")
    return samples // 2


@lru_cache(maxsize=32)
def monte_carlo_gaussian_rule(dimension: int, samples: int,
                              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-seed antithetic normal sample as a symmetric positive rule.

    The nodes are z followed by -z: row i and row i + samples // 2 form an
    antithetic pair.
    """
    half = _antithetic_half(samples)
    z = sample_stream(seed, 0).standard_normal((half, dimension))
    z = np.concatenate([z, -z], axis=0)
    w = np.full(z.shape[0], 1.0 / z.shape[0])
    return z, w


def gaussian_rule(config: QuadratureConfig, dimension: int,
                  allow_exact: bool = True, gh_max_dim: int = 3):
    """Resolve the configured rule; None signals the exact 1-d evaluation."""
    kind = config.resolve_z(dimension, allow_exact, gh_max_dim)
    if kind == "exact":
        return None
    if kind == "gauss-hermite":
        return gauss_hermite_rule(dimension, config.z_nodes)
    if kind == "monte-carlo":
        return monte_carlo_gaussian_rule(dimension, config.z_samples, config.z_seed)
    raise DomainError(f"unknown z rule {kind!r}")


@lru_cache(maxsize=32)
def _legendre_reference(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count."""
    u, w = leggauss(nodes)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def legendre_rule(a: float, b: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    u, w = _legendre_reference(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * u, half * w


def composite_legendre_rule(edges, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre with ``nodes`` points on each panel [edges[i], edges[i+1]].

    Nodes come out panel by panel in increasing order; an integrand that is
    smooth on each panel converges geometrically however it joins at the
    edges.
    """
    edges = np.asarray(edges, float)
    u, w = _legendre_reference(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * u).ravel(), (half * w).ravel()

import math
from dataclasses import replace

import numpy as np
import pytest

from pathheat.audit import (_lift_rows, derivative_bound_audit,
                            estimate_gauge_quadrature_error, sandwich_audit,
                            validate_alpha)
from pathheat.cylinders import PathwiseDerivs
from pathheat.errors import DomainError, NumericError
import pathheat.gauge as gauge
from pathheat.gauge import (HORIZONTAL_BOUND, _AnchorGroups,
                            _exact_profile_1d, _locate, _prefix_floor,
                            _s_rules, _smoothed_groups, _smoothed_rows,
                            _z_profile, _z_rule, calibrate_alpha,
                            horizontal_kernel, horizontal_kernel_mass,
                            horizontal_smoothed_distance, mean_gaussian_norm,
                            mean_gaussian_norm_quadrature,
                            perturbation_sum, smooth_gauge,
                            vertical_smoothed_distance)
from pathheat.grids import GridPath, PathPoint, TimeGrid, stopped_sup_distances
from pathheat.quadrature import QuadratureConfig, legendre_rule
from pathheat.sampling import random_lift_points, random_pairs

from conftest import (audit_maxima_loop, fd_pathwise_derivs, make_brownian,
                      nearest_index, sandwich_maxima_loop, traced_peak)


def horizontal_kernel_derivative(s):
    """d/ds of the time mollifier sqrt(s / 2 pi) exp(-s/2), for s > 0."""
    return (1.0 - s) * np.exp(-0.5 * s) / (2.0 * np.sqrt(2.0 * np.pi * s))


class TestKernelsAndConstants:
    @pytest.mark.parametrize("d,expected", [
        (1, 0.7978845608),
        (2, 1.2533141373),
        (3, 1.5957691216),
    ])
    def test_mean_norm_closed_form(self, d, expected):
        assert mean_gaussian_norm(d) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mean_norm_matches_quadrature(self, d):
        assert abs(mean_gaussian_norm(d)
                   - mean_gaussian_norm_quadrature(d)) < 1e-6

    def test_time_kernel_zero_at_origin(self):
        assert horizontal_kernel(0.0) == 0.0

    def test_time_kernel_unit_mass(self):
        # smooth after the square-root substitution: Legendre applies.  The
        # mass beyond s = 40 is 2 (a phi(a) + Q(a)) with a = sqrt(40), about
        # 1.07e-8, so the truncated mass plus that tail must give one.
        a = math.sqrt(40.0)
        u, w = legendre_rule(0.0, a, 200)
        total = float(np.sum(w * 2 * u * horizontal_kernel(u * u)))
        tail = 2.0 * (a * math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
                      + 0.5 * math.erfc(a / math.sqrt(2.0)))
        assert abs(horizontal_kernel_mass(40.0) - total) < 1e-13
        assert abs(total + tail - 1.0) < 1e-13

    def test_time_kernel_derivative_l1_norm(self):
        # the derivative changes sign once, at s = 1: its L1 norm is 2 eta(1),
        # and 2 eta(1) - eta(40) on [0, 40].  The rule is split at the kink.
        u1, w1 = legendre_rule(0.0, 1.0, 50)
        u2, w2 = legendre_rule(1.0, math.sqrt(40.0), 200)
        u, w = np.concatenate([u1, u2]), np.concatenate([w1, w2])
        total = float(np.sum(w * np.abs(2 * u * horizontal_kernel_derivative(u * u))))
        eta1 = float(horizontal_kernel(1.0))
        assert abs(total - (2 * eta1 - float(horizontal_kernel(40.0)))) < 1e-12
        assert math.sqrt(2.0 / (math.pi * math.e)) == pytest.approx(2 * eta1,
                                                                    abs=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            horizontal_kernel(-0.1)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_mean_norm_matches_gammaln_form(self, d):
        from scipy.special import gammaln
        want = math.sqrt(2.0) * math.exp(gammaln((d + 1) / 2.0) - gammaln(d / 2.0))
        assert mean_gaussian_norm(d) == pytest.approx(want, rel=2e-15, abs=0.0)


class TestNormalCdf:
    """The package's numpy normal cdf against scipy's ``ndtr``, which the
    package itself does not import."""

    Z = np.linspace(-39.0, 39.0, 1_560_001)

    def test_absolute_error(self):
        from scipy.special import ndtr
        cdf, _ = gauge._normal_cdf_pdf(self.Z)
        assert np.max(np.abs(cdf - ndtr(self.Z))) <= 4.5e-16

    def test_relative_error_in_the_tails(self):
        from scipy.special import ndtr
        cdf, _ = gauge._normal_cdf_pdf(self.Z)
        want = ndtr(self.Z)
        keep = want >= 1e-300
        assert np.max(np.abs(cdf[keep] / want[keep] - 1.0)) <= 1e-12

    def test_density(self):
        _, pdf = gauge._normal_cdf_pdf(self.Z)
        want = np.exp(-0.5 * self.Z ** 2) / math.sqrt(2.0 * math.pi)
        assert np.all(np.abs(pdf - want) <= 1e-13 * want + 1e-300)

    def test_half_at_zero(self):
        cdf, pdf = gauge._normal_cdf_pdf(np.array([0.0, -0.0]))
        assert cdf.tolist() == [0.5, 0.5]
        assert pdf[0] == 1.0 / math.sqrt(2.0 * math.pi)

    def test_symmetric_to_an_ulp(self):
        z = np.concatenate((self.Z, np.random.default_rng(7).normal(0, 3, 10_000)))
        upper, _ = gauge._normal_cdf_pdf(z)
        lower, _ = gauge._normal_cdf_pdf(-z)
        assert np.max(np.abs(upper + lower - 1.0)) <= np.spacing(1.0)

    def test_anchor_value_exactly_zero(self):
        val, grad, hess = _exact_profile_1d(np.zeros(1), np.zeros(1), np.zeros(1))
        assert (val[0], grad[0]) == (0.0, 0.0)
        assert hess[0] == pytest.approx(2.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


class TestVerticalSmoothedDistance:
    def test_zero_at_anchor(self, grid64):
        x0 = make_brownian(grid64, seed=1)
        a = PathPoint(0.5, x0)
        sd = vertical_smoothed_distance(a, a.t, x0, a.present_value())
        assert sd.value == pytest.approx(0.0, abs=1e-14)

    def test_monotone_toward_large_jumps(self, grid64):
        z = GridPath.zero(grid64)
        a = PathPoint(0.0, z)
        vals = [vertical_smoothed_distance(a, 0.0, z, np.array([y])).value
                for y in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        assert all(b > v for v, b in zip(vals, vals[1:]))
        # asymptotically |y| - E|z| (triangle bounds)
        assert vals[-1] == pytest.approx(5.0 - mean_gaussian_norm(1), abs=1e-3)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_two_sided_comparison_every_sample(self, grid64, dim):
        czeta = mean_gaussian_norm(dim)
        for anchor, point in random_pairs(grid64, dim, 60, seed=5):
            v = vertical_smoothed_distance(anchor, point.t, point.path,
                                           point.present_value()).value
            dist = stopped_sup_distances((point,), (anchor,))[0]
            assert v <= dist + 1e-10
            assert v >= dist - czeta - 1e-10    # sharper one-constant offset
            assert v >= dist - 2 * czeta - 1e-10
            assert v >= -1e-10

    def test_gradient_matches_fd_exact_rule(self, grid64):
        for anchor, t, x, y in random_lift_points(grid64, 1, 10, seed=9):
            # the horizontal quotient's time t + delta is off the grid; the
            # lift reads it at its nearest node
            lift = (lambda tt, xx, yy, _a=anchor: vertical_smoothed_distance(
                _a, grid64.node(nearest_index(grid64, tt)), xx, yy).value)
            sd = vertical_smoothed_distance(anchor, t, x, y)
            fd = fd_pathwise_derivs(lift, min(t, 1.0 - 0.05), x, y=y)
            assert sd.gradient[0] == pytest.approx(fd.vertical[0], abs=1e-5)
            assert sd.hessian[0, 0] == pytest.approx(fd.vertical2[0, 0], abs=1e-4)

    def test_value_depends_on_node_not_time_unit(self):
        # on a unit grid of 100 steps, t/dt falls an ulp short of the node
        # index at t = 0.29 (and a few other nodes); the value there must
        # not read the anchor's whole future from the last candidate
        rng = np.random.default_rng(0)
        vals = np.vstack([[0.0], np.cumsum(rng.standard_normal((100, 1)) * 0.1,
                                           axis=0)])
        out = []
        for horizon in (1.0, 3.0):
            g = TimeGrid(horizon, 100)
            anchor = PathPoint(g.node(90), GridPath(g, vals))
            zero = GridPath.zero(g)
            out.append([vertical_smoothed_distance(anchor, g.node(k), zero,
                                                   np.zeros(1)).value
                        for k in range(101)])
        assert out[0] == pytest.approx(out[1], abs=1e-14)

    def test_exact_profile_matches_quadrature(self):
        # the vectorized closed form against adaptive quadrature split at
        # the kinks, for wide (no floor piece) and narrow candidate sets
        from scipy.integrate import quad
        a = np.array([0.0, 0.3, 0.3, 2.0, 1.0, 5.0])
        lo = np.array([0.0, -1.5, 0.1, -0.2, 2.0, -60.0])
        hi = np.array([0.0, 1.5, 0.4, 0.3, 2.5, 50.0])
        val, grad, hess = _exact_profile_1d(a, lo, hi)
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        for i in range(a.size):
            f = lambda z, i=i: max(a[i], hi[i] - z, z - lo[i]) * phi(z)
            kinks = sorted({hi[i] - a[i], lo[i] + a[i], 0.5 * (lo[i] + hi[i])})
            cuts = [-40.0] + [k for k in kinks if -40.0 < k < 40.0] + [40.0]
            moments = [sum(quad(lambda z: f(z) * g(z), l, u, epsabs=1e-13)[0]
                           for l, u in zip(cuts, cuts[1:]))
                       for g in (lambda z: 1.0, lambda z: z, lambda z: z * z - 1.0)]
            assert val[i] == pytest.approx(moments[0] - mean_gaussian_norm(1),
                                           abs=1e-10)
            assert grad[i] == pytest.approx(moments[1], abs=1e-10)
            assert hess[i] == pytest.approx(moments[2], abs=1e-10)

    def test_breakpoint_form_matches_three_pieces(self):
        # the breakpoint form against the moments of the three linear pieces
        # alpha + beta z, integrated one by one with scipy's ndtr
        from scipy.special import ndtr
        rng = np.random.default_rng(11)
        a = np.concatenate((rng.uniform(0, 3, 4000), [0.0, 0.0, 5.0, 0.5, 45.0]))
        lo = np.concatenate((rng.normal(0, 2, 4000), [0.0, -60.0, -60.0, 41.0, 0.0]))
        hi = lo + np.concatenate((np.abs(rng.normal(0, 2, 4000)),
                                  [0.0, 110.0, 0.1, 1.0, 0.0]))
        mid = 0.5 * (lo + hi)
        cuts = [np.full(a.shape, -40.0), np.clip(np.minimum(hi - a, mid), -40, 40),
                np.clip(np.maximum(lo + a, mid), -40, 40), np.full(a.shape, 40.0)]
        pdf = lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        want = np.zeros((3, a.size))
        for (alpha, beta), l, u in zip([(hi, -1.0), (a, 0.0), (-lo, 1.0)],
                                       cuts, cuts[1:]):
            m0, m1 = ndtr(u) - ndtr(l), pdf(l) - pdf(u)
            m2 = (ndtr(u) - u * pdf(u)) - (ndtr(l) - l * pdf(l))
            m3 = (l * l + 2.0) * pdf(l) - (u * u + 2.0) * pdf(u)
            want += [alpha * m0 + beta * m1, alpha * m1 + beta * m2,
                     alpha * (m2 - m0) + beta * (m3 - m1)]
        want[0] -= mean_gaussian_norm(1)
        got = np.array(_exact_profile_1d(a, lo, hi))
        scale = 1.0 + np.maximum(np.maximum(a, np.abs(lo)), np.abs(hi))
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_gauss_hermite_agrees_with_exact_rule(self, grid64):
        gh = QuadratureConfig(z_rule="gauss-hermite", z_nodes=21)
        worst = 0.0
        for anchor, t, x, y in random_lift_points(grid64, 1, 20, seed=3):
            a = vertical_smoothed_distance(anchor, t, x, y).value
            b = vertical_smoothed_distance(anchor, t, x, y, gh).value
            worst = max(worst, abs(a - b))
        assert worst < 0.05   # kinked integrand: GH-21 is a coarse rule

    def test_monte_carlo_rule_agrees(self, grid64):
        mc = QuadratureConfig(z_rule="monte-carlo", z_samples=40_000)
        for anchor, t, x, y in random_lift_points(grid64, 1, 5, seed=4):
            a = vertical_smoothed_distance(anchor, t, x, y).value
            b = vertical_smoothed_distance(anchor, t, x, y, mc).value
            assert abs(a - b) < 0.02


class TestHorizontalSmoothedDistance:
    def test_zero_at_anchor_exactly(self, grid64):
        x0 = make_brownian(grid64, seed=2)
        a = PathPoint(26 / 64, x0)
        val, derivs = horizontal_smoothed_distance(a, a.t, x0, a.present_value())
        assert val == 0.0
        assert derivs.horizontal == 0.0

    def test_value_saturates_below_one(self, grid64):
        z = GridPath.zero(grid64)
        a = PathPoint(0.0, z)
        big = GridPath.constant(grid64, 50.0)
        val, _ = horizontal_smoothed_distance(a, 58 / 64, big, big.terminal())
        # past its anchor the point sees one frozen scene, so val = v/(1+v)
        # with v = E max(D, |D - Z|) - E|Z| = D - E|Z|/2 at D = 50
        v = 50.0 - 0.5 * mean_gaussian_norm(1)
        assert val == pytest.approx(v / (1.0 + v), abs=1e-12)
        assert val < 1.0

    def test_sandwich_saturated(self, grid64):
        for anchor, point in random_pairs(grid64, 1, 60, seed=6):
            val, _ = horizontal_smoothed_distance(anchor, point.t, point.path,
                                                  point.present_value())
            dist = stopped_sup_distances((point,), (anchor,))[0]
            assert val <= min(dist, 1.0) + 1e-10

    def test_time_derivative_matches_fd(self, grid64):
        # fd of the time-smoothed value in t vs the kernel-derivative form.
        # The public function takes t at a node, so the step h < dt is taken
        # in the start of the smoothing with the path still stopped at t.
        for anchor, t, x, y in list(random_lift_points(grid64, 1, 6, seed=11)):
            t = min(t, 58 / 64)
            v0, derivs = horizontal_smoothed_distance(anchor, t, x, y)
            h = 1e-5

            def smoothed_from(tau):
                groups = _AnchorGroups([anchor], [PathPoint(t, x)], y[None], [tau],
                                       QuadratureConfig())
                return _smoothed_groups(groups, QuadratureConfig())[3][0]

            assert smoothed_from(t) == v0
            fd = (smoothed_from(t + h) - v0) / h
            assert derivs.horizontal == pytest.approx(fd, abs=2e-4)

    def test_horizontal_vanishes_for_past_anchor(self, grid64):
        # once the anchor time is behind t, shifted times see a frozen scene
        x0 = make_brownian(grid64, seed=3)
        anchor = PathPoint(13 / 64, x0)
        x = make_brownian(grid64, seed=4)
        _, derivs = horizontal_smoothed_distance(anchor, 38 / 64, x,
                                                   PathPoint(38 / 64, x).present_value())
        assert derivs.horizontal == pytest.approx(0.0, abs=1e-12)


def _loop_profile(center, q, floor, partial, j0, config):
    """Reference d >= 2 profile kernel of one row: one shifted time at a
    time, from the row's floors, partial candidates and first whole
    candidates."""
    m, d = partial.shape
    values = np.empty(m)
    grads = np.empty((m, d))
    hesses = np.empty((m, d, d))
    rule = _z_rule(config, d)
    z, w = rule.z, rule.w
    abs_norm = float(np.sum(w * np.linalg.norm(z, axis=1)))
    wz = w[:, None] * z
    p = center[None, :] - q
    dist = np.linalg.norm(p[:, None, :] - z[None, :, :], axis=2)
    run = np.maximum.accumulate(dist[::-1], axis=0)[::-1]
    for i in range(m):
        s_part = np.linalg.norm((center - partial[i])[None, :] - z, axis=1)
        if j0[i] < q.shape[0]:
            s_part = np.maximum(s_part, run[j0[i]])
        nvals = np.maximum(floor[i], s_part)
        values[i] = float(np.sum(w * nvals)) - abs_norm
        grads[i] = nvals @ wz
        hesses[i] = ((nvals[:, None] * wz).T @ z - np.sum(w * nvals) * np.eye(d))
    return values, grads, hesses


class TestBlockedProfileKernel:
    """The block-batched d >= 2 kernel against the per-time loop."""

    @pytest.mark.parametrize("dim,config", [
        (2, QuadratureConfig(z_rule="gauss-hermite", z_nodes=21)),
        (2, QuadratureConfig().refined(2)),
        (3, QuadratureConfig(z_samples=2000)),
    ], ids=["d2-gh21", "d2-refined", "d3-mc"])
    def test_matches_per_time_loop(self, grid64, dim, config):
        kinds = set()
        for anchor, point in random_pairs(grid64, dim, 12, seed=17):
            groups = _AnchorGroups([anchor], [point], None, None, config)
            kinds.add("single" if groups.kt[0] >= groups.k0[0] else "suffix")
            # t' = t, the s-rule nodes, the anchor time and the horizon
            t_primes = np.concatenate(([point.t], _s_rules(
                grid64, groups.kt, groups.k0, np.array([point.t]), config, dim)[0],
                [anchor.t, grid64.horizon]))
            jf, j0, partial = _locate(grid64, t_primes, np.zeros(t_primes.size, dtype=int),
                                      groups.kt, groups.k0, groups.stopped)
            floor = _prefix_floor(groups.base_sq[0], groups.run_gap_sq[0, jf],
                                  groups.x_t[0], partial)
            args = (groups.center[0], groups.candidates(0), floor, partial, j0)
            v, g, h = _z_profile(*args, _z_rule(config, dim))
            v_ref, g_ref, h_ref = _loop_profile(*args, config)
            assert np.array_equal(v, v_ref)
            assert np.max(np.abs(g - g_ref)) <= 1e-13
            assert np.max(np.abs(h - h_ref)) <= 1e-13
        assert kinds == {"single", "suffix"}

    @pytest.mark.parametrize("dim,config", [
        (2, QuadratureConfig()),
        (3, QuadratureConfig(z_samples=2000)),
    ], ids=["d2", "d3-mc"])
    def test_block_size_invariance(self, grid64, monkeypatch, dim, config):
        nz = len(_z_rule(config, dim).w)
        pairs = list(random_pairs(grid64, dim, 6, seed=23))
        results = []
        # one row per block, seven rows per block, everything in one block
        for block in (nz, 7 * nz, 10 ** 9):
            monkeypatch.setattr(gauge, "_PROFILE_BLOCK", block)
            results.append([horizontal_smoothed_distance(a, p.t, p.path,
                                                         p.present_value(), config)
                            for a, p in pairs])
        for other in results[1:]:
            for (v0, d0), (v1, d1) in zip(results[0], other):
                assert v1 == v0
                assert d1.horizontal == d0.horizontal
                assert np.max(np.abs(d1.vertical - d0.vertical)) <= 1e-13
                assert np.max(np.abs(d1.vertical2 - d0.vertical2)) <= 1e-13


    @pytest.mark.parametrize("z_nodes", [21, 4])
    def test_tensor_tables_equal_flat_nodes(self, grid64, monkeypatch, z_nodes):
        # the d = 2 rule handed over without its axis structure: the kernel
        # then sums the squares over the flat nodes, as for Monte Carlo
        config = QuadratureConfig(z_nodes=z_nodes)
        tensor = _z_rule(config, 2)
        assert [a.shape for a in tensor.axes] == [(z_nodes, 1), (1, z_nodes)]
        rows = _mixed_rows(grid64, 2)
        want = _smoothed_rows(*rows, config)
        monkeypatch.setattr(gauge, "_z_rule",
                            lambda config, d: gauge._ZRule(tensor.z, tensor.w))
        got = _smoothed_rows(*rows, config)
        for stage_got, stage_want in zip(got, want):
            assert np.array_equal(stage_got[0], stage_want[0])
            for g, w in zip(stage_got[1:], stage_want[1:]):
                assert np.max(np.abs(g - w)) <= 1e-13

    def test_tensor_tables_in_chunks(self, grid64, monkeypatch):
        # a budget that splits the 21 x 21 rule into chunks of whole rows
        config = QuadratureConfig()
        rows = _mixed_rows(grid64, 2)
        (v0, g0, h0), _ = _smoothed_rows(*rows, config)
        monkeypatch.setattr(gauge, "_Z_CHUNK_FLOATS", 2000)
        (v1, g1, h1), _ = _smoothed_rows(*rows, config)
        assert np.max(np.abs(v1 - v0)) <= 1e-15
        assert np.max(np.abs(g1 - g0)) <= 1e-13
        assert np.max(np.abs(h1 - h0)) <= 1e-13
        assert v1[-1] == 0.0


def _rule_width(dim, config, grid):
    """Shifted times of a point at 0.25 against an anchor at 0.5 on
    ``grid``: t itself, the s-nodes of 16 panels and the closed-form tail."""
    x = GridPath.zero(grid, dim)
    return int(_AnchorGroups([PathPoint(0.5, x)], [PathPoint(0.25, x)], None,
                             None, config).width[0])


class TestSNodeDefault:
    """s_nodes=None sizes the s-rule to the gauge's z-rule: 3 nodes per panel
    where the z-rule is exact, 1 where it is tensor Gauss-Hermite and 2
    where it is not (Monte Carlo)."""

    @pytest.mark.parametrize("dim,config,nodes", [
        (1, QuadratureConfig(), 3),
        (2, QuadratureConfig(), 1),
        (3, QuadratureConfig(), 2),
        (1, QuadratureConfig(z_rule="gauss-hermite"), 1),
        (2, QuadratureConfig(s_nodes=3), 3),
        (1, QuadratureConfig(s_nodes=1), 1),
        (1, QuadratureConfig().refined(1), 6),
        (2, QuadratureConfig().refined(2), 2),
        (2, QuadratureConfig(s_nodes=3).refined(2), 6),
    ], ids=["d1", "d2", "d3", "d1-gh", "d2-explicit", "d1-explicit",
            "d1-refined", "d2-refined", "d2-explicit-refined"])
    def test_nodes_per_panel(self, grid64, dim, config, nodes):
        assert _rule_width(dim, config, grid64) == 2 + 16 * nodes

    def test_nonpositive_count_rejected(self):
        for nodes in (0, -2):
            with pytest.raises(DomainError, match="positive"):
                QuadratureConfig(s_nodes=nodes)

    def test_s_error_far_below_z_error_in_d2(self, grid64):
        # on the estimator's default probes, doubling a 2-node s-rule moves
        # every family by at most 1% of what the refined z-rule (21 -> 43
        # nodes per axis) moves it
        rows = _lift_rows(list(random_lift_points(grid64, 2, 16, 5)))
        _, base = _smoothed_rows(*rows, QuadratureConfig(s_nodes=2))
        _, s_only = _smoothed_rows(*rows, QuadratureConfig(s_nodes=4))
        _, z_only = _smoothed_rows(*rows, QuadratureConfig(z_nodes=43, s_nodes=2))
        for b, s, z in zip(base, s_only, z_only):
            assert np.max(np.abs(s - b)) <= 0.01 * np.max(np.abs(z - b))

    @pytest.mark.parametrize("dim,steps,seed", [
        (2, 128, 5), (2, 128, 6), (2, 128, 7), (1, 64, 5)],
        ids=["d2-seed5", "d2-seed6", "d2-seed7", "d1-gh"])
    def test_one_node_s_error_below_z_error(self, dim, steps, seed):
        # the balance behind the one-node default of a Gauss-Hermite z-rule:
        # doubling the s-rule moves every family by at most 1/4 of what the
        # refined z-rule moves it.  Measured at d = 2 on the gauge-check
        # grid: 0.009 for the value, 0.133 for the horizontal and 0.005 for
        # the vertical families; forced in d = 1, an s-error of at most
        # 1.1e-4 against a z-error of at least 4.4e-4
        gh = QuadratureConfig(z_rule="gauss-hermite")
        grid = TimeGrid(1.0, steps)
        rows = _lift_rows(list(random_lift_points(grid, dim, 16, seed)))
        _, base = _smoothed_rows(*rows, gh)
        _, s_only = _smoothed_rows(*rows, replace(gh, s_nodes=2))
        _, z_only = _smoothed_rows(*rows, replace(gh, z_nodes=43, s_nodes=1))
        for b, s, z in zip(base, s_only, z_only):
            assert np.max(np.abs(s - b)) <= 0.25 * np.max(np.abs(z - b))


class TestSmoothGauge:
    def test_diagonal_zero(self, grid64):
        p = PathPoint(19 / 64, make_brownian(grid64, seed=5))
        assert smooth_gauge([p], p).value[0] == 0.0

    def test_time_separation_quadratic(self, grid64):
        x = make_brownian(grid64, seed=6)
        r = smooth_gauge([PathPoint(0.75, x)], PathPoint(0.25, x))
        chi, _ = horizontal_smoothed_distance(PathPoint(0.25, x), 0.75, x,
                                              PathPoint(0.75, x).present_value())
        assert r.value[0] - chi == pytest.approx(0.25, abs=1e-12)
        # stopped representatives differ, so the distance term is positive
        assert chi > 0.0

    def test_horizontal_derivative_bound(self, grid64):
        bound = 2 * 1.0 + HORIZONTAL_BOUND
        for anchor, point in random_pairs(grid64, 1, 40, seed=12):
            r = smooth_gauge([point], anchor)
            assert abs(r.derivs.horizontal[0]) <= bound + 1e-8


def _assert_rows_match(batch, singles):
    """Each row of a batch gauge equals the point in a column of its own:
    bit for bit in value, within 1e-13 in the derivatives."""
    for i, one in enumerate(singles):
        assert batch.value[i] == one.value[0]
        assert abs(batch.derivs.horizontal[i] - one.derivs.horizontal[0]) <= 1e-13
        assert np.max(np.abs(batch.derivs.vertical[i] - one.derivs.vertical[0])) <= 1e-13
        assert np.max(np.abs(batch.derivs.vertical2[i] - one.derivs.vertical2[0])) <= 1e-13


BATCH_RULES = [
    (1, QuadratureConfig()),
    (2, QuadratureConfig(z_rule="gauss-hermite", z_nodes=21)),
    (3, QuadratureConfig(z_samples=400)),
]


class TestGaugeBatch:
    """smooth_gauge on a sequence of points: one column against one anchor."""

    @pytest.mark.parametrize("anchor_t", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("dim,config", BATCH_RULES, ids=["d1", "d2-gh21", "d3-mc"])
    def test_rows_equal_single_points(self, grid64, dim, config, anchor_t):
        anchor = PathPoint(anchor_t, make_brownian(grid64, seed=30, dimension=dim))
        # mixed nodes before, at and after the anchor's, the anchor itself
        # and its path at a later time
        times = [0.5, 0.0, 0.25, 0.5, 0.75, 1.0, anchor_t, 0.25, anchor_t]
        pts = [PathPoint(t, make_brownian(grid64, seed=31 + i, dimension=dim))
               for i, t in enumerate(times)]
        pts += [anchor, PathPoint(1.0, anchor.path)]
        batch = smooth_gauge(pts, anchor, config)
        n = len(pts)
        assert batch.value.shape == (n,)
        assert batch.derivs.vertical.shape == (n, dim)
        assert batch.derivs.vertical2.shape == (n, dim, dim)
        _assert_rows_match(batch, [smooth_gauge([p], anchor, config) for p in pts])
        assert batch.value[-2] == 0.0

    @pytest.mark.parametrize("dim,config", BATCH_RULES[:2], ids=["d1", "d2-gh21"])
    def test_block_size_invariance(self, grid64, monkeypatch, dim, config):
        anchor = PathPoint(0.75, make_brownian(grid64, seed=40, dimension=dim))
        pts = [PathPoint(0.25, make_brownian(grid64, seed=41 + i, dimension=dim))
               for i in range(11)]
        pts += [PathPoint(t, make_brownian(grid64, seed=60, dimension=dim))
                for t in (0.5, 1.0)]
        singles = [smooth_gauge([p], anchor, config) for p in pts]
        # shifted times of a point at 0.25: t itself and its s-rule
        s = _AnchorGroups([anchor], pts[:1], None, None, config).width[0]
        # one point per block, an odd size that puts three of the eleven
        # points at 0.25 in a block and the last two with the points of the
        # next nodes, everything in one block
        for block in (1, 3 * gauge._PAIR_FLOATS * s + 1, 10 ** 9):
            monkeypatch.setattr(gauge, "_PROFILE_BLOCK", block)
            _assert_rows_match(smooth_gauge(pts, anchor, config), singles)

    def test_z_chunks_match_one_chunk(self, grid64, monkeypatch):
        config = QuadratureConfig(z_samples=2000)
        anchor = PathPoint(0.75, make_brownian(grid64, seed=70, dimension=3))
        pts = [PathPoint(t, make_brownian(grid64, seed=71 + i, dimension=3))
               for i, t in enumerate((0.25, 0.25, 0.5, 1.0))] + [anchor]
        whole = smooth_gauge(pts, anchor, config)
        # 2000 z nodes in chunks of 600 // max(nq + 1, 9): 31 chunks for the
        # single candidate from the anchor's node on, 118 for the 33 from 0.25
        monkeypatch.setattr(gauge, "_Z_CHUNK_FLOATS", 600)
        chunked = smooth_gauge(pts, anchor, config)
        assert np.max(np.abs(chunked.value - whole.value)) <= 1e-13
        for part in ("horizontal", "vertical", "vertical2"):
            got, want = getattr(chunked.derivs, part), getattr(whole.derivs, part)
            assert np.max(np.abs(got - want)) <= 1e-12
        assert chunked.value[-1] == 0.0

    def test_d3_memory_bounded_on_a_long_span(self, grid64):
        # t = 0 against an anchor at T: 65 candidates by 100,000 z nodes,
        # two 50 MiB arrays without the z chunks
        anchor = PathPoint(1.0, make_brownian(grid64, seed=80, dimension=3))
        x = make_brownian(grid64, seed=81, dimension=3)

        def call():
            return horizontal_smoothed_distance(anchor, 0.0, x, x.values[0])

        call()  # builds the cached z-rule
        assert traced_peak(call) <= 16 * 2**20

    def test_empty_batch_rejected(self, grid64):
        anchor = PathPoint(0.5, make_brownian(grid64, seed=1))
        with pytest.raises(DomainError, match="at least one point"):
            smooth_gauge([], anchor)

    def test_mixed_grids_rejected(self, grid64, grid100):
        anchor = PathPoint(0.5, make_brownian(grid64, seed=1))
        pts = [PathPoint(0.5, make_brownian(grid64, seed=2)),
               PathPoint(0.5, make_brownian(grid100, seed=3))]
        with pytest.raises(DomainError, match="share a time grid"):
            smooth_gauge(pts, anchor)


def _mixed_rows(grid, dim):
    """Rows of one batch: points before, at and after a shared anchor at
    0.75 (two at one node), points against a shared anchor at 0.25, points
    against anchors of their own before and after them, and the shared
    anchor itself; present values off the paths, except at the anchor."""
    shared = [PathPoint(0.75, make_brownian(grid, seed=90, dimension=dim)),
              PathPoint(0.25, make_brownian(grid, seed=91, dimension=dim))]
    spec = [(0, 0.25), (1, 0.5), (0, 0.25), (0, 1.0), (1, 0.0), (0, 0.75),
            (0.25, 0.5), (1, 0.25), (1.0, 0.0), (0, 0.5)]
    anchors, points = [], []
    for i, (which, t) in enumerate(spec):
        anchors.append(shared[which] if isinstance(which, int) else
                       PathPoint(which, make_brownian(grid, seed=93 + i, dimension=dim)))
        points.append(PathPoint(t, make_brownian(grid, seed=110 + i, dimension=dim)))
    rng = np.random.default_rng(92)
    y = (np.array([p.present_value() for p in points])
         + rng.standard_normal((len(points), dim)))
    anchors.append(shared[0])
    points.append(shared[0])
    return anchors, points, np.vstack([y, shared[0].present_value()])


class TestSmoothedRows:
    """The kernel on rows (anchor, point, present value)."""

    @pytest.mark.parametrize("dim,config", BATCH_RULES, ids=["d1", "d2-gh21", "d3-mc"])
    def test_rows_equal_one_point_results(self, grid64, dim, config):
        anchors, points, y = _mixed_rows(grid64, dim)
        (v, g, h), (s, hor, vert, vert2) = _smoothed_rows(anchors, points, y, config)
        for i, (a, p) in enumerate(zip(anchors, points)):
            one = vertical_smoothed_distance(a, p.t, p.path, y[i], config)
            value, derivs = horizontal_smoothed_distance(a, p.t, p.path, y[i], config)
            assert v[i] == one.value
            assert s[i] == value
            assert np.max(np.abs(g[i] - one.gradient)) <= 1e-13
            assert np.max(np.abs(h[i] - one.hessian)) <= 1e-13
            assert abs(hor[i] - derivs.horizontal) <= 1e-13
            assert np.max(np.abs(vert[i] - derivs.vertical)) <= 1e-13
            assert np.max(np.abs(vert2[i] - derivs.vertical2)) <= 1e-13
        assert s[-1] == 0.0

    @pytest.mark.parametrize("dim,config", BATCH_RULES, ids=["d1", "d2-gh21", "d3-mc"])
    def test_block_size_invariance(self, grid64, monkeypatch, dim, config):
        anchors, points, y = _mixed_rows(grid64, dim)
        results = []
        # one row per block, an odd size that splits groups, one block
        for block in (1, 7 * gauge._PAIR_FLOATS * 5 + 3, 10 ** 9):
            monkeypatch.setattr(gauge, "_PROFILE_BLOCK", block)
            (v, g, h), (s, hor, vert, vert2) = _smoothed_rows(anchors, points, y, config)
            results.append(((v, s, hor), (g, h, vert, vert2)))
        for exact, close in results[1:]:
            for got, want in zip(exact, results[0][0]):
                assert np.array_equal(got, want)
            for got, want in zip(close, results[0][1]):
                assert np.max(np.abs(got - want)) <= 1e-13


class TestNonFinite:
    """One finiteness check for every stage: a row that reads a NaN raises
    NumericError and names the first such row."""

    @staticmethod
    def nan_path(grid, node, seed=2):
        vals = make_brownian(grid, seed=seed).values.copy()
        vals[node] = np.nan
        return GridPath(grid, vals)

    def test_every_stage_raises(self, grid64):
        anchor = PathPoint(0.75, make_brownian(grid64, seed=1))
        x = self.nan_path(grid64, 10)
        y = x.values[32]
        with pytest.raises(NumericError, match="row 0 "):
            horizontal_smoothed_distance(anchor, 0.5, x, y)
        with pytest.raises(NumericError, match="row 0 "):
            smooth_gauge([PathPoint(0.5, x)], anchor)
        with pytest.raises(NumericError, match="row 0 "):
            vertical_smoothed_distance(anchor, 0.5, x, y)
        with pytest.raises(NumericError, match="row 0 "):
            vertical_smoothed_distance(anchor, 0.5, make_brownian(grid64, seed=3),
                                       np.array([np.nan]))

    def test_first_row_in_input_order_is_named(self, grid64):
        anchor = PathPoint(0.75, make_brownian(grid64, seed=1))
        good = make_brownian(grid64, seed=3)
        # rows 0 and 3 share a node, rows 1 and 2 another: in group order
        # row 3 comes before row 2
        pts = [PathPoint(0.5, good), PathPoint(0.25, good),
               PathPoint(0.25, self.nan_path(grid64, 5)),
               PathPoint(0.5, self.nan_path(grid64, 5, seed=4))]
        with pytest.raises(NumericError, match="row 2 "):
            smooth_gauge(pts, anchor)

    def test_values_a_row_does_not_read_may_be_nan(self, grid64):
        # after the point's node and after the anchor's
        anchor = PathPoint(0.75, self.nan_path(grid64, 60))
        col = smooth_gauge([PathPoint(0.5, self.nan_path(grid64, 40))], anchor)
        assert np.isfinite(col.value[0])


class TestPerturbationSum:
    def test_single_anchor_at_anchor(self, grid64):
        p = PathPoint(26 / 64, make_brownian(grid64, seed=7))
        res = perturbation_sum([p], [p])
        assert res.value[0] == 0.0

    def test_repeated_anchor_geometric_sum(self, grid64):
        a = PathPoint(19 / 64, make_brownian(grid64, seed=8))
        p = PathPoint(45 / 64, make_brownian(grid64, seed=9))
        base = smooth_gauge([p], a).value[0]
        n = 5
        res = perturbation_sum([a] * n, [p])
        # the last anchor repeats forever: the completed weights sum to 2
        assert res.value[0] == pytest.approx(2.0 * base, rel=1e-12)

    def test_two_anchor_completion(self, grid64):
        a0 = PathPoint(13 / 64, make_brownian(grid64, seed=10))
        a1 = PathPoint(0.5, make_brownian(grid64, seed=11))
        p = PathPoint(51 / 64, make_brownian(grid64, seed=12))
        res = perturbation_sum([a0, a1], [p])
        expect = smooth_gauge([p], a0).value[0] + smooth_gauge([p], a1).value[0]
        assert res.value[0] == pytest.approx(expect, rel=1e-12)

    def test_empty_anchor_list(self, grid64):
        with pytest.raises(DomainError):
            perturbation_sum([], [PathPoint(0.1, make_brownian(grid64, seed=1))])

    @pytest.mark.parametrize("dim,config", BATCH_RULES[:2], ids=["d1", "d2-gh21"])
    def test_rows_equal_ordered_sum_of_one_point_columns(self, grid64, dim, config):
        anchors = [PathPoint(t, make_brownian(grid64, seed=70 + i, dimension=dim))
                   for i, t in enumerate([0.25, 0.75, 0.5, 0.75])]
        pts = [PathPoint(t, make_brownian(grid64, seed=80 + i, dimension=dim))
               for i, t in enumerate([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])]
        pts.append(anchors[-1])
        res = perturbation_sum(anchors, pts, config)
        weights = [1.0, 0.5, 0.25, 0.25]  # the last one doubled
        for i, p in enumerate(pts):
            cols = [smooth_gauge([p], a, config) for a in anchors]
            value, hor = 0.0, 0.0
            vert, vert2 = np.zeros(dim), np.zeros((dim, dim))
            for w, col in zip(weights, cols):
                value += w * col.value[0]
                hor += w * col.derivs.horizontal[0]
                vert = vert + w * col.derivs.vertical[0]
                vert2 = vert2 + w * col.derivs.vertical2[0]
            assert res.value[i] == value
            assert abs(res.derivs.horizontal[i] - hor) <= 1e-13
            assert np.max(np.abs(res.derivs.vertical[i] - vert)) <= 1e-13
            assert np.max(np.abs(res.derivs.vertical2[i] - vert2)) <= 1e-13
        heat = res.derivs.heat_operator()
        assert heat.shape == (len(pts),)
        for i in range(len(pts)):
            one = PathwiseDerivs(horizontal=float(res.derivs.horizontal[i]),
                                 vertical=res.derivs.vertical[i],
                                 vertical2=res.derivs.vertical2[i])
            assert heat[i] == one.heat_operator()


class TestAudits:
    def test_bound_audit_passes_d1(self, grid64):
        checks = derivative_bound_audit(1, grid64, 60, seed=1)
        assert all(c.passed for c in checks)

    def test_bound_audit_passes_d2(self, grid64):
        checks = derivative_bound_audit(2, grid64, 40, seed=2)
        assert all(c.passed for c in checks)

    def test_quadrature_error_estimate_small_exact_rule(self, grid64):
        est = estimate_gauge_quadrature_error(1, grid64, QuadratureConfig(),
                                              n_probe=6, seed=3)
        # d=1 z-integrals are closed-form; only the s-rule refines
        assert est["value"] < 1e-6

    def test_quadrature_error_estimate_covers_reference_error(self, grid64):
        # a refinement that repeated the rule's own error would report a
        # small estimate for a wrong rule: compare with a high-order rule
        config = QuadratureConfig()
        est = estimate_gauge_quadrature_error(1, grid64, config, n_probe=6, seed=3)
        reference = QuadratureConfig(s_nodes=32)
        for anchor, t, x, y in random_lift_points(grid64, 1, 6, seed=3):
            v0, d0 = horizontal_smoothed_distance(anchor, t, x, y, config)
            v1, d1 = horizontal_smoothed_distance(anchor, t, x, y, reference)
            assert abs(v0 - v1) <= est["value"]
            assert abs(d0.horizontal - d1.horizontal) <= est["horizontal"]
            assert np.max(np.abs(d0.vertical - d1.vertical)) <= est["vertical"]
            assert np.max(np.abs(d0.vertical2 - d1.vertical2)) <= est["vertical2"]

    def test_sandwich_audit(self, grid64):
        for dim in (1, 2):
            checks = sandwich_audit(dim, grid64, 60, seed=4)
            assert all(c.passed for c in checks), [c.name for c in checks
                                                   if not c.passed]

    @pytest.mark.parametrize("dim,n", [(1, 30), (2, 8)])
    def test_bound_audit_maxima_equal_per_tuple_loop(self, grid64, dim, n):
        checks = derivative_bound_audit(dim, grid64, n, seed=8)
        want = audit_maxima_loop(dim, grid64, n, 8, QuadratureConfig())
        assert [c.observed for c in checks] == pytest.approx(want, rel=0, abs=1e-13)

    @pytest.mark.parametrize("dim,n", [(1, 30), (2, 8)])
    def test_sandwich_maxima_equal_per_sample_loop(self, grid64, dim, n):
        checks = sandwich_audit(dim, grid64, n, seed=9)
        want = sandwich_maxima_loop(dim, grid64, n, 9, QuadratureConfig())
        assert [c.observed for c in checks] == want

    @pytest.mark.parametrize("dim", [1, 2])
    def test_calibration_and_validation_equal_per_pair_loop(self, grid64, dim):
        # the stopped distances of all pairs come from one array call
        config = QuadratureConfig()
        diag = calibrate_alpha(random_pairs(grid64, dim, 30, seed=5))
        assert diag.dimension == dim
        ratio, item3 = np.inf, -np.inf
        for anchor, point in random_pairs(grid64, dim, 30, seed=5):
            val = vertical_smoothed_distance(anchor, point.t, point.path,
                                             point.present_value(), config).value
            dist = stopped_sup_distances((point,), (anchor,))[0]
            if dist >= 1e-9:
                ratio = min(ratio, val / min(dist ** (dim + 1), dist))
            item3 = max(item3, (dist - val) / mean_gaussian_norm(dim))
        assert diag.alpha == min(gauge.ALPHA_SHRINK * ratio, 1.0)
        assert diag.item3_constant == item3
        worst = [-np.inf, -np.inf]
        for anchor, point in random_pairs(grid64, dim, 20, seed=6):
            y = point.present_value()
            val = vertical_smoothed_distance(anchor, point.t, point.path, y,
                                             config).value
            sat, _ = horizontal_smoothed_distance(anchor, point.t, point.path, y,
                                                  config)
            dist = stopped_sup_distances((point,), (anchor,))[0]
            floor = diag.alpha * min(dist ** (dim + 1), dist)
            worst = [max(worst[0], floor - val),
                     max(worst[1], floor / (1.0 + dist) - sat)]
        checks = validate_alpha(diag, grid64, 20, seed=6)
        assert [c.observed for c in checks] == worst

    def test_calibration_takes_the_dimension_of_its_samples(self):
        # E|Z| of item 3 is that of the samples' dimension: 2 here
        pairs = list(random_pairs(TimeGrid(1.0, 32), 2, 20, 3))
        diag = calibrate_alpha(pairs)
        dist = stopped_sup_distances([p for _, p in pairs], [a for a, _ in pairs])
        values = np.array([vertical_smoothed_distance(a, p.t, p.path,
                                                      p.present_value()).value
                           for a, p in pairs])
        assert diag.dimension == 2 and diag.n_samples == 20
        assert diag.item3_constant == pytest.approx(
            np.max(dist - values) / mean_gaussian_norm(2), rel=1e-12)
        assert diag.item3_constant == pytest.approx(0.754, abs=1e-3)

    def test_calibration_of_no_samples(self):
        with pytest.raises(DomainError, match="positive distance"):
            calibrate_alpha([])

    def test_calibrated_alpha_validates_on_fresh_samples(self, grid64):
        diag = calibrate_alpha(random_pairs(grid64, 1, 300, seed=5))
        assert 0.0 < diag.alpha <= 1.0
        checks = validate_alpha(diag, grid64, 300, seed=6)
        assert all(c.passed for c in checks)
        # the one-constant offset also holds empirically
        assert diag.item3_constant <= 1.0 + 1e-9

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (fd_pathwise_derivs, fejer_smooth, make_brownian,
                      nearest_index, traced_peak, value_at)
from pathheat.cylinders import (CylinderSpec, PathwiseDerivs, cylinder_approx,
                                cylinder_coordinates, cylinder_sigma,
                                fejer_smoothing)
from pathheat.errors import ContractError, DomainError, NumericError
from pathheat.grids import (GridPath, TimeGrid, brownian_increments,
                            extend_with_increments)
from pathheat.quadrature import (QuadratureConfig, gaussian_rule,
                                 monte_carlo_gaussian_rule)
from pathheat import solver
from pathheat.experiments import _smoothing_modulus
from pathheat.solver import (MCConfig, MCEstimate, build_terminal,
                             candidate_solution, control_nodes,
                             cylinder_pathwise_derivs,
                             finite_dim_solution, pde_residual,
                             sample_increments)
from pathheat.streams import StreamKind, sample_stream, substream
from pathheat.regularization import weights_at
from scipy.integrate import quad
from scipy.special import ndtr

CYLINDERS = ["cyl:linear", "cyl:quadratic", "cyl:exponential", "cyl:trig2"]


def merge(parts):
    """Count-weighted mean of plain estimates with pooled (ddof=1) variance."""
    n = sum(p.n_samples for p in parts)
    mean = sum(p.mean * p.n_samples for p in parts) / n
    sumsq = sum((p.n_samples - 1) * p.stderr**2 * p.n_samples
                + p.n_samples * p.mean**2 for p in parts)
    var = (sumsq - n * mean**2) / max(n - 1, 1)
    return MCEstimate(mean=float(mean),
                      stderr=float(math.sqrt(max(var, 0.0) / n)),
                      n_samples=n, seed=parts[0].seed)


def running_max_exact_solution(t, x, cfg):
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
    rng = None
    for i in range(cfg.n_samples):
        rng = substream(cfg.seed, StreamKind.BRIDGE, i, rng)
        dw = brownian_increments(grid, k, 1, rng)
        u = rng.random(grid.steps - k)
        nodes = extend_with_increments(t, x, dw)[k:, 0]
        a, b = nodes[:-1], nodes[1:]
        cell_max = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 2.0 * grid.dt * np.log(u)))
        samples[i] = max(past_max, float(np.max(cell_max)))
    return MCEstimate.from_samples(samples, cfg.seed)


def flow_residual(xi, t, t_prime, x, cfg, n_inner=1000):
    """Residual of the tower identity between times t <= t' <= T.

    Couples the two expectations through the outer samples: each outer
    extension Y contributes xi(Y) minus an inner Monte-Carlo estimate of the
    solution restarted at (t', Y).  At t' = t the identity is the
    non-anticipativity of the solution and holds pointwise, so the residual
    is returned as exactly zero; at t' = T the inner estimate collapses to
    xi(Y) and the coupling is exact as well.

    The outer increments are drawn ``solver._CHUNK`` samples at a time, with
    one reseated generator per chunk; outer sample i is still stream
    (seed, i) and is evaluated alone, so the estimate does not depend on the
    chunk size.
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
    n = cfg.n_samples
    diffs = np.empty(n)
    rng = None
    for lo in range(0, n, solver._CHUNK):
        idx = range(lo, min(lo + solver._CHUNK, n))
        outer = extend_with_increments(
            t, x, sample_increments(grid, k, d, cfg.seed, idx))
        for i, y in zip(idx, outer):
            xi_outer = float(xi.evaluate_batch(y[None], grid)[0])
            rng = substream(cfg.seed, StreamKind.FLOW_INNER, i, rng)
            inner_dw = brownian_increments(grid, kp, d, rng, n=n_inner)
            inner = extend_with_increments(t_prime, GridPath(grid, y), inner_dw)
            diffs[i] = xi_outer - float(np.mean(xi.evaluate_batch(inner, grid)))
    return MCEstimate.from_samples(diffs, cfg.seed)


class TestStreams:
    def test_registry_kinds_distinct_and_positive(self):
        kinds = [int(k) for k in StreamKind]
        assert len(kinds) == len(set(kinds)) == 5
        assert min(kinds) > 0

    @pytest.mark.parametrize("seed", [-5, -1, 1 << 128])
    def test_seed_outside_key_range_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            sample_stream(seed, 0)
        with pytest.raises(DomainError, match="seed"):
            substream(seed, StreamKind.PAIRS, 0)

    def test_largest_seed_accepted(self):
        assert np.isfinite(sample_stream((1 << 128) - 1, 3).standard_normal())

    @staticmethod
    def _draws(rng):
        return (rng.standard_normal(7), rng.random(5),
                rng.integers(0, 1 << 40, size=3), rng.integers(0, 9, dtype=np.int32))

    @staticmethod
    def _mid_buffer():
        # one int32 draw leaves half a word cached (has_uint32 = 1), then an
        # odd number of doubles leaves the four-word buffer part read
        rng = sample_stream(99, 4)
        rng.integers(0, 9, dtype=np.int32)
        assert rng.bit_generator.state["has_uint32"] == 1
        rng.random(5)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
        return rng

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1, 1 << 64, (1 << 128) - 1])
    @pytest.mark.parametrize("index", [0, 1, (1 << 64) - 1, 1 << 64,
                                       (int(StreamKind.BRIDGE) << 56) + 17])
    def test_reseat_equals_fresh_stream(self, seed, index):
        into = self._mid_buffer()
        assert sample_stream(seed, index, into) is into
        fresh = self._draws(sample_stream(seed, index))
        for got, want in zip(self._draws(into), fresh):
            assert np.array_equal(got, want)

    def test_substream_reseat_equals_fresh_substream(self):
        into = self._mid_buffer()
        assert substream(7, StreamKind.FLOW_INNER, 3, into) is into
        fresh = self._draws(substream(7, StreamKind.FLOW_INNER, 3))
        for got, want in zip(self._draws(into), fresh):
            assert np.array_equal(got, want)

    def test_reseat_keeps_range_checks(self):
        into = sample_stream(1, 0)
        with pytest.raises(DomainError, match="seed"):
            sample_stream(1 << 128, 0, into)
        with pytest.raises(DomainError, match="seed"):
            sample_stream(-1, 0, into)
        with pytest.raises(ValueError, match="index"):
            sample_stream(1, -1, into)
        with pytest.raises(ValueError, match="index"):
            sample_stream(1, 1 << 128, into)
        with pytest.raises(ValueError, match="index"):
            sample_stream(1, 1 << 128)


class TestSampleIncrements:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_partition_invariance(self, antithetic):
        grid = TimeGrid(1.0, 16)
        whole = sample_increments(grid, 3, 2, 41, np.arange(10), antithetic)
        part = sample_increments(grid, 3, 2, 41, np.arange(5, 10), antithetic)
        assert whole.shape == (10, 13, 2)
        assert np.array_equal(part, whole[5:])
        single = sample_increments(grid, 3, 2, 41, [7], antithetic)
        assert np.array_equal(single[0], whole[7])

    def test_row_is_single_stream_draw(self):
        grid = TimeGrid(1.0, 16)
        rows = sample_increments(grid, 3, 2, 41, [2, 9])
        for row, i in zip(rows, (2, 9)):
            ref = brownian_increments(grid, 3, 2, sample_stream(41, i))
            assert np.array_equal(row, ref)

    def test_antithetic_pairs_mirror_one_stream(self):
        grid = TimeGrid(1.0, 8)
        anti = sample_increments(grid, 0, 1, 5, np.arange(6), antithetic=True)
        plain = sample_increments(grid, 0, 1, 5, np.arange(3))
        assert np.array_equal(anti[0::2], plain)
        assert np.array_equal(anti[1::2], -plain)

    def test_antithetic_rows_are_fresh_stream_draws(self):
        # with one reseated generator, pair 2j, 2j+1 still reads stream j
        grid = TimeGrid(1.0, 16)
        idx = [1, 2, 3, 4, 5, 9, 12]
        rows = sample_increments(grid, 3, 2, 41, idx, antithetic=True)
        for row, i in zip(rows, idx):
            ref = brownian_increments(grid, 3, 2, sample_stream(41, i // 2))
            assert np.array_equal(row, -ref if i % 2 else ref)

    def test_fills_out_in_place(self):
        grid = TimeGrid(1.0, 8)
        out = np.empty((4, 8, 1))
        res = sample_increments(grid, 0, 1, 5, np.arange(4), out=out)
        assert res is out
        assert np.array_equal(out, sample_increments(grid, 0, 1, 5, np.arange(4)))


class TestEstimators:
    def test_merge_of_partition_equals_whole(self):
        samples = np.random.default_rng(3).standard_normal(1000) * 2.0 + 0.5
        parts = [MCEstimate.from_samples(samples[a:b], 9)
                 for a, b in ((0, 100), (100, 650), (650, 1000))]
        merged = merge(parts)
        whole = MCEstimate.from_samples(samples, 9)
        assert merged.n_samples == whole.n_samples == 1000
        assert merged.mean == pytest.approx(whole.mean, abs=1e-12)
        assert merged.stderr == pytest.approx(whole.stderr, abs=1e-12)

    def test_antithetic_stderr_from_pair_means(self):
        # X_T is odd in the noise, so every antithetic pair averages to 0
        grid = TimeGrid(1.0, 100)
        xi = build_terminal("terminal_value", grid)
        est = candidate_solution(xi, 0.0, GridPath.zero(grid),
                                 MCConfig(n_samples=1000, seed=1, antithetic=True))
        assert est.stderr == 0.0
        assert abs(est.mean) < 1e-12
        assert est.n_samples == 1000

    def test_antithetic_needs_two_pairs(self):
        with pytest.raises(DomainError):
            MCConfig(n_samples=2, seed=1, antithetic=True)
        with pytest.raises(DomainError):
            MCConfig(n_samples=5, seed=1, antithetic=True)

    def test_flow_residual_centred(self):
        grid = TimeGrid(1.0, 16)
        x = GridPath.from_function(grid, lambda t: np.sin(3 * t))
        xi = build_terminal("terminal_square", grid)
        est = flow_residual(xi, 0.25, 0.5, x, MCConfig(n_samples=400, seed=8),
                            n_inner=200)
        assert est.stderr > 0
        assert abs(est.mean) <= 4 * est.stderr

    @pytest.mark.parametrize("name", ["terminal_square", "cyl:trig2"])
    @pytest.mark.parametrize("chunk", [2, 3, 4096])
    def test_flow_residual_equals_per_sample_loop(self, name, chunk, monkeypatch):
        # outer draws come in chunks through one reseated generator; the
        # estimate equals, bit for bit, fresh streams opened sample by sample
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        grid = TimeGrid(1.0, 16)
        x = GridPath.from_function(grid, lambda t: np.sin(3 * t))
        xi = build_terminal(name, grid)
        t, t_prime, seed, n_inner = 0.25, 0.5, 8, 50
        k, kp = grid.index_of(t), grid.index_of(t_prime)
        diffs = np.empty(7)
        for i in range(diffs.size):
            dw = sample_stream(seed, i).standard_normal((1, grid.steps - k, 1))
            outer = extend_with_increments(t, x, dw * math.sqrt(grid.dt))
            inner_dw = brownian_increments(
                grid, kp, 1, substream(seed, StreamKind.FLOW_INNER, i), n=n_inner)
            inner = extend_with_increments(t_prime, GridPath(grid, outer[0]),
                                           inner_dw)
            diffs[i] = (xi.evaluate_batch(outer, grid)[0]
                        - np.mean(xi.evaluate_batch(inner, grid)))
        want = MCEstimate.from_samples(diffs, seed)
        got = flow_residual(xi, t, t_prime, x,
                            MCConfig(n_samples=diffs.size, seed=seed), n_inner)
        assert (got.mean, got.stderr) == (want.mean, want.stderr)

    @pytest.mark.parametrize("t,path", [
        (0.0, lambda t: 0.0 * t),
        (0.5, lambda t: 0.5 * np.sin(2.0 * np.pi * t)),
    ], ids=["t0-zero", "t05-past-max-above"])
    def test_running_max_exact_matches_continuum(self, t, path):
        # the reflection principle, however coarse the grid: with m = max x
        # on [0, t], y = m - x(t), tau = T - t and a = y / sqrt(tau),
        # u(t, x) = x(t) + y (2 Phi(a) - 1) + 2 sqrt(tau) phi(a); from zero
        # at t = 0 that is E sup_[0,1] W = sqrt(2/pi), and the path at
        # t = 0.5 has y = 0.5
        grid = TimeGrid(1.0, 16)
        x = GridPath.from_function(grid, path)
        k = grid.index_of(t)
        x_t = float(x.values[k, 0])
        y = float(np.max(x.values[:k + 1, 0])) - x_t
        root = math.sqrt(grid.horizon - t)
        a = y / root
        exact = (x_t + y * (2.0 * ndtr(a) - 1.0)
                 + 2.0 * root * math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi))
        est = running_max_exact_solution(t, x, MCConfig(n_samples=4000, seed=2))
        assert abs(est.mean - exact) <= 4 * est.stderr


def _lstsq_fit(xi, t, x, cfg, sample=None):
    """The control-variate fit of candidate_solution, done at once on the
    whole design matrix: (intercept, stderr, fitted units y).  ``sample``
    maps the extensions (n, M+1, d) to the fitted samples, xi by default.

    The controls are the walk S = X - x(t) and S^+ at K nodes spread evenly
    over (k, M], K = max(1, min(8, M - k, floor(sqrt(units) / (16 d)))),
    and at K >= 2 the running max C = max(0, S at k + h, ..., k + K h) with
    h = floor((M - k) / K), of mean sum_i sqrt(i h dt / (2 pi)) / i."""
    grid = x.grid
    k = grid.index_of(t)
    d = x.dimension
    dw = sample_increments(grid, k, d, cfg.seed, np.arange(cfg.n_samples),
                           cfg.antithetic)
    vals = extend_with_increments(t, x, dw)
    y = xi.evaluate_batch(vals, grid) if sample is None else sample(vals)
    units = cfg.n_samples // 2 if cfg.antithetic else cfg.n_samples
    count = max(1, min(8, grid.steps - k, int(math.sqrt(units) / (16 * d))))
    nodes = [k + j * (grid.steps - k) // count for j in range(1, count + 1)]
    s = vals[:, nodes] - x.values[k]
    sp = np.maximum(s, 0.0) - np.array(
        [[math.sqrt((grid.node(kj) - grid.node(k)) / (2 * math.pi))] for kj in nodes])
    s, sp = s.reshape(len(s), -1), sp.reshape(len(s), -1)
    if count >= 2:
        h = (grid.steps - k) // count
        spaced = [k + i * h for i in range(1, count + 1)]
        c = np.maximum(np.max(vals[:, spaced] - x.values[k], axis=1), 0.0) - sum(
            math.sqrt(i * h * grid.dt / (2 * math.pi)) / i for i in range(1, count + 1))
        sp = np.column_stack([sp, c])
    if cfg.antithetic:
        # S cancels inside a pair: only the pair means of S^+ (and C) are
        # controls
        y = y.reshape(-1, 2).mean(axis=1)
        controls = sp.reshape(-1, 2, sp.shape[1]).mean(axis=1)
    else:
        controls = np.column_stack([s, sp])
    design = np.column_stack([np.ones(y.size), controls])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    n, p = design.shape
    return coef[0], math.sqrt(resid @ resid / (n - p) / n), y


def _two_control_fit(xi, t, x, cfg):
    """candidate_solution's fit on B = X_T - x(t) and B^+ alone, written out
    as it stood before the fit had control nodes before T: moments pooled
    chunk by chunk, then one least-squares solve."""
    grid, d = x.grid, x.dimension
    k = grid.index_of(t)
    n = cfg.n_samples
    units = n // 2 if cfg.antithetic else n
    c = d if cfg.antithetic else 2 * d
    positive_mean = math.sqrt((grid.steps - k) * grid.dt / (2.0 * math.pi))
    control_means = np.array([positive_mean] * d if cfg.antithetic
                             else [0.0] * d + [positive_mean] * d)
    moments = None
    for lo in range(0, n, solver._CHUNK):
        idx = np.arange(lo, min(lo + solver._CHUNK, n))
        vals = extend_with_increments(t, x, sample_increments(
            grid, k, d, cfg.seed, idx, cfg.antithetic))
        y = xi.evaluate_batch(vals, grid)[:, None]
        b = vals[:, -1] - x.values[k]
        if cfg.antithetic:
            cols = [np.maximum(b, 0.0).reshape(-1, 2, d).mean(axis=1),
                    y.reshape(-1, 2, 1).mean(axis=1)]
        else:
            cols = [b, np.maximum(b, 0.0), y]
        moments = solver._pool(moments, solver._moments(np.concatenate(cols, axis=1)))
    _, mean, cross = moments
    beta = np.linalg.lstsq(cross[:c, :c], cross[:c, c:], rcond=None)[0][:, 0]
    ybar, syy = mean[c], cross[c, c]
    rss = max(syy - cross[:c, c] @ beta, solver._RSS_FLOOR * (syy + units * ybar**2))
    return (float(ybar - beta @ (mean[:c] - control_means)),
            float(math.sqrt(rss / (units - 1 - c) / units)))


def _spitzer(steps):
    """E max_k S_k of the Gaussian walk on the unit grid (Spitzer)."""
    dt = 1.0 / steps
    return math.fsum(math.sqrt(dt / (2 * math.pi * k)) for k in range(1, steps + 1))


class TestControlVariates:
    # 3 chunks and a partial one; an antithetic count must be even
    @pytest.mark.parametrize("antithetic,n", [(False, 3 * solver._CHUNK + 17),
                                              (True, 3 * solver._CHUNK + 18)])
    def test_chunked_fit_equals_one_lstsq(self, antithetic, n, monkeypatch):
        grid = TimeGrid(1.0, 16)
        x = make_brownian(grid, seed=3)
        xi = build_terminal("running_max", grid)
        cfg = MCConfig(n_samples=n, seed=4, antithetic=antithetic)
        mean, stderr, _ = _lstsq_fit(xi, 0.25, x, cfg)
        est = candidate_solution(xi, 0.25, x, cfg)
        assert est.mean == pytest.approx(mean, abs=1e-12)
        assert est.stderr == pytest.approx(stderr, abs=1e-12)
        monkeypatch.setattr(solver, "_CHUNK", 1000)
        rechunked = candidate_solution(xi, 0.25, x, cfg)
        assert rechunked.mean == pytest.approx(est.mean, abs=1e-12)
        assert rechunked.stderr == pytest.approx(est.stderr, abs=1e-12)

    @pytest.mark.parametrize("antithetic,d,n", [
        (False, 1, 1023), (True, 1, 2046), (False, 2, 4095), (True, 2, 8190)])
    @pytest.mark.parametrize("t", [0.0, 0.375])
    def test_few_units_keep_the_two_control_fit(self, antithetic, d, n, t,
                                                monkeypatch):
        # below 1024 d^2 fitted units the fit is the one on B and B^+ alone,
        # bit for bit; chunks of 300 make the moments pool
        monkeypatch.setattr(solver, "_CHUNK", 300)
        grid = TimeGrid(1.0, 8)
        x = make_brownian(grid, seed=5, dimension=d, start=0.3)
        cfg = MCConfig(n_samples=n, seed=7, antithetic=antithetic)
        assert control_nodes(grid, t, cfg, d).tolist() == [grid.steps]
        est = candidate_solution(_PRODUCT_MAX, t, x, cfg)
        assert (est.mean, est.stderr) == _two_control_fit(_PRODUCT_MAX, t, x, cfg)

    def test_control_nodes(self):
        grid = TimeGrid(1.0, 16)
        # K = floor(sqrt(units) / (16 d)), at least 1 and at most 8
        for n, antithetic, d, count in [
                (1023, False, 1, 1), (1024, False, 1, 2), (2046, True, 1, 1),
                (2048, True, 1, 2), (4095, False, 2, 1), (4096, False, 2, 2),
                (20000, False, 1, 8), (10**6, False, 1, 8), (10**6, True, 3, 8)]:
            nodes = control_nodes(grid, 0.0, MCConfig(n, 1, antithetic), d)
            assert nodes.size == count
            assert nodes[-1] == grid.steps
            assert nodes[0] > 0 and np.all(np.diff(nodes) > 0)
        big = MCConfig(20000, 1)
        # spread evenly over (k, M]
        assert control_nodes(TimeGrid(1.0, 1000), 0.0, big, 1).tolist() == list(
            range(125, 1001, 125))
        assert control_nodes(grid, 0.25, big, 1).tolist() == [
            5, 7, 8, 10, 11, 13, 14, 16]
        assert control_nodes(grid, 0.25, MCConfig(12305, 1), 1).tolist() == [
            6, 8, 10, 12, 14, 16]
        # fewer steps after t than nodes: every node after t
        assert control_nodes(grid, 0.75, big, 1).tolist() == [13, 14, 15, 16]
        # one step before T: the last node alone; at T none
        assert control_nodes(grid, 15 / 16, big, 1).tolist() == [16]
        assert control_nodes(grid, 1.0, big, 1).size == 0

    def test_time_off_the_grid_rejected(self):
        # 0.3333 lies between the nodes of a 10-step grid: it would be
        # solved at 0.3
        grid = TimeGrid(1.0, 10)
        cfg = MCConfig(n_samples=16, seed=1)
        xi = build_terminal("running_max", grid)
        message = "time 0.3333 is not a grid node; the nearest node is 0.3$"
        with pytest.raises(DomainError, match=message):
            control_nodes(grid, 0.3333, cfg, 1)
        with pytest.raises(DomainError, match=message):
            candidate_solution(xi, 0.3333, GridPath.zero(grid), cfg)
        # a time within the node tolerance is the node
        assert (candidate_solution(xi, 0.3 + 1e-13, GridPath.zero(grid), cfg)
                == candidate_solution(xi, 0.3, GridPath.zero(grid), cfg))

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_linear_terminal_is_exact(self, antithetic):
        grid = TimeGrid(1.0, 100)
        xi = build_terminal("terminal_value", grid)
        cfg = MCConfig(n_samples=1000, seed=1, antithetic=antithetic)
        x = GridPath.zero(grid)
        est = candidate_solution(xi, 0.0, x, cfg)
        _, _, y = _lstsq_fit(xi, 0.0, x, cfg)
        p = 2 if antithetic else 3
        floor = math.sqrt(solver._RSS_FLOOR * (y @ y) / (y.size - p) / y.size)
        assert abs(est.mean) < 1e-15
        assert est.stderr <= floor

    def test_stderr_covers_error(self):
        # errors against Spitzer's exact grid value, in units of the
        # reported stderr, must have unit spread and no visible bias; a
        # wrong degrees-of-freedom count or a biased in-sample fit shows
        grid = TimeGrid(1.0, 50)
        xi = build_terminal("running_max", grid)
        exact = _spitzer(grid.steps)
        scores = []
        for seed in range(200):
            est = candidate_solution(xi, 0.0, GridPath.zero(grid),
                                     MCConfig(n_samples=400, seed=seed))
            scores.append((est.mean - exact) / est.stderr)
        assert 0.9 < np.std(scores) < 1.15
        assert abs(np.mean(scores)) < 0.15

    def test_stderr_covers_error_at_four_nodes(self):
        # test_stderr_covers_error where the fit has K = 4 control nodes and
        # p = 9 coefficients: the in-sample bias O(p/n) must stay invisible
        grid = TimeGrid(1.0, 50)
        xi = build_terminal("running_max", grid)
        exact = _spitzer(grid.steps)
        assert control_nodes(grid, 0.0, MCConfig(4096, 0), 1).size == 4
        scores = []
        for seed in range(200):
            est = candidate_solution(xi, 0.0, GridPath.zero(grid),
                                     MCConfig(n_samples=4096, seed=seed))
            scores.append((est.mean - exact) / est.stderr)
        assert 0.9 < np.std(scores) < 1.15
        assert abs(np.mean(scores)) < 0.15

    def test_stderr_covers_error_antithetic_at_three_nodes(self):
        # antithetic pairs at K = 3, where 3 does not divide 50: the S nodes
        # are 16, 33, 50 and Spitzer's control reads 16, 32, 48.  1000 seeds
        # put the mean score's own spread at 0.03: seeds 0-199 alone give
        # -0.18, a 2.5-sigma draw (seeds 1000-2999 give 0.00 +- 0.02)
        grid = TimeGrid(1.0, 50)
        xi = build_terminal("running_max", grid)
        exact = _spitzer(grid.steps)
        cfg = MCConfig(4608, 0, antithetic=True)
        assert control_nodes(grid, 0.0, cfg, 1).tolist() == [16, 33, 50]
        scores = []
        for seed in range(1000):
            est = candidate_solution(xi, 0.0, GridPath.zero(grid),
                                     replace(cfg, seed=seed))
            scores.append((est.mean - exact) / est.stderr)
        assert 0.9 < np.std(scores) < 1.15
        assert abs(np.mean(scores)) < 0.15

    def test_stderr_covers_error_at_two_dimensions(self):
        # d = 2 at K = 2 on 45 steps, which 2 does not divide: the S nodes
        # are 22, 45 and Spitzer's control reads 22, 44 in each component;
        # the sum of the components' running maxima has mean 2 x Spitzer
        grid = TimeGrid(1.0, 45)
        xi = solver.TerminalFunctional(
            name="sum_of_maxima", batch=lambda v, g: np.max(v, axis=1).sum(axis=1))
        exact = 2 * _spitzer(grid.steps)
        assert control_nodes(grid, 0.0, MCConfig(4096, 0), 2).tolist() == [22, 45]
        scores = []
        for seed in range(200):
            est = candidate_solution(xi, 0.0, GridPath.zero(grid, 2),
                                     MCConfig(n_samples=4096, seed=seed))
            scores.append((est.mean - exact) / est.stderr)
        assert 0.9 < np.std(scores) < 1.15
        assert abs(np.mean(scores)) < 0.15

    def test_spitzer_mean_closed_forms(self):
        # E max(0, W_h, ..., W_Kh) against closed forms, and against a
        # quadrature of the Lindley recursion M_K = max(0, X + M_{K-1}),
        # X ~ N(0, h) independent of M_{K-1}
        h = 0.3
        root = math.sqrt(h / (2 * math.pi))
        assert solver._spaced_max_mean(1, h) == pytest.approx(root, rel=1e-15)
        assert solver._spaced_max_mean(2, h) == pytest.approx(
            root * (1 + 1 / math.sqrt(2)), rel=1e-15)
        assert solver._spaced_max_mean(3, h) == pytest.approx(
            root * (1 + 1 / math.sqrt(2) + 1 / math.sqrt(3)), rel=1e-15)
        sd = math.sqrt(h)

        def pdf(x):
            return math.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

        def plus_mean(c):
            # E (X + c)^+ = c Phi(c / sd) + sd^2 pdf(c)
            return c * ndtr(c / sd) + h * pdf(c)

        # M_1 = X^+ has an atom of 1/2 at 0 and the density pdf on (0, inf)
        m2 = 0.5 * plus_mean(0.0) + quad(lambda x: plus_mean(x) * pdf(x),
                                         0, math.inf)[0]
        assert m2 == pytest.approx(solver._spaced_max_mean(2, h), rel=1e-9)

        def after(m):
            # E g(M_2) given M_1 = m, with g = plus_mean and
            # M_2 = max(0, X' + m)
            return (plus_mean(0.0) * quad(pdf, -math.inf, -m)[0]
                    + quad(lambda x: plus_mean(x + m) * pdf(x), -m, math.inf)[0])

        m3 = 0.5 * after(0.0) + quad(lambda x: after(x) * pdf(x), 0, math.inf)[0]
        assert m3 == pytest.approx(solver._spaced_max_mean(3, h), rel=1e-9)

    def test_antithetic_fit_leaves_out_b(self):
        # at d = 2 the antithetic fit has 1 + 2 coefficients, not 1 + 4; at
        # 20 pairs the degrees of freedom alone move the stderr by 6%
        grid = TimeGrid(1.0, 16)
        x = make_brownian(grid, seed=5, dimension=2, start=0.3)
        xi = build_terminal("running_max", grid)
        cfg = MCConfig(n_samples=40, seed=6, antithetic=True)
        mean, stderr, _ = _lstsq_fit(xi, 0.25, x, cfg)
        est = candidate_solution(xi, 0.25, x, cfg)
        assert est.mean == pytest.approx(mean, abs=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-10)

    @pytest.mark.parametrize("d,antithetic,least", [(1, False, 4), (1, True, 6),
                                                     (2, False, 6), (2, True, 8)])
    def test_too_few_samples_rejected(self, d, antithetic, least):
        grid = TimeGrid(1.0, 8)
        xi = build_terminal("running_max", grid)
        x = GridPath.zero(grid, d)
        short = MCConfig(n_samples=least - 2, seed=1, antithetic=antithetic)
        with pytest.raises(DomainError, match=f"at least {least} samples"):
            candidate_solution(xi, 0.0, x, short)
        enough = MCConfig(n_samples=least, seed=1, antithetic=antithetic)
        assert np.isfinite(candidate_solution(xi, 0.0, x, enough).stderr)

    def test_nothing_fitted_at_horizon(self):
        grid = TimeGrid(1.0, 8)
        x = make_brownian(grid, seed=2)
        xi = build_terminal("running_max", grid)
        est = candidate_solution(xi, 1.0, x, MCConfig(n_samples=2, seed=1))
        assert est.mean == pytest.approx(np.max(x.values), abs=1e-15)
        # both samples are xi(x): the stderr is the floor alone
        assert est.stderr == pytest.approx(math.sqrt(solver._RSS_FLOOR) * abs(est.mean))


# a terminal that reads every component at d = 2 and never saturates
_PRODUCT_MAX = solver.TerminalFunctional(
    name="product_max",
    batch=lambda v, g: np.max(v[:, :, 0] * v[:, :, -1] + v[:, :, 0], axis=1))


class TestCandidateBatch:
    # n = _CHUNK + 6 on 8 steps: a full chunk, then a ragged one of 6
    GRID = TimeGrid(1.0, 8)
    N = solver._CHUNK + 6
    CASES = [(antithetic, d, t) for antithetic in (False, True)
             for d in (1, 2) for t in (0.0, 0.375, 1.0)]
    # without and with the smoothed difference
    SMOOTHINGS = (None, fejer_smoothing(2, GRID))

    def _paths(self, d):
        return [make_brownian(self.GRID, seed=s, dimension=d, start=0.4 * s - 0.6)
                for s in range(4)]

    @pytest.mark.parametrize("antithetic,d,t", CASES)
    def test_each_path_equals_that_path_alone(self, antithetic, d, t):
        cfg = MCConfig(n_samples=self.N, seed=12, antithetic=antithetic)
        paths = self._paths(d)
        for smoothing in self.SMOOTHINGS:
            batch = candidate_solution(_PRODUCT_MAX, t, paths, cfg, smoothing)
            assert isinstance(batch, tuple) and len(batch) == len(paths)
            for est, path in zip(batch, paths):
                alone = candidate_solution(_PRODUCT_MAX, t, path, cfg, smoothing)
                # one estimate per path, with or without the smoothing
                assert isinstance(alone, MCEstimate)
                assert est == alone  # mean and stderr exactly, seed and count

    @pytest.mark.parametrize("antithetic,d,t", CASES)
    def test_permuting_paths_permutes_estimates(self, antithetic, d, t):
        cfg = MCConfig(n_samples=self.N, seed=12, antithetic=antithetic)
        paths = self._paths(d)
        order = [2, 0, 3, 1]
        for smoothing in self.SMOOTHINGS:
            batch = candidate_solution(_PRODUCT_MAX, t, paths, cfg, smoothing)
            permuted = candidate_solution(_PRODUCT_MAX, t,
                                          [paths[i] for i in order], cfg, smoothing)
            assert permuted == tuple(batch[i] for i in order)

    @pytest.mark.parametrize("antithetic,d,t", CASES)
    def test_one_stream_per_sample_whatever_the_paths(self, antithetic, d, t,
                                                      monkeypatch):
        opened = []

        def spy(seed, index, into=None):
            opened.append((seed, index))
            return sample_stream(seed, index, into)

        monkeypatch.setattr(solver, "sample_stream", spy)
        cfg = MCConfig(n_samples=self.N, seed=12, antithetic=antithetic)
        # an antithetic pair 2j, 2j+1 shares stream j; at t = T nothing is drawn
        units = self.N // 2 if antithetic else self.N
        want = [] if t == 1.0 else [(12, i) for i in range(units)]
        for smoothing in self.SMOOTHINGS:
            opened.clear()
            candidate_solution(_PRODUCT_MAX, t, self._paths(d)[0], cfg, smoothing)
            alone = list(opened)
            opened.clear()
            candidate_solution(_PRODUCT_MAX, t, self._paths(d), cfg, smoothing)
            assert opened == alone == want

    def test_bad_batches_rejected(self):
        cfg = MCConfig(n_samples=16, seed=1)
        x = GridPath.zero(self.GRID)
        with pytest.raises(DomainError, match="at least one path"):
            candidate_solution(_PRODUCT_MAX, 0.0, [], cfg)
        with pytest.raises(DomainError, match="share a grid"):
            candidate_solution(_PRODUCT_MAX, 0.0,
                               [x, GridPath.zero(TimeGrid(1.0, 16))], cfg)
        with pytest.raises(DomainError, match="share a dimension"):
            candidate_solution(_PRODUCT_MAX, 0.0,
                               [x, GridPath.zero(self.GRID, 2)], cfg)


class TestSmoothedDifference:
    GRID = TimeGrid(1.0, 16)
    ORDER = 3

    @pytest.mark.parametrize("antithetic,d,t", [
        (antithetic, d, t) for antithetic in (False, True) for d in (1, 2)
        for t in (0.0, 0.375, 1.0)])
    def test_linear_form_matches_direct_smoothing(self, antithetic, d, t):
        # F_n Y = F_n(x stopped at t) + F_n(walk) against fejer_smooth of
        # each extension, sample by sample, and the fit on the direct form;
        # the modulus terminal, on the same draws, against the direct form
        seen = []

        def batch(values, grid):
            seen.append(values.copy())
            return _PRODUCT_MAX.batch(values, grid)

        xi = solver.TerminalFunctional(name="recorded", batch=batch)
        x = make_brownian(self.GRID, seed=7, dimension=d, start=0.2)
        cfg = MCConfig(n_samples=24, seed=9, antithetic=antithetic)
        smoothing = fejer_smoothing(self.ORDER, self.GRID)
        diff = candidate_solution(xi, t, x, cfg, smoothing)
        modulus = candidate_solution(_smoothing_modulus(smoothing), t, x, cfg)
        extensions, smoothed = seen

        def direct(vals):
            return np.stack([fejer_smooth(GridPath(self.GRID, v), self.ORDER).values
                             for v in vals])

        assert np.max(np.abs(smoothed - direct(extensions))) <= 1e-12

        def difference(vals):
            return (_PRODUCT_MAX.evaluate_batch(vals, self.GRID)
                    - _PRODUCT_MAX.evaluate_batch(direct(vals), self.GRID))

        def sup_gap(vals):
            return np.max(np.linalg.norm(vals - direct(vals), axis=-1), axis=1)

        for est, sample in ((diff, difference), (modulus, sup_gap)):
            mean, stderr, _ = _lstsq_fit(_PRODUCT_MAX, t, x, cfg, sample)
            assert est.mean == pytest.approx(mean, abs=1e-12)
            if t < 1.0:
                # at T every sample is the same: the stderr is the RSS floor
                assert est.stderr == pytest.approx(stderr, abs=1e-12)

    def test_checks_read_the_difference(self):
        x = GridPath.zero(self.GRID)
        cfg = MCConfig(n_samples=16, seed=3)
        smoothing = fejer_smoothing(self.ORDER, self.GRID)
        # a constant 1 under a declared bound of 0.4: u escapes it, and the
        # difference, 0, stays inside 2 * 0.4
        one = solver.TerminalFunctional(name="one", batch=lambda v, g: np.ones(len(v)),
                                        bound=0.4)
        with pytest.raises(NumericError, match="declared bound"):
            candidate_solution(one, 0.0, x, cfg)
        diff = candidate_solution(one, 0.0, x, cfg, smoothing)
        assert diff.mean == 0.0
        # xi infinite on the extensions of x, which are 0 up to t = 0.375,
        # and finite on their smoothings
        rough = solver.TerminalFunctional(
            name="rough",
            batch=lambda v, g: np.where(np.all(v[:, :7, 0] == 0.0, axis=1), np.inf, 0.0))
        with pytest.raises(NumericError, match="non-finite at sample 0 of path 0"):
            candidate_solution(rough, 0.375, x, cfg, smoothing)

    def test_modulus_bounds_the_lipschitz_difference(self):
        # |xi(Y) - xi(F_n Y)| <= ||Y - F_n Y||_inf pathwise for running_max
        grid = TimeGrid(1.0, 50)
        xi = build_terminal("running_max", grid)
        assert xi.lipschitz == 1.0
        x, cfg = make_brownian(grid, seed=4), MCConfig(n_samples=400, seed=2)
        smoothing = fejer_smoothing(4, grid)
        diff = candidate_solution(xi, 0.3, x, cfg, smoothing)
        modulus = candidate_solution(_smoothing_modulus(smoothing), 0.3, x, cfg)
        assert modulus.stderr > 0
        assert abs(diff.mean) <= modulus.mean + 4 * modulus.stderr


class TestWorkingMemory:
    """candidate_solution's chunks are sized by a float budget: memory stays
    bounded in the grid size, and the partition moves the fit by rounding
    only."""

    @pytest.mark.parametrize("n_paths", [1, 3])
    def test_peak_bounded_in_grid_size(self, n_paths):
        # at the same n, ten times the steps takes at most 1.5 times the peak
        # (ten times with one chunk of all n samples)
        cfg = MCConfig(n_samples=400, seed=5)
        peaks = []
        for steps in (500, 5000):
            grid = TimeGrid(1.0, steps)
            xi = build_terminal("running_max", grid)
            paths = [make_brownian(grid, seed=s) for s in range(n_paths)]
            x = paths[0] if n_paths == 1 else paths
            smoothing = None if n_paths == 1 else fejer_smoothing(4, grid)
            peaks.append(traced_peak(
                lambda: candidate_solution(xi, 0.0, x, cfg, smoothing)))
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_budget_chunks_match_one_chunk(self, antithetic, monkeypatch):
        grid = TimeGrid(1.0, 1000)
        xi = build_terminal("running_max", grid)
        x = make_brownian(grid, seed=6)
        cfg = MCConfig(n_samples=600, seed=8, antithetic=antithetic)
        monkeypatch.setattr(solver, "_WALK_FLOATS", 10 ** 9)
        whole = candidate_solution(xi, 0.0, x, cfg)
        # chunks of 200 samples: three of them
        monkeypatch.setattr(solver, "_WALK_FLOATS", 200 * (grid.steps + 1))
        chunked = candidate_solution(xi, 0.0, x, cfg)
        assert chunked.mean == pytest.approx(whole.mean, rel=0, abs=1e-12)
        assert chunked.stderr == pytest.approx(whole.stderr, rel=0, abs=1e-12)


def _residual_reference(spec, t, x, config):
    """Reference heat-operator residual, written out step by step: the value
    at t from the derivative call, then a central difference in time
    (h = 1e-5 T), forward where t - h < 0 and second-order backward where
    t + h > T, with the branches tested in the opposite order."""
    z = cylinder_coordinates(spec, t, [x])

    def solve(tt, derivatives):
        sol = finite_dim_solution(spec, tt, z, config, dimension=x.dimension,
                                  derivatives=derivatives, horizon=x.horizon)
        if derivatives:
            return float(sol.value[0]), sol.gradient[0], sol.hessian[0]
        return float(sol.value[0])

    value, gradient, hessian = solve(t, True)
    h = 1e-5 * x.horizon
    if t + h <= x.horizon:
        vp = solve(t + h, False)
        if t - h >= 0:
            dt_est = (vp - solve(t - h, False)) / (2 * h)
        else:
            dt_est = (vp - value) / h
    else:
        vm1 = solve(t - h, False)
        vm2 = solve(t - 2 * h, False)
        dt_est = (3.0 * value - 4.0 * vm1 + vm2) / (2 * h)
    sigma = cylinder_sigma(spec, t, x.dimension)
    return PathwiseDerivs(horizontal=dt_est,
                          vertical=sigma.T @ gradient,
                          vertical2=sigma.T @ hessian @ sigma).heat_operator()


def _coupled_spec():
    """Three weights at d = 2, so 6 coordinates, all coupled by g(z) =
    sin(a . z) + exp(c . z / 10)."""
    a = np.array([0.9, -0.4, 0.7, 0.3, -1.1, 0.5])
    c = np.array([0.2, 1.0, -0.6, 0.8, 0.1, -0.3])

    def g(zs):
        return np.sin(zs @ a) + np.exp(zs @ c / 10)

    def gradient(zs):
        return np.cos(zs @ a)[:, None] * a + (np.exp(zs @ c / 10) / 10)[:, None] * c

    def hessian(zs):
        return (-np.sin(zs @ a)[:, None, None] * np.outer(a, a)
                + (np.exp(zs @ c / 10) / 100)[:, None, None] * np.outer(c, c))

    return CylinderSpec(g=g, gradient=gradient, hessian=hessian,
                        psi=[lambda s: 1.0, lambda s: np.cos(np.pi * s),
                             lambda s: np.asarray(s, float) ** 2],
                        name="coupled")


class TestCylinderTerminals:
    @pytest.mark.parametrize("name", CYLINDERS)
    def test_batch_is_g_of_per_path_coordinates(self, name):
        # one by-parts kernel serves both: bit for bit on every path
        grid = TimeGrid(1.0, 200)
        xi = build_terminal(name, grid)
        values = extend_with_increments(
            0.0, GridPath.zero(grid),
            sample_increments(grid, 0, 1, 12, np.arange(200)))
        rows = np.concatenate([cylinder_coordinates(xi.cylinder, 1.0,
                                                    [GridPath(grid, v)])
                               for v in values])
        assert np.array_equal(xi.evaluate_batch(values, grid), xi.cylinder.g(rows))


class TestPairIntegrals:
    @pytest.mark.parametrize("name", CYLINDERS + ["fejer4"])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.95])
    def test_matches_adaptive_quadrature(self, name, t):
        grid = TimeGrid(1.0, 64)
        spec = (cylinder_approx(build_terminal("running_max", grid).batch, 4, grid)
                if name == "fejer4" else build_terminal(name, grid).cylinder)
        pair = solver._pair_integrals(spec, t, grid.horizon)
        n = spec.n_factors
        assert pair.shape == (n, n)
        for i in range(n):
            for j in range(i, n):
                ref, _ = quad(lambda s: float(np.prod(
                    weights_at((spec.psi[i], spec.psi[j]), np.asarray([s])))),
                    t, grid.horizon, epsabs=1e-13, epsrel=1e-13, limit=200)
                assert abs(pair[i, j] - ref) <= 1e-12
                assert abs(pair[j, i] - ref) <= 1e-12

    def test_empty_interval_is_zero(self):
        spec = build_terminal("cyl:trig2", TimeGrid(1.0, 8)).cylinder
        assert np.array_equal(solver._pair_integrals(spec, 1.0, 1.0), np.zeros((2, 2)))


class TestFactorSolution:
    @pytest.mark.parametrize("name", CYLINDERS)
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7])
    def test_matches_monte_carlo_solution(self, name, t):
        grid = TimeGrid(1.0, 200)
        x = make_brownian(grid, seed=11)
        xi = build_terminal(name, grid)
        sol = finite_dim_solution(xi.cylinder, t,
                                  cylinder_coordinates(xi.cylinder, t, [x]),
                                  derivatives=False)
        est = candidate_solution(xi, t, x, MCConfig(n_samples=20_000, seed=5))
        assert est.stderr > 0
        assert abs(sol.value[0] - est.mean) <= 4 * est.stderr

    @pytest.mark.parametrize("name", CYLINDERS + ["fejer"])
    def test_value_only_equals_value_with_derivatives(self, name):
        grid = TimeGrid(1.0, 50)
        paths = [make_brownian(grid, seed=s) for s in (2, 3, 4)]
        config = QuadratureConfig()
        if name == "fejer":
            # a Monte-Carlo rule; a Fejer spec has no derivative
            # evaluators, so zero ones stand in for the full call
            spec = replace(cylinder_approx(build_terminal("running_max", grid).batch,
                                           3, grid),
                           gradient=np.zeros_like,
                           hessian=lambda zs: np.zeros(zs.shape + zs.shape[1:]))
            config = QuadratureConfig(z_rule="monte-carlo", z_samples=64, z_seed=3)
        else:
            spec = build_terminal(name, grid).cylinder
        for t in (0.0, 0.3, 1.0 - 1e-5, 1.0):
            # the coordinates at t's nearest node, the factor engine at t
            z = cylinder_coordinates(spec, grid.node(nearest_index(grid, t)), paths)
            full = finite_dim_solution(spec, t, z, config)
            value_only = finite_dim_solution(spec, t, z, config, derivatives=False)
            assert np.array_equal(value_only.value, full.value)
            assert np.array_equal(value_only.value_stderr, full.value_stderr)
            assert value_only.gradient is None and value_only.hessian is None
            n, m = z.shape
            assert full.value.shape == full.value_stderr.shape == (n,)
            assert full.gradient.shape == (n, m)
            assert full.hessian.shape == (n, m, m)

    @pytest.mark.parametrize("name", ["cyl:trig2", "fejer"])
    def test_rows_equal_rows_one_at_a_time(self, name):
        grid = TimeGrid(1.0, 50)
        paths = [make_brownian(grid, seed=s) for s in range(4)]
        config = QuadratureConfig()
        if name == "fejer":
            spec = cylinder_approx(build_terminal("running_max", grid).batch,
                                   3, grid)
            config = QuadratureConfig(z_rule="monte-carlo", z_samples=64, z_seed=3)
        else:
            spec = build_terminal(name, grid).cylinder
        for t in (0.0, 0.3, 1.0):
            rows = cylinder_coordinates(spec, t, paths)
            sol = finite_dim_solution(spec, t, rows, config, derivatives=False)
            assert sol.value.shape == sol.value_stderr.shape == (len(paths),)
            assert sol.gradient is None and sol.hessian is None
            for i, z in enumerate(rows):
                one = finite_dim_solution(spec, t, z[None], config,
                                          derivatives=False)
                assert sol.value[i] == one.value[0]
                assert sol.value_stderr[i] == one.value_stderr[0]

    def test_rows_and_paths_equal_each_alone(self):
        # m = 6 at d = 2 takes the Monte-Carlo rule; t = 0 takes the forward
        # time quotient, 0.3 the central and the last node of 2^17 steps,
        # within h = 1e-5 T of T, the backward one
        spec = _coupled_spec()
        config = QuadratureConfig(z_rule="monte-carlo", z_samples=64, z_seed=3)
        for steps, t in ((40, 0.0), (40, 0.3), (2**17, 1.0 - 2.0**-17)):
            grid = TimeGrid(1.0, steps)
            paths = [make_brownian(grid, seed=s, dimension=2) for s in range(5)]
            rows = cylinder_coordinates(spec, t, paths)
            assert rows.shape == (5, 6)
            sol = finite_dim_solution(spec, t, rows, config, dimension=2)
            derivs = cylinder_pathwise_derivs(spec, t, paths, config)
            res = pde_residual(spec, t, paths, config)
            assert derivs.horizontal.shape == res.shape == (5,)
            assert derivs.vertical.shape == (5, 2)
            assert derivs.vertical2.shape == (5, 2, 2)
            for i, x in enumerate(paths):
                one = finite_dim_solution(spec, t, rows[i:i + 1], config,
                                          dimension=2)
                for field in ("value", "value_stderr", "gradient", "hessian"):
                    assert np.array_equal(getattr(sol, field)[i],
                                          getattr(one, field)[0])
                alone = cylinder_pathwise_derivs(spec, t, [x], config)
                assert derivs.horizontal[i] == alone.horizontal[0]
                assert np.array_equal(derivs.vertical[i], alone.vertical[0])
                assert np.array_equal(derivs.vertical2[i], alone.vertical2[0])
                assert res[i] == pde_residual(spec, t, [x], config)[0]

    def test_rows_evaluate_g_one_row_at_a_time(self):
        # memory stays O(k m): g never sees the nodes of two rows at once
        grid = TimeGrid(1.0, 20)
        seen = []

        def g(zs):
            seen.append(zs.shape)
            return zs[:, 0]

        spec = CylinderSpec(g=g, psi=[np.ones_like] * 5, name="spy")
        config = QuadratureConfig(z_rule="monte-carlo", z_samples=64, z_seed=3)
        rows = np.arange(15.0).reshape(3, 5)
        finite_dim_solution(spec, 0.4, rows, config, derivatives=False)
        assert seen == [(64, 5)] * 3

    def test_z_must_be_coordinate_rows(self):
        spec = build_terminal("cyl:trig2", TimeGrid(1.0, 10)).cylinder
        for derivatives in (True, False):
            for z in (np.zeros(2), np.zeros((1, 2, 2))):
                with pytest.raises(DomainError, match="coordinate rows"):
                    finite_dim_solution(spec, 0.3, z, derivatives=derivatives)

    @pytest.mark.parametrize("name", CYLINDERS)
    def test_pde_residual_equals_reference_difference(self, name):
        config = QuadratureConfig()
        # t = 0 takes the forward form, the last node of 2^17 steps, within
        # h = 1e-5 T of T, the backward one
        for steps, t in ((100, 0.0), (100, 0.37), (100, 0.99),
                         (2**17, 1.0 - 2.0**-17)):
            grid = TimeGrid(1.0, steps)
            x = make_brownian(grid, seed=7)
            spec = build_terminal(name, grid).cylinder
            res = pde_residual(spec, t, [x], config)
            assert res.shape == (1,)
            assert res[0] == _residual_reference(spec, t, x, config)
            assert abs(res[0]) < 1e-3

    @pytest.mark.parametrize("name", ["cyl:exponential", "cyl:trig2"])
    def test_jumped_derivatives_match_fd(self, name):
        # a present value y moves the coordinates by sigma(t) (y - x(t)), a
        # jump at the current time; at y = x(t) the jump is zero
        grid = TimeGrid(1.0, 100)
        x = make_brownian(grid, seed=9)
        spec = build_terminal(name, grid).cylinder

        def jumped(t, x, y, derivatives=False):
            sigma = cylinder_sigma(spec, t, x.dimension)
            jump = np.atleast_1d(np.asarray(y, float)) - value_at(x, t)
            # the coordinates at t's nearest node: the horizontal quotient
            # reads t + delta between nodes
            node = grid.node(nearest_index(grid, t))
            z = cylinder_coordinates(spec, node, [x]) + sigma @ jump
            sol = finite_dim_solution(spec, t, z, derivatives=derivatives)
            if not derivatives:
                return float(sol.value[0])
            return (sigma.T @ sol.gradient[0],
                    sigma.T @ sol.hessian[0] @ sigma)

        for t in (0.3, 0.6):
            exact = cylinder_pathwise_derivs(spec, t, [x])
            at_path = PathwiseDerivs(exact.horizontal[0],
                                     *jumped(t, x, value_at(x, t), True))
            assert np.array_equal(at_path.vertical, exact.vertical[0])
            assert np.array_equal(at_path.vertical2, exact.vertical2[0])
            y = value_at(x, t) + 0.2
            fd = fd_pathwise_derivs(jumped, t, x, y=y)
            vertical, vertical2 = jumped(t, x, y, True)
            assert fd.horizontal == pytest.approx(exact.horizontal[0], abs=1e-3)
            assert np.allclose(fd.vertical, vertical, atol=1e-6)
            assert np.allclose(fd.vertical2, vertical2, atol=1e-5)

    def test_monte_carlo_stderr_from_pair_means(self):
        # g is linear in z, so every antithetic pair averages to g(z)
        spec = build_terminal("cyl:linear", TimeGrid(1.0, 10)).cylinder
        config = QuadratureConfig(z_rule="monte-carlo", z_samples=1000, z_seed=4)
        sol = finite_dim_solution(spec, 0.2, np.array([[0.3]]), config)
        assert sol.value[0] == pytest.approx(0.3, abs=1e-14)
        assert sol.value_stderr[0] < 1e-15

    def test_monte_carlo_stderr_covers_error(self):
        # over many rule seeds the errors, in units of the reported stderr,
        # must have unit spread; the Gauss-Hermite value is the reference
        spec = build_terminal("cyl:trig2", TimeGrid(1.0, 10)).cylinder
        z = np.array([[0.7, -0.4]])
        exact = finite_dim_solution(spec, 0.3, z, derivatives=False).value[0]
        scores = []
        for seed in range(200):
            config = QuadratureConfig(z_rule="monte-carlo", z_samples=200,
                                      z_seed=seed)
            sol = finite_dim_solution(spec, 0.3, z, config, derivatives=False)
            scores.append((sol.value[0] - exact) / sol.value_stderr[0])
        assert 0.9 < np.std(scores) < 1.15

    def test_monte_carlo_rule_needs_two_pairs(self):
        spec = build_terminal("cyl:linear", TimeGrid(1.0, 10)).cylinder
        with pytest.raises(DomainError, match="two antithetic pairs"):
            finite_dim_solution(spec, 0.2, np.array([[0.3]]),
                                QuadratureConfig(z_rule="monte-carlo", z_samples=3))

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_monte_carlo_count_is_even_and_two_pairs(self, samples):
        with pytest.raises(DomainError, match="two antithetic pairs"):
            QuadratureConfig(z_samples=samples)
        with pytest.raises(DomainError, match="two antithetic pairs"):
            monte_carlo_gaussian_rule(1, samples, 0)
        assert monte_carlo_gaussian_rule(1, 4, 0)[0].shape == (4, 1)

    def test_forced_exact_rule_only_where_allowed(self):
        config = QuadratureConfig(z_rule="exact")
        assert config.resolve_z(1) == "exact"
        for dimension, allow_exact in [(2, True), (1, False)]:
            with pytest.raises(DomainError, match="'exact'"):
                config.resolve_z(dimension, allow_exact)

    def test_time_outside_horizon_rejected(self):
        spec = build_terminal("cyl:trig2", TimeGrid(1.0, 10)).cylinder
        z = np.array([[0.3, -0.2]])
        for t in (-1e-3, -1e-13, 1.5):
            with pytest.raises(DomainError):
                finite_dim_solution(spec, t, z)

    @pytest.mark.parametrize("name", CYLINDERS)
    def test_batched_derivatives_equal_per_node_loop(self, name):
        grid = TimeGrid(1.0, 100)
        x = make_brownian(grid, seed=4)
        spec = build_terminal(name, grid).cylinder
        config = QuadratureConfig()
        for t in (0.0, 0.45):
            z = cylinder_coordinates(spec, t, [x])[0]
            sol = finite_dim_solution(spec, t, z[None], config)
            u, weights = gaussian_rule(config, z.size, allow_exact=False,
                                       gh_max_dim=3)
            pts = z + u @ solver._factor_matrix(spec, t, 1.0, 1).T
            grad = np.zeros(z.size)
            hess = np.zeros((z.size, z.size))
            for w, p in zip(weights, pts):
                grad += w * spec.gradient(p[None])[0]
                hess += w * spec.hessian(p[None])[0]
            assert np.allclose(sol.gradient[0], grad, rtol=0.0, atol=1e-14)
            assert np.allclose(sol.hessian[0], hess, rtol=0.0, atol=1e-14)

    def test_scalar_style_evaluators_rejected(self):
        one = lambda s: 1.0
        spec = CylinderSpec(g=lambda z: float(z[0]), psi=[one], name="scalar")
        for t in (0.5, 1.0):
            with pytest.raises(ContractError, match="'scalar' g"):
                finite_dim_solution(spec, t, np.array([[0.1]]), derivatives=False)
        spec = CylinderSpec(g=lambda zs: zs[:, 0], psi=[one], name="flat",
                            gradient=lambda zs: np.ones(len(zs)),
                            hessian=lambda zs: np.zeros((len(zs), 1, 1)))
        with pytest.raises(ContractError, match=r"'flat' gradient returned "
                                                r"shape \(\d+,\)"):
            finite_dim_solution(spec, 0.5, np.array([[0.1]]))
        spec = replace(spec, gradient=np.ones_like,
                       hessian=lambda zs: np.zeros((len(zs), 1)))
        with pytest.raises(ContractError, match="'flat' hessian"):
            finite_dim_solution(spec, 0.5, np.array([[0.1]]))

    def test_terminal_batch_shape_checked(self):
        grid = TimeGrid(1.0, 8)
        values = extend_with_increments(
            0.0, GridPath.zero(grid),
            sample_increments(grid, 0, 1, 3, np.arange(4)))
        xi = solver.TerminalFunctional(name="column", batch=lambda v, g: v[:, -1])
        with pytest.raises(ContractError, match=r"'column' returned shape \(4, 1\)"):
            xi.evaluate_batch(values, grid)

    def test_derivatives_need_t_before_horizon(self):
        grid = TimeGrid(1.0, 10)
        spec = build_terminal("cyl:quadratic", grid).cylinder
        with pytest.raises(DomainError):
            pde_residual(spec, 1.0, [make_brownian(grid, seed=1)])

import math

import numpy as np
import pytest

from pathheat.errors import DomainError
from pathheat.grids import GridPath, TimeGrid, brownian_increments
from pathheat.solver import (MCConfig, MCEstimate, build_terminal,
                             candidate_solution, flow_residual,
                             running_max_exact_solution, sample_increments)
from pathheat.streams import StreamKind, sample_stream, substream


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
        merged = MCEstimate.merge(parts)
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

    def test_running_max_exact_matches_continuum(self):
        # E sup_{[0,1]} W = sqrt(2/pi), however coarse the grid
        grid = TimeGrid(1.0, 16)
        est = running_max_exact_solution(0.0, GridPath.zero(grid),
                                         MCConfig(n_samples=4000, seed=2))
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 4 * est.stderr

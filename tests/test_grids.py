import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathheat.errors import DomainError
from pathheat.grids import (GridPath, PathPoint, SemimartingaleSpec, TimeGrid,
                            brownian_increments, euler_paths,
                            extend_with_increments, path_distance,
                            read_path_csv)
from pathheat.solver import sample_increments
from pathheat.streams import sample_stream

from conftest import make_brownian, nearest_index, stop_path, write_path_csv


class TestStopPath:
    def test_constant_path_fixed(self, grid100):
        c = GridPath.constant(grid100, 0.7)
        for t in (0.0, 0.31, 1.0):
            assert np.array_equal(stop_path(c, t).values, c.values)

    def test_identity_ramp(self, grid100):
        x = GridPath.from_function(grid100, lambda t: t)
        stopped = stop_path(x, 0.5)
        expect = np.minimum(grid100.nodes(), 0.5)
        assert np.allclose(stopped.values[:, 0], expect)

    def test_stop_at_zero(self, sine_path):
        stopped = stop_path(sine_path, 0.0)
        assert np.allclose(stopped.values, sine_path.values[0])

    def test_idempotent(self, sine_path):
        once = stop_path(sine_path, 0.4)
        assert np.array_equal(stop_path(once, 0.4).values, once.values)

    @given(t1=st.floats(0, 1), t2=st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_composition_is_min(self, t1, t2):
        grid = TimeGrid(1.0, 16)
        x = make_brownian(grid, seed=5)
        left = stop_path(stop_path(x, t1), t2)
        right = stop_path(x, min(grid.node(nearest_index(grid, t1)),
                                 grid.node(nearest_index(grid, t2))))
        assert np.array_equal(left.values, right.values)

    def test_out_of_domain(self, sine_path):
        with pytest.raises(DomainError):
            stop_path(sine_path, 1.5)


class TestPathPoint:
    def test_off_grid_time_names_the_nearest_node(self):
        x = GridPath.zero(TimeGrid(1.0, 10))
        with pytest.raises(DomainError, match="the nearest node is 0.3$"):
            PathPoint(0.3333, x)

    def test_time_within_tolerance_is_the_node(self):
        x = GridPath.zero(TimeGrid(1.0, 10))
        p = PathPoint(0.3000000000001, x)
        assert p.t == 0.3 and p.node_index == 3


class TestPathDistance:
    def test_diagonal(self, sine_path):
        p = PathPoint(0.3, sine_path)
        assert path_distance(p, p) == 0.0

    def test_pure_time_separation(self, grid100):
        z = GridPath.zero(grid100)
        assert path_distance(PathPoint(0.0, z), PathPoint(1.0, z)) == 1.0

    def test_constant_paths(self, grid100):
        a = GridPath.constant(grid100, 1.25)
        b = GridPath.constant(grid100, -0.5)
        assert np.isclose(path_distance(PathPoint(0.4, a), PathPoint(0.4, b)), 1.75)

    def test_symmetry_and_triangle(self, grid64):
        pts = [PathPoint(t, make_brownian(grid64, seed=s))
               for s, t in [(1, 13 / 64), (2, 51 / 64), (3, 0.5)]]
        d01 = path_distance(pts[0], pts[1])
        assert d01 == path_distance(pts[1], pts[0])
        d02 = path_distance(pts[0], pts[2])
        d12 = path_distance(pts[1], pts[2])
        assert d01 <= d02 + d12 + 1e-15

    def test_insensitive_to_future(self, grid100):
        # distance only sees the stopped representatives
        x = make_brownian(grid100, seed=9)
        p = PathPoint(0.5, x)
        q = PathPoint(0.5, stop_path(x, 0.5))
        assert path_distance(p, q) == 0.0

    def test_dimension_mismatch(self, grid100):
        a = PathPoint(0.1, GridPath.zero(grid100, 1))
        b = PathPoint(0.1, GridPath.zero(grid100, 2))
        with pytest.raises(DomainError):
            path_distance(a, b)


def extension_sample(t, x, seed, stream_index=0):
    """Sample ``stream_index`` of the Brownian extension of x from t."""
    k = x.grid.index_of(t)
    dw = sample_increments(x.grid, k, x.dimension, seed, [stream_index])
    return GridPath(x.grid, extend_with_increments(t, x, dw)[0])


def euler_sample(spec, grid, seed, stream_index=0):
    return euler_paths(spec, grid, sample_increments(
        grid, 0, spec.dimension, seed, [stream_index]))[0]


class TestBrownianExtension:
    def test_past_preserved_exactly(self, sine_path):
        w = extension_sample(0.37, sine_path, seed=4)
        k = sine_path.grid.index_of(0.37)
        assert np.array_equal(w.values[: k + 1], sine_path.values[: k + 1])

    def test_extension_at_horizon_is_identity(self, sine_path):
        w = extension_sample(1.0, sine_path, seed=4)
        assert np.array_equal(w.values, sine_path.values)

    def test_marginal_variance(self, grid100):
        # var of W_s - x(t) at s > t is s - t per coordinate
        x = GridPath.zero(grid100)
        n = 10_000
        t, s_idx = 0.3, 80
        dw = sample_increments(grid100, grid100.index_of(t), 1, 77, np.arange(n))
        vals = extend_with_increments(t, x, dw)[:, s_idx, 0]
        target = grid100.node(s_idx) - t
        var = np.var(vals, ddof=1)
        stderr = var * math.sqrt(2.0 / (n - 1))
        assert abs(var - target) <= 3 * stderr

    def test_flow_identity_same_noise(self, grid100):
        # re-extending from a later time with the same driving increments
        # reproduces the original sample
        x = GridPath.from_function(grid100, lambda t: np.cos(t))
        k, kp = 20, 60
        rng = sample_stream(123, 0)
        dw = brownian_increments(grid100, k, 1, rng)
        w = GridPath(grid100, extend_with_increments(grid100.node(k), x, dw))
        w2 = extend_with_increments(grid100.node(kp), w, dw[kp - k:])
        assert np.allclose(w.values, w2, atol=1e-14)

    def test_batched_draw_equals_consecutive_draws(self, grid64):
        batch = brownian_increments(grid64, 10, 2, sample_stream(8, 0), n=3)
        rng = sample_stream(8, 0)
        singles = [brownian_increments(grid64, 10, 2, rng) for _ in range(3)]
        assert np.array_equal(batch, np.stack(singles))

    def test_nonanticipative_in_input(self, grid100):
        # two inputs agreeing up to t give identical samples
        x = make_brownian(grid100, seed=1)
        y_vals = x.values.copy()
        y_vals[61:] += 5.0
        y = GridPath(grid100, y_vals)
        wx = extension_sample(0.6, x, seed=5)
        wy = extension_sample(0.6, y, seed=5)
        assert np.array_equal(wx.values, wy.values)


class TestSemimartingale:
    def test_deterministic_line(self, grid100):
        spec = SemimartingaleSpec(
            drift=lambda t, s: np.full_like(s, 0.8),
            volatility=lambda t, s: np.zeros((1, 1)),
            initial=np.array([0.2]))
        x = euler_sample(spec, grid100, seed=0)
        assert np.allclose(x[:, 0], 0.2 + 0.8 * grid100.nodes())

    def test_constant_when_frozen(self, grid100):
        spec = SemimartingaleSpec(
            drift=lambda t, s: np.zeros_like(s),
            volatility=lambda t, s: np.zeros((1, 1)),
            initial=np.array([1.5]))
        x = euler_sample(spec, grid100, seed=0)
        assert np.allclose(x, 1.5)

    def test_brownian_terminal_variance(self, grid100):
        spec = SemimartingaleSpec(
            drift=lambda t, s: np.zeros_like(s),
            volatility=lambda t, s: np.eye(1),
            initial=np.array([0.0]))
        vals = euler_paths(spec, grid100,
                           sample_increments(grid100, 0, 1, 3, np.arange(10_000)))
        term = vals[:, -1, 0]
        var = np.var(term, ddof=1)
        stderr = var * math.sqrt(2.0 / (len(term) - 1))
        assert abs(var - 1.0) <= 3 * stderr

    def test_reproducible_and_partition_independent(self, grid64):
        spec = SemimartingaleSpec(
            drift=lambda t, s: -s,
            volatility=lambda t, s: np.eye(1),
            initial=np.array([0.3]))
        ens = euler_paths(spec, grid64, sample_increments(grid64, 0, 1, 11, np.arange(8)))
        # sample i alone must equal row i of the ensemble, bit for bit
        for i in (0, 3, 7):
            single = euler_sample(spec, grid64, seed=11, stream_index=i)
            assert np.array_equal(single, ens[i])


class TestCsvRoundTrip:
    def test_round_trip_exact(self, grid64):
        x = make_brownian(grid64, seed=21, dimension=2)
        buf = io.StringIO()
        write_path_csv(x, buf)
        buf.seek(0)
        header = buf.readline().strip()
        assert header == "t,x1,x2"
        buf.seek(0)
        y = read_path_csv(buf)
        assert y.grid == x.grid
        assert np.array_equal(y.values, x.values)

    def test_rejects_bad_header(self):
        with pytest.raises(DomainError):
            read_path_csv(io.StringIO("a,b\n0,1\n"))

    def test_rejects_times_not_starting_at_zero(self):
        # a uniform grid on [0.5, 1.5] is not a grid on [0, 1.5]
        with pytest.raises(DomainError, match="must start at 0, not 0.5"):
            read_path_csv(io.StringIO("t,x1\n0.5,0\n1,0.25\n1.5,0.5\n"))

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "nan,0"])
    def test_rejects_non_finite_values(self, row):
        with pytest.raises(DomainError, match="non-finite value in data row 2"):
            read_path_csv(io.StringIO(f"t,x1\n0,0\n{row}\n1,1\n"))

    @pytest.mark.parametrize("text,message", [
        ("t,x1\n0,0\n0.5,1,2\n1,1\n", "data row 2 has 3 values, not the header's 2"),
        ("t,x1,x2\n0,0\n1,1\n", "data row 1 has 2 values, not the header's 3"),
        ("t,x1\n0,0\n0.5,a\n1,1\n", "data row 2 holds a value that is not a number"),
        ("t,x1\n0,0\n# a comment line\n0.5,\n1,1\n",
         "data row 2 holds a value that is not a number"),
    ])
    def test_rejects_a_bad_row_by_its_number(self, text, message):
        with pytest.raises(DomainError, match=message):
            read_path_csv(io.StringIO(text))

    def test_trailing_comment_is_not_a_value(self):
        y = read_path_csv(io.StringIO("t,x1\n0,0 # start, x1\n1,0.5 # end\n"))
        assert y.values.tolist() == [[0.0], [0.5]]

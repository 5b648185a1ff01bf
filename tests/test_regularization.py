import math

import numpy as np
import pytest

from pathheat.errors import ResolutionError
from pathheat.grids import GridPath, TimeGrid
from pathheat.regularization import (by_parts, forward_integral,
                                     forward_integral_limit, mutual_bracket,
                                     weights_at)

from conftest import make_brownian

ONE = np.ones_like


class TestForwardIntegral:
    def test_unit_integrand_gives_terminal_value(self, grid100, sine_path):
        out = forward_integral(ONE, sine_path, 1.0)
        assert np.allclose(out, sine_path.values[-1])

    def test_by_parts_closed_form(self, grid100):
        # g(s)=s against f(s)=s on [0,1]: 1*1 - int_0^1 s ds = 0.5
        f = GridPath.from_function(grid100, lambda t: t)
        g = lambda s: np.asarray(s, float)
        assert np.isclose(forward_integral(g, f, 1.0)[0], 0.5, atol=1e-14)

    def test_constant_path_initial_atom(self, grid100):
        c = GridPath.constant(grid100, -2.3)
        assert np.isclose(forward_integral(ONE, c, 1.0)[0], -2.3)

    def test_nonanticipative_in_path(self, grid100):
        x = make_brownian(grid100, seed=2)
        y = GridPath(grid100, x.values + (grid100.nodes() > 0.5)[:, None])
        g = lambda s: np.cos(3 * np.asarray(s, float))
        a = forward_integral(g, x, 0.5)
        b = forward_integral(g, y, 0.5)
        assert np.allclose(a, b)


class TestByPartsKernel:
    @pytest.mark.parametrize("d", [1, 2])
    def test_stack_equals_per_path_rows(self, d):
        grid = TimeGrid(1.0, 200)
        fns = [ONE, lambda s: np.cos(3 * s), lambda s: s ** 2 - 0.3]
        stack = np.stack([make_brownian(grid, seed=s, dimension=d).values
                          for s in range(20)])
        rows = by_parts(weights_at(fns, grid.nodes()), stack)
        assert rows.shape == (20, 3, d)
        for values, row in zip(stack, rows):
            path = GridPath(grid, values)
            for fn, z in zip(fns, row):
                assert np.array_equal(z, forward_integral(fn, path, 1.0))


class TestForwardIntegralLimit:
    def test_unit_integrand_exact_any_eps(self, grid100, sine_path):
        # telescoping makes the regularized form exact for g == 1
        for eps in (0.01, 0.05, 0.2):
            out = forward_integral_limit(ONE, sine_path, 1.0, eps)
            assert np.allclose(out, sine_path.values[-1], atol=1e-12)

    def test_constant_path_converges_to_value(self, grid100):
        c = GridPath.constant(grid100, 1.7)
        out = forward_integral_limit(ONE, c, 1.0, 0.03)
        assert np.isclose(out[0], 1.7, atol=1e-12)

    def test_linear_agreement_sweep(self, grid100):
        # |limit form - by parts| <= C eps for smooth g, decreasing in eps
        rng = np.random.default_rng(8)
        f = GridPath(grid100, np.cumsum(
            np.vstack([[0.0], rng.standard_normal((100, 1)) * 0.1]), axis=0))
        g = lambda s: np.sin(2 * np.asarray(s, float)) + 1.5
        exact = forward_integral(g, f, 1.0)
        errs = []
        for eps in (0.32, 0.16, 0.08, 0.04, 0.02):
            approx = forward_integral_limit(g, f, 1.0, eps)
            errs.append(abs(approx[0] - exact[0]))
        assert errs[-1] <= errs[0]
        assert errs[-1] <= 0.05 * errs[0] / 0.32 * 2 + 1e-9  # ~ C * eps

    def test_eps_below_resolution(self, sine_path):
        with pytest.raises(ResolutionError):
            forward_integral_limit(ONE, sine_path, 1.0, 1e-4)


class TestMutualBracket:
    def test_smooth_path_vanishing_bracket(self):
        # for C^1 paths the bracket decays linearly in eps: ~ eps * int x'^2
        grid = TimeGrid(1.0, 1000)
        x = GridPath.from_function(grid, lambda t: np.sin(2 * np.pi * t))
        vals = [mutual_bracket(x, x, eps).terminal()
                for eps in (0.1, 0.01, 0.001)]
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 0.05
        assert vals[1] / vals[2] == pytest.approx(10.0, rel=0.2)

    def test_brownian_quadratic_variation(self):
        # interpolation removes sub-grid variation: the estimator's mean is
        # T (1 - 1/(3 m)) with eps = m dt; account for that bias exactly
        grid = TimeGrid(1.0, 1024)
        m = 64
        eps = m * grid.dt
        vals = [mutual_bracket(p, p, eps).terminal()
                for p in (make_brownian(grid, seed=s) for s in range(300))]
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
        target = 1.0 * (1.0 - 1.0 / (3 * m))
        assert abs(mean - target) <= 3 * stderr

    def test_independent_components_cross_bracket(self):
        grid = TimeGrid(1.0, 512)
        vals = []
        for s in range(300):
            x = make_brownian(grid, seed=1000 + s, dimension=2)
            vals.append(mutual_bracket(x.component(0), x.component(1),
                                       16 * grid.dt).terminal())
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean) <= 3 * stderr

    def test_symmetric_and_bilinear(self, grid100):
        a = make_brownian(grid100, seed=3)
        b = make_brownian(grid100, seed=4)
        eps = 10 * grid100.dt
        ab = mutual_bracket(a, b, eps).values
        ba = mutual_bracket(b, a, eps).values
        assert np.allclose(ab, ba)
        scaled = mutual_bracket(GridPath(grid100, 2.0 * a.values), b, eps).values
        assert np.allclose(scaled, 2.0 * ab)

    def test_diagonal_nonneg_and_monotone(self, grid100):
        x = make_brownian(grid100, seed=6)
        est = mutual_bracket(x, x, 5 * grid100.dt)
        assert np.all(est.values >= -1e-14)
        assert np.all(np.diff(est.values) >= -1e-14)

    def test_ucp_style_sup_distance_decreases_with_eps(self):
        # with eps well above the grid step, shrinking eps shrinks the sup
        # deviation from t (fluctuation ~ sqrt(eps) dominates the small bias)
        grid = TimeGrid(1.0, 4096)
        nodes = grid.nodes()
        sups = []
        for m in (1024, 256, 64):
            eps = m * grid.dt
            sup_dev = np.mean([
                np.max(np.abs(mutual_bracket(p, p, eps).values - nodes))
                for p in (make_brownian(grid, seed=70 + s) for s in range(20))])
            sups.append(sup_dev)
        assert sups[2] < sups[1] < sups[0]

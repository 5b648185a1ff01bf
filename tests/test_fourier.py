"""The trigonometric basis, the Fejer coefficients and the Fejer smoothing
F_n of :mod:`pathheat.cylinders`.  The F_n properties run on
``fejer_smoothing``; the contraction of the Fejer mean runs on the tests'
oracle ``fejer_mean``."""

import numpy as np
import pytest

from pathheat.cylinders import (basis_primitive, basis_value, fejer_coefficient,
                                fejer_coefficient_quadrature, fejer_smoothing,
                                fejer_weights)
from pathheat.errors import DomainError
from pathheat.grids import GridPath, TimeGrid

from conftest import fejer_mean, make_brownian, sup_norm, terminal_ramp


def smooth(x: GridPath, n: int) -> GridPath:
    """F_n x through the package's :func:`fejer_smoothing`."""
    return GridPath(x.grid, fejer_smoothing(n, x.grid)(x.values))


class TestBasis:
    def test_orthonormality_by_grid_quadrature(self):
        # trapezoid on a fine grid is exact for trig products up to aliasing
        grid = TimeGrid(1.0, 10_000)
        t = grid.nodes()
        funcs = [basis_value(l, 1.0, t) for l in range(33)]
        w = np.full(t.size, grid.dt)
        w[0] = w[-1] = grid.dt / 2
        for i in range(0, 33, 4):
            for j in range(i, 33, 4):
                inner = float(np.sum(w * funcs[i] * funcs[j]))
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8

    def test_primitive_differentiates_to_basis(self):
        h = 1e-6
        t = np.linspace(0.1, 0.9, 7)
        for l in (0, 1, 2, 5, 8):
            fd = (basis_primitive(l, 1.0, t + h)
                  - basis_primitive(l, 1.0, t - h)) / (2 * h)
            assert np.allclose(fd, basis_value(l, 1.0, t), atol=1e-5)

    def test_primitives_have_zero_mean(self):
        grid = TimeGrid(2.0, 4000)
        t = grid.nodes()
        w = np.full(t.size, grid.dt)
        w[0] = w[-1] = grid.dt / 2
        for l in range(6):
            assert abs(np.sum(w * basis_value(l, 2.0, t) * 0 +
                              w * basis_primitive(l, 2.0, t))) < 1e-10


class TestTerminalRamp:
    def test_zero_path(self, grid100):
        z = GridPath.zero(grid100)
        assert np.allclose(terminal_ramp(z).values, 0.0)

    def test_identity_is_fixed_point(self, grid100):
        x = GridPath.from_function(grid100, lambda t: t)
        assert np.allclose(terminal_ramp(x).values, x.values)

    def test_constant_becomes_ramp(self, grid100):
        c = GridPath.constant(grid100, 2.0)
        assert np.allclose(terminal_ramp(c).values[:, 0], 2.0 * grid100.nodes())


class TestFejerCoefficient:
    def test_zero_path_all_zero(self, grid100):
        z = GridPath.zero(grid100)
        for l in range(5):
            assert np.allclose(fejer_coefficient(z, l), 0.0, atol=1e-15)

    def test_negative_index_rejected(self, grid100):
        with pytest.raises(DomainError):
            fejer_coefficient(GridPath.zero(grid100), -1)

    def test_ramp_has_no_coefficients(self, grid100):
        x = GridPath.from_function(grid100, lambda t: 1.3 * t)
        for l in range(5):
            assert abs(fejer_coefficient(x, l)[0]) < 1e-12

    def test_forward_integral_matches_quadrature(self):
        grid = TimeGrid(1.0, 2000)
        x = GridPath.from_function(grid, lambda t: np.sin(2 * np.pi * t))
        for l in (0, 1, 2, 3, 6, 9):
            a = fejer_coefficient(x, l)[0]
            b = fejer_coefficient_quadrature(x, l)[0]
            assert abs(a - b) < 1e-6

    def test_sine_picks_out_its_own_mode(self):
        grid = TimeGrid(1.0, 2000)
        x = GridPath.from_function(grid, lambda t: np.sin(2 * np.pi * t))
        # x - ramp = x; <x, e_1> = 1/sqrt(2) up to the piecewise-linear
        # representation error of the sine, O(dt^2)
        assert fejer_coefficient(x, 1)[0] == pytest.approx(1 / np.sqrt(2), abs=1e-5)
        assert abs(fejer_coefficient(x, 2)[0]) < 1e-7

    def test_matches_quadrature_on_rough_path(self):
        grid = TimeGrid(1.0, 2000)
        x = make_brownian(grid, seed=13)
        for l in (1, 2, 7):
            a = fejer_coefficient(x, l)[0]
            b = fejer_coefficient_quadrature(x, l)[0]
            assert abs(a - b) < 1e-6


class TestFejerSmoothing:
    def test_weights_pair_structure(self):
        w = fejer_weights(3)
        assert np.allclose(w, [1, 3 / 4, 3 / 4, 2 / 4, 2 / 4, 1 / 4, 1 / 4])

    def test_mean_contracts_sup_norm(self):
        grid = TimeGrid(1.0, 800)
        for seed in range(8):
            x = make_brownian(grid, seed=seed)
            diff = GridPath(grid, x.values - terminal_ramp(x).values)
            for n in (1, 2, 3, 8, 21):
                assert sup_norm(fejer_mean(x, n)) <= sup_norm(diff) + 1e-12

    def test_smooth_preserves_terminal_value(self):
        grid = TimeGrid(1.0, 500)
        x = make_brownian(grid, seed=3, start=0.0)
        for n in (0, 4, 17):
            assert np.allclose(smooth(x, n).values[-1], x.values[-1],
                               atol=1e-10)

    def test_ramp_fixed_for_every_order(self, grid100):
        x = GridPath.from_function(grid100, lambda t: -0.4 * t)
        for n in (0, 1, 5, 32):
            assert np.allclose(smooth(x, n).values, x.values, atol=1e-12)

    def test_zero_path_fixed(self, grid100):
        z = GridPath.zero(grid100)
        assert np.allclose(smooth(z, 16).values, 0.0)

    def test_sine_error_small_at_order_64(self):
        grid = TimeGrid(1.0, 2000)
        x = GridPath.from_function(grid, lambda t: np.sin(2 * np.pi * t))
        err = np.max(np.abs(smooth(x, 64).values - x.values))
        assert err < 0.05
        # the single-mode path makes the error exactly the weight deficit
        assert err == pytest.approx(1.0 / 65.0, rel=1e-3)

    def test_uniform_bound_factor_five(self):
        grid = TimeGrid(1.0, 400)
        paths = [make_brownian(grid, seed=s) for s in range(5)]
        paths.append(GridPath.constant(grid, 1.0))
        paths.append(GridPath.from_function(grid, lambda t: np.sin(7 * t) + 0.3))
        worst = 0.0
        for x in paths:
            for n in (1, 2, 4, 16, 64, 256):
                worst = max(worst,
                            sup_norm(smooth(x, n)) / sup_norm(x))
        assert worst <= 5.0

    def test_convergence_on_pinned_rough_path(self):
        # paths pinned at zero at time 0: reconstruction converges uniformly
        grid = TimeGrid(1.0, 800)
        x = make_brownian(grid, seed=10, start=0.0)
        errs = [np.max(np.abs(smooth(x, n).values - x.values))
                for n in (4, 16, 64, 256)]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.25 * sup_norm(x)

import numpy as np
import pytest

from pathheat.cylinders import (CylinderSpec, cylinder_approx,
                                cylinder_coordinates)
from pathheat.errors import DomainError
from pathheat.grids import GridPath, TimeGrid

from conftest import (fd_pathwise_derivs, fejer_smooth, make_brownian, stop_path,
                      value_at)

ONE = np.ones_like


def _identity_spec():
    return CylinderSpec(g=lambda zs: zs[:, 0], psi=[ONE],
                        gradient=np.ones_like,
                        hessian=lambda zs: np.zeros((len(zs), 1, 1)))


class TestEvalCylinder:
    def test_terminal_value_representation(self, grid100):
        spec, x = _identity_spec(), make_brownian(grid100, seed=4)
        assert spec.g(cylinder_coordinates(spec, 1.0, [x]))[0] == pytest.approx(
            float(x.values[-1, 0]), abs=1e-12)

    def test_constant_g(self, grid100):
        spec = CylinderSpec(g=lambda zs: np.full(len(zs), 4.25), psi=[ONE])
        for seed in (1, 2):
            x = make_brownian(grid100, seed=seed)
            assert spec.g(cylinder_coordinates(spec, 1.0, [x]))[0] == 4.25

    def test_squared_terminal(self, grid100):
        spec = CylinderSpec(g=lambda zs: zs[:, 0] ** 2, psi=[ONE])
        x = GridPath.from_function(grid100, lambda t: t)
        assert spec.g(cylinder_coordinates(spec, 1.0, [x]))[0] == pytest.approx(
            1.0, abs=1e-12)

    def test_coordinates_nonanticipative(self, grid100):
        spec = CylinderSpec(g=lambda zs: zs[:, 0], psi=[ONE, np.cos])
        x = make_brownian(grid100, seed=7)
        z1 = cylinder_coordinates(spec, 0.6, [x])
        z2 = cylinder_coordinates(spec, 0.6, [stop_path(x, 0.6)])
        assert np.allclose(z1, z2, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_stacked_paths_give_the_rows_one_at_a_time(self, grid100, d):
        spec = CylinderSpec(g=lambda zs: zs[:, 0],
                            psi=[ONE, np.cos, lambda s: s ** 2])
        paths = [make_brownian(grid100, seed=s, dimension=d) for s in range(5)]
        rows = cylinder_coordinates(spec, 0.6, paths)
        assert rows.shape == (5, 3 * d)
        for x, row in zip(paths, rows):
            assert np.array_equal(row[None], cylinder_coordinates(spec, 0.6, [x]))

    def test_stack_rejects_mixed_grids_and_no_paths(self, grid100, grid64):
        spec = CylinderSpec(g=lambda zs: zs[:, 0], psi=[ONE])
        with pytest.raises(DomainError):
            cylinder_coordinates(spec, 0.5, [make_brownian(grid100, seed=1),
                                             make_brownian(grid64, seed=1)])
        with pytest.raises(DomainError):
            cylinder_coordinates(spec, 0.5, [])


class TestCylinderApprox:
    def test_terminal_value_exact_every_order(self, grid100):
        xi = lambda v, g: v[:, -1, 0]
        x = make_brownian(grid100, seed=5)
        exact = float(x.values[-1, 0])
        for n in (0, 3, 9):
            spec = cylinder_approx(xi, n, grid100)
            smoothed = xi(fejer_smooth(x, n).values[None], grid100)[0]
            assert smoothed == pytest.approx(exact, abs=1e-10)
            z = cylinder_coordinates(spec, 1.0, [x])
            assert spec.g(z)[0] == pytest.approx(exact, abs=1e-8)

    def test_constant_functional(self, grid100):
        xi = lambda v, g: np.full(len(v), -2.0)
        spec = cylinder_approx(xi, 4, grid100)
        x = make_brownian(grid100, seed=6)
        assert xi(fejer_smooth(x, 4).values[None], grid100)[0] == -2.0
        assert spec.g(cylinder_coordinates(spec, 1.0, [x]))[0] == -2.0

    def test_g_of_coordinates_equals_smoothed_evaluation(self, grid100):
        xi = lambda v, g: np.max(v[:, :, 0], axis=1)
        spec = cylinder_approx(xi, 6, grid100)
        x = make_brownian(grid100, seed=8, start=0.0)
        direct = float(np.max(fejer_smooth(x, 6).values[:, 0]))
        via_g = spec.g(cylinder_coordinates(spec, 1.0, [x]))[0]
        assert via_g == pytest.approx(direct, abs=1e-8)

    def test_g_of_coordinates_equals_smoothed_evaluation_in_2d(self, grid100):
        def xi(v, g):
            return np.max(v[:, :, 0], axis=1) + np.min(v[:, :, 1], axis=1)

        spec = cylinder_approx(xi, 6, grid100, dimension=2)
        x = make_brownian(grid100, seed=9, dimension=2)
        direct = float(xi(fejer_smooth(x, 6).values[None], grid100)[0])
        via_g = spec.g(cylinder_coordinates(spec, 1.0, [x]))[0]
        assert via_g == pytest.approx(direct, abs=1e-8)

    def test_lipschitz_transfer_for_sup(self):
        grid = TimeGrid(1.0, 2000)
        x = GridPath.from_function(grid, lambda t: np.sin(2 * np.pi * t))
        xi = lambda v, g: np.max(v[:, :, 0], axis=1)
        gap = abs(xi(fejer_smooth(x, 64).values[None], grid)[0]
                  - float(np.max(x.values[:, 0])))
        sup_gap = np.max(np.abs(fejer_smooth(x, 64).values - x.values))
        assert gap <= sup_gap <= 0.05


class TestFdPathwiseDerivs:
    def test_polynomial_lift(self, grid100):
        u = lambda t, x, y: float(np.sum(y**2))
        x = make_brownian(grid100, seed=2)
        d = fd_pathwise_derivs(u, 0.4, x)
        yt = value_at(x, 0.4)[0]
        assert d.horizontal == pytest.approx(0.0, abs=1e-8)
        assert d.vertical[0] == pytest.approx(2 * yt, rel=1e-6)
        assert d.vertical2[0, 0] == pytest.approx(2.0, rel=1e-4)

    def test_integral_lift(self, grid100):
        def integral(t, x, y):
            nodes = x.grid.nodes()
            mask = nodes <= t + 1e-12
            vals = x.values[mask, 0]
            inner = np.trapezoid(vals, nodes[mask])
            if t > nodes[mask][-1]:
                inner += (t - nodes[mask][-1]) * value_at(x, t)[0]
            return float(inner)

        x = make_brownian(grid100, seed=3)
        t = 0.5
        d = fd_pathwise_derivs(integral, t, x, delta=1e-5)
        assert d.horizontal == pytest.approx(value_at(x, t)[0], abs=1e-4)
        assert np.allclose(d.vertical, 0.0, atol=1e-8)

    def test_constant_lift_all_zero(self, grid100):
        u = lambda t, x, y: 3.3
        d = fd_pathwise_derivs(u, 0.2, make_brownian(grid100, seed=1))
        assert d.horizontal == 0.0
        assert np.allclose(d.vertical, 0.0)
        assert np.allclose(d.vertical2, 0.0)

    def test_horizontal_needs_room(self, grid100):
        u = lambda t, x, y: float(y[0])
        with pytest.raises(DomainError):
            fd_pathwise_derivs(u, 1.0, make_brownian(grid100, seed=1))

    def test_vertical2_symmetric(self, grid100):
        u = lambda t, x, y: float(y[0] * np.sin(y[1]) + y[1] ** 3)
        x = make_brownian(grid100, seed=9, dimension=2)
        d = fd_pathwise_derivs(u, 0.3, x)
        assert np.allclose(d.vertical2, d.vertical2.T)


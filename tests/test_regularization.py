import numpy as np
import pytest

from pathheat.errors import DomainError
from pathheat.grids import GridPath, TimeGrid
from pathheat.regularization import by_parts, forward_integral, weights_at

from conftest import make_brownian

ONE = np.ones_like


def forward_integral_limit(g, f: GridPath, t: float, eps: float) -> np.ndarray:
    """Regularized difference-quotient form of the forward integral: the
    oracle of :func:`forward_integral`.

    Evaluates (1/eps) * integral of g_(0,t](s) (f_[0,t](s+eps) - f_[0,t](s)) ds
    with the two extensions frozen exactly as defined: f is held at f(t) right
    of t and at 0 left of 0; g is held at g(0) left of 0 and at 0 right of t.
    ``eps`` must be a positive multiple m dt of the grid step; the integral is
    exact for cellwise-quadratic integrands (Simpson per cell).
    """
    grid = f.grid
    m = round(eps / grid.dt)
    if m < 1 or abs(eps - m * grid.dt) > 1e-9 * grid.horizon:
        raise DomainError(f"eps={eps} is not a positive multiple of the grid "
                          f"step {grid.dt}")
    eps = m * grid.dt
    k = grid.index_of(t)
    nodes = grid.nodes()[: k + 1]
    mids = (nodes[:-1] + nodes[1:]) / 2.0

    # s in [-eps, 0): integrand is g(0) * f(s+eps) / eps, an initial-value atom.
    g0 = float(weights_at([g], np.zeros(1))[0, 0])
    j = min(m, k)
    # trapezoid of f over [0, j*dt] plus frozen tail if eps overshoots t
    ftrap = np.zeros(f.dimension)
    if j > 0:
        ftrap = (np.sum(f.values[1:j], axis=0)
                 + 0.5 * (f.values[0] + f.values[j])) * grid.dt
    if m > j:
        ftrap = ftrap + f.values[k] * (m - j) * grid.dt
    atom = g0 * ftrap / eps

    if k == 0:
        return atom

    # s in [0, t]: g(s) * (f((s+eps) ^ t) - f(s)) / eps, piecewise quadratic.
    idx = np.arange(k + 1)
    shift = np.minimum(idx + m, k)
    h_nodes = f.values[shift] - f.values[idx]
    h_mids = (h_nodes[:-1] + h_nodes[1:]) / 2.0
    g_nodes, g_mids = weights_at([g], nodes)[0], weights_at([g], mids)[0]
    integrand_nodes = g_nodes[:, None] * h_nodes
    integrand_mids = g_mids[:, None] * h_mids
    simpson = (integrand_nodes[:-1] + 4.0 * integrand_mids + integrand_nodes[1:]) / 6.0
    return atom + np.sum(simpson, axis=0) * grid.dt / eps


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
        with pytest.raises(DomainError, match="eps=0.0001"):
            forward_integral_limit(ONE, sine_path, 1.0, 1e-4)

import numpy as np
import pytest

from conftest import make_brownian, stop_path
from pathheat.errors import DomainError
from pathheat.experiments import brownian_search_space
from pathheat.gauge import perturbation_sum, smooth_gauge
from pathheat.grids import (GridPath, PathPoint, TimeGrid, path_distance,
                            path_distances, stack_points)
from pathheat.quadrature import QuadratureConfig
from pathheat.varprinciple import SearchSpace, smooth_variational_principle


def reference_distance(p, q):
    """The pseudometric written out pair by pair, with the stopped
    representatives built by ``np.where`` instead of the shared kernel."""
    def stopped(point):
        v, k = point.path.values, point.node_index
        return np.where(np.arange(v.shape[0])[:, None] <= k, v, v[k])

    gap = float(np.max(np.linalg.norm(stopped(p) - stopped(q), axis=1)))
    return abs(p.t - q.t) + gap


def reference_dedupe(points):
    """The scalar greedy dedupe: keep a point unless it is at distance zero
    from a point kept before it."""
    kept = []
    for p in points:
        if all(reference_distance(p, q) > 0.0 for q in kept):
            kept.append(p)
    return kept


def same_points(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def mixed_points(grid, dimension):
    """Points with every kind of (near) duplicate the dedupe must decide."""
    x = make_brownian(grid, seed=1, dimension=dimension)
    y = make_brownian(grid, seed=2, dimension=dimension)
    k = grid.index_of(0.5)
    future = y.values.copy()
    future[:k + 1] = x.values[:k + 1]            # x up to 0.5, y after
    nudged = x.values.copy()
    nudged[k // 2] += 1e-12                      # differs before 0.5
    late = x.values.copy()
    late[k + 1:] += 1e-12                        # differs only after 0.5
    return [
        PathPoint(0.5, x),
        PathPoint(0.5, y),
        PathPoint(0.5, x),                       # exact copy: dropped
        PathPoint(0.5, GridPath(grid, x.values.copy())),  # equal copy: dropped
        PathPoint(0.5, GridPath(grid, future)),  # same prefix: dropped
        PathPoint(0.5, stop_path(x, 0.5)),       # stopped copy: dropped
        PathPoint(0.75, x),                      # same path, other time: kept
        PathPoint(0.25, x),                      # kept
        PathPoint(0.25, GridPath(grid, future)),  # same prefix to 0.25: dropped
        PathPoint(0.5, GridPath(grid, nudged)),  # kept
        PathPoint(0.5, GridPath(grid, late)),    # dropped
        PathPoint(0.0, y),                       # kept
        PathPoint(0.0, GridPath.zero(grid, dimension)),  # same start 0: dropped
        PathPoint(1.0, y),                       # kept
        PathPoint(1.0, GridPath(grid, y.values.copy())),  # dropped
    ]


class TestSearchSpaceDedupe:
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_matches_scalar_greedy_reference(self, grid64, dimension):
        pts = mixed_points(grid64, dimension)
        space = SearchSpace(tuple(pts))
        want = reference_dedupe(pts)
        assert same_points(space.points, want)
        assert len(space) == 7
        assert [p.t for p in space] == [0.5, 0.5, 0.75, 0.25, 0.5, 0.0, 1.0]

    @pytest.mark.parametrize("perm_seed", [0, 1, 2])
    def test_reordered_input_keeps_first_occurrence(self, grid64, perm_seed):
        pts = mixed_points(grid64, 1)
        order = np.random.default_rng(perm_seed).permutation(len(pts))
        shuffled = [pts[i] for i in order]
        space = SearchSpace(tuple(shuffled))
        assert same_points(space.points, reference_dedupe(shuffled))
        assert len(space) == 7

    def test_brownian_space_with_planted_duplicates(self):
        grid = TimeGrid(1.0, 32)
        base = list(brownian_search_space(grid, 40, seed=5).points)
        stopped = PathPoint(base[8].t, stop_path(base[8].path, base[8].t))
        pts = base + [base[3], base[17], stopped]
        space = SearchSpace(tuple(pts))
        assert same_points(space.points, reference_dedupe(pts))
        assert same_points(space.points, base)

    def test_negative_zero_equals_zero(self, grid64):
        x = make_brownian(grid64, seed=3)
        signed = x.values.copy()
        signed[0] = -0.0                          # the path starts at 0.0
        pts = (PathPoint(0.5, x), PathPoint(0.5, GridPath(grid64, signed)))
        assert same_points(SearchSpace(pts).points, pts[:1])

    def test_tiny_difference_is_kept(self, grid64):
        # the squared gap 1e-340 underflows to 0, so the pseudometric reads
        # 0.0; the stopped values still differ, and the point is kept
        x = GridPath.zero(grid64)
        tiny = x.values.copy()
        tiny[10] = 1e-170
        pts = (PathPoint(0.5, x), PathPoint(0.5, GridPath(grid64, tiny)))
        assert path_distance(*pts) == 0.0
        assert same_points(SearchSpace(pts).points, pts)

    def test_non_finite_stopped_value_names_the_point(self, grid64):
        b = PathPoint(0.5, make_brownian(grid64, seed=1))
        c = PathPoint(0.25, make_brownian(grid64, seed=2))
        bad = make_brownian(grid64, seed=3).values.copy()
        bad[grid64.index_of(0.25)] = np.nan
        nan_pt = PathPoint(0.5, GridPath(grid64, bad))
        with pytest.raises(DomainError, match="point 0 has non-finite"):
            SearchSpace((nan_pt, b, c))
        with pytest.raises(DomainError, match="point 2 has non-finite"):
            SearchSpace((b, c, nan_pt))
        inf = bad.copy()
        inf[grid64.index_of(0.25)] = np.inf
        with pytest.raises(DomainError, match="point 1 has non-finite"):
            SearchSpace((b, PathPoint(0.5, GridPath(grid64, inf))))
        # after its stopping time the value is not part of the point
        assert len(SearchSpace((b, c, PathPoint(0.125, GridPath(grid64, bad))))) == 3

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            SearchSpace(())

    def test_grid_mismatch_rejected(self, grid64, grid100):
        pts = (PathPoint(0.5, GridPath.zero(grid64)),
               PathPoint(0.5, GridPath.zero(grid100)))
        with pytest.raises(DomainError):
            SearchSpace(pts)

    def test_dimension_mismatch_rejected(self, grid64):
        pts = (PathPoint(0.5, GridPath.zero(grid64, 1)),
               PathPoint(0.5, GridPath.zero(grid64, 2)))
        with pytest.raises(DomainError):
            SearchSpace(pts)


class TestPseudometricKernel:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_rows_equal_scalar_matrix_bit_for_bit(self, grid64, dimension):
        pts = [PathPoint(t, make_brownian(grid64, seed=s, dimension=dimension))
               for s, t in enumerate([0.0, 13 / 64, 0.5, 0.5, 58 / 64, 1.0])]
        times, stopped = stack_points(pts)
        for i, p in enumerate(pts):
            row = path_distances(times, stopped, times[i], stopped[i])
            want = [reference_distance(p, q) for q in pts]
            assert row.tolist() == want
            assert [path_distance(p, q) for q in pts] == want


class TestGaugeAxioms:
    def test_rows_match_scalar_reference_and_hold(self):
        # gauge <= eta implies pseudometric < eps for some eta > 0: on a
        # finite space, every pair at distance >= eps has positive gauge
        grid = TimeGrid(1.0, 32)
        config = QuadratureConfig()
        space = brownian_search_space(grid, 12, seed=7)
        pts = space.points
        n = len(pts)
        dist = np.array([[reference_distance(p, q) for q in pts] for p in pts])
        gauge = np.array([[0.0 if i == j else smooth_gauge([p], q, config).value[0]
                           for j, q in enumerate(pts)]
                          for i, p in enumerate(pts)])
        # thresholds at observed distances, down to the largest one
        off = np.sort(dist[~np.eye(n, dtype=bool)])
        eps_grid = (0.5, 0.2, 0.1, float(off[len(off) // 3]),
                    float(off[len(off) // 2]), float(off[-1]))
        for eps in eps_grid:
            mask = dist >= eps
            assert np.min(gauge[mask]) > 0.0
        assert int(np.sum(dist >= eps_grid[-1])) == 2


class TestVariationalPrinciple:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.05, 2.0])
    def test_item_i_equals_direct_gauges(self, seed, delta):
        grid = TimeGrid(1.0, 32)
        config = QuadratureConfig()
        space = brownian_search_space(grid, 16, seed=seed)
        coeffs = np.random.default_rng(seed).standard_normal(2)
        v = np.array([p.present_value()[0] for p in space])
        values = coeffs[0] * v + coeffs[1] * v * v
        start = space.points[int(np.argmin(values))]
        eps = (max(values) - min(values)) * 1.001
        res = smooth_variational_principle(values, eps, delta, start, space)
        assert res.anchor_indices[-1] == res.limit_index
        assert len(res.item_i) == len(res.anchors) == res.iterations == 2
        for r, a in zip(res.item_i, res.anchors):
            assert (r.gauge_limit_to_anchor
                    == smooth_gauge([res.limit], a, config).value[0])
            assert (r.gauge_anchor_to_limit
                    == smooth_gauge([a], res.limit, config).value[0])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_phi_is_the_perturbation_sum_over_the_space(self, seed):
        grid = TimeGrid(1.0, 32)
        config = QuadratureConfig()
        space = brownian_search_space(grid, 16, seed=seed)
        values = [p.present_value()[0] for p in space]
        start = space.points[int(np.argmin(values))]
        eps = (max(values) - min(values)) * 1.001
        res = smooth_variational_principle(values, eps, 0.05, start, space)
        assert len(res.anchors) >= 2
        want = perturbation_sum(res.anchors, space.points, config)
        assert np.array_equal(res.phi.value, want.value)
        for name in ("horizontal", "vertical", "vertical2"):
            got, ref = getattr(res.phi.derivs, name), getattr(want.derivs, name)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13
        # the completed sum at the limit: item (ii)'s right side
        assert res.item_ii_rhs == (values[res.limit_index]
                                   - 0.05 * res.phi.value[res.limit_index])

    def test_start_at_the_maximizer_stops_at_once(self):
        grid = TimeGrid(1.0, 32)
        space = brownian_search_space(grid, 8, seed=4)
        start = space.points[3]
        values = np.zeros(len(space))
        values[3] = 1.0
        res = smooth_variational_principle(values, 1.0, 0.05, start, space)
        assert res.iterations == 1 and res.anchor_indices == [3]
        assert res.limit_index == 3 and res.all_items_ok()

    @pytest.mark.parametrize("values", [np.zeros(7), np.zeros((8, 1)),
                                        np.r_[np.zeros(7), np.nan]])
    def test_values_need_one_finite_value_per_point(self, values):
        space = brownian_search_space(TimeGrid(1.0, 32), 8, seed=4)
        with pytest.raises(DomainError, match="8 finite numbers"):
            smooth_variational_principle(values, 1.0, 0.05, space.points[0], space)

import numpy as np
import pytest

from conftest import make_brownian, stop_path
from pathheat import varprinciple
from pathheat.errors import DomainError
from pathheat.experiments import brownian_search_space
from pathheat.gauge import perturbation_sum, smooth_gauge
from pathheat.grids import (GridPath, PathPoint, TimeGrid, path_distance,
                            path_distances, stack_points)
from pathheat.quadrature import QuadratureConfig
from pathheat.varprinciple import (GAUGE_SLACK, SUM_ROUNDING, ItemRecord,
                                   SearchSpace, smooth_variational_principle)


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


def reference_vp(values, eps, delta, start, space):
    """The iteration with every gauge column on the whole space: anchor
    indices, iterations and the items (i)-(iii), each as the pruned VP
    reports it."""
    pts = list(space.points)
    start_idx = next(i for i, q in enumerate(pts) if path_distance(start, q) == 0.0)
    anchors = [start_idx]
    columns = [smooth_gauge(pts, pts[start_idx]).value]
    perturbed = values - delta * columns[0]
    iterations = 1
    while (nxt := int(np.argmax(perturbed))) != anchors[-1]:
        iterations += 1
        anchors.append(nxt)
        columns.append(smooth_gauge(pts, pts[nxt]).value)
        perturbed = perturbed - delta * 2.0 ** (-(len(anchors) - 1)) * columns[-1]
    limit = anchors[-1]
    weights = [2.0 ** (-i) for i in range(len(columns))]
    weights[-1] *= 2.0
    phi = np.zeros(len(pts))
    for w, col in zip(weights, columns):
        phi += w * col
    items = [ItemRecord(index=i, gauge_limit_to_anchor=float(col[limit]),
                        gauge_anchor_to_limit=float(columns[-1][a]),
                        bound=eps / (2.0 ** i * delta))
             for i, (a, col) in enumerate(zip(anchors, columns))]
    score = values - delta * phi
    others = np.delete(score, limit)
    margin = float(score[limit] - np.max(others)) if others.size else np.inf
    return dict(anchor_indices=anchors, limit_index=limit, iterations=iterations,
                item_i=items, item_ii_lhs=float(values[start_idx]),
                item_ii_rhs=float(values[limit] - delta * phi[limit]),
                item_iii_margin=margin)


def assert_matches_reference(values, eps, delta, start, space):
    """Run the pruned VP, check it bit for bit against the full-column
    reference, and return it."""
    values = np.asarray(values, dtype=float)
    res = smooth_variational_principle(values, eps, delta, start, space)
    want = reference_vp(values, eps, delta, start, space)
    assert {k: getattr(res, k) for k in want} == want
    assert res.limit is space.points[res.limit_index]
    assert all(a is space.points[i] for a, i in zip(res.anchors, res.anchor_indices))
    return res


def cut_of(values, delta, horizon):
    """The smallest G of a live point other than the start, as documented."""
    second = float(np.sort(values)[-2])
    reach = 2.0 * delta * (horizon * horizon + 1.0 + 2.0 * GAUGE_SLACK)
    return second - reach - SUM_ROUNDING * (abs(second) + reach)


def cubic_values(space, seed):
    """A spread-out objective: most points fall below the live cut."""
    coeffs = np.random.default_rng(seed).standard_normal(3)
    v = np.array([p.present_value()[0] for p in space])
    t = np.array([p.t for p in space])
    return 3.0 * (coeffs[0] * v + coeffs[1] * np.sin(t) + coeffs[2] * v ** 3)


class TestLiveRows:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("delta", [0.05, 2.0])
    def test_matches_full_columns(self, seed, delta):
        space = brownian_search_space(TimeGrid(1.0, 32), 40, seed=seed)
        values = cubic_values(space, seed)
        start = space.points[int(np.argmin(values))]
        eps = (max(values) - min(values)) * 1.001
        res = assert_matches_reference(values, eps, delta, start, space)
        cut = cut_of(values, delta, 1.0)
        want = set(np.flatnonzero(values >= cut)) | {int(np.argmin(values))}
        assert res.live.tolist() == sorted(want)
        if delta == 0.05:
            assert len(res.live) < len(space)

    def test_every_point_live(self):
        space = brownian_search_space(TimeGrid(1.0, 32), 24, seed=6)
        values = 1e-3 * cubic_values(space, 6)
        start = space.points[int(np.argmin(values))]
        res = assert_matches_reference(values, 1.0, 0.05, start, space)
        assert res.live.tolist() == list(range(len(space)))

    def test_one_point_space(self):
        space = brownian_search_space(TimeGrid(1.0, 32), 1, seed=2)
        res = assert_matches_reference([0.5], 1.0, 0.05, space.points[0], space)
        assert res.live.tolist() == [0] and res.item_iii_margin == np.inf

    @pytest.mark.parametrize("delta", [0.05, 2.0])
    def test_start_below_the_cut(self, delta):
        space = brownian_search_space(TimeGrid(1.0, 32), 30, seed=8)
        values = cubic_values(space, 8)
        low = int(np.argmin(values))
        values[low] = cut_of(values, delta, 1.0) - 1.0
        eps = (max(values) - min(values)) * 1.001
        res = assert_matches_reference(values, eps, delta, space.points[low], space)
        assert low in res.live and res.anchor_indices[0] == low
        assert res.anchor_indices[-1] != low

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_points_at_the_cut(self, seed):
        # the cut is inclusive: a point at it is live, one an ulp below is not
        delta = 0.05
        space = brownian_search_space(TimeGrid(1.0, 32), 24, seed=seed)
        values = cubic_values(space, seed)
        top = np.argsort(values)[-2:]
        rest = [i for i in range(len(space)) if i not in top]
        values[rest] = values.min() - 10.0
        cut = cut_of(values, delta, 1.0)
        values[rest[:4]] = cut
        values[rest[4:8]] = np.nextafter(cut, -np.inf)
        start = int(rest[-1])
        eps = (max(values) - min(values)) * 1.001
        res = assert_matches_reference(values, eps, delta, space.points[start], space)
        assert res.live.tolist() == sorted([*top, *rest[:4], start])

    def test_runner_up_is_not_the_second_value(self):
        # item (iii)'s runner-up is a live point below G_(2): the point of
        # G_(2) sits far from the limit, where the perturbation is largest;
        # two more points sit at the cut and one an ulp below it
        grid = TimeGrid(1.0, 32)
        far = np.full(33, 50.0)
        far[0] = 0.0
        zero = GridPath.zero(grid)
        pts = (PathPoint(1.0, zero), PathPoint(1.0, GridPath(grid, far)),
               PathPoint(0.96875, zero), PathPoint(0.5, zero),
               PathPoint(0.25, zero), PathPoint(0.75, GridPath(grid, far)))
        space = SearchSpace(pts)
        delta = 0.05
        values = np.array([1.0, 0.99, 0.95, 0.0, 0.0, 0.0])
        cut = cut_of(values, delta, 1.0)
        values[3] = values[4] = cut
        values[5] = np.nextafter(cut, -np.inf)
        eps = (max(values) - min(values)) * 1.001
        res = assert_matches_reference(values, eps, delta, pts[3], space)
        assert res.live.tolist() == [0, 1, 2, 3, 4]
        assert res.limit_index == 0
        score = values - delta * res.phi.value
        assert int(np.argmax(score[1:])) + 1 == 2
        assert res.item_iii_margin == score[0] - score[2]

    def test_two_dimensional_space(self):
        grid = TimeGrid(1.0, 16)
        pts = tuple(PathPoint(t, make_brownian(grid, seed=s, dimension=2))
                    for s, t in enumerate([0.25, 0.5, 0.75] * 5))
        space = SearchSpace(pts)
        x = np.array([p.present_value() for p in space])
        values = x[:, 0] - 2.0 * x[:, 1] ** 2
        start = space.points[int(np.argmin(values))]
        eps = (max(values) - min(values)) * 1.001
        res = assert_matches_reference(values, eps, 0.05, start, space)
        assert len(res.live) < len(space)

    def test_smooth_gauge_gets_only_the_live_rows(self, monkeypatch):
        seen = []

        def spy(points, anchor, *args):
            seen.append((tuple(points), anchor))
            return smooth_gauge(points, anchor, *args)

        monkeypatch.setattr(varprinciple, "smooth_gauge", spy)
        space = brownian_search_space(TimeGrid(1.0, 32), 40, seed=3)
        values = cubic_values(space, 3)
        start = space.points[int(np.argmin(values))]
        eps = (max(values) - min(values)) * 1.001
        res = smooth_variational_principle(values, eps, 0.05, start, space)
        live = tuple(space.points[i] for i in res.live)
        assert len(live) < len(space)
        assert len(seen) == len(res.anchors)
        for (points, anchor), want in zip(seen, res.anchors):
            assert len(points) == len(live)
            assert all(a is b for a, b in zip(points, live)) and anchor is want

    def test_limit_phi_reads_the_live_rows(self):
        space = brownian_search_space(TimeGrid(1.0, 32), 40, seed=2)
        values = cubic_values(space, 2)
        start = space.points[int(np.argmin(values))]
        eps = (max(values) - min(values)) * 1.001
        res = smooth_variational_principle(values, eps, 0.05, start, space)
        at_limit = res.limit_phi
        assert "phi" not in vars(res)  # not filled yet
        assert len(res.live) < len(space)
        assert at_limit.value[0] == res.phi.value[res.limit_index]
        assert (at_limit.derivs.heat_operator()[0]
                == res.phi.derivs.heat_operator()[res.limit_index])
        assert res.item_ii_rhs == values[res.limit_index] - 0.05 * at_limit.value[0]

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_gauge_bounds_hold_to_the_slack(self, dimension):
        # the premise of the cut: 0 <= gauge <= T^2 + 1 up to GAUGE_SLACK,
        # at the farthest times and at distances that saturate
        grid = TimeGrid(2.0, 16)
        far = np.full((17, dimension), 1e6)
        far[0] = 0.0
        paths = [GridPath.zero(grid, dimension), GridPath(grid, far),
                 make_brownian(grid, seed=4, dimension=dimension)]
        pts = [PathPoint(t, x) for x in paths for t in (0.0, 1.0, 2.0)]
        for anchor in pts:
            value = smooth_gauge(pts, anchor).value
            assert value.min() >= -GAUGE_SLACK
            assert value.max() <= 2.0 ** 2 + 1.0 + GAUGE_SLACK
        assert smooth_gauge([pts[5]], pts[0]).value[0] > 4.0 + 1.0 - 1e-5

    @pytest.mark.parametrize("name,eps,delta", [
        ("delta", 1.0, np.nan), ("delta", 1.0, np.inf), ("delta", 1.0, 0.0),
        ("delta", 1.0, -0.05), ("eps", np.nan, 0.05), ("eps", np.inf, 0.05),
        ("eps", 0.0, 0.05)])
    def test_eps_and_delta_finite_and_positive(self, name, eps, delta):
        space = brownian_search_space(TimeGrid(1.0, 32), 4, seed=1)
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive"):
            smooth_variational_principle(np.zeros(4), eps, delta, space.points[0],
                                         space)

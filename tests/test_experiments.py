import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pathheat import experiments, solver
from pathheat.cylinders import (cylinder_approx, cylinder_coordinates,
                                fejer_smoothing)
from pathheat.errors import DomainError, InputError
from pathheat.experiments import brownian_search_space, comparison_demo
from pathheat.grids import TimeGrid
from pathheat.quadrature import QuadratureConfig
from pathheat.solver import (MCConfig, build_terminal, candidate_solution,
                             finite_dim_solution)
from pathheat.streams import sample_stream

GRID = TimeGrid(1.0, 50)
# the comparison-demo smoke config of tests/test_cli.py
SMALL = dict(order=8, n_paths=5, n_mc=100)


@pytest.fixture
def opened(monkeypatch):
    """The (seed, index) of every Monte-Carlo sample stream opened."""
    calls = []

    def spy(seed, index, into=None):
        calls.append((seed, index))
        return sample_stream(seed, index, into)

    monkeypatch.setattr(solver, "sample_stream", spy)
    return calls


class TestComparisonInput:
    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_non_positive_rate(self, lam):
        with pytest.raises(InputError, match="lam"):
            comparison_demo(GRID, 1, lam=lam, **SMALL)

    @pytest.mark.parametrize("lam,named", [
        (math.inf, "lam must be finite and positive, got inf"),
        (math.nan, "lam must be finite and positive, got nan"),
        (1e300, "lam = 1e+300 overflows"), (709.8, "lam = 709.8 overflows")])
    def test_rate_without_a_finite_scale_rejected_before_any_mc(
            self, lam, named, opened):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=re.escape(named)):
                comparison_demo(GRID, 1, lam=lam, **SMALL)
        assert opened == []

    def test_rate_at_the_largest_finite_scale_is_accepted(self):
        # exp(lam T) is finite up to lam T = log(max float), about 709.78;
        # on 10 steps the search space is rejected next, by its own check
        grid = TimeGrid(2.0, 10)
        lam = math.log(sys.float_info.max) / grid.horizon
        assert math.isfinite(math.exp(lam * grid.horizon))
        with pytest.raises(DomainError, match="at least one path, not 0"):
            comparison_demo(grid, 1, lam=lam, order=8, n_paths=0, n_mc=100)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_search_space_needs_a_path(self, n_paths):
        with pytest.raises(DomainError,
                           match=f"^the search space needs at least one path, "
                                 f"not {n_paths}$"):
            brownian_search_space(GRID, n_paths, 1)

    def test_no_deltas(self):
        with pytest.raises(InputError, match="deltas"):
            comparison_demo(GRID, 1, deltas=(), **SMALL)

    @pytest.mark.parametrize("deltas,named", [
        ((-0.1,), "-0.1"), ((math.nan,), "nan"), ((0.1, math.inf), "inf"),
        ((0.1, 0.0), "0.0"), ((0.1, 0.1), "0.1 after 0.1"),
        ((0.05, 0.1, 0.025), "0.1 after 0.05")])
    def test_bad_deltas_rejected_before_any_mc(self, deltas, named, opened):
        with pytest.raises(InputError, match=f"delta.*{named}"):
            comparison_demo(GRID, 1, deltas=deltas, **SMALL)
        assert opened == []


class TestComparisonGap:
    SEED, LAM = 3, 0.5

    def _points(self):
        return brownian_search_space(GRID, SMALL["n_paths"], self.SEED).points

    def _cfg(self, p, points):
        # the seed of the point's time, the j-th in increasing order
        times = sorted({q.t for q in points})
        return MCConfig(n_samples=SMALL["n_mc"],
                        seed=self.SEED + 101 + times.index(p.t))

    def test_each_gap_equals_that_point_alone(self, monkeypatch):
        # every point's u - v_n equals a one-path call, the start, point 0,
        # reports G(p0) = exp(lam t0) (u - v_n), and m(p0) is a one-path call
        # of the modulus terminal at p0
        xi = build_terminal("running_max", GRID)
        points = self._points()
        smoothing = fejer_smoothing(SMALL["order"], GRID)
        got = {}

        def spy(xi, t, paths, cfg, smoothing=None):
            ests = candidate_solution(xi, t, paths, cfg, smoothing)
            if smoothing is None:
                return ests
            for path, est in zip(paths, ests):
                got[next(i for i, p in enumerate(points) if p.t == t and
                         np.array_equal(p.path.values, path.values))] = est
            return ests

        monkeypatch.setattr(experiments, "candidate_solution", spy)
        report = comparison_demo(GRID, self.SEED, lam=self.LAM, **SMALL)
        assert sorted(got) == list(range(len(points)))
        for i, p in enumerate(points):
            assert got[i] == candidate_solution(xi, p.t, p.path,
                                                self._cfg(p, points), smoothing)
        diff = got[0]
        modulus = candidate_solution(experiments._smoothing_modulus(smoothing),
                                     points[0].t, points[0].path,
                                     self._cfg(points[0], points))
        scale = np.exp(self.LAM * points[0].t)
        assert report.start_value == float(scale * diff.mean)
        assert report.modulus == modulus.mean
        assert report.modulus_stderr == modulus.stderr
        assert report.bias_bound == float(
            scale * (modulus.mean + 3.0 * modulus.stderr))

    def test_gap_agrees_with_independent_factor_values(self):
        # the old route: u by Monte Carlo, v_n from the factor engine on its
        # own 4096-node Monte-Carlo rule; the gap on common draws agrees
        # within 4 combined stderr
        xi = build_terminal("running_max", GRID)
        points = self._points()
        spec = cylinder_approx(xi.batch, SMALL["order"], GRID)
        config = QuadratureConfig(z_rule="monte-carlo", z_samples=4096,
                                  z_seed=self.SEED + 17)
        smoothing = fejer_smoothing(SMALL["order"], GRID)
        for p in points:
            cfg = self._cfg(p, points)
            u = candidate_solution(xi, p.t, p.path, cfg)
            vn = finite_dim_solution(spec, p.t,
                                     cylinder_coordinates(spec, p.t, [p.path]),
                                     config, derivatives=False)
            diff = candidate_solution(xi, p.t, p.path, cfg, smoothing)
            combined = math.sqrt(diff.stderr**2 + u.stderr**2
                                 + vn.value_stderr[0]**2)
            assert abs(diff.mean - (u.mean - vn.value[0])) <= 4 * combined

    def test_no_factor_engine_call(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return finite_dim_solution(*args, **kwargs)

        monkeypatch.setattr(solver, "finite_dim_solution", spy)
        comparison_demo(GRID, self.SEED, **SMALL)
        assert calls == []
        # no name bound at import time that the spy would miss
        assert not hasattr(experiments, "finite_dim_solution")

    def test_contradiction_needs_a_gap_beyond_the_bias_bound(self):
        report = comparison_demo(GRID, self.SEED, **SMALL)
        assert not report.rows[-1].endpoint_ok
        assert report.bias_bound is not None
        stat = report.stat_allowance / report.lam
        assert report.start_value <= report.bias_bound + stat
        assert not report.contradiction_exhibited
        # a start gap beyond the bound by more than the allowance is one
        beyond = report.bias_bound + 1.01 * stat
        assert replace(report, start_value=beyond).contradiction_exhibited
        assert not replace(report, start_value=beyond,
                           mode="subsolution").contradiction_exhibited
        # a terminal with no sup-norm Lipschitz constant never reports one
        square = comparison_demo(GRID, self.SEED, terminal="terminal_square",
                                 **SMALL)
        assert square.bias_bound is None
        assert not replace(square, start_value=1e9).contradiction_exhibited


class TestComparisonMonteCarlo:
    def test_one_stream_per_sample_and_time(self, opened):
        # 5 points at 3 times: one Monte-Carlo call per time, n_mc streams
        # each, under the seed of the time; then m(p0), on the streams of
        # p0's time once more
        seed = 3
        comparison_demo(GRID, seed, **SMALL)
        points = brownian_search_space(GRID, SMALL["n_paths"], seed).points
        times = sorted({p.t for p in points})
        assert len(times) == 3
        j0 = times.index(points[0].t)
        assert opened == [(seed + 101 + j, i) for j in (*range(len(times)), j0)
                          for i in range(SMALL["n_mc"])]


# (verdict, contradiction exhibited, limit time per delta), recorded with one
# Monte-Carlo call per point time, on draws common to u and v_n
VERDICTS = {
    "candidate": {1: ("consistent", False, (0.24, 0.24, 0.5)),
                  2: ("consistent", False, (0.24, 0.76, 0.76)),
                  3: ("consistent", False, (0.24, 0.24, 0.24)),
                  4: ("consistent", False, (0.5, 0.5, 0.5)),
                  5: ("consistent", False, (0.5, 0.5, 0.5)),
                  6: ("consistent", False, (0.5, 0.5, 0.5))},
    "subsolution": {1: ("consistent", False, (0.24, 0.24, 0.24)),
                    2: ("consistent", False, (0.24, 0.24, 0.24)),
                    3: ("consistent", False, (0.24, 0.24, 0.24)),
                    4: ("consistent", False, (0.5, 0.5, 0.5)),
                    5: ("consistent", False, (0.5, 0.5, 0.5)),
                    6: ("consistent", False, (0.5, 0.5, 0.5))},
}


@pytest.mark.parametrize("mode", sorted(VERDICTS))
def test_verdicts_on_fixed_seeds(mode):
    for seed, (verdict, contradiction, limits) in VERDICTS[mode].items():
        report = comparison_demo(GRID, seed, mode=mode, **SMALL)
        assert report.verdict == verdict
        assert report.contradiction_exhibited == contradiction
        assert [row.limit_time for row in report.rows] == pytest.approx(limits)


def test_tn_rows_match_the_fejer_weight_deficit():
    # the unit sine has only frequency 1, whose Fejer weight is n/(n+1), so
    # the continuum sup error of order n is exactly 1/(n+1)
    rows = experiments.tn_convergence_rows(TimeGrid(1.0, 1000))
    assert [r["order"] for r in rows] == [4, 8, 16, 32, 64, 128]
    for r in rows:
        assert abs(r["sup_error"] - 1.0 / (r["order"] + 1)) <= 2e-5
        assert r["coefficient_gap"] <= 1e-5


@pytest.mark.parametrize("steps,times", [
    (10, (0.2, 0.5, 0.8)), (50, (0.24, 0.5, 0.76)),
    (128, (0.25, 0.5, 0.75)), (200, (0.25, 0.5, 0.75))])
def test_search_space_times_are_the_nearest_quarter_nodes(steps, times):
    # round(q M / 4) rounds half to even: 12.5 -> 12 and 37.5 -> 38 at M = 50
    points = brownian_search_space(TimeGrid(1.0, steps), 7, seed=1).points
    assert [p.t for p in points] == [times[i % 3] for i in range(7)]

import math

import numpy as np
import pytest

from pathheat import experiments, solver
from pathheat.cylinders import cylinder_approx, cylinder_coordinates
from pathheat.errors import InputError
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
    @pytest.mark.parametrize("start_index", [-1, 5])
    def test_start_index_outside_the_space(self, start_index):
        with pytest.raises(InputError, match="start_index"):
            comparison_demo(GRID, 1, start_index=start_index, **SMALL)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_non_positive_rate(self, lam):
        with pytest.raises(InputError, match="lam"):
            comparison_demo(GRID, 1, lam=lam, **SMALL)

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


class TestComparisonFactorValues:
    def test_one_call_per_time_equals_the_per_point_loop(self, monkeypatch):
        calls = []

        def spy(spec, t, z, *args, **kwargs):
            sol = finite_dim_solution(spec, t, z, *args, **kwargs)
            calls.append((spec, t, z, args, kwargs, sol))
            return sol

        monkeypatch.setattr(experiments, "finite_dim_solution", spy)
        comparison_demo(GRID, 3, **SMALL)
        points = brownian_search_space(GRID, SMALL["n_paths"], 3).points
        assert [c[1] for c in calls] == sorted({p.t for p in points})
        for spec, t, z, args, kwargs, sol in calls:
            at_t = [p for p in points if p.t == t]
            assert z.shape == (len(at_t), spec.n_factors)
            for i, p in enumerate(at_t):
                one = cylinder_coordinates(spec, t, [p.path])
                assert np.array_equal(z[i], one[0])
                alone = finite_dim_solution(spec, t, one, *args, **kwargs)
                assert sol.value[i] == alone.value[0]
                assert sol.value_stderr[i] == alone.value_stderr[0]

    def test_scaled_gap_of_every_point(self):
        # G(p) = exp(lam t) (u - v_n) from per-point factor calls, with each
        # point taken as the start in turn
        seed, lam = 3, 0.5
        xi = build_terminal("running_max", GRID)
        points = brownian_search_space(GRID, SMALL["n_paths"], seed).points
        spec = cylinder_approx(xi.batch, SMALL["order"], GRID)
        # the factor rule comparison_demo uses
        config = QuadratureConfig(z_rule="monte-carlo",
                                  z_samples=experiments.FACTOR_Z_SAMPLES,
                                  z_seed=seed + 17)
        times = sorted({p.t for p in points})
        for i, p in enumerate(points):
            # the seed of the point's time, the j-th in increasing order
            u = candidate_solution(xi, p.t, p.path,
                                   MCConfig(n_samples=SMALL["n_mc"],
                                            seed=seed + 101 + times.index(p.t))).mean
            vn = finite_dim_solution(spec, p.t,
                                     cylinder_coordinates(spec, p.t, [p.path]),
                                     config, derivatives=False).value[0]
            report = comparison_demo(GRID, seed, lam=lam, start_index=i, **SMALL)
            assert report.start_value == float(np.exp(lam * p.t) * (u - vn))


class TestComparisonMonteCarlo:
    def test_one_stream_per_sample_and_time(self, opened):
        # 5 points at 3 times: one Monte-Carlo call per time, n_mc streams
        # each, under the seed of the time
        seed = 3
        comparison_demo(GRID, seed, **SMALL)
        points = brownian_search_space(GRID, SMALL["n_paths"], seed).points
        n_times = len({p.t for p in points})
        assert n_times == 3
        assert opened == [(seed + 101 + j, i) for j in range(n_times)
                          for i in range(SMALL["n_mc"])]


# (verdict, contradiction exhibited, limit time per delta), recorded with one
# Monte-Carlo call per point time on common draws
VERDICTS = {
    "candidate": {1: ("consistent", False, (0.24, 0.5, 0.5)),
                  2: ("consistent", True, (0.24, 0.76, 0.76)),
                  3: ("consistent", True, (0.24, 0.24, 0.24)),
                  4: ("consistent", True, (0.5, 0.5, 0.5)),
                  5: ("consistent", False, (0.5, 0.5, 0.5)),
                  6: ("consistent", True, (0.5, 0.5, 0.5))},
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

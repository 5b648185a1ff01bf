"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import LAYERS, Tracer, layer_metric_names, layer_metrics  # noqa: E402
from workloads import spitzer_running_max  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_wrapper_returns_identical_result_and_propagates_exceptions():
    tracer = Tracer()
    token = object()
    wrapped = tracer.wrap("ok", lambda a, b=1: (a, b, token))
    assert wrapped(1, b=2) == (1, 2, token)
    assert wrapped(1)[2] is token

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        tracer.wrap("boom", boom)()
    assert [s[2] for s in tracer.spans] == ["ok", "ok", "boom"]
    assert tracer._stack == []


def test_install_patches_every_binding_and_keeps_results():
    from pathheat import gauge, quadrature, solver, streams
    from pathheat.grids import GridPath, TimeGrid

    grid = TimeGrid(1.0, 16)
    xi = solver.build_terminal("running_max", grid)
    cfg = solver.MCConfig(n_samples=64, seed=7)
    plain = solver.candidate_solution(xi, 0.0, GridPath.zero(grid), cfg)
    originals = (streams.sample_stream, quadrature.legendre_rule)

    tracer = Tracer()
    tracer.install()
    try:
        assert solver.sample_stream is streams.sample_stream is not originals[0]
        assert gauge.legendre_rule is solver.legendre_rule is quadrature.legendre_rule
        traced = solver.candidate_solution(xi, 0.0, GridPath.zero(grid), cfg)
    finally:
        tracer.uninstall()
    assert (streams.sample_stream, quadrature.legendre_rule) == originals
    assert solver.sample_stream is originals[0]
    assert traced == plain
    m = layer_metrics(tracer)
    assert m["streams.sample_stream.calls"] == 64
    assert m["streams.per_sample"] == 1.0
    assert m["solver.candidate_solution.calls"] == 1


def test_self_times_nonnegative_and_sum_to_root(tmp_path):
    from pathheat import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", cli.main,
                           ["vp-run", "--seed", "3", "--n-points", "12",
                            "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    own = tracer.self_times()
    assert min(own.values()) >= 0.0
    (root,) = [s for s in tracer.spans if s[1] is None]
    assert math.isclose(sum(own.values()), root[4] - root[3], rel_tol=1e-9)
    m = layer_metrics(tracer)
    assert m["varprinciple.SearchSpace.calls"] == 2
    assert m["grids.path_distance.calls"] > 0
    assert m["varprinciple.gauge_calls_per_point"] > 0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert per_layer == layer_metric_names()
    assert end_to_end == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    names = [n for n, _ in per_layer + end_to_end]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert len(LAYERS) * 2 < len(per_layer)


def test_spitzer_sum_matches_random_walk():
    steps = 5
    dt = 1.0 / steps
    rng = np.random.default_rng(12345)
    walks = np.cumsum(rng.standard_normal((400_000, steps)) * math.sqrt(dt), axis=1)
    maxima = np.maximum(walks.max(axis=1), 0.0)
    se = maxima.std(ddof=1) / math.sqrt(maxima.size)
    assert abs(maxima.mean() - spitzer_running_max(steps)) <= 4 * se
    assert spitzer_running_max(1) == pytest.approx(math.sqrt(1.0 / (2 * math.pi)))
    assert spitzer_running_max(1000) == pytest.approx(0.77966, abs=1e-5)

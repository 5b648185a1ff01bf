import numpy as np
import pytest

from pathheat.errors import DomainError
from pathheat.experiments import dt_convergence_rows
from pathheat.grids import SemimartingaleSpec, TimeGrid, euler_paths
from pathheat.ito import SEMIMARTINGALE_PRESETS, ito_verify
from pathheat.solver import MCConfig, MCEstimate, sample_increments


def square_profiles(values):
    n, m1, d = values.shape
    return (np.sum(values * values, axis=2), np.zeros((n, m1)), 2.0 * values,
            np.broadcast_to(2.0 * np.eye(d), (n, m1, d, d)))


def reference(spec, grid, cfg):
    """|residual(T)| of the square lift from the identity
    |X_T|^2 - |X_0|^2 = sum 2 X_k . dX_k + |dX_k|^2: the residual of each path
    is sum |dX_k|^2 - sum tr(sigma sigma^T) dt over the same draws."""
    vals = euler_paths(spec, grid, sample_increments(
        grid, 0, spec.dimension, cfg.seed, np.arange(cfg.n_samples)))
    dx = np.diff(vals, axis=1)
    trace = sum(np.sum(np.broadcast_to(
        np.asarray(spec.volatility(grid.node(k), vals[:, k])) ** 2,
        (cfg.n_samples, spec.dimension, spec.dimension)), axis=(1, 2))
        for k in range(grid.steps))
    res = np.sum(dx * dx, axis=(1, 2)) - trace * grid.dt
    return MCEstimate.from_samples(np.abs(res), cfg.seed)


def state_dependent_spec(dimension):
    """A volatility that depends on the state and, for d >= 2, mixes the
    coordinates, so that sigma sigma^T is not diagonal."""
    mix = np.eye(dimension) + 0.5 * np.eye(dimension, k=-1)
    return SemimartingaleSpec(
        drift=lambda t, s: -0.5 * s,
        volatility=lambda t, s: (1.0 + 0.5 * np.sin(s[..., :1] + t))[..., None] * mix,
        initial=np.full(dimension, 0.3))


def preset_in_dimension(name, dimension):
    """The one-dimensional preset's drift and start in every coordinate, with
    independent unit-volatility noise; the preset itself at d = 1."""
    spec = SEMIMARTINGALE_PRESETS[name]()
    eye = np.eye(dimension)
    return SemimartingaleSpec(drift=spec.drift, volatility=lambda t, s: eye,
                              initial=np.full(dimension, spec.initial[0]))


SPECS = {name: (lambda d, name=name: preset_in_dimension(name, d))
         for name in SEMIMARTINGALE_PRESETS}
SPECS["state-dependent"] = state_dependent_spec


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("steps", [32, 256])
def test_square_lift_residual_is_bracket_error(name, d, steps):
    spec = SPECS[name](d)
    grid = TimeGrid(1.0, steps)
    cfg = MCConfig(n_samples=64, seed=7)
    est = ito_verify(square_profiles, spec, grid, cfg)
    ref = reference(spec, grid, cfg)
    assert est.n_samples == 64
    assert est.mean == pytest.approx(ref.mean, rel=0, abs=1e-12)
    assert est.stderr == pytest.approx(ref.stderr, rel=0, abs=1e-12)


@pytest.mark.parametrize("preset", sorted(SEMIMARTINGALE_PRESETS))
def test_dt_sweep_rows_match_reference(preset):
    rows = dt_convergence_rows(1.0, 3, n_samples=32, exponents=(4, 6),
                               preset=preset)
    spec = SEMIMARTINGALE_PRESETS[preset]()
    for row, e in zip(rows, (4, 6)):
        ref = reference(spec, TimeGrid(1.0, 2**e), MCConfig(n_samples=32, seed=3))
        assert row["mean_abs_residual"] == pytest.approx(ref.mean, rel=0, abs=1e-12)
        assert row["stderr"] == pytest.approx(ref.stderr, rel=0, abs=1e-12)


def test_slope_is_weighted_fit_with_its_stderr():
    # weighted least squares of log r on log dt with log-scale sds s_i / r_i,
    # written out: slope = Sxy / Sxx about the weighted means, and its
    # standard error 1 / sqrt(Sxx), both with weights (r_i / s_i)^2
    rows = dt_convergence_rows(1.0, 3, n_samples=32, exponents=(4, 5, 6))
    x = np.log([row["dt"] for row in rows])
    y = np.log([row["mean_abs_residual"] for row in rows])
    w = np.array([(row["mean_abs_residual"] / row["stderr"]) ** 2 for row in rows])
    dx = x - np.sum(w * x) / np.sum(w)
    dy = y - np.sum(w * y) / np.sum(w)
    sxx = np.sum(w * dx * dx)
    for row in rows:
        assert row["slope"] == pytest.approx(np.sum(w * dx * dy) / sxx, abs=1e-12)
        assert row["slope_stderr"] == pytest.approx(1 / np.sqrt(sxx), rel=1e-12)


@pytest.mark.parametrize("bad", range(4))
def test_profile_of_wrong_shape_raises(bad):
    def profiles(values):
        out = list(square_profiles(values))
        out[bad] = out[bad][:, :-1]
        return out

    spec = preset_in_dimension("brownian", 2)
    with pytest.raises(DomainError, match="shape"):
        ito_verify(profiles, spec, TimeGrid(1.0, 8), MCConfig(n_samples=4, seed=1))

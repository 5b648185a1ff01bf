"""Command-line front end: experiment configuration, CSV emission, and the
subcommands solve, pde-check, gauge-check, ito-check, vp-run, approx,
comparison-demo, and converge.

Configuration is a flat key=value text file; command-line flags override
file values.  Every CSV starts with a comment line carrying the hash of the
effective configuration and the master seed, so any output is reproducible
bit for bit from (config, seed).  The process exits 0 exactly when every
assertion configured for the subcommand passes, 1 when one fails, and 2 on
bad input, which :func:`run` reports as one ``pathheat: error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .audit import derivative_bound_audit, sandwich_audit, validate_alpha
from .errors import DomainError, InputError
from .experiments import (brownian_search_space, comparison_demo,
                          dt_convergence_rows, mc_convergence_rows,
                          tn_convergence_rows)
from .gauge import calibrate_alpha
from .grids import (GridPath, PathPoint, TimeGrid, brownian_increments,
                    extend_with_increments, read_path_csv)
from .ito import SEMIMARTINGALE_PRESETS
from .quadrature import QuadratureConfig
from .sampling import random_pairs
from .solver import (MCConfig, build_terminal, candidate_solution,
                     pde_residual, terminal_names)
from .streams import sample_stream
from .varprinciple import SearchSpace, smooth_variational_principle

__all__ = ["ExperimentConfig", "main", "run"]


@dataclass
class ExperimentConfig:
    """Flat experiment settings; every run must carry an explicit seed."""

    seed: int
    d: int = 1
    horizon: float = 1.0
    steps: int = 1000
    terminal: str = "running_max"
    n_samples: int = 10_000
    z_rule: str = "auto"
    z_nodes: int = 21
    z_samples: int = 100_000
    s_nodes: int = 3  # Gauss-Legendre nodes per s-rule panel
    s_max: float = 40.0
    delta: tuple[float, ...] = (0.1, 0.05, 0.025)
    lam: float = 0.5
    out: Path = Path(".")

    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(z_rule=self.z_rule, z_nodes=self.z_nodes,
                                z_samples=self.z_samples, s_max=self.s_max,
                                s_nodes=self.s_nodes)

    def content_hash(self) -> str:
        keys = sorted(self.__dict__)
        blob = ";".join(f"{k}={self.__dict__[k]}" for k in keys if k != "out")
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


_FLOAT_KEYS = {"horizon", "lam", "s_max"}
_INT_KEYS = {"seed", "d", "steps", "n_samples", "z_nodes", "z_samples",
             "s_nodes"}
_STR_KEYS = {"terminal", "z_rule"}


def _parse_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line without '=': {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key] = value
    return out


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = {}
    if args.config:
        raw.update(_parse_config_file(args.config))
    for key in ("seed", "d", "steps", "horizon", "terminal", "n_samples",
                "z_rule", "z_nodes", "z_samples", "s_nodes", "s_max", "lam",
                "delta"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            raw[key] = val
    if "seed" not in raw:
        raise InputError("a master seed is mandatory: pass --seed or set seed= "
                         "in the config file")
    kwargs = {}
    for key, value in raw.items():
        if key in _INT_KEYS:
            kwargs[key] = int(value)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(value)
        elif key == "delta":
            if isinstance(value, str):
                kwargs[key] = tuple(float(v) for v in value.split(","))
            else:
                kwargs[key] = tuple(value)
        elif key in _STR_KEYS:
            kwargs[key] = str(value)
        else:
            raise InputError(f"unknown config key {key!r}")
    cfg = ExperimentConfig(out=Path(args.out), **kwargs)
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg


class _CsvSink:
    def __init__(self, cfg: ExperimentConfig, name: str, header: list[str]):
        self.path = cfg.out / name
        self.fh = open(self.path, "w", newline="")
        self.fh.write(f"# config_hash={cfg.content_hash()} seed={cfg.seed}\n")
        self.writer = csv.writer(self.fh)
        self.writer.writerow(header)

    def row(self, values) -> None:
        self.writer.writerow(values)

    def close(self) -> None:
        self.fh.close()
        print(f"wrote {self.path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(cfg: ExperimentConfig, args) -> int:
    grid = cfg.grid()
    if args.path:
        x = read_path_csv(args.path)
        grid = x.grid
    else:
        x = GridPath.zero(grid, cfg.d)
    xi = build_terminal(cfg.terminal, grid)
    est = candidate_solution(xi, args.t, x,
                             MCConfig(n_samples=cfg.n_samples, seed=cfg.seed,
                                      antithetic=args.antithetic))
    print(f"{cfg.terminal} at t={args.t:g}: {est.mean:.6f} +/- {est.stderr:.6f} "
          f"(n={est.n_samples})")
    sink = _CsvSink(cfg, "solve.csv",
                    ["terminal", "t", "mean", "stderr", "n_samples"])
    sink.row([cfg.terminal, args.t, f"{est.mean:.17g}", f"{est.stderr:.17g}",
              est.n_samples])
    sink.close()
    return 0


def _cmd_pde_check(cfg: ExperimentConfig, args) -> int:
    grid = cfg.grid()
    quad = cfg.quadrature()
    names = args.spec.split(",") if args.spec else [
        "cyl:linear", "cyl:quadratic", "cyl:exponential", "cyl:trig2"]
    sink = _CsvSink(cfg, "pde_check.csv",
                    ["spec", "sample", "t", "residual", "pass"])
    rng = sample_stream(cfg.seed, 0)
    zero = GridPath.zero(grid)
    ok = True
    for name in names:
        xi = build_terminal(name.strip(), grid)
        if xi.cylinder is None:
            raise InputError(f"{name} is not a cylinder functional")
        for s in range(args.n_points):
            t = grid.node(int(rng.integers(0, grid.steps)))
            x = GridPath(grid, extend_with_increments(
                0.0, zero, brownian_increments(grid, 0, 1, rng)))
            res = pde_residual(xi.cylinder, t, x, quad)
            good = abs(res) <= args.tol
            ok = ok and good
            sink.row([name, s, f"{t:.6g}", f"{res:.6e}", "pass" if good else "FAIL"])
    sink.close()
    print("pde-check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_gauge_check(cfg: ExperimentConfig, args) -> int:
    grid = TimeGrid(cfg.horizon, min(cfg.steps, 128))
    quad = cfg.quadrature()
    checks = derivative_bound_audit(cfg.d, grid, args.n_tuples, cfg.seed, quad)
    checks += sandwich_audit(cfg.d, grid, args.n_tuples, cfg.seed + 1, quad)
    if args.calibrate:
        diag = calibrate_alpha(cfg.d,
                               random_pairs(grid, cfg.d, args.n_tuples,
                                            cfg.seed + 2), quad, seed=cfg.seed + 2)
        checks += validate_alpha(diag, grid, args.n_tuples, cfg.seed + 3, quad)
        print(f"calibrated alpha_{cfg.d} = {diag.alpha:.6g} "
              f"(item-3 constant {diag.item3_constant:.6g})")
    sink = _CsvSink(cfg, "gauge_check.csv",
                    ["bound", "constant", "observed_max", "tolerance", "status"])
    ok = True
    for c in checks:
        ok = ok and c.passed
        sink.row(c.csv_row())
    sink.close()
    print("gauge-check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_ito_check(cfg: ExperimentConfig, args) -> int:
    rows = dt_convergence_rows(cfg.horizon, cfg.seed, n_samples=args.n_paths,
                               exponents=tuple(int(e) for e in
                                               args.exponents.split(",")),
                               preset=args.preset)
    sink = _CsvSink(cfg, "ito_check.csv",
                    ["dt", "mean_abs_residual", "stderr", "slope"])
    for row in rows:
        sink.row([f"{row['dt']:.6g}", f"{row['mean_abs_residual']:.6e}",
                  f"{row['stderr']:.6e}", f"{row['slope']:.4f}"])
    sink.close()
    slope = rows[0]["slope"]
    ok = slope >= args.min_slope
    print(f"ito-check: slope={slope:.3f}", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_vp_run(cfg: ExperimentConfig, args) -> int:
    quad = cfg.quadrature()
    if args.paths:
        data = read_path_csv(args.paths)
        grid = data.grid
        times = ([float(s) for s in args.times.split(",")]
                 if args.times else [0.5 * grid.horizon])
        pts = tuple(PathPoint(t, data.component(i))
                    for i in range(data.dimension) for t in times)
    else:
        grid = TimeGrid(cfg.horizon, min(cfg.steps, 128))
        pts = brownian_search_space(grid, args.n_points, cfg.seed).points
    space = SearchSpace(pts)
    coeffs = sample_stream(cfg.seed, 0).standard_normal(3)

    def G(p: PathPoint) -> float:
        v = p.present_value()[0]
        return float(coeffs[0] * v + coeffs[1] * np.sin(p.t) + coeffs[2] * v * v / 4)

    values = [G(p) for p in space]
    start = space.points[int(np.argmin(values))]
    eps = max(max(values) - G(start), 1e-9) * 1.001
    res = smooth_variational_principle(G, eps, args.vp_delta, start, space, quad)
    sink = _CsvSink(cfg, "vp_run.csv",
                    ["record", "index", "value", "bound", "ok"])
    for r in res.item_i:
        sink.row(["item_i", r.index, f"{r.gauge_limit_to_anchor:.6e}",
                  f"{r.bound:.6e}", r.ok])
        sink.row(["item_i_reversed", r.index, f"{r.gauge_anchor_to_limit:.6e}",
                  f"{r.bound:.6e}", r.ok_reversed])
    sink.row(["item_ii", "", f"{res.item_ii_lhs:.6e}",
              f"{res.item_ii_rhs:.6e}", res.item_ii_ok])
    sink.row(["item_iii_margin", "", f"{res.item_iii_margin:.6e}", "", res.item_iii_ok])
    sink.row(["iterations", "", res.iterations, "", res.iterations <= 1000])
    sink.close()
    ok = res.all_items_ok()
    print(f"vp-run: limit at index {res.limit_index}, t={res.limit.t:g}; "
          f"items {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_approx(cfg: ExperimentConfig, args) -> int:
    grid = cfg.grid()
    rows = tn_convergence_rows(grid, orders=tuple(int(n) for n in
                                                  args.orders.split(",")))
    sink = _CsvSink(cfg, "approx.csv", ["order", "sup_error", "coefficient_gap"])
    for row in rows:
        sink.row([row["order"], f"{row['sup_error']:.6e}",
                  f"{row['coefficient_gap']:.6e}"])
    sink.close()
    errs = [row["sup_error"] for row in rows]
    ok = all(b < a for a, b in zip(errs, errs[1:])) and errs[-1] < args.tol
    print("approx:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_comparison(cfg: ExperimentConfig, args) -> int:
    grid = TimeGrid(cfg.horizon, min(cfg.steps, 200))
    report = comparison_demo(grid, cfg.seed, terminal=cfg.terminal,
                             order=args.order, n_paths=args.n_points,
                             n_mc=args.n_mc, lam=cfg.lam, deltas=cfg.delta,
                             mode=args.mode, gauge_config=cfg.quadrature(),
                             progress=print)
    sink = _CsvSink(cfg, "comparison_demo.csv",
                    ["delta", "limit_time", "interior", "chain_left",
                     "chain_mid", "chain_right", "phi_at_limit", "operator_phi",
                     "items_ok", "exact_link_ok", "operator_ok",
                     "tangency_link_ok", "endpoint_ok", "iterations"])
    for row in report.rows:
        sink.row([row.delta, f"{row.limit_time:.6g}", row.interior,
                  f"{row.chain_left:.6e}", f"{row.chain_mid:.6e}",
                  f"{row.chain_right:.6e}", f"{row.phi_at_limit:.6e}",
                  f"{row.operator_phi:.6e}", row.items_ok, row.exact_link_ok,
                  row.operator_ok, row.tangency_link_ok, row.endpoint_ok,
                  row.iterations])
    sink.close()
    print(f"comparison-demo[{report.mode}]: verdict={report.verdict}, "
          f"rhs monotone={report.rhs_monotone}, "
          f"contradiction exhibited={report.contradiction_exhibited}")
    print(f"note: {report.caveat}")
    return 0 if report.verdict == "consistent" and report.rhs_monotone else 1


def _cmd_converge(cfg: ExperimentConfig, args) -> int:
    grid = cfg.grid()
    ok = True
    if args.study in ("tn", "all"):
        rows = tn_convergence_rows(grid)
        sink = _CsvSink(cfg, "converge_tn.csv",
                        ["order", "sup_error", "coefficient_gap", "pass"])
        errs = [r["sup_error"] for r in rows]
        mono = all(b < a for a, b in zip(errs, errs[1:]))
        ok = ok and mono
        for r in rows:
            sink.row([r["order"], f"{r['sup_error']:.6e}",
                      f"{r['coefficient_gap']:.6e}", mono])
        sink.close()
    if args.study in ("mc", "all"):
        rows = mc_convergence_rows(grid, cfg.seed, terminal=cfg.terminal)
        sink = _CsvSink(cfg, "converge_mc.csv",
                        ["n_samples", "mean", "stderr", "pass"])
        errs = [r["stderr"] for r in rows]
        mono = all(b < a for a, b in zip(errs, errs[1:]))
        ok = ok and mono
        for r in rows:
            sink.row([r["n_samples"], f"{r['mean']:.8g}", f"{r['stderr']:.3e}",
                      mono])
        sink.close()
    if args.study in ("dt", "all"):
        rows = dt_convergence_rows(cfg.horizon, cfg.seed)
        sink = _CsvSink(cfg, "converge_dt.csv",
                        ["dt", "mean_abs_residual", "stderr", "slope", "pass"])
        good = rows[0]["slope"] >= 0.4
        ok = ok and good
        for r in rows:
            sink.row([f"{r['dt']:.6g}", f"{r['mean_abs_residual']:.6e}",
                      f"{r['stderr']:.6e}", f"{r['slope']:.4f}", good])
        sink.close()
    print("converge:", "pass" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--seed", type=int, help="master seed (mandatory here or in config)")
    p.add_argument("--out", default=".", help="output directory for CSV files")
    p.add_argument("--d", type=int, help="path dimension")
    p.add_argument("--horizon", type=float, help="time horizon T")
    p.add_argument("--steps", type=int, help="grid steps M")
    p.add_argument("--terminal", help=f"terminal functional ({', '.join(terminal_names())})")
    p.add_argument("--n-samples", type=int, dest="n_samples")
    p.add_argument("--z-rule", dest="z_rule",
                   choices=["auto", "exact", "gauss-hermite", "monte-carlo"])
    p.add_argument("--z-nodes", type=int, dest="z_nodes")
    p.add_argument("--z-samples", type=int, dest="z_samples")
    p.add_argument("--s-nodes", type=int, dest="s_nodes",
                   help="Gauss-Legendre nodes per panel of the time-smoothing "
                        "rule; one panel per grid step between the point and "
                        "its anchor")
    p.add_argument("--s-max", type=float, dest="s_max")
    p.add_argument("--lam", type=float)
    p.add_argument("--delta", help="comma-separated perturbation weights")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathheat",
        description="Desk-scale laboratory for the path-dependent heat equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="Monte-Carlo solution value at (t, path)")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--path", help="CSV file with the initial path")
    p.add_argument("--antithetic", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pde-check", help="heat-operator residuals for cylinder specs")
    _add_common(p)
    p.add_argument("--spec", help="comma-separated cylinder spec names")
    p.add_argument("--n-points", type=int, default=20, dest="n_points")
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_pde_check)

    p = sub.add_parser("gauge-check", help="derivative-bound and sandwich audits")
    _add_common(p)
    p.add_argument("--n-tuples", type=int, default=200, dest="n_tuples")
    p.add_argument("--calibrate", action="store_true",
                   help="also calibrate and validate the lower-bound constant")
    p.set_defaults(func=_cmd_gauge_check)

    p = sub.add_parser("ito-check", help="pathwise-formula residual sweep")
    _add_common(p)
    p.add_argument("--preset", default="brownian",
                   choices=sorted(SEMIMARTINGALE_PRESETS))
    p.add_argument("--n-paths", type=int, default=256, dest="n_paths")
    p.add_argument("--exponents", default="6,7,8,9,10",
                   help="grid sizes 2^e in the dt sweep")
    p.add_argument("--min-slope", type=float, default=0.4, dest="min_slope")
    p.set_defaults(func=_cmd_ito_check)

    p = sub.add_parser("vp-run", help="smooth variational principle on a finite space")
    _add_common(p)
    p.add_argument("--paths", help="CSV path dictionary (columns are paths)")
    p.add_argument("--times", help="comma-separated evaluation times")
    p.add_argument("--n-points", type=int, default=100, dest="n_points")
    p.add_argument("--delta-weight", type=float, default=0.05, dest="vp_delta")
    p.set_defaults(func=_cmd_vp_run)

    p = sub.add_parser("approx", help="Fejer reconstruction error sweep")
    _add_common(p)
    p.add_argument("--orders", default="4,8,16,32,64,128")
    p.add_argument("--tol", type=float, default=0.05)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("comparison-demo", help="comparison-theorem pipeline")
    _add_common(p)
    p.add_argument("--mode", default="candidate",
                   choices=["candidate", "subsolution"])
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--n-points", type=int, default=200, dest="n_points")
    p.add_argument("--n-mc", type=int, default=2000, dest="n_mc")
    p.set_defaults(func=_cmd_comparison)

    p = sub.add_parser("converge", help="convergence sweeps with trend checks")
    _add_common(p)
    p.add_argument("--study", default="all", choices=["tn", "mc", "dt", "all"])
    p.set_defaults(func=_cmd_converge)

    args = parser.parse_args(argv)
    cfg = _build_config(args)
    return args.func(cfg, args)


def run(argv: Optional[list[str]] = None) -> int:
    """Console entry point: :func:`main`, with an :class:`InputError` or
    :class:`DomainError` reported as one line on stderr and exit status 2
    instead of a traceback."""
    try:
        return main(argv)
    except (InputError, DomainError) as exc:
        print(f"pathheat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())

"""Command-line front end: CSV emission and the seven subcommands solve,
pde-check, gauge-check, ito-check, vp-run, approx and comparison-demo.

Each subcommand accepts only the settings it reads, as flags or as keys of
a flat key=value config file that the flags override.  The quadrature
rules of the gauge and of the factor solution are the package's, chosen per
dimension (:class:`quadrature.QuadratureConfig`): no subcommand sets them,
and gauge-check's tolerances include their refinement error.  gauge-check and
vp-run take at most 128 grid steps, comparison-demo 200, and default to the
cap.  Every CSV starts with a comment line carrying the master seed and a
hash of the subcommand and all parsed arguments but ``--out`` and
``--config``, so any output is reproducible bit for bit from (config, seed).
The process exits 0 exactly when every assertion configured for the
subcommand passes, 1 when one fails, and 2 on bad input, which :func:`run`
reports as one ``pathheat: error:`` line.  :func:`run` also exits 1, without
a traceback, when stdout is closed before the output is written (as by
``| head``), and sends comparison-demo's progress messages to stderr.  The
grid of a path file given to solve (``--path``) or vp-run (``--paths``)
replaces the steps and horizon settings, so setting either beside one is
bad input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import logging
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .audit import derivative_bound_audit, sandwich_audit, validate_alpha
from .errors import DomainError, InputError
from .experiments import (brownian_search_space, comparison_demo,
                          dt_convergence_rows, tn_convergence_rows)
from .gauge import ALPHA_SHRINK, calibrate_alpha
from .grids import (GridPath, PathPoint, TimeGrid,
                    brownian_increments, extend_with_increments, read_path_csv)
from .ito import SEMIMARTINGALE_PRESETS
from .sampling import random_pairs
from .solver import (MCConfig, build_terminal, candidate_solution,
                     control_nodes, pde_residual, terminal_names)
from .streams import sample_stream
from .varprinciple import SearchSpace, smooth_variational_principle

__all__ = ["main", "run"]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


# Every shared setting, once: config key -> argparse keywords of its flag.
_SETTINGS = {
    "d": dict(type=int, default=1, help="path dimension"),
    "horizon": dict(type=float, default=1.0, help="time horizon T"),
    "steps": dict(type=int, default=1000, help="grid steps M"),
    "terminal": dict(default="running_max", help="terminal functional "
                     f"({', '.join(terminal_names())})"),
    "n_samples": dict(type=int, default=10_000),
    "lam": dict(type=float, default=0.5),
    "delta": dict(type=_floats, default=(0.1, 0.05, 0.025),
                  help="comma-separated perturbation weights"),
}

# The settings each subcommand reads; it accepts no others.
_READS = {
    "solve": ("horizon", "steps", "terminal", "n_samples"),
    "pde-check": ("horizon", "steps"),
    "gauge-check": ("d", "horizon", "steps"),
    "ito-check": ("horizon",),
    "vp-run": ("horizon", "steps"),
    "approx": ("horizon", "steps"),
    "comparison-demo": ("horizon", "steps", "terminal", "lam", "delta"),
}

# The largest grid these subcommands accept, which is also their default.
_STEP_CAPS = {"gauge-check": 128, "vp-run": 128, "comparison-demo": 200}

# The option whose path file, when given, fixes the grid of the subcommand.
_GRID_FILES = {"solve": "path", "vp-run": "paths"}


def _config_argv(command: str, path: str) -> list[str]:
    """The settings of a config file as ``--flag=value`` arguments."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: "
                         f"{exc.strerror or exc}") from None
    argv = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line without '=': {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key != "seed" and key not in _READS[command]:
            raise InputError(f"config key {key!r} is not a setting of {command}")
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def _read_paths(path: str) -> GridPath:
    """The path CSV at ``path``; a file that cannot be read is bad input."""
    try:
        return read_path_csv(path)
    except OSError as exc:
        raise InputError(f"cannot read path file {path!r}: "
                         f"{exc.strerror or exc}") from None


def _config_hash(args: argparse.Namespace) -> str:
    items = sorted((k, v) for k, v in vars(args).items()
                   if k not in ("out", "config", "func"))
    blob = ";".join(f"{k}={v}" for k, v in items)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_csv(args: argparse.Namespace, name: str, header: list[str],
               rows: list) -> None:
    """Write the provenance line, ``header`` and ``rows`` to ``name`` in the
    output directory.  A subcommand computes all its rows first, so a run
    that fails leaves no partial file."""
    path = Path(args.out) / name
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={_config_hash(args)} seed={args.seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    grid = TimeGrid(args.horizon, args.steps)
    if args.path:
        x = _read_paths(args.path)
        grid = x.grid
        if x.dimension != 1:
            raise InputError(f"terminal {args.terminal!r} reads scalar paths, "
                             f"but {args.path} has {x.dimension} columns")
    else:
        x = GridPath.zero(grid)
    xi = build_terminal(args.terminal, grid)
    cfg = MCConfig(n_samples=args.n_samples, seed=args.seed,
                   antithetic=args.antithetic)
    est = candidate_solution(xi, args.t, x, cfg)
    n_times = control_nodes(grid, args.t, cfg, x.dimension).size
    print(f"{args.terminal} at t={args.t:g}: {est.mean:.6f} +/- {est.stderr:.6f} "
          f"(n={est.n_samples}, control times K={n_times})")
    _write_csv(args, "solve.csv",
               ["terminal", "t", "mean", "stderr", "n_samples", "control_times"],
               [[args.terminal, args.t, f"{est.mean:.17g}", f"{est.stderr:.17g}",
                 est.n_samples, n_times]])
    return 0


def _cmd_pde_check(args) -> int:
    if args.n_points < 1:
        raise InputError(f"--n-points must be at least 1, not {args.n_points}")
    grid = TimeGrid(args.horizon, args.steps)
    names = [name.strip() for name in args.spec.split(",")] if args.spec else [
        "cyl:linear", "cyl:quadratic", "cyl:exponential", "cyl:trig2"]
    terminals = [build_terminal(name, grid) for name in names]
    for name, xi in zip(names, terminals):
        if xi.cylinder is None:
            raise InputError(f"{name} is not a cylinder functional")
    rng = sample_stream(args.seed, 0)
    zero = GridPath.zero(grid)
    rows = []
    for name, xi in zip(names, terminals):
        for s in range(args.n_points):
            t = grid.node(int(rng.integers(0, grid.steps)))
            x = GridPath(grid, extend_with_increments(
                0.0, zero, brownian_increments(grid, 0, 1, rng)))
            res = float(pde_residual(xi.cylinder, t, [x])[0])
            rows.append([name, s, f"{t:.6g}", f"{res:.6e}",
                         "pass" if abs(res) <= args.tol else "FAIL"])
    _write_csv(args, "pde_check.csv",
               ["spec", "sample", "t", "residual", "pass"], rows)
    ok = all(row[-1] == "pass" for row in rows)
    print("pde-check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_gauge_check(args) -> int:
    if args.d < 1:
        raise InputError(f"--d must be at least 1, not {args.d}")
    if args.n_tuples < 1:
        raise InputError(f"--n-tuples must be at least 1, not {args.n_tuples}")
    grid = TimeGrid(args.horizon, args.steps)
    checks = derivative_bound_audit(args.d, grid, args.n_tuples, args.seed)
    checks += sandwich_audit(args.d, grid, args.n_tuples, args.seed + 1)
    if args.calibrate:
        diag = calibrate_alpha(
            random_pairs(grid, args.d, args.n_tuples, args.seed + 2))
        checks += validate_alpha(diag, grid, args.n_tuples, args.seed + 3)
        print(f"calibrated alpha_{args.d} = {diag.alpha:.6g} "
              f"(item-3 constant {diag.item3_constant:.6g})")
    _write_csv(args, "gauge_check.csv",
               ["bound", "constant", "observed_max", "tolerance", "status"],
               [c.csv_row() for c in checks])
    ok = all(c.passed for c in checks)
    failed = [c.name for c in checks
              if c.name.startswith("calibrated") and not c.passed]
    note = (f" ({', '.join(failed)}: alpha_{args.d} was calibrated on "
            f"{diag.n_samples} pairs, and calibrate_alpha shrinks their "
            f"infimum ratio by a fixed {ALPHA_SHRINK:g}, which does not "
            "cover small samples)"
            if failed else "")
    print("gauge-check:", ("pass" if ok else "FAIL") + note)
    return 0 if ok else 1


def _cmd_ito_check(args) -> int:
    rows = dt_convergence_rows(args.horizon, args.seed, n_samples=args.n_paths,
                               exponents=args.exponents, preset=args.preset)
    _write_csv(args, "ito_check.csv",
               ["dt", "mean_abs_residual", "stderr", "slope", "slope_stderr"],
               [[f"{row['dt']:.6g}", f"{row['mean_abs_residual']:.6e}",
                 f"{row['stderr']:.6e}", f"{row['slope']:.4f}",
                 f"{row['slope_stderr']:.4f}"] for row in rows])
    slope, se = rows[0]["slope"], rows[0]["slope_stderr"]
    # the verdict is the fitted slope's; a 3-stderr interval that holds the
    # bound is reported, as this sample size cannot decide the check
    ok = slope >= args.min_slope
    note = (f" (--min-slope {args.min_slope:g} lies within 3 stderr: too few "
            "paths to decide)" if abs(slope - args.min_slope) <= 3 * se else "")
    print(f"ito-check: slope={slope:.3f} +/- {se:.3f}{note}",
          "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_vp_run(args) -> int:
    if args.paths:
        if args.n_points is not None:
            raise InputError("--n-points sizes the Brownian search space, "
                             "which --paths replaces")
        data = _read_paths(args.paths)
        grid = data.grid
        times = args.times or (grid.node(grid.steps // 2),)
        pts = tuple(PathPoint(t, data.component(i))
                    for i in range(data.dimension) for t in times)
    else:
        if args.times is not None:
            raise InputError("--times sets the times of the --paths points; "
                             "the Brownian search space has its own")
        grid = TimeGrid(args.horizon, args.steps)
        n_points = 100 if args.n_points is None else args.n_points
        pts = brownian_search_space(grid, n_points, args.seed).points
    space = SearchSpace(pts)
    coeffs = sample_stream(args.seed, 0).standard_normal(3)
    v = np.array([p.present_value()[0] for p in space])
    t = np.array([p.t for p in space])
    values = coeffs[0] * v + coeffs[1] * np.sin(t) + coeffs[2] * v * v / 4
    start = space.points[int(np.argmin(values))]
    eps = max(values.max() - values.min(), 1e-9) * 1.001
    res = smooth_variational_principle(values, eps, args.vp_delta, start, space)
    rows = []
    for r in res.item_i:
        rows.append(["item_i", r.index, f"{r.gauge_limit_to_anchor:.6e}",
                     f"{r.bound:.6e}", r.ok])
        rows.append(["item_i_reversed", r.index, f"{r.gauge_anchor_to_limit:.6e}",
                     f"{r.bound:.6e}", r.ok_reversed])
    rows.append(["item_ii", "", f"{res.item_ii_lhs:.6e}",
                 f"{res.item_ii_rhs:.6e}", res.item_ii_ok])
    rows.append(["item_iii_margin", "", f"{res.item_iii_margin:.6e}", "",
                 res.item_iii_ok])
    rows.append(["iterations", "", res.iterations, "", res.iterations <= 1000])
    _write_csv(args, "vp_run.csv", ["record", "index", "value", "bound", "ok"],
               rows)
    ok = res.all_items_ok()
    print(f"vp-run: limit at index {res.limit_index}, t={res.limit.t:g}; "
          f"items {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_approx(args) -> int:
    grid = TimeGrid(args.horizon, args.steps)
    rows = tn_convergence_rows(grid, orders=args.orders)
    _write_csv(args, "approx.csv", ["order", "sup_error", "coefficient_gap"],
               [[row["order"], f"{row['sup_error']:.6e}",
                 f"{row['coefficient_gap']:.6e}"] for row in rows])
    errs = [row["sup_error"] for row in rows]
    ok = all(b < a for a, b in zip(errs, errs[1:])) and errs[-1] < args.tol
    print("approx:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_comparison(args) -> int:
    grid = TimeGrid(args.horizon, args.steps)
    report = comparison_demo(grid, args.seed, terminal=args.terminal,
                             order=args.order, n_paths=args.n_points,
                             n_mc=args.n_mc, lam=args.lam, deltas=args.delta,
                             mode=args.mode)
    _write_csv(args, "comparison_demo.csv",
               ["delta", "limit_time", "interior", "chain_left", "chain_mid",
                "chain_right", "phi_at_limit", "operator_phi", "items_ok",
                "exact_link_ok", "operator_ok", "tangency_link_ok",
                "endpoint_ok", "iterations", "smoothing_modulus"],
               [[row.delta, f"{row.limit_time:.6g}", row.interior,
                 f"{row.chain_left:.6e}", f"{row.chain_mid:.6e}",
                 f"{row.chain_right:.6e}", f"{row.phi_at_limit:.6e}",
                 f"{row.operator_phi:.6e}", row.items_ok, row.exact_link_ok,
                 row.operator_ok, row.tangency_link_ok, row.endpoint_ok,
                 row.iterations, f"{report.modulus:.6e}"] for row in report.rows])
    print(f"comparison-demo[{report.mode}]: verdict={report.verdict}, "
          f"rhs monotone={report.rhs_monotone}, "
          f"contradiction exhibited={report.contradiction_exhibited}")
    print(f"note: {_FINITE_SPACE_CAVEAT}")
    return 0 if report.verdict == "consistent" and report.rhs_monotone else 1


# ---------------------------------------------------------------------------

# The note comparison-demo prints under its verdict.
_FINITE_SPACE_CAVEAT = (
    "the tangency link is guaranteed only at a global maximum over the whole "
    "path space; on a finite space it is reported, not asserted")

_COMPARISON_DESCRIPTION = (
    "The comparison argument between the solution u and the solution v_n "
    "for the order-n Fejer-smoothed terminal.  u - v_n = E[xi(Y) - xi(F_n Y)] "
    "is one Monte-Carlo estimate per point time, on draws common to both "
    "sides; the allowance is 3 lam max exp(lam t) stderr(u - v_n).  The same "
    "draws give m = E||Y - F_n Y||_inf at the start point (CSV column "
    "smoothing_modulus).  Only a terminal 1-Lipschitz in the sup norm "
    "(running_max, terminal_value) can exhibit a contradiction: the endpoint "
    "fails and the start gap exceeds exp(lam t0) (m + 3 stderr) by more "
    "than the allowance.")

_GAUGE_CHECK_DESCRIPTION = (
    "Audits of the gauge's derivative bounds and of its two-sided comparison "
    "with the stopped distance, on random tuples.  The gauge's z-rule is exact "
    "at d = 1, 21-node-per-axis Gauss-Hermite at d = 2 and 100000-sample "
    "Monte Carlo beyond; its time-smoothing rule has one Gauss-Legendre panel "
    "per grid step between point and anchor, of 3, 1 and 2 nodes in turn.  "
    "Every derivative tolerance includes the refinement error of these rules.")

_SOLVE_DESCRIPTION = (
    "Monte-Carlo solution value at (t, path), with control variates; t must "
    "be a node of the grid.  With S = X - x(t) the walk of the extension, "
    "the controls are S_j, of mean 0, and S_j^+, of mean sqrt((s - t)/(2 "
    "pi)), for each path component j at K control times s spread evenly over "
    "(t, T], the last one T.  K = max(1, min(8, steps after t, "
    "floor(sqrt(n)/(16 d)))), so K = 1 below 1024 d^2 samples (n = 20000 at "
    "d = 1 gives K = 8); solve prints K and writes it as control_times.  At "
    "K >= 2 each component also has the walk's running max C_j = max(0, S_j "
    "at the nodes h, 2h, ..., Kh steps after t), with h the steps after t "
    "divided by K and rounded down, whose mean Spitzer's identity gives: "
    "the sum over i = 1..K of sqrt(i h dt/(2 pi))/i, dt = T/steps.  The "
    "least-squares coefficients are fitted on the samples themselves, which "
    "biases the mean by O(p/n); the reported stderr is sqrt(RSS/(n - p)/n) with p = 1 + (2K + 1)d fitted "
    "coefficients (1 + 2d at K = 1), so n must exceed p (at least 4 samples "
    "at d = 1).  The residual sum of squares RSS is floored at its rounding "
    "level, 64 eps times the sum of the squared samples.  Under "
    "--antithetic, S cancels inside each pair: the fit runs on the n/2 pair "
    "means, which take the place of n in K, with the pair means of S_j^+ and "
    "C_j as the only controls, p = 1 + (K + 1)d (1 + d at K = 1).  At t = T "
    "nothing is fitted and there are no control times.")


def _add_command(sub, name: str, func, help: str,
                 description: Optional[str] = None) -> argparse.ArgumentParser:
    """Subparser with --config, --seed, --out and the settings ``name`` reads."""
    # no abbreviations: vp-run would take --d for --delta-weight
    p = sub.add_parser(name, help=help, description=description,
                       allow_abbrev=False)
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--seed", type=int, help="master seed (mandatory here or in config)")
    p.add_argument("--out", default=".", help="output directory for CSV files")
    for key in _READS[name]:
        spec = _SETTINGS[key]
        if key == "steps" and name in _STEP_CAPS:
            spec = dict(spec, default=_STEP_CAPS[name],
                        help=f"grid steps M, at most {_STEP_CAPS[name]}")
        p.add_argument("--" + key.replace("_", "-"), **spec)
    p.set_defaults(func=func)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathheat",
        description="Desk-scale laboratory for the path-dependent heat equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "solve", _cmd_solve,
                     "Monte-Carlo solution value at (t, path)",
                     description=_SOLVE_DESCRIPTION)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--path", help="CSV file with the initial path; its grid "
                   "replaces --steps and --horizon")
    p.add_argument("--antithetic", action="store_true")

    p = _add_command(sub, "pde-check", _cmd_pde_check,
                     "heat-operator residuals for cylinder specs")
    p.add_argument("--spec", help="comma-separated cylinder spec names")
    p.add_argument("--n-points", type=int, default=20, dest="n_points")
    p.add_argument("--tol", type=float, default=1e-3)

    p = _add_command(sub, "gauge-check", _cmd_gauge_check,
                     "derivative-bound and sandwich audits",
                     _GAUGE_CHECK_DESCRIPTION)
    p.add_argument("--n-tuples", type=int, default=200, dest="n_tuples")
    p.add_argument("--calibrate", action="store_true",
                   help="also calibrate and validate the lower-bound constant")

    p = _add_command(sub, "ito-check", _cmd_ito_check,
                     "pathwise-formula residual sweep")
    p.add_argument("--preset", default="brownian",
                   choices=sorted(SEMIMARTINGALE_PRESETS))
    p.add_argument("--n-paths", type=int, default=256, dest="n_paths")
    p.add_argument("--exponents", type=_ints, default=(6, 7, 8, 9, 10),
                   help="comma-separated grid sizes 2^e in the dt sweep")
    p.add_argument("--min-slope", type=float, default=0.4, dest="min_slope")

    p = _add_command(sub, "vp-run", _cmd_vp_run,
                     "smooth variational principle on a finite space")
    p.add_argument("--paths", help="CSV path dictionary (columns are paths); "
                   "its grid replaces --steps and --horizon")
    p.add_argument("--times", type=_floats, help="comma-separated evaluation "
                   "times, each a node of the --paths grid (default: its "
                   "middle node)")
    p.add_argument("--n-points", type=int, dest="n_points",
                   help="points of the Brownian search space (default 100)")
    p.add_argument("--delta-weight", type=float, default=0.05, dest="vp_delta")

    p = _add_command(sub, "approx", _cmd_approx, "Fejer reconstruction error sweep")
    p.add_argument("--orders", type=_ints, default=(4, 8, 16, 32, 64, 128),
                   help="comma-separated Fejer orders")
    p.add_argument("--tol", type=float, default=0.05)

    p = _add_command(sub, "comparison-demo", _cmd_comparison,
                     "comparison-theorem pipeline", _COMPARISON_DESCRIPTION)
    p.add_argument("--mode", default="candidate",
                   choices=["candidate", "subsolution"])
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--n-points", type=int, default=200, dest="n_points")
    p.add_argument("--n-mc", type=int, default=2000, dest="n_mc",
                   help="Monte-Carlo samples of u - v_n per point; u, v_n and "
                        "the points at one time share their draws")

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # argv[0] is the subcommand; the file's settings go before the
        # flags, so that a flag overrides the file
        argv = argv[:1] + _config_argv(args.command, args.config) + argv[1:]
        args = parser.parse_args(argv)
    if args.seed is None:
        raise InputError("a master seed is mandatory: pass --seed or set seed= "
                         "in the config file")
    grid_file = _GRID_FILES.get(args.command)
    if grid_file and getattr(args, grid_file):
        # no abbreviations, so a setting given appears as --key or --key=value
        for key in ("steps", "horizon"):
            flag = "--" + key
            if any(a == flag or a.startswith(flag + "=") for a in argv):
                raise InputError(f"{flag} is fixed by the grid of the "
                                 f"--{grid_file} file; leave it unset, as flag "
                                 f"and as config key")
    cap = _STEP_CAPS.get(args.command)
    if cap is not None and args.steps > cap:
        raise InputError(f"{args.command} runs on at most {cap} grid steps, "
                         f"not {args.steps}")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    return args.func(args)


def run(argv: Optional[list[str]] = None) -> int:
    """Console entry point: :func:`main`, with an :class:`InputError` or
    :class:`DomainError` reported as one line on stderr and exit status 2
    instead of a traceback, and a closed stdout as exit status 1.  Progress
    messages go to stderr."""
    logging.basicConfig(format="%(message)s", level=logging.INFO)
    try:
        status = main(argv)
        sys.stdout.flush()
        return status
    except (InputError, DomainError) as exc:
        print(f"pathheat: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(run())

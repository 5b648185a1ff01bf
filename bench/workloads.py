"""The four benchmark workloads and their correctness oracles.

Each workload runs what one ``pathheat`` CLI subcommand runs, at a fixed
configuration, with a seed the runner derives from the benchmark seed.  One
child process runs one workload call, so every call pays interpreter start,
imports and cold caches, as a CLI user does.

Why each workload exists
------------------------
mc-solve
    ``solve --terminal running_max --steps 1000`` at t=0 from the zero path.
    MC sampling carries almost all the work: stream construction
    (``streams``), Brownian extension and terminal evaluation (``solver``).
    Gauge, VP and the factor engine do no work here, so a change to them
    must leave this workload unchanged.
gauge-audit
    ``gauge-check`` at d=1, then at d=2, in one call, each phase about half
    the time.  The ``gauge``, ``audit`` and s-rule ``quadrature`` layers do
    nearly all the work, with no MC at all.  The d=2 phase uses the same
    layers with a tensor Gauss-Hermite z-rule instead of the exact 1-d rule,
    so a d=1 gain that costs d>=2 shows.  Every call builds a fresh anchor.
vp-run
    ``vp-run`` on the Brownian search space.  ``varprinciple`` carries the
    work in two parts: the O(n^2) ``SearchSpace`` dedupe through
    ``grids.path_distance`` (run twice per call) and the gauge columns, many
    points against one shared anchor.  That is the opposite access pattern
    to gauge-audit, so a batched-column gain that slows single calls shows.
comparison
    ``comparison-demo`` in candidate mode at order 16 with the default
    deltas, at reduced ``--n-points``/``--n-mc`` (10 and 400).  The
    paper's uniqueness pipeline; the only workload that exercises the
    factor engine (``solver.finite_dim_solution``), which dominates it,
    followed by MC and the VP.

    Oracle: the verdict is "consistent" (VP conclusions, exact left link
    and the operator bound |L phi| <= bound at every delta).  The CLI also
    requires the chain's right side delta * L phi(limit) to fall as delta
    halves, and exits 1 otherwise.  The theory does not promise that: the
    VP limit depends on delta and can jump to a point whose L phi is ~3x
    larger (seeds 104003 and 104032 of 40 at 10 points; 4005, 6003 and
    6005 of 36 at 20 points).  Its rigorous form, delta * |L phi| <=
    delta * bound, is part of the verdict.  So a call passes when the
    verdict is consistent and the exit status is the one the report
    implies; the runner counts the non-monotone calls and prints them.

Left out: ``ito-check``, ``pde-check``, ``approx`` and ``converge`` (each
under 0.3 s at its defaults) and the d=3 gauge (~0.9 s and ~470 MiB per
call).

Accuracy (``err_est``) per workload
-----------------------------------
Every workload reports every end-to-end metric, so the accuracy each
workload reaches is one metric, ``err_est``:

* mc-solve: the MC standard error of the solve estimate.
* gauge-audit: the largest refinement error estimate of the audit's
  estimator (``audit.estimate_gauge_quadrature_error``) over d=1 and d=2.
* vp-run: the same estimator at d=1, the rule the VP columns use.
* comparison: ``ComparisonReport.stat_allowance``.

The two gauge figures use the estimator's default probe set, not
workload-seeded probes: over 16 random probes the largest error moves by
~50% from seed to seed, which would drown the rule's accuracy in noise.
``time_to_tol_s`` is ``wall_s * (err_est / 1e-3)**2``, the cost to reach an
error of 1e-3 at the MC rate (Giles, Oper. Res. 56(3), 2008).  On the two
gauge workloads the error is not statistical; there the figure is a
cost-times-error-squared product that rises when speed is bought with
accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = ["MC_STEPS", "TOLERANCE", "Workload", "WORKLOADS", "phase_checks",
           "read_csv", "spitzer_running_max"]

# Tolerance of the cost-at-fixed-error metric time_to_tol_s.
TOLERANCE = 1e-3
MC_STEPS = 1000
MC_SAMPLES = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    phases: tuple[tuple[str, ...], ...]  # CLI argv per phase, before --seed/--out
    items: int                           # work units per call
    item_unit: str
    csv_name: str                        # CSV each phase writes
    dimensions: tuple[int, ...] = ()     # path dimensions of the gauge calls


WORKLOADS = {w.name: w for w in (
    Workload("mc-solve",
             (("solve", "--terminal", "running_max", "--steps", str(MC_STEPS),
               "--t", "0", "--n-samples", str(MC_SAMPLES)),),
             items=MC_SAMPLES, item_unit="MC samples", csv_name="solve.csv"),
    Workload("gauge-audit",
             (("gauge-check", "--d", "1", "--n-tuples", "60"),
              ("gauge-check", "--d", "2", "--n-tuples", "20")),
             # derivative audit plus sandwich audit, per phase
             items=2 * 60 + 2 * 20, item_unit="audit tuples",
             csv_name="gauge_check.csv", dimensions=(1, 2)),
    Workload("vp-run",
             (("vp-run", "--n-points", "300"),),
             items=300, item_unit="search points", csv_name="vp_run.csv",
             dimensions=(1,)),
    Workload("comparison",
             (("comparison-demo", "--mode", "candidate", "--order", "16",
               "--n-points", "10", "--n-mc", "400"),),
             items=10, item_unit="comparison points",
             csv_name="comparison_demo.csv"),
)}


def spitzer_running_max(steps: int, horizon: float = 1.0) -> float:
    """E[max_{0<=k<=M} S_k] for a Gaussian random walk with step variance dt.

    Spitzer's identity gives sum_{k=1..M} E[S_k^+]/k, and
    E[S_k^+] = sqrt(k dt / (2 pi)), so the sum is sum sqrt(dt / (2 pi k)).
    """
    dt = horizon / steps
    return math.fsum(math.sqrt(dt / (2.0 * math.pi * k)) for k in range(1, steps + 1))


def read_csv(path: Path) -> list[dict]:
    """Rows of a CLI CSV (the first line is a ``#`` provenance comment)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def phase_checks(workload: Workload, out_dir: Path) -> list[tuple[str, bool]]:
    """Row-level checks of one phase's CSV output."""
    rows = read_csv(out_dir / workload.csv_name)
    if workload.name == "gauge-audit":
        return [(f"bound {r['bound']}", r["status"] == "pass") for r in rows]
    if workload.name == "vp-run":
        return [(f"vp {r['record']} {r['index']}", r["ok"] == "True") for r in rows]
    return []

"""Benchmark runner for the pathheat lab.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh child processes (``bench/child.py``), one CLI
call each, one after another, for about ``S`` seconds and at least
``MIN_CALLS`` calls (pairs of calls with ``--trace 1``).  Child ``i`` gets
seed ``N * 1000 + i``, so the same ``--seed`` gives the same inputs.  BLAS
is pinned to one thread in every child.

``--trace 0`` reports the end-to-end metrics, medians over the calls.
``--trace 1`` alternates an untraced and a traced call on the same seed,
checks that both produce bit-identical outputs, and reports the per-layer
metrics of the traced calls (medians) with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The runner exits 1
if any check failed and 2 if the checkout holds no ``pathheat`` sources or
a call did not produce a record; it then prints no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metric_names  # noqa: E402
from workloads import (MC_STEPS, TOLERANCE, WORKLOADS,  # noqa: E402
                       spitzer_running_max)

# Calls per run, whatever --seconds says.
MIN_CALLS = 4
CALL_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
OUT = HERE / "out"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("items_per_s", "1/s"),
              ("err_est", "1"), ("time_to_tol_s", "s"))


class CallFailed(RuntimeError):
    pass


def _terminate(signum, frame):
    # An exception, unlike the default action, lets subprocess.run kill
    # and reap the running child before this process exits.
    raise SystemExit(128 + signum)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _call(workload: str, seed: int, trace: int, work: Path, timeout: float,
          spans: str = "", accuracy: bool = False) -> dict:
    out = work / f"{seed}-{trace}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    if spans:
        cmd += ["--spans", spans]
    if accuracy:
        cmd += ["--accuracy", "1"]
    spawned = time.time()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise CallFailed(f"{workload} seed {seed}: no result within {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CallFailed(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _percentile_line(values: list[float]) -> str:
    """Median, run count, and the highest percentile with ten runs beyond it."""
    n = len(values)
    line = f"median over {n} calls"
    if n >= 11:
        pct = 100 * (n - 10) // n
        idx = max(math.ceil(pct / 100 * n) - 1, 0)
        line += f", p{pct}={sorted(values)[idx]:.6g}"
    return line


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(seed: int, records: list[dict]) -> dict:
    versions = records[0]["versions"]
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas": {**versions["blas"], "threads": BLAS_THREADS},
            "python": versions["python"], "numpy": versions["numpy"],
            "scipy": versions["scipy"], "git_commit": _git_commit(),
            "source_digest": _source_digest()}


def _checks(records: list[dict]) -> list[tuple[str, bool]]:
    return [(f"seed {r['seed']}: {name}", ok) for r in records
            for name, ok in r["checks"]]


def _spitzer_check(records: list[dict]) -> tuple[str, bool]:
    """Pooled MC mean within 4 stderr of the exact grid value."""
    n = sum(r["mc"]["n"] for r in records)
    mean = sum(r["mc"]["mean"] * r["mc"]["n"] for r in records) / n
    se = math.sqrt(sum((r["mc"]["stderr"] * r["mc"]["n"]) ** 2 for r in records)) / n
    exact = spitzer_running_max(MC_STEPS)
    ok = abs(mean - exact) <= 4.0 * se
    return (f"spitzer: pooled mean {mean:.6f} vs exact {exact:.6f} "
            f"(4 stderr = {4 * se:.2e})", ok)


def _end_to_end(records: list[dict]) -> dict[str, list[float]]:
    per_call = {
        "wall_s": [r["wall_s"] for r in records],
        "cpu_s": [r["cpu_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "peak_rss_mib": [r["peak_rss_mib"] for r in records],
        "items_per_s": [r["items"] / r["wall_s"] for r in records],
    }
    err = statistics.median(r["err_est"] for r in records if r["err_est"] is not None)
    per_call["err_est"] = [err]
    per_call["time_to_tol_s"] = [w * (err / TOLERANCE) ** 2 for w in per_call["wall_s"]]
    return per_call


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "pathheat" / "__init__.py").is_file():
        print(f"error: no pathheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    untraced: list[dict] = []
    try:
        i = 0
        while i < MIN_CALLS or time.perf_counter() - start < args.seconds:
            seed = args.seed * 1000 + i
            left = RUN_LIMIT_S - (time.perf_counter() - start)
            if left < 10:
                break
            if args.trace:
                untraced.append(_call(args.workload, seed, 0, work, min(left, CALL_TIMEOUT_S)))
                left = RUN_LIMIT_S - (time.perf_counter() - start)
                spans = str(OUT / f"spans-{args.workload}.jsonl")
                records.append(_call(args.workload, seed, 1, work,
                                     min(left, CALL_TIMEOUT_S), spans))
            else:
                records.append(_call(args.workload, seed, 0, work,
                                     min(left, CALL_TIMEOUT_S), accuracy=i == 0))
            i += 1
    except CallFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = _checks(untraced + records)
    if args.workload == "mc-solve":
        checks.append(_spitzer_check(untraced + records))
    if args.trace:
        checks += [(f"seed {u['seed']}: traced outputs equal untraced",
                    u["digest"] == t["digest"]) for u, t in zip(untraced, records)]

    env = _environment(args.seed, records)
    metrics: dict[str, dict] = {}
    lines = []
    if args.trace:
        overhead = (statistics.median(r["wall_s"] for r in records)
                    / statistics.median(r["wall_s"] for r in untraced) - 1.0)
        for name, unit in layer_metric_names():
            if name == "trace.overhead":
                value = overhead
            else:
                value = statistics.median(r["layers"][name] for r in records)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:58s} {value:14.6g} {unit}")
    else:
        per_call = _end_to_end(records)
        for name, unit in END_TO_END:
            value = statistics.median(per_call[name])
            metrics[name] = {"value": value, "unit": unit}
            note = _percentile_line(per_call[name]) if len(per_call[name]) > 1 else ""
            lines.append(f"{name:14s} {value:14.6g} {unit:4s} {note}")

    failed = [name for name, ok in checks if not ok]
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "result": result, "failed_checks": failed,
                    "calls": untraced + records}, indent=1))

    print(f"workload {args.workload}: {WORKLOADS[args.workload].items} "
          f"{WORKLOADS[args.workload].item_unit} per call, {len(records)} calls "
          f"in {time.perf_counter() - start:.1f} s")
    print("environment " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"checks: {len(checks) - len(failed)}/{len(checks)} passed "
          f"(fail_ratio {len(failed) / len(checks):.4g})")
    if args.workload == "comparison":
        flat = sum(not r["rhs_monotone"] for r in untraced + records)
        print(f"comparison: right side not monotone in delta in {flat} of "
              f"{len(untraced + records)} calls (reported, not a failure)")
    for name in failed:
        print(f"FAILED: {name}")
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

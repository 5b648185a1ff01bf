"""One workload call in a fresh process; prints one JSON record.

Usage: python3 bench/child.py --workload NAME --seed N --spawned EPOCH
                              --trace 0|1 --out DIR [--spans FILE]

``--spawned`` is the wall-clock time at which the parent started this
process, so that ``setup_s`` covers interpreter start, imports and input
build up to the first workload call.  The timed phase is the CLI call
itself; outputs land in ``DIR`` and are checked after it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, rebind
from workloads import WORKLOADS, phase_checks, read_csv

ROOT = Path(__file__).resolve().parents[1]


def _import_pathheat():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pathheat
    from pathheat import audit, cli

    if src not in Path(pathheat.__file__).resolve().parents:
        raise SystemExit(f"pathheat imported from {pathheat.__file__}, not {src}")
    return cli, audit


def _capture(module, attr: str, sink: list) -> None:
    """Record the return values of ``module.attr`` wherever it is bound."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    rebind(original, wrapper)


def _gauge_quadrature_error(audit, wl) -> float:
    """Largest refinement error estimate of the gauge rule the workload
    uses, on the estimator's default probe set (see ``workloads``).  The
    grid and rule are the ones gauge-check and vp-run build by default."""
    from pathheat.grids import TimeGrid
    from pathheat.quadrature import QuadratureConfig

    return max(max(audit.estimate_gauge_quadrature_error(
                   d, TimeGrid(1.0, 128), QuadratureConfig()).values())
               for d in wl.dimensions)


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default="")
    ap.add_argument("--accuracy", type=int, choices=(0, 1), default=0,
                    help="also measure the gauge quadrature error (gauge workloads)")
    args = ap.parse_args(argv)

    cli, audit = _import_pathheat()
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    phase_argv = [list(p) + ["--seed", str(args.seed), "--out", str(out / f"p{i}")]
                  for i, p in enumerate(wl.phases)]

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    reports: list = []
    _capture(cli, "comparison_demo", reports)

    printed = io.StringIO()
    setup_s = time.time() - args.spawned
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        if tracer is None:
            codes = [cli.main(a) for a in phase_argv]
        else:
            codes = [tracer.call("cli.main", cli.main, a) for a in phase_argv]
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    peak_rss_mib = ru1.ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)

    expected_codes = [0] * len(codes)
    checks = []
    digest = hashlib.sha256()
    for i in range(len(wl.phases)):
        digest.update((out / f"p{i}" / wl.csv_name).read_bytes())
        checks += phase_checks(wl, out / f"p{i}")

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mib": peak_rss_mib, "items": wl.items,
              "digest": digest.hexdigest(), "layers": layers}
    if wl.name == "mc-solve":
        row = read_csv(out / "p0" / wl.csv_name)[0]
        record["mc"] = {"mean": float(row["mean"]), "stderr": float(row["stderr"]),
                        "n": int(row["n_samples"])}
        record["err_est"] = record["mc"]["stderr"]
    elif wl.name in ("gauge-audit", "vp-run"):
        record["err_est"] = _gauge_quadrature_error(audit, wl) if args.accuracy else None
    else:
        rep = reports[0]
        consistent = rep.verdict == "consistent"
        checks.append(("comparison verdict consistent", consistent))
        # The CLI also exits 1 when the chain's right side is not monotone
        # in delta, which the theory does not promise (see workloads.py).
        expected_codes = [0 if consistent and rep.rhs_monotone else 1]
        record["rhs_monotone"] = bool(rep.rhs_monotone)
        record["err_est"] = rep.stat_allowance
    checks += [(f"exit status phase {i}", code == want)
               for i, (code, want) in enumerate(zip(codes, expected_codes))]
    record["digest"] = hashlib.sha256(
        (record["digest"] + repr(record["err_est"])).encode()).hexdigest()
    record["checks"] = checks

    import numpy as np
    import scipy

    record["versions"] = {"python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "blas": _blas()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the per-layer benchmark run.

The tracer wraps public functions of the ``pathheat`` modules from outside
the package: nothing under ``src/`` knows it exists.  A module that does
``from .quadrature import legendre_rule`` holds its own reference to the
function, so patching only the defining module would leave those call sites
untouched and report zero calls.  :meth:`Tracer.install` therefore rebinds
*every* ``pathheat`` module attribute that is the original object.

Spans are kept in memory as ``(id, parent_id, name, start, end)`` tuples and
written out once, after the timed phase.  A layer's self time is its span's
duration minus the durations of its direct child spans; calls are
sequential, so child spans never overlap and the self times of all spans
under a root sum to the root's duration.

Layer -> end-to-end metric -> workload map
------------------------------------------
Which end-to-end metric each traced layer should move, and on which
workload no change is predicted:

* ``streams.sample_stream``, ``streams.per_sample`` (streams opened per MC
  sample), ``solver.candidate_solution`` (its self time is the Brownian
  extension), ``solver.TerminalFunctional.evaluate_batch``: move ``wall_s``
  and ``time_to_tol_s`` on mc-solve and ``wall_s`` on comparison; no change
  predicted on gauge-audit or vp-run.
* ``solver.finite_dim_solution`` with ``.legendre_per_call``,
  ``cylinders.cylinder_approx``, ``cylinders.cylinder_coordinates``: move
  ``wall_s`` on comparison with ``err_est`` (the statistical allowance)
  held; nothing elsewhere.
* ``quadrature.legendre_rule`` with ``.repeat_share`` (share of calls whose
  node count was already seen in the run), ``quadrature.gaussian_rule``:
  move ``wall_s`` on comparison and gauge-audit; no change predicted on
  mc-solve.
* ``gauge.smooth_gauge``, ``gauge.horizontal_smoothed_distance``,
  ``gauge.vertical_smoothed_distance``, ``gauge.perturbation_sum``,
  ``gauge.share_t_ge_t0`` (share of time-smoothed distance calls whose point
  time is at or after the anchor time): move ``wall_s`` and ``err_est``
  (the quadrature error) on gauge-audit and ``wall_s`` on vp-run; no change
  predicted on mc-solve.
* ``audit.estimate_gauge_quadrature_error``, ``audit.derivative_bound_audit``,
  ``audit.sandwich_audit``: move ``wall_s`` on gauge-audit.
* ``varprinciple.SearchSpace`` (the O(n^2) dedupe), ``grids.path_distance``,
  ``varprinciple.smooth_variational_principle`` with ``.iterations``,
  ``varprinciple.gauge_calls_per_point``, ``experiments.brownian_search_space``,
  ``experiments.comparison_demo``: move ``wall_s`` on vp-run and a small
  share of comparison.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Layer", "LAYERS", "Tracer", "layer_metric_names", "layer_metrics",
           "rebind"]

ROOT_SPAN = "cli.main"


@dataclass(frozen=True)
class Layer:
    """One traced public function: ``module`` and ``qualname`` inside
    ``pathheat``; a class name traces construction (its ``__post_init__``)."""

    module: str
    qualname: str

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS = tuple(Layer(m, q) for m, q in (
    ("streams", "sample_stream"),
    ("solver", "candidate_solution"),
    ("solver", "TerminalFunctional.evaluate_batch"),
    ("solver", "finite_dim_solution"),
    ("cylinders", "cylinder_approx"),
    ("cylinders", "cylinder_coordinates"),
    ("quadrature", "legendre_rule"),
    ("quadrature", "gaussian_rule"),
    ("gauge", "smooth_gauge"),
    ("gauge", "horizontal_smoothed_distance"),
    ("gauge", "vertical_smoothed_distance"),
    ("gauge", "perturbation_sum"),
    ("audit", "estimate_gauge_quadrature_error"),
    ("audit", "derivative_bound_audit"),
    ("audit", "sandwich_audit"),
    ("varprinciple", "SearchSpace"),
    ("grids", "path_distance"),
    ("varprinciple", "smooth_variational_principle"),
    ("experiments", "brownian_search_space"),
    ("experiments", "comparison_demo"),
))

# Ratios derived from spans and call arguments; 0.0 when the denominator is
# zero (the workload never reaches the layer).
DERIVED = (
    ("streams.per_sample", "ratio"),
    ("solver.finite_dim_solution.legendre_per_call", "ratio"),
    ("quadrature.legendre_rule.repeat_share", "ratio"),
    ("gauge.share_t_ge_t0", "ratio"),
    ("varprinciple.smooth_variational_principle.iterations", "count"),
    ("varprinciple.gauge_calls_per_point", "ratio"),
    (f"{ROOT_SPAN}.self_s", "s"),
    ("trace.overhead", "ratio"),
)


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count"))
        out.append((f"{layer.name}.self_s", "s"))
    out.extend(DERIVED)
    return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _note_candidate(args, kwargs, result):
    return _arg(args, kwargs, 3, "cfg").n_samples


def _note_legendre(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "nodes"))


def _note_horizontal(args, kwargs, result):
    anchor = _arg(args, kwargs, 0, "anchor")
    x = _arg(args, kwargs, 2, "x")
    return x.grid.index_of(_arg(args, kwargs, 1, "t")) >= anchor.node_index


def _note_vp(args, kwargs, result):
    return result.iterations, len(_arg(args, kwargs, 4, "space"))


# Per-call facts the derived ratios need, taken after the call returns.
_NOTES: dict[str, Callable] = {
    "solver.candidate_solution": _note_candidate,
    "quadrature.legendre_rule": _note_legendre,
    "gauge.horizontal_smoothed_distance": _note_horizontal,
    "varprinciple.smooth_variational_principle": _note_vp,
}


def rebind(old, new, prefix: str = "pathheat") -> list[tuple[object, str]]:
    """Replace every module attribute under ``prefix`` that *is* ``old``
    with ``new``; return the (module, attribute) pairs replaced."""
    done = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                done.append((mod, attr))
    return done


class Tracer:
    """In-memory span recorder with wrappers for the ``pathheat`` layers."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self.notes: dict[str, list] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        The wrapper returns exactly what ``fn`` returns and lets its
        exceptions propagate; the span is recorded either way.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if note is not None:
                tracer.notes.setdefault(name, []).append(note(args, kwargs, result))
            return result

        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span (used for the root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer at every binding inside ``pathheat``."""
        for layer in LAYERS:
            module = importlib.import_module(f"pathheat.{layer.module}")
            owner_name, _, attr = layer.qualname.rpartition(".")
            note = _NOTES.get(layer.name)
            if owner_name:
                self._patch_attr(getattr(module, owner_name), attr, layer.name, note)
                continue
            original = getattr(module, attr)
            if isinstance(original, type):
                self._patch_attr(original, "__post_init__", layer.name, note)
                continue
            done = rebind(original, self.wrap(layer.name, original, note))
            if not done:
                raise RuntimeError(f"no binding of {layer.name} found")
            self._undo.extend(functools.partial(setattr, mod, name, original)
                              for mod, name in done)

    def _patch_attr(self, owner, attr: str, name: str, note) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, note))
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {sid: end - start for sid, _, _, start, end in self.spans}
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _ancestors(parents: dict, names: dict, sid: int):
    p = parents[sid]
    while p is not None:
        yield names[p]
        p = parents[p]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in
    :func:`layer_metric_names` (``trace.overhead`` is added by the runner)."""
    own = tracer.self_times()
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    names = {sid: name for sid, _, name, *_ in tracer.spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for sid, name in names.items():
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = calls.get(layer.name, 0)
        out[f"{layer.name}.self_s"] = self_s.get(layer.name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def under(child: str, ancestor: str) -> int:
        return sum(1 for sid, name in names.items()
                   if name == child and ancestor in _ancestors(parents, names, sid))

    notes = tracer.notes
    out["streams.per_sample"] = ratio(calls.get("streams.sample_stream", 0),
                                      sum(notes.get("solver.candidate_solution", [])))
    out["solver.finite_dim_solution.legendre_per_call"] = ratio(
        under("quadrature.legendre_rule", "solver.finite_dim_solution"),
        calls.get("solver.finite_dim_solution", 0))
    seen: set[int] = set()
    repeats = 0
    for nodes in notes.get("quadrature.legendre_rule", []):
        repeats += nodes in seen
        seen.add(nodes)
    out["quadrature.legendre_rule.repeat_share"] = ratio(
        repeats, len(notes.get("quadrature.legendre_rule", [])))
    flags = notes.get("gauge.horizontal_smoothed_distance", [])
    out["gauge.share_t_ge_t0"] = ratio(sum(flags), len(flags))
    vp = notes.get("varprinciple.smooth_variational_principle", [])
    out["varprinciple.smooth_variational_principle.iterations"] = sum(i for i, _ in vp)
    out["varprinciple.gauge_calls_per_point"] = ratio(
        under("gauge.smooth_gauge", "varprinciple.smooth_variational_principle"),
        sum(n for _, n in vp))
    out[f"{ROOT_SPAN}.self_s"] = self_s.get(ROOT_SPAN, 0.0)
    return out

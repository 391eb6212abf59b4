"""Outside-in span tracer for the benchmark's traced run.

The package modules import each other's functions by name (``berry``,
``sweep`` and ``cli`` all hold their own ``classify_region``), so a
wrapper installed only on the defining module would miss most calls.
``Tracer.install`` therefore rebinds every ``berryline`` module attribute
that is the wrapped function, plus the frame and entry methods of the two
model classes, and ``uninstall`` puts every original back. Nothing under
``src/`` knows about the tracer.

A span records its name, start, end, parent span, the operation it
belongs to, a work count (loop samples or RK4 steps) and whether the call
returned. Spans stay in memory until ``write`` dumps them as JSON lines.
A span's self time is its duration minus the time its children cover.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

# layer boundaries, traced under "<layer>.<function>"; the ``models`` layer
# is the methods of the model classes
FUNCTIONS = (
    ("berry", "global_berry_phase"),
    ("berry", "bipartite_phase_point"),
    ("berry", "band_berry_phase"),
    ("berry", "apply_gauge"),
    ("quadrature", "tanh_sinh"),
    ("quadrature", "refine_dyadically"),
    ("spectrum", "classify_region"),
    ("spectrum", "verify_region"),
    ("elliptic", "closed_form_gamma"),
    ("evolution", "adiabatic_decomposition"),
    ("evolution", "evolve"),
    ("sweep", "phase_diagram"),
    ("sweep", "save_phase_diagram"),
    ("cli", "main"),
)
MODEL_CLASSES = ("TwoLevelModel", "BipartiteModel")
MODEL_METHODS = ("eigen_path", "entry_rows", "energies")


def _grid_size(args, kwargs):
    return len(args[1])          # (self, alphas)


def _schedule_steps(args, kwargs):
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return int(schedule.steps)


_WORK = {
    "models.eigen_path": _grid_size,
    "models.entry_rows": _grid_size,
    "models.energies": _grid_size,
    "evolution.adiabatic_decomposition": _schedule_steps,
    "evolution.evolve": _schedule_steps,
}


def _history_length(result, exc):
    # accepted rungs of one global_berry_phase call
    source = result if exc is None else exc
    return len(getattr(source, "refinement_history", None)
               or getattr(source, "history", None) or ())


def _csv_size(args, exc):
    path = args[1] if len(args) > 1 else None
    if exc is not None or path is None or not os.path.exists(path):
        return 0
    return os.path.getsize(path)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "work", "ok", "extra")

    def __init__(self, name, parent, op, work):
        self.name = name
        self.parent = parent
        self.op = op
        self.work = work
        self.start = 0.0
        self.end = 0.0
        self.ok = False
        self.extra = 0


class Tracer:
    """Wraps layer boundaries of a loaded ``berryline`` package in spans."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._rebound = []      # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        work_of = _WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op,
                        work_of(args, kwargs) if work_of else 0)
            stack.append(len(spans))
            spans.append(span)
            exc = None
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span.end = clock()
                stack.pop()
                if name == "berry.global_berry_phase":
                    span.extra = _history_length(result, exc)
                elif name == "sweep.save_phase_diagram":
                    span.extra = _csv_size(args, exc)

        traced.__traced__ = True
        return traced

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None
                   and (key == "berryline" or key.startswith("berryline."))]
        models = sys.modules["berryline.models"]
        for cls_name in MODEL_CLASSES:
            cls = getattr(models, cls_name)
            for method in MODEL_METHODS:
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(f"models.{method}", original))
                self._rebound.append((cls, method, original))
        for layer, func in FUNCTIONS:
            original = getattr(sys.modules[f"berryline.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self):
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def rebound(self):
        """The (owner, attribute) pairs the last ``install`` replaced."""
        return list(self._rebound)

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, "work": s.work,
                    "ok": s.ok}) + "\n")


def is_traced(value):
    return getattr(value, "__traced__", False)


def layer_metrics(tracer, overhead_frac):
    """Every per-layer metric of the benchmark from one traced run's spans."""
    spans = tracer.spans
    self_s = tracer.self_times()
    calls = defaultdict(int)
    work = defaultdict(int)
    own = defaultdict(float)
    for span, t in zip(spans, self_s):
        calls[span.name] += 1
        work[span.name] += span.work
        own[span.name] += t

    points = [i for i, s in enumerate(spans)
              if s.name == "berry.global_berry_phase"]
    point_set = set(points)
    rung_spans = [s for s in spans
                  if s.name == "models.eigen_path" and s.parent in point_set]
    rungs = len(rung_spans)
    accepted = sum(spans[i].extra for i in points)
    results = sum(1 for i in points if spans[i].ok)

    evolved = [(s, t) for s, t in zip(spans, self_s)
               if s.name in ("evolution.adiabatic_decomposition",
                             "evolution.evolve") and s.ok]
    steps = sum(s.work for s, _ in evolved)
    step_s = sum(t for _, t in evolved)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "models.eigen_path.calls": calls["models.eigen_path"],
        "models.eigen_path.samples": work["models.eigen_path"],
        "models.eigen_path.self_s": own["models.eigen_path"],
        "models.eigen_path.ns_per_sample": 1e9 * ratio(
            own["models.eigen_path"], work["models.eigen_path"]),
        "models.entry_rows.samples": work["models.entry_rows"],
        "models.entry_rows.self_s": own["models.entry_rows"],
        "models.energies.self_s": own["models.energies"],
        "berry.global_berry_phase.calls": len(points),
        "berry.global_berry_phase.self_s": own["berry.global_berry_phase"],
        "berry.rungs_per_point": ratio(rungs, len(points)),
        "berry.rung_yield": ratio(results, rungs),
        "berry.discarded_rungs": rungs - accepted,
        "berry.samples_per_point": ratio(
            sum(s.work for s in rung_spans), len(points)),
        "berry.bipartite_phase_point.self_s": own["berry.bipartite_phase_point"],
        "berry.band_berry_phase.self_s": own["berry.band_berry_phase"],
        "berry.apply_gauge.self_s": own["berry.apply_gauge"],
        "quadrature.tanh_sinh.calls": calls["quadrature.tanh_sinh"],
        "quadrature.tanh_sinh.self_s": own["quadrature.tanh_sinh"],
        "quadrature.refine_dyadically.calls": calls["quadrature.refine_dyadically"],
        "quadrature.refine_dyadically.self_s": own["quadrature.refine_dyadically"],
        "spectrum.classify_region.calls": calls["spectrum.classify_region"],
        "spectrum.classify_region.self_s": own["spectrum.classify_region"],
        "spectrum.verify_region.self_s": own["spectrum.verify_region"],
        "elliptic.closed_form_gamma.calls": calls["elliptic.closed_form_gamma"],
        "elliptic.closed_form_gamma.self_s": own["elliptic.closed_form_gamma"],
        "evolution.steps": steps,
        "evolution.adiabatic_decomposition.self_s":
            own["evolution.adiabatic_decomposition"],
        "evolution.evolve.self_s": own["evolution.evolve"],
        "evolution.us_per_step": 1e6 * ratio(step_s, steps),
        "sweep.phase_diagram.self_s": own["sweep.phase_diagram"],
        "sweep.save_phase_diagram.self_s": own["sweep.save_phase_diagram"],
        "sweep.csv_bytes": sum(s.extra for s in spans
                               if s.name == "sweep.save_phase_diagram"),
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": own["cli.main"],
        "trace.overhead_frac": overhead_frac,
    }
    return values

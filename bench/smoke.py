"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/smoke.py

The file name keeps these out of the package's own test collection.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.load_package() is None

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "diagram": lambda: workloads.Diagram(n=4, trace_ops=1),
    "points": lambda: workloads.Points(trace_ops=12),
    "evolve": lambda: workloads.Evolve(cli_log2_t=(6.0, 6.5),
                                       c09_log2_t=(6.0, 6.5), trace_ops=6),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_measured(name, trace):
    lines, result = run.measure(TINY[name](), seed=1, seconds=0.2,
                                trace=trace)
    assert result["correct"], lines
    assert result["attempted"] >= 1
    names = {m["name"] for m in run.metric_specs(trace)}
    assert names <= set(result["metrics"]), names - set(result["metrics"])
    if not trace:
        assert all(result["metrics"][m] > 0 for m in names), result
    else:
        assert any(line.startswith("operations=") and "identical_outputs="
                   in line for line in lines), lines


def test_same_seed_gives_the_same_counts():
    counts = []
    for _ in range(2):
        _, result = run.measure(TINY["points"](), seed=2, seconds=0.2,
                                trace=0)
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]
    assert counts[0][0] == math.ceil(0.2 * workloads.Points.rate)


def _package_bindings():
    bindings = {}
    for key, module in sorted(sys.modules.items()):
        if module is not None and (key == "berryline"
                                   or key.startswith("berryline.")):
            for attr, value in vars(module).items():
                bindings[(key, attr)] = value
    models = sys.modules["berryline.models"]
    for cls_name in tracer.MODEL_CLASSES:
        cls = getattr(models, cls_name)
        for method in tracer.MODEL_METHODS:
            bindings[(cls_name, method)] = cls.__dict__[method]
    return bindings


def test_tracer_rebinds_every_consumer_and_restores_it():
    before = _package_bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        rebound = {(getattr(owner, "__name__", owner), attr)
                   for owner, attr, _ in spans.rebound()}
        for consumer in ("berryline.berry", "berryline.sweep",
                         "berryline.cli", "berryline.spectrum"):
            assert (consumer, "classify_region") in rebound
            assert tracer.is_traced(
                getattr(sys.modules[consumer], "classify_region"))
        for cls_name in tracer.MODEL_CLASSES:
            for method in tracer.MODEL_METHODS:
                assert (cls_name, method) in rebound
        assert len(rebound) == len(spans.rebound())
    finally:
        spans.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, changed
    assert not any(tracer.is_traced(v) for v in after.values())


def test_self_time_excludes_children():
    spans = tracer.Tracer()
    outer = tracer.Span("outer", -1, 0, 0)
    outer.start, outer.end = 0.0, 1.0
    inner = tracer.Span("inner", 0, 0, 0)
    inner.start, inner.end = 0.25, 0.5
    spans.spans.extend([outer, inner])
    assert spans.self_times() == [0.75, 0.25]


def test_refuses_to_run_without_the_package_sources():
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("_*", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "points",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip(), done.stdout

"""Benchmark of the berryline package: one workload, one run, one result.

Run from the repository root:

    python3 bench/run.py --workload diagram --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed list of operations twice, untraced and then
with every layer boundary wrapped in spans, checks that both passes give
identical outputs, and reports the per-layer metrics. Metric names and
units come from BENCHMARK.json at the repository root. Report lines go
to stdout; the last line is the JSON result.

The benchmark pins its own environment before the package is imported:
one process (BERRYLINE_THREADS=1) and a fixed SOURCE_DATE_EPOCH, so the
CSV sidecars are byte reproducible.
"""

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Shared hosts drift in speed by tens of percent over minutes. Timing
# metrics are therefore scaled to a reference machine speed: each
# operation's wall time times KERNEL_REF_S over the time of
# ``reference_kernel`` measured next to it (every CAL_EVERY_S, smoothed
# over CAL_WINDOW_S). KERNEL_REF_S is the kernel's time on the machine
# the benchmark was defined on.
KERNEL_REF_S = 0.008
CAL_EVERY_S = 0.5
CAL_WINDOW_S = 1.5
# an untraced run gives up once this many times ``--seconds`` (at most
# GIVE_UP_MAX_S) have passed, so a much slower host still ends in time
GIVE_UP = 2.5
GIVE_UP_MAX_S = 140.0
PINNED_ENV = {"BERRYLINE_THREADS": "1", "SOURCE_DATE_EPOCH": "1700000000"}

# time to import the package (with its CLI module) in a fresh interpreter
# plus one warm-up operation of the workload; the harness import between
# the two is not counted
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import berryline, berryline.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[3]]().warm_up()
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


def measure_setup(name, repeats=SETUP_REPEATS):
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(BENCH),
             name],
            cwd=ROOT, env=dict(os.environ), capture_output=True, text=True,
            timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def reference_kernel():
    """Seconds for fixed pure-Python and NumPy work that uses no berryline.

    The mix (complex scalar arithmetic, short and long elementwise array
    passes) follows what the workloads spend their time on.
    """
    import numpy as np

    small = np.linspace(0.0, 6.28, 1024)
    large = np.linspace(0.0, 6.28, 65536)
    t0 = time.perf_counter()
    a, b = 1.0 + 0.0j, 0.5j
    for _ in range(6000):
        a = a * (0.9999 + 0.0001j) + b * 1e-6
        b = -1j * (a * 0.5 + b * 0.25)
    for _ in range(40):
        y = np.exp(1j * small) * np.cos(small)
        np.angle(y)
        np.abs(y)
    y = np.exp(1j * large) * np.cos(large)
    np.angle(y)
    np.abs(y)
    return time.perf_counter() - t0


def machine_speed(kernel_t, kernel_s, at):
    """KERNEL_REF_S over the kernel time measured around time ``at``.

    The median of the kernel times sampled within CAL_WINDOW_S of ``at``,
    or of the two nearest samples when the window holds fewer.
    """
    near = [k for t, k in zip(kernel_t, kernel_s) if abs(t - at) <= CAL_WINDOW_S]
    if len(near) < 2:
        near = [k for _, k in sorted(zip(kernel_t, kernel_s),
                                     key=lambda s: abs(s[0] - at))[:2]]
    return KERNEL_REF_S / statistics.median(near)


def retained_rss_mb():
    """Resident set size once garbage is collected and the C heap trimmed.

    What stays is memory the process holds on to between operations, such
    as caches, rather than the transient peak of the largest operation.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        trim = None
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _quantile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Tally:
    """Attempted items and failures by label.

    Keeps counts, the first reason per label and at most 20 unlabelled
    reasons: every small object kept across operations can pin a freed
    memory arena and inflate ``rss_mb``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.count = {}
        self.first = {}
        self.unknown = []

    def add(self, outcome):
        self.attempted += outcome.items
        for reason, label in outcome.failures:
            self.failed += 1
            self.count[label] = self.count.get(label, 0) + 1
            if label is not None:
                self.first.setdefault(label, reason)
            elif len(self.unknown) < 20:
                self.unknown.append(reason)


def run_untraced(workload, seed, seconds, workdir):
    """Closed loop over a fixed prefix of the workload's operations.

    The prefix holds ``seconds`` times the workload's ``rate`` in cost
    units, so it takes about ``seconds`` on the reference machine and the
    same seed always gives the same operations, the same ``attempted``
    and, on the same code, the same ``failed``, however fast the host
    runs. Past GIVE_UP times ``seconds`` of wall time the run stops early
    and says so. Per-operation figures go into flat float arrays, not
    objects, for the reason ``Tally`` gives.
    """
    setup_s = measure_setup(workload.name)
    workload.warm_up()
    ops = workload.ops(seed)
    budget = seconds * workload.rate
    spent = 0.0
    mid, secs, work, lat, kernel_t, kernel_s = (array("d") for _ in range(6))
    tally = Tally()
    notes = []
    clock = time.perf_counter
    give_up = clock() + min(GIVE_UP * seconds, GIVE_UP_MAX_S)
    while spent < budget or not secs:
        if clock() > give_up:
            notes.append(f"stopped early: {spent!r} of {budget!r} cost units"
                         f" done when the wall-time limit passed")
            break
        if not kernel_t or clock() - kernel_t[-1] >= CAL_EVERY_S:
            kernel_t.append(clock())
            kernel_s.append(reference_kernel())
        op = next(ops)
        spent += workload.cost(op)
        start = clock()
        outcome = workload.run(op, workdir)
        mid.append(start + 0.5 * outcome.seconds)
        secs.append(outcome.seconds)
        work.append(outcome.work)
        lat.append(math.nan if outcome.latency_ms is None
                   else outcome.latency_ms)
        tally.add(outcome)
        if outcome.note:
            notes.append(outcome.note)
    kernel_t.append(clock())
    kernel_s.append(reference_kernel())
    rss_mb = retained_rss_mb()

    def summary(speeds):
        latencies = [x * v for x, v in zip(lat, speeds) if not math.isnan(x)]
        tail = _quantile(latencies, workload.tail_pct)
        return (sum(work) / sum(x * v for x, v in zip(secs, speeds)),
                _quantile(latencies, 50), tail, len(latencies),
                sum(1 for x in latencies if x > tail))

    raw = summary([1.0] * len(secs))
    per_s, p50, tail, samples, beyond = summary(
        [machine_speed(kernel_t, kernel_s, at) for at in mid])
    metrics = {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "work_per_s": per_s,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
    }
    notes.append(f"operations={len(secs)} latency_samples={samples}"
                 f" tail=p{workload.tail_pct} beyond_tail={beyond}"
                 f" attempted={tally.attempted} failed={tally.failed}")
    notes.append(f"unscaled wall time: work_per_s={raw[0]!r} "
                 f"op_p50_ms={raw[1]!r} op_tail_ms={raw[2]!r}; "
                 f"kernel_s median={statistics.median(kernel_s)!r}"
                 f" over {len(kernel_s)} samples; peak_rss_mb="
                 f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0!r}")
    return metrics, tally, notes, True


def run_traced(workload, seed, workdir):
    """A fixed operation list, each run untraced and traced; outputs must match.

    Each operation first runs once untimed, so neither timed run pays for
    fresh memory. The two timed runs follow back to back, in alternating
    order, so drift in machine speed cancels out of the overhead.
    """
    import tracer

    ops = list(islice(workload.ops(seed), workload.trace_ops))
    workload.warm_up()
    spans = tracer.Tracer()
    plain, traced_out = [], []
    plain_wall = traced_wall = 0.0
    for i, op in enumerate(ops):
        workload.run(op, workdir)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                spans.op = i
                spans.install()
            try:
                t0 = time.perf_counter()
                outcome = workload.run(op, workdir)
                wall = time.perf_counter() - t0
            finally:
                spans.uninstall()
            if traced:
                traced_out.append(outcome)
                traced_wall += wall
            else:
                plain.append(outcome)
                plain_wall += wall
    identical = [a.fingerprint == b.fingerprint
                 for a, b in zip(plain, traced_out)]
    tally = Tally()
    for outcome in plain + traced_out:
        tally.add(outcome)
    trace_dir = BENCH / "_trace"
    trace_dir.mkdir(exist_ok=True)
    spans.write(trace_dir / f"{workload.name}.jsonl")
    metrics = tracer.layer_metrics(
        spans, (traced_wall - plain_wall) / plain_wall)
    report = [f"operations={len(ops)} spans={len(spans.spans)}"
              f" untraced_s={plain_wall!r} traced_s={traced_wall!r}"
              f" identical_outputs={sum(identical)}/{len(ops)}"]
    return metrics, tally, report, all(identical)


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "berryline").glob("*.py")))


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (report lines, result object)."""
    import numpy
    import scipy
    from workloads import KNOWN_DEFECTS, REFUSED

    workdir = BENCH / "_work"
    workdir.mkdir(exist_ok=True)
    try:
        if trace:
            run = run_traced(workload, seed, str(workdir))
        else:
            run = run_untraced(workload, seed, seconds, str(workdir))
        metrics, tally, report, consistent = run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_lines": _src_lines(), "env": PINNED_ENV}
    lines = [f"meta {json.dumps(meta, sort_keys=True)}"] + report
    for label in [REFUSED] + sorted(KNOWN_DEFECTS):
        if label in tally.count:
            lines.append(f"{label}: {tally.count[label]} failed ("
                         f"{KNOWN_DEFECTS.get(label, 'typed refusal')}), "
                         f"first: {tally.first[label]}")
    lines += [f"unexpected failure: {reason}" for reason in tally.unknown]
    if not consistent:
        lines.append("traced and untraced outputs differ")
    return lines, {"correct": consistent and None not in tally.count,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "metrics": metrics}


def metric_specs(trace):
    """The per-layer or end-to-end metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def load_package():
    """Pin the environment and import berryline from src/; None or an error."""
    if not (SRC / "berryline" / "__init__.py").is_file():
        return f"no berryline package under {SRC}"
    os.environ.update(PINNED_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import berryline
    if Path(berryline.__file__).resolve().parent != SRC / "berryline":
        return f"imported berryline from {berryline.__file__}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def fail(message):
        print(f"bench: {message}", file=sys.stderr)
        return 2

    error = load_package()
    if error:
        return fail(error)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    wanted = metric_specs(args.trace)
    lines, result = measure(workloads.WORKLOADS[args.workload](), args.seed,
                            args.seconds, args.trace)
    values = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    for line in lines:
        print(line)
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

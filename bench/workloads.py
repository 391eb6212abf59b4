"""The benchmark's three workloads: inputs, one operation, output checks.

Each workload turns a seed into an endless, reproducible sequence of
operations (plain data), runs one operation against the package, and
checks what came back against a route independent of the code that
produced it. ``cost(op)`` gives an operation's size, known before it
runs, and ``rate`` the cost units the reference machine gets through in
a second: a run takes the shortest prefix of the sequence whose cost
reaches ``rate`` times its seconds. Operations call the package through module attributes
(``sweep.phase_diagram``), so the traced run sees them; the check routes
are bound at import and never traced.

A failed check is counted, never skipped, and labelled:

* ``REFUSED``: a regular input met a typed ``BerrylineError`` with the
  exit code the CLI maps it to (a NaN diagram cell, exit 2 or 3 on a
  query, a typed error from a cycle). The program kept its contract but
  gave no answer.
* a key of ``KNOWN_DEFECTS``: a wrong answer or untyped error that
  matches a defect already on record.
* ``None``: anything else (a wrong value, an untyped error, a wrong exit
  code). One of these makes the run incorrect.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from berryline import cli, evolution, sweep
from berryline.elliptic import closed_form_gamma as _closed_form_gamma
from berryline.errors import BerrylineError
from berryline.models import (BipartiteModel, BipartiteParams, TwoLevelModel,
                              TwoLevelParams)

KNOWN_DEFECTS = {
    "two_level_2pi": "adiabatic decomposition of a two-level loop is off by "
                     "whole turns of 2 pi (ROADMAP item 3)",
    "evolve_unscaled": "public evolve keeps no log-scale: the lossy chain "
                       "underflows (ZeroDivisionError, zero state) or its "
                       "dual overflows (ROADMAP item 3)",
    "cli_exponent_arg": "argparse takes a negative value written in exponent "
                        "notation (--hz -8.5e-05) for an option and the CLI "
                        "exits 1",
}
REFUSED = "refused"

_TWO_PI = 2.0 * math.pi
_NEAR_LINE = 1e-3        # the sweep's own critical-line margin
_PHASE_TOL = 1e-6        # contour vs elliptic closed form, Q plateaus
_DEFECT_T = 10.0         # defect bound C / T; measured C is about 4.6
_SINGULAR_EXIT = 2


@dataclass
class Outcome:
    """What one operation cost and whether its outputs passed their checks.

    ``items`` counts the attempted unit operations (diagram cells, CLI
    queries, cycles); ``failures`` holds one (reason, label) pair per
    failed item, labelled as the module docstring describes. ``work``
    counts the units behind ``work_per_s`` and ``latency_ms`` is the
    sample behind ``op_p50_ms`` and ``op_tail_ms`` (None when the
    operation gives none).
    """

    seconds: float
    items: int
    work: int
    latency_ms: object
    fingerprint: str
    failures: list = field(default_factory=list)
    note: str = ""


def quasi_uniform(rng, dim):
    """Endless low-discrepancy points in [0, 1)^dim from a random start.

    The additive recurrence of Roberts' R_d sequence: every prefix covers
    the cube evenly, so the share of costly inputs in one run varies far
    less between seeds than with independent draws.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = (1.0 / phi) ** np.arange(1, dim + 1)
    u = rng.random(dim)
    while True:
        yield [float(x) for x in u]
        u = (u + alpha) % 1.0


# ---------------------------------------------------------------- diagram

class Diagram:
    """Batch sweeps of the c10 rectangle at reduced resolution.

    Each sweep offsets both axes by less than one cell, drawn from the
    seed, so no two sweeps share a cell and a cache across sweeps cannot
    help. Work and cost are cells; latency is one sweep plus its CSV write.
    """

    name = "diagram"
    tail_pct = 80
    rate = 520.0
    q_range = (0.1, 3.0)
    eta_range = (0.0, 3.0)

    def __init__(self, n=16, trace_ops=4):
        self.n = n
        self.trace_ops = trace_ops

    def warm_up(self):
        sweep.phase_diagram((0.55, 2.05), (0.05, 2.55), 2, 2)

    def cost(self, op):
        return self.n * self.n

    def ops(self, seed):
        offsets = quasi_uniform(np.random.default_rng([seed, 1]), 2)
        dq = (self.q_range[1] - self.q_range[0]) / (self.n - 1)
        de = (self.eta_range[1] - self.eta_range[0]) / (self.n - 1)
        while True:
            u, v = next(offsets)
            yield ((self.q_range[0] + u * dq, self.q_range[1] + u * dq),
                   (self.eta_range[0] + v * de, self.eta_range[1] + v * de))

    def run(self, op, workdir):
        q_range, eta_range = op
        path = os.path.join(workdir, "diagram.csv")
        t0 = time.perf_counter()
        try:
            grid = sweep.phase_diagram(q_range, eta_range, self.n, self.n)
            sweep.save_phase_diagram(grid, path)
        except Exception as exc:   # the sweep must absorb every cell failure
            cells = self.n * self.n
            return Outcome(seconds=time.perf_counter() - t0, items=cells,
                           work=0, latency_ms=None,
                           fingerprint=type(exc).__name__,
                           failures=[(f"sweep raised {exc!r}", None)] * cells)
        seconds = time.perf_counter() - t0
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        cells = grid.converged.size
        return Outcome(
            seconds=seconds, items=cells, work=cells,
            latency_ms=1e3 * seconds, fingerprint=digest,
            failures=diagram_failures(grid),
            note=(f"csv sha256={digest} q={q_range[0]!r}:{q_range[1]!r}:"
                  f"{self.n} eta={eta_range[0]!r}:{eta_range[1]!r}:{self.n}"))


def diagram_failures(grid):
    """Cells that fail their checks, as (reason, label) pairs.

    NaN cells, the sweep's record of a typed refusal, fail unless they
    sit within its critical-line margin. Converged cells must have Q on
    their side's plateau and the region the inequalities give; converged
    TYPE_I cells must match the elliptic closed form in both bands.
    """
    q = np.broadcast_to(grid.q_axis[None, :], grid.converged.shape)
    eta = np.broadcast_to(grid.eta_axis[:, None], grid.converged.shape)
    near = ((np.abs(q - 1.0) <= _NEAR_LINE)
            | (np.abs(eta - (q + 1.0)) <= _NEAR_LINE)
            | (np.abs(eta - np.abs(q - 1.0)) <= _NEAR_LINE))
    values = np.stack([grid.gamma_g_plus, grid.xi_g_plus, grid.gamma_g_minus,
                       grid.xi_g_minus, grid.q_index])
    failures = []
    for i, j in zip(*np.nonzero(np.isnan(values).any(axis=0) & ~near)):
        failures.append((f"NaN cell at q={q[i, j]!r} eta={eta[i, j]!r}",
                         REFUSED))
    for i, j in zip(*np.nonzero(grid.converged)):
        qq, ee = float(q[i, j]), float(eta[i, j])
        plateau = 1.0 if qq > 1.0 else 0.0
        if abs(grid.q_index[i, j] - plateau) > _PHASE_TOL:
            failures.append((f"Q={grid.q_index[i, j]!r} off its plateau at "
                             f"q={qq!r} eta={ee!r}", None))
        label = region_label(qq, ee)
        if grid.region[i, j] != label:
            failures.append((f"region {grid.region[i, j]} != {label} at "
                             f"q={qq!r} eta={ee!r}", None))
        elif label == "TYPE_I":
            plus = _closed_form_gamma(qq, ee, "plus")
            minus = _closed_form_gamma(qq, ee, "minus")
            got = (grid.gamma_g_plus[i, j], grid.xi_g_plus[i, j],
                   grid.gamma_g_minus[i, j], grid.xi_g_minus[i, j])
            want = (plus.real, plus.imag, minus.real, minus.imag)
            if max(abs(a - b) for a, b in zip(got, want)) > _PHASE_TOL:
                failures.append((f"closed form mismatch at q={qq!r} "
                                 f"eta={ee!r}", None))
    return failures


def region_label(q, eta):
    """Region from the strict inequalities; callers stay off the lines."""
    if eta < abs(q - 1.0):
        return "TYPE_I"
    if eta > q + 1.0:
        return "TYPE_II"
    return "GAPLESS_TRUE_CROSSING"


# ----------------------------------------------------------------- points

def _f(x):
    return repr(float(x))


def _two_level_draw(u, same_side):
    """Two-level fields and amplitudes at least 0.07 from the singular set.

    ``u`` holds 8 uniforms. ``same_side`` puts both amplitudes on one
    side of their fields (index 1), otherwise on opposite sides (index 0).
    """
    h_x, h_y = 0.5 + 2.5 * u[0], 0.5 + 2.5 * u[1]
    below = u[2] < 0.5

    def amp(h, under, v):
        return v * (h - 0.07) if under else h + 0.07 + v * 2.93

    return dict(hx=h_x, hy=h_y, hz=2.0 * u[5] - 1.0,
                dx=amp(h_x, below, u[3]),
                dy=amp(h_y, below if same_side else not below, u[4]),
                dz=2.0 * u[6] - 1.0, theta=0.1 + (math.pi - 0.2) * u[7])


def _two_level_flags(p):
    return [x for key in ("hx", "hy", "hz", "dx", "dy", "dz", "theta")
            for x in (f"--{key}", _f(p[key]))]


def _chain_draw(u, region):
    """(q, eta) from 2 uniforms: |q - 1| >= 0.15, eta inside ``region``."""
    q = 0.2 + 2.5 * u[0]
    if q > 0.85:
        q += 0.3
    if region == "TYPE_I":
        eta = u[1] * 0.9 * abs(q - 1.0)
    elif region == "TYPE_II":
        eta = 1.1 * (q + 1.0) + u[1]
    else:
        eta = abs(q - 1.0) + 0.05 + u[1] * (q + 1.0 - 0.1 - abs(q - 1.0))
    return q, eta


def _pick(options, v):
    return options[int(v * len(options))]


def _expected_index(p):
    product = (p["dx"] ** 2 - p["hx"] ** 2) * (p["dy"] ** 2 - p["hy"] ** 2)
    return 1 if product > 0.0 else 0


# one shuffled cycle of query kinds: 48 slots, 4 of them singular. Each
# kind draws its inputs from its own quasi-random stream of the dimension
# below. Two gauge checks in 48 keep p98 off the cliff between plain and
# escalated gauge checks (about 14 ms and 35 ms), where it would jump
# from seed to seed.
_POINT_MIX = (["two-level+"] * 9 + ["two-level-"] * 9
              + ["bipartite-TYPE_I", "bipartite-TYPE_II", "bipartite-gapless"] * 6
              + ["ep-classify"] * 6 + ["gauge-two-level", "gauge-bipartite"]
              + ["singular-two-level", "singular-bipartite"] * 2)
_POINT_DIMS = {"two-level+": 8, "two-level-": 8, "bipartite-TYPE_I": 2,
               "bipartite-TYPE_II": 2, "bipartite-gapless": 2,
               "ep-classify": 3, "gauge-two-level": 11, "gauge-bipartite": 5,
               "singular-two-level": 10, "singular-bipartite": 1}


class Points:
    """Closed loop, one client, one CLI query in flight.

    Each query runs ``berryline.cli.main(argv)`` in-process with stdout
    and stderr captured. Work and cost are queries; latency is one query.
    """

    name = "points"
    tail_pct = 98
    rate = 185.0

    def __init__(self, trace_ops=360):
        self.trace_ops = trace_ops

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["bipartite", "--q", "2", "--eta", "0.3"])

    def cost(self, op):
        return 1

    def ops(self, seed):
        rng = np.random.default_rng([seed, 2])
        streams = {kind: quasi_uniform(rng, dim)
                   for kind, dim in _POINT_DIMS.items()}
        while True:
            for kind in rng.permutation(_POINT_MIX):
                kind = str(kind)
                yield self._query(kind, next(streams[kind]))

    @staticmethod
    def _query(kind, u):
        if kind in ("two-level+", "two-level-"):
            p = _two_level_draw(u, kind == "two-level+")
            return kind, ["two-level-q"] + _two_level_flags(p), p
        if kind.startswith("bipartite-"):
            q, eta = _chain_draw(u, kind.split("-", 1)[1])
            return kind, ["bipartite", "--q", _f(q), "--eta", _f(eta)], (q, eta)
        if kind == "ep-classify":
            q, eta = _chain_draw(u[1:], _pick(["TYPE_I", "TYPE_II", "gapless"],
                                              u[0]))
            return kind, ["ep-classify", "--q", _f(q), "--eta", _f(eta)], (q, eta)
        if kind == "singular-two-level":
            p = _two_level_draw(u[2:], u[0] < 0.5)
            if u[1] < 0.5:
                p["dx"] = p["hx"]
            else:
                p["dy"] = p["hy"]
            return kind, ["two-level-q"] + _two_level_flags(p), None
        if kind == "singular-bipartite":
            return kind, ["bipartite", "--q", "1.0", "--eta", _f(3.0 * u[0])], None
        winding = _pick(range(-3, 4), u[0])
        band = _pick(["plus", "minus", "both"], u[1])
        shift = winding * (2 if band == "both" else 1)
        gauge = ["--winding", str(winding), "--band", band]
        if kind == "gauge-two-level":
            p = _two_level_draw(u[3:], u[2] < 0.5)
            return kind, (["gauge-check", "--model", "two-level"]
                          + _two_level_flags(p) + gauge), shift
        q, eta = _chain_draw(u[3:], _pick(["TYPE_I", "TYPE_II"], u[2]))
        return kind, (["gauge-check", "--model", "bipartite", "--q", _f(q),
                       "--eta", _f(eta)] + gauge), shift

    def run(self, op, workdir):
        kind, argv, expect = op
        out = io.StringIO()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            problem = None
        except Exception as exc:   # an untyped escape is a failed query
            code = None
            problem = f"{type(exc).__name__} {exc}"
        seconds = time.perf_counter() - t0
        text = out.getvalue()
        label = None
        if problem is None:
            if code in (2, 3) and not kind.startswith("singular"):
                problem = f"exit {code}: {err.getvalue().strip()}"
                label = REFUSED
            elif code == 1 and _negative_exponent(argv):
                problem = f"exit 1: {err.getvalue().strip()}"
                label = "cli_exponent_arg"
            else:
                problem = _point_problem(kind, code, text, expect)
        failures = [(f"{kind}: {problem} for {argv}", label)] if problem else []
        return Outcome(seconds=seconds, items=1, work=1,
                       latency_ms=1e3 * seconds,
                       fingerprint=f"{code}\n{text}", failures=failures)


def _negative_exponent(argv):
    # argparse reads "-8.5e-05" as an option name, not a value
    return any(a.startswith("-") and "e" in a and a[1:2].isdigit()
               for a in argv)


def _point_problem(kind, code, text, expect):
    if kind.startswith("singular"):
        return None if code == _SINGULAR_EXIT else f"exit {code}, expected 2"
    if code != 0:
        return f"exit {code}"
    out = json.loads(text)
    if kind.startswith("two-level"):
        want = _expected_index(expect)
        if not out["converged"] or out["Q_analytic"] != want:
            return "unconverged or wrong analytic index"
        if abs(abs(out["Q_numeric"]) - want) > _PHASE_TOL:
            return f"Q={out['Q_numeric']!r}, sign condition gives {want}"
        return None
    if kind.startswith("bipartite"):
        q, eta = expect
        if out["region"] != region_label(q, eta) or not out["converged"]:
            return "wrong region or unconverged"
        if abs(out["Q"] - (1.0 if q > 1.0 else 0.0)) > _PHASE_TOL:
            return f"Q={out['Q']!r} off its plateau"
        if ("closed_form" in out) != (eta < abs(q - 1.0)):
            return "closed_form block present outside its domain or missing"
        if "closed_form" in out:
            for band in ("gamma_plus", "gamma_minus"):
                for part in ("re", "im"):
                    gap = abs(out[band][part] - out["closed_form"][band][part])
                    if gap > _PHASE_TOL:
                        return f"{band}.{part} misses the closed form by {gap:.3e}"
        return None
    if kind == "ep-classify":
        label = region_label(*expect)
        witnesses = 2 if label == "GAPLESS_TRUE_CROSSING" else 0
        if out["region"] != label or out["all_labels"] != [label]:
            return f"region {out['region']}, inequalities give {label}"
        if len(out["witnesses"]) != witnesses:
            return f"{len(out['witnesses'])} witnesses, expected {witnesses}"
        return None
    bounds = (("residual_connection", 1e-9), ("residual_gamma_plus", 1e-8),
              ("residual_gamma_minus", 1e-8), ("residual_Q", 1e-6))
    for key, bound in bounds:
        if not out[key] <= bound:
            return f"{key}={out[key]!r} above {bound}"
    if abs(out["delta_Q"] - expect) > _PHASE_TOL:
        return f"delta_Q={out['delta_Q']!r}, windings give {expect}"
    return None


# ----------------------------------------------------------------- evolve

def _models():
    return {
        "chain": BipartiteModel(BipartiteParams.from_ratios(2.0, 0.3)),
        "hermitian": TwoLevelModel(TwoLevelParams(
            h_x=1.2, h_y=1.2, h_z=-0.4, d_x=0.0, d_y=0.0, d_z=0.0, theta=1.0)),
        "gain-loss": TwoLevelModel(TwoLevelParams(
            h_x=1.0, h_y=1.0, h_z=0.2, d_x=0.5, d_y=0.5, d_z=0.0, theta=1.0)),
    }


def cli_steps(T):
    return max(1000, math.ceil(10.0 * T))


def c09_steps(T):
    return math.ceil(3.0 * T ** 1.5)


class Evolve:
    """Adiabatic cycles and public ``evolve`` runs on three loops.

    Every round draws, per (model, step rule), one cycle time and runs
    the decomposition plus ``evolve`` with dual False and True on that
    schedule. The CLI rule draws log2 T from ``cli_log2_t``, the c09 rule
    from ``c09_log2_t``. Cost is RK4 steps; work is the steps of cycles
    that returned; latency is milliseconds per 1000 such steps.
    """

    name = "evolve"
    tail_pct = 90
    rate = 230000.0
    calls = ("decomposition", "evolve", "evolve-dual")

    def __init__(self, cli_log2_t=(10.0, 14.0), c09_log2_t=(8.0, 11.0),
                 trace_ops=18):
        self.rules = {"cli": (cli_log2_t, cli_steps),
                      "c09": (c09_log2_t, c09_steps)}
        self.trace_ops = trace_ops
        self.models = _models()

    def warm_up(self):
        evolution.adiabatic_decomposition(
            self.models["chain"], evolution.Schedule(period_T=100.0, steps=1000),
            "plus")

    def cost(self, op):
        return op[3]

    def ops(self, seed):
        rng = np.random.default_rng([seed, 3])
        streams = {(m, r): quasi_uniform(rng, 1)
                   for m in self.models for r in self.rules}
        while True:
            for (model, rule), stream in streams.items():
                (lo, hi), steps_of = self.rules[rule]
                T = 2.0 ** (lo + (hi - lo) * next(stream)[0])
                psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
                psi0 /= np.linalg.norm(psi0)
                for call in self.calls:
                    yield model, rule, T, steps_of(T), call, psi0

    def run(self, op, workdir):
        model_key, rule, T, steps, call, psi0 = op
        model = self.models[model_key]
        schedule = evolution.Schedule(period_T=T, steps=steps)
        t0 = time.perf_counter()
        try:
            if call == "decomposition":
                result = evolution.adiabatic_decomposition(model, schedule,
                                                           "plus")
            else:
                result = evolution.evolve(model, schedule, psi0,
                                          dual=call == "evolve-dual")
            error = None
        except Exception as exc:   # typed or not, a regular cycle must return
            result = None
            error = exc
        seconds = time.perf_counter() - t0
        where = f"{call} {model_key} {rule} T={T!r} steps={steps}"
        if error is not None:
            if isinstance(error, BerrylineError):
                known = REFUSED
            elif (call != "decomposition" and model_key == "chain"
                  and type(error) is ZeroDivisionError):
                known = "evolve_unscaled"
            else:
                known = None
            return Outcome(seconds=seconds, items=1, work=0, latency_ms=None,
                           fingerprint=type(error).__name__,
                           failures=[(f"{where}: {type(error).__name__} "
                                      f"{error}", known)])
        failure = _cycle_failure(model_key, rule, T, call, result)
        if call == "decomposition":
            fingerprint = repr((result.total_phase, result.gamma_d,
                                result.xi_d, result.gamma_g, result.xi_g,
                                result.defect, result.leak_ratio,
                                result.psi_final.tolist()))
        else:
            fingerprint = repr(np.asarray(result).tolist())
        return Outcome(seconds=seconds, items=1, work=steps,
                       latency_ms=1e6 * seconds / steps,
                       fingerprint=fingerprint,
                       failures=[(f"{where}: {failure[0]}", failure[1])]
                       if failure else [])


def _cycle_failure(model_key, rule, T, call, result):
    if call != "decomposition":
        psi = np.asarray(result)
        if np.all(np.isfinite(psi)) and np.any(psi != 0.0):
            return None
        known = "evolve_unscaled" if model_key == "chain" else None
        return f"state {psi.tolist()} is not finite and nonzero", known
    if rule == "cli":
        return None     # fixed step 0.1: the defect grows with T by design
    bound = _DEFECT_T / T
    if result.defect <= bound:
        return None
    turns = round(result.defect / _TWO_PI)
    whole = (model_key != "chain" and turns >= 1
             and abs(result.defect - _TWO_PI * turns) <= bound)
    return (f"defect {result.defect!r} above {bound!r}",
            "two_level_2pi" if whole else None)


WORKLOADS = {w.name: w for w in (Diagram, Points, Evolve)}

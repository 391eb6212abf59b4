"""Parameter sweeps built on the point evaluators, plus file persistence.

Three sweep shapes: a (q, eta) phase diagram of the lossy chain with
per-cell convergence flags, logarithmic approach scans to the two
divergence lines on the elliptic closed form with a straight-line fit as
the summary, and a (d_x, d_y) map of the two-level index against its
sign-condition prediction. Every grid cell runs the code of the
corresponding point evaluator: a phase diagram refines its gapped cells,
and one lossless row per hopping ratio for the index of its gapless
cells, as one stack whose rows compute from their own (q, eta) alone, so
a cell never differs from what a user would get by asking for that point
directly.

The CSV is written atomically straight from the grid's arrays, one row
per cell with eta outer and q inner, in 17-significant-digit floats so
reruns are byte-identical; the JSON sidecar carries axes, parameters,
tool version, and a timestamp (honoring SOURCE_DATE_EPOCH when set, for
reproducible output trees).
"""

import datetime
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .berry import (_chain_cells, _first_rung, analytic_q,
                    two_level_phase_point)
from .elliptic import closed_form_gamma
from .errors import BadResolution, BerrylineError
from .models import (_MAX_SAMPLES, BIPARTITE, TWO_LEVEL, TwoLevelParams,
                     _at_transition, _check_integer, _check_ratios,
                     _check_resolution, standard_loop)
from .quadrature import pearson_line
from .spectrum import classify_region

_NEAR_LINE = 1e-3       # cells this close to a critical line are flagged

_CSV_HEADER = ("q,eta,gamma_g_plus,xi_g_plus,gamma_g_minus,xi_g_minus,"
               "Q,region,converged")


@dataclass(frozen=True)
class PhaseDiagramGrid:
    """Phase diagram arrays, shaped (len(eta_axis), len(q_axis)).

    ``converged`` is True only for cells that evaluated cleanly, landed
    within 1e-6 of an integer index, and sit at least 1e-3 away from the
    transition q = 1 and from both divergence lines.
    ``samples_per_loop`` is the loop sample count the grid was asked for:
    the anchor of every cell's rungs in the loop parameter t and the
    finest start of a gapped cell's refinement, not the rung any cell
    settled at.
    """

    q_axis: np.ndarray
    eta_axis: np.ndarray
    gamma_g_plus: np.ndarray
    xi_g_plus: np.ndarray
    gamma_g_minus: np.ndarray
    xi_g_minus: np.ndarray
    q_index: np.ndarray
    region: np.ndarray
    converged: np.ndarray
    samples_per_loop: int


def _near_critical(q, eta):
    return (abs(q - 1.0) <= _NEAR_LINE
            or abs(eta - (q + 1.0)) <= _NEAR_LINE
            or abs(eta - abs(q - 1.0)) <= _NEAR_LINE)


def _diagram_cells(args):
    # a block of q columns, refined as one stack; cells in column order
    q_values, eta_values, samples = args
    cells = [(q, eta) for q in q_values for eta in eta_values]
    reports = [classify_region(q, eta) for q, eta in cells]
    outcomes = _chain_cells(standard_loop(BIPARTITE, samples), cells, reports)
    rows = []
    for (q, eta), report, r in zip(cells, reports, outcomes):
        if isinstance(r, BerrylineError):
            rows.append((math.nan, math.nan, math.nan, math.nan, math.nan,
                         report.region, False))
            continue
        converged = r.q_rounded is not None and not _near_critical(q, eta)
        rows.append((r.gamma_b_plus, r.xi_b_plus, r.gamma_b_minus,
                     r.xi_b_minus, r.q_index, report.region, converged))
    return rows


def _axis(bounds, count, name):
    lo, hi = float(bounds[0]), float(bounds[1])
    if not isinstance(count, numbers.Integral):
        raise BadResolution(
            f"{name} axis count must be an integer, got {count!r}")
    count = int(count)
    if count < 1:
        raise ValueError(f"{name} needs at least one point")
    if count > _MAX_SAMPLES:
        raise BadResolution(
            f"{name} axis needs at most {_MAX_SAMPLES} points, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} range must be finite, got ({lo}, {hi})")
    if count > 1 and not hi > lo:
        raise ValueError(f"{name} range must increase, got ({lo}, {hi})")
    return np.linspace(lo, hi, count)


def phase_diagram(q_range, eta_range, nq, neta, samples_per_loop=1024):
    """Evaluate the lossy chain's phases on a rectangular (q, eta) grid.

    Grid points landing exactly on q = 1 are shifted by half a cell; the
    phases are genuinely two-valued there and no cell may sit on the
    transition. Per-cell failures are recorded as NaN rows with
    converged=False, never aborting the rest of the grid. The whole grid
    is one task: its gapped cells refine together, each on its own
    node-clustered momentum grid, one array pass per rung size over the
    cells at that rung, with kets built only for the cells that settle
    there; the gapless cells of each q share the index of one lossless row
    refined with them. Every cell equals the direct
    ``bipartite_phase_point(q, eta, n0=samples_per_loop)`` call, the same
    refinement with one row, bit for bit. ``samples_per_loop`` is the
    loop's anchor and the finest rung a gapped cell's refinement starts
    from; a cell starts lower where the analytic strip width of its
    mapped integrand allows. With BERRYLINE_THREADS above 1 the grid goes
    to that many worker processes instead, capped at the cores and q
    columns, one contiguous block of columns each; a value of 1 or less
    (or none set) runs serially, and one that is not an integer raises
    ValueError. Results are assembled in order, so output never depends
    on scheduling. The resolution and the axis counts (at most 65536
    each) are checked before any axis is built.
    """
    _check_resolution(samples_per_loop)
    samples = int(samples_per_loop)
    q_axis = _axis(q_range, nq, "q")
    eta_axis = _axis(eta_range, neta, "eta")
    _check_ratios(q_axis.min(), eta_axis.min())
    _check_ratios(q_axis.max(), eta_axis.max())
    spacing = float(q_axis[1] - q_axis[0]) if nq > 1 else 0.0
    shift = 0.5 * spacing if spacing > 0.0 else 1e-3
    q_axis = np.where(np.abs(q_axis - 1.0) < 1e-9, q_axis + shift, q_axis)

    q_values = [float(q) for q in q_axis]
    eta_values = [float(eta) for eta in eta_axis]
    threads = os.environ.get("BERRYLINE_THREADS", "1") or "1"
    try:
        requested = int(threads)
    except ValueError:
        raise ValueError("BERRYLINE_THREADS must be an integer, got "
                         f"{threads!r}") from None
    workers = min(requested, os.cpu_count() or 1, nq)
    if workers > 1:
        # imported here, where the pool is used: it costs an import 10 ms
        from concurrent.futures import ProcessPoolExecutor
        ends = [len(q_values) * w // workers for w in range(workers + 1)]
        blocks = [(q_values[lo:hi], eta_values, samples)
                  for lo, hi in zip(ends, ends[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = [c for block in pool.map(_diagram_cells, blocks)
                     for c in block]
    else:
        cells = _diagram_cells((q_values, eta_values, samples))

    # the cells' 7-tuples, indexed [eta, q, field]
    table = np.array(cells, dtype=object).reshape(
        q_axis.size, eta_axis.size, 7).transpose(1, 0, 2)
    gp, xp, gm, xm, qi = (table[..., k].astype(float) for k in range(5))
    return PhaseDiagramGrid(
        q_axis=q_axis, eta_axis=eta_axis, gamma_g_plus=gp, xi_g_plus=xp,
        gamma_g_minus=gm, xi_g_minus=xm, q_index=qi,
        region=table[..., 5].copy(), converged=table[..., 6].astype(bool),
        samples_per_loop=samples)


def _fmt(x):
    return format(float(x), ".17g")


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_phase_diagram(grid, path):
    """Write the grid as CSV plus a JSON sidecar at path + ".json"."""
    values = (grid.gamma_g_plus, grid.xi_g_plus, grid.gamma_g_minus,
              grid.xi_g_minus, grid.q_index)
    lines = [_CSV_HEADER]
    for i, eta in enumerate(grid.eta_axis):
        for j, q in enumerate(grid.q_axis):
            lines.append(",".join([
                _fmt(q), _fmt(eta), *(_fmt(v[i, j]) for v in values),
                str(grid.region[i, j]),
                "true" if grid.converged[i, j] else "false"]))
    _write_atomic(path, "\n".join(lines) + "\n")

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        stamp = datetime.datetime.fromtimestamp(
            int(epoch), datetime.timezone.utc)
    else:
        stamp = datetime.datetime.now(datetime.timezone.utc)
    sidecar = {
        "q_axis": [float(q) for q in grid.q_axis],
        "eta_axis": [float(e) for e in grid.eta_axis],
        "parameters": {
            "nq": int(grid.q_axis.size),
            "neta": int(grid.eta_axis.size),
            "samples_per_loop": int(grid.samples_per_loop),
        },
        "tool": {"name": "berryline", "version": __version__},
        "timestamp": stamp.isoformat(),
    }
    _write_atomic(path + ".json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class DivergenceFit:
    """Straight-line fit of a phase magnitude against -ln(distance to a line).

    ``values`` are the fitted magnitudes at ``etas``; ``gammas`` keeps the
    full complex plus-band phase at each point, from the elliptic closed
    form, so boundedness of the non-diverging part can be checked.
    """

    slope: float
    intercept: float
    correlation: float
    line: str
    q_fixed: float
    etas: tuple
    values: tuple
    gammas: tuple


def divergence_scan(q_fixed, line, decades=8):
    """Approach one divergence line geometrically and fit the log growth.

    Line "d1" is eta = q + 1, approached from inside the gapless region,
    fitting the real part's magnitude; "d2" is eta = |q - 1|, approached
    from the weak-loss side, fitting the imaginary part. Points are
    eta_c (1 - 10^-j) for j = 1..decades, read from the elliptic closed
    form. ``decades`` is an integer from 6, the fewest points a fit takes,
    to 15: from j = 16 on, the point lies within an ulp of the line.
    """
    decades = _check_integer(decades, "decades")
    if not 6 <= decades <= 15:
        raise ValueError(f"decades must be from 6 to 15, got {decades}")
    q_fixed = float(q_fixed)
    _check_ratios(q_fixed, 0.0)  # eta is scanned below
    if _at_transition(q_fixed):
        raise ValueError("the scan needs a hopping ratio away from 1")
    if line == "d1":
        eta_c = q_fixed + 1.0
    elif line == "d2":
        eta_c = abs(q_fixed - 1.0)
    else:
        raise ValueError(f"unknown divergence line {line!r}")

    etas = [eta_c * (1.0 - 10.0 ** (-j)) for j in range(1, decades + 1)]
    gammas = [closed_form_gamma(q_fixed, eta, "plus") for eta in etas]
    values = [abs(g.real) if line == "d1" else abs(g.imag) for g in gammas]
    x = np.array([-math.log(eta_c - eta) for eta in etas])
    slope, intercept, correlation = pearson_line(x, np.array(values))
    return DivergenceFit(
        slope=float(slope), intercept=float(intercept),
        correlation=float(correlation), line=line, q_fixed=q_fixed,
        etas=tuple(etas), values=tuple(values), gammas=tuple(gammas))


@dataclass(frozen=True)
class QMap:
    """Two-level index over a (d_x, d_y) grid, numeric next to analytic.

    Arrays are indexed [i, j] = (dx_axis[i], dy_axis[j]). Cells on the
    singular lines are NaN in both arrays and counted in
    ``undefined_count``; ``mismatch_cells`` lists any computed cell whose
    rounded numeric index differs from the sign-condition value.
    """

    dx_axis: np.ndarray
    dy_axis: np.ndarray
    numeric: np.ndarray
    analytic: np.ndarray
    mismatch_cells: tuple
    undefined_count: int


def two_level_q_map(h, d_x_range, d_y_range, n, h_z=0.2, d_z=0.0, theta=1.0,
                    samples_per_loop=512):
    """Map the two-level index over amplitude space at fixed fields.

    Singular grid points (an amplitude magnitude matching its field) are
    marked undefined and skipped, never computed. Everything else runs
    the full numeric evaluator and is compared against the sign
    condition; failures of either kind land in ``mismatch_cells``. A
    resolution the point evaluator refuses (not a power of two from 16,
    or above 32768, which leaves no second rung) raises BadResolution
    before any cell runs.
    """
    _first_rung(standard_loop(TWO_LEVEL, samples_per_loop))
    h_x, h_y = float(h[0]), float(h[1])
    dx_axis = _axis(d_x_range, n, "d_x")
    dy_axis = _axis(d_y_range, n, "d_y")
    numeric = np.full((len(dx_axis), len(dy_axis)), np.nan)
    analytic = np.full_like(numeric, np.nan)
    mismatches = []
    undefined = 0
    for i, dx in enumerate(dx_axis):
        for j, dy in enumerate(dy_axis):
            params = TwoLevelParams(h_x=h_x, h_y=h_y, h_z=h_z,
                                    d_x=float(dx), d_y=float(dy), d_z=d_z,
                                    theta=theta)
            expected = analytic_q(params)
            if expected is None:
                undefined += 1
                continue
            analytic[i, j] = expected
            try:
                r = two_level_phase_point(params, n0=samples_per_loop)
            except BerrylineError:
                mismatches.append((i, j))
                continue
            numeric[i, j] = r.q_index
            if r.q_rounded is None or abs(r.q_rounded) != expected:
                mismatches.append((i, j))
    return QMap(dx_axis=dx_axis, dy_axis=dy_axis, numeric=numeric,
                analytic=analytic, mismatch_cells=tuple(mismatches),
                undefined_count=undefined)

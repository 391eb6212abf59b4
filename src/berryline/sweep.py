"""Parameter sweeps built on the point evaluators, plus file persistence.

Three sweep shapes: a (q, eta) phase diagram of the lossy chain with
per-cell convergence flags, logarithmic approach scans to the two
divergence lines with a straight-line fit as the summary, and a
(d_x, d_y) map of the two-level index against its sign-condition
prediction. Every grid cell is exactly one call of the corresponding
point evaluator, so a cell never differs from what a user would get by
asking for that point directly.

CSV output is written atomically with 17-significant-digit floats so
reruns are byte-identical; the JSON sidecar carries axes, parameters,
tool version, and a timestamp (honoring SOURCE_DATE_EPOCH when set, for
reproducible output trees).
"""

import datetime
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .berry import analytic_q, bipartite_phase_point, two_level_phase_point
from .errors import BerrylineError, NotConverged
from .models import TwoLevelParams, _at_transition, _check_ratios
from .quadrature import pearson_line
from .spectrum import classify_region

_CELL_CAP = 65536       # dyadic escalation limit per diagram cell
_D2_CAP = 131072        # the imaginary-part divergence needs finer contours
_NEAR_LINE = 1e-3       # cells this close to a critical line are flagged

_CSV_HEADER = ("q,eta,gamma_g_plus,xi_g_plus,gamma_g_minus,xi_g_minus,"
               "Q,region,converged")


def _tool_version():
    try:
        from importlib.metadata import version
        return version("berryline")
    except Exception:
        return "0.1.0"


@dataclass(frozen=True)
class GridCell:
    """One (q, eta) record of a phase diagram."""

    q: float
    eta: float
    gamma_g_plus: float
    xi_g_plus: float
    gamma_g_minus: float
    xi_g_minus: float
    q_index: float
    region: str
    converged: bool


@dataclass(frozen=True)
class PhaseDiagramGrid:
    """Phase diagram arrays, shaped (len(eta_axis), len(q_axis)).

    ``converged`` is True only for cells that evaluated cleanly, landed
    within 1e-6 of an integer index, and sit at least 1e-3 away from the
    transition q = 1 and from both divergence lines.
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

    def cell(self, eta_i, q_j):
        return GridCell(
            q=float(self.q_axis[q_j]), eta=float(self.eta_axis[eta_i]),
            gamma_g_plus=float(self.gamma_g_plus[eta_i, q_j]),
            xi_g_plus=float(self.xi_g_plus[eta_i, q_j]),
            gamma_g_minus=float(self.gamma_g_minus[eta_i, q_j]),
            xi_g_minus=float(self.xi_g_minus[eta_i, q_j]),
            q_index=float(self.q_index[eta_i, q_j]),
            region=str(self.region[eta_i, q_j]),
            converged=bool(self.converged[eta_i, q_j]))

    def cells(self):
        """All cells in output order: eta outer, q inner."""
        for i in range(self.eta_axis.size):
            for j in range(self.q_axis.size):
                yield self.cell(i, j)


def _near_critical(q, eta):
    return (abs(q - 1.0) <= _NEAR_LINE
            or abs(eta - (q + 1.0)) <= _NEAR_LINE
            or abs(eta - abs(q - 1.0)) <= _NEAR_LINE)


def _diagram_cell(q, eta, samples, cap):
    region = classify_region(q, eta).region
    try:
        r = bipartite_phase_point(q, eta, n0=samples, cap=cap)
    except BerrylineError:
        return (math.nan, math.nan, math.nan, math.nan, math.nan, region, False)
    converged = r.q_rounded is not None and not _near_critical(q, eta)
    return (r.gamma_b_plus, r.xi_b_plus, r.gamma_b_minus, r.xi_b_minus,
            r.q_index, region, converged)


def _diagram_row(args):
    eta, q_values, samples, cap = args
    return [_diagram_cell(q, eta, samples, cap) for q in q_values]


def _axis(bounds, count, name):
    lo, hi = float(bounds[0]), float(bounds[1])
    count = int(count)
    if count < 1:
        raise ValueError(f"{name} needs at least one point")
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
    converged=False, never aborting the rest of the grid. Rows may go to
    BERRYLINE_THREADS worker processes, capped at the cores and eta rows;
    results are assembled in order, so output never depends on scheduling.
    """
    q_axis = _axis(q_range, nq, "q")
    eta_axis = _axis(eta_range, neta, "eta")
    _check_ratios(q_axis.min(), eta_axis.min())
    spacing = float(q_axis[1] - q_axis[0]) if nq > 1 else 0.0
    shift = 0.5 * spacing if spacing > 0.0 else 1e-3
    q_axis = np.where(np.abs(q_axis - 1.0) < 1e-9, q_axis + shift, q_axis)

    samples = int(samples_per_loop)
    args = [(float(eta), [float(q) for q in q_axis], samples, _CELL_CAP)
            for eta in eta_axis]
    workers = min(int(os.environ.get("BERRYLINE_THREADS", "1") or "1"),
                  os.cpu_count() or 1, neta)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_diagram_row, args))
    else:
        rows = [_diagram_row(a) for a in args]

    shape = (eta_axis.size, q_axis.size)
    gp = np.empty(shape)
    xp = np.empty(shape)
    gm = np.empty(shape)
    xm = np.empty(shape)
    qi = np.empty(shape)
    region = np.empty(shape, dtype=object)
    conv = np.empty(shape, dtype=bool)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            gp[i, j], xp[i, j], gm[i, j], xm[i, j], qi[i, j] = cell[:5]
            region[i, j] = cell[5]
            conv[i, j] = cell[6]
    return PhaseDiagramGrid(
        q_axis=q_axis, eta_axis=eta_axis, gamma_g_plus=gp, xi_g_plus=xp,
        gamma_g_minus=gm, xi_g_minus=xm, q_index=qi, region=region,
        converged=conv, samples_per_loop=samples)


def _fmt(x):
    return format(float(x), ".17g")


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_phase_diagram(grid, path):
    """Write the grid as CSV plus a JSON sidecar at path + ".json"."""
    lines = [_CSV_HEADER]
    for cell in grid.cells():
        lines.append(",".join([
            _fmt(cell.q), _fmt(cell.eta),
            _fmt(cell.gamma_g_plus), _fmt(cell.xi_g_plus),
            _fmt(cell.gamma_g_minus), _fmt(cell.xi_g_minus),
            _fmt(cell.q_index), cell.region,
            "true" if cell.converged else "false"]))
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
        "tool": {"name": "berryline", "version": _tool_version()},
        "timestamp": stamp.isoformat(),
    }
    _write_atomic(path + ".json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class DivergenceFit:
    """Straight-line fit of a phase magnitude against -ln(distance to a line).

    ``values`` are the fitted magnitudes at ``etas``; ``gammas`` keeps the
    full complex band phase at each point so boundedness of the
    non-diverging part can be checked. ``excluded`` lists approach points
    whose contour refinement gave up.
    """

    slope: float
    intercept: float
    correlation: float
    line: str
    q_fixed: float
    etas: tuple
    values: tuple
    gammas: tuple
    excluded: tuple


def divergence_scan(q_fixed, line, decades=8):
    """Approach one divergence line geometrically and fit the log growth.

    Line "d1" is eta = q + 1, approached from inside the gapless region,
    fitting the real part's magnitude; "d2" is eta = |q - 1|, approached
    from the weak-loss side, fitting the imaginary part. Points are
    eta_c (1 - 10^-j) for j = 1..decades; a fit needs at least 6
    survivors.
    """
    q_fixed = float(q_fixed)
    _check_ratios(q_fixed, 0.0)  # eta is scanned below
    if _at_transition(q_fixed):
        raise ValueError("the scan needs a hopping ratio away from 1")
    if line == "d1":
        eta_c = q_fixed + 1.0
        cap = _CELL_CAP
    elif line == "d2":
        eta_c = abs(q_fixed - 1.0)
        cap = _D2_CAP
    else:
        raise ValueError(f"unknown divergence line {line!r}")

    etas = []
    values = []
    gammas = []
    excluded = []
    for j in range(1, int(decades) + 1):
        eta = eta_c * (1.0 - 10.0 ** (-j))
        try:
            r = bipartite_phase_point(q_fixed, eta, cap=cap)
        except NotConverged:
            excluded.append(eta)
            continue
        etas.append(eta)
        gammas.append(complex(r.gamma_b_plus, r.xi_b_plus))
        values.append(abs(r.gamma_b_plus) if line == "d1"
                      else abs(r.xi_b_plus))
    if len(values) < 6:
        raise NotConverged(
            f"only {len(values)} usable approach points toward {line} at "
            f"q={q_fixed}; a fit needs 6",
            history=list(zip(etas, values)))
    x = np.array([-math.log(eta_c - eta) for eta in etas])
    slope, intercept, correlation = pearson_line(x, np.array(values))
    return DivergenceFit(
        slope=float(slope), intercept=float(intercept),
        correlation=float(correlation), line=line, q_fixed=q_fixed,
        etas=tuple(etas), values=tuple(values), gammas=tuple(gammas),
        excluded=tuple(excluded))


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
                    samples_per_loop=512, cap=65536):
    """Map the two-level index over amplitude space at fixed fields.

    Singular grid points (an amplitude magnitude matching its field) are
    marked undefined and skipped, never computed. Everything else runs
    the full numeric evaluator and is compared against the sign
    condition; failures of either kind land in ``mismatch_cells``.
    """
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
                r = two_level_phase_point(params, n0=samples_per_loop, cap=cap)
            except BerrylineError:
                mismatches.append((i, j))
                continue
            numeric[i, j] = r.q_index
            if r.q_rounded is None or abs(r.q_rounded) != expected:
                mismatches.append((i, j))
    return QMap(dx_axis=dx_axis, dy_axis=dy_axis, numeric=numeric,
                analytic=analytic, mismatch_cells=tuple(mismatches),
                undefined_count=undefined)

"""Parameter sweeps built on the point evaluators, plus file persistence.

Two sweep shapes: a (q, eta) phase diagram of the lossy chain with
per-cell convergence flags, and logarithmic approach scans to the two
divergence lines on the elliptic closed form with a straight-line fit as
the summary. A phase diagram reads every cell's band phases off the
elliptic closed form and its index off one lossless row per hopping
ratio, refined as one stack whose rows compute from their own q alone,
so a cell's index is bit for bit what a user gets by asking for the
point (q, 0) directly. The closed form, the regions and the
near-line margins are evaluated in one array pass over the whole grid,
each cell keeping the bits of its point calls. A sweep runs serially, in
one process.

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
from .berry import _chain_rows
from .elliptic import _closed_form_grid, closed_form_gamma
from .errors import BadResolution, BerrylineError
from .models import (_MAX_SAMPLES, BIPARTITE, _at_transition, _check_integer,
                     _check_ratios, _check_resolution, standard_loop)
from .quadrature import pearson_line
from .spectrum import _region_grid

_NEAR_LINE = 1e-3       # cells this close to a critical line are flagged

_CSV_HEADER = ("q,eta,gamma_g_plus,xi_g_plus,gamma_g_minus,xi_g_minus,"
               "Q,region,converged")
# %.17g formats a float as format(x, ".17g") does, so the 17 digits round-trip
_CSV_ROW = "%.17g," * 7 + "%s,%s"


@dataclass(frozen=True)
class PhaseDiagramGrid:
    """Phase diagram arrays, shaped (len(eta_axis), len(q_axis)).

    ``converged`` is True only for cells that evaluated cleanly, landed
    within 1e-6 of an integer index, and sit at least 1e-3 away from the
    transition q = 1 and from both divergence lines.
    ``samples_per_loop`` is the loop sample count the grid was asked for:
    the anchor of the lossless rows' rungs in the loop parameter t, which
    give every cell its index, and the finest start of their refinement,
    not the rung any row settled at.
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
    # floats or arrays, elementwise
    return ((abs(q - 1.0) <= _NEAR_LINE) | (abs(eta - (q + 1.0)) <= _NEAR_LINE)
            | (abs(eta - abs(q - 1.0)) <= _NEAR_LINE))


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
    converged=False, never aborting the rest of the grid. A cell takes its
    band phases from the elliptic closed form, and its index and
    convergence from its column's lossless row: the rows refine together,
    each on its own node map, so a cell's Q has the bits of
    ``bipartite_phase_point(q, 0.0, n0=samples_per_loop)``. Where that
    call at (q, eta) reads the closed form too (the gapless region and the
    TYPE_I strip next to q = 1) the cell has all its bits; elsewhere the
    refined phases agree with the cell's within 1e-12 at 1e-3 or more from
    the lines. The closed form, the regions and the 1e-3 margins are each
    one array pass over the grid, with every cell bit-equal to the point
    calls. A cell is NaN wherever its row or the closed form refuses,
    and a column within 1e-12 of q = 1, which an axis that fine keeps
    after the shift, has no row. ``samples_per_loop`` is the rows' anchor
    and the finest rung their refinement starts from. The resolution and
    the axis counts (at most 65536 each) are checked before any axis is
    built.
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

    rows = [q for q in q_axis.tolist() if not _at_transition(q)]
    lossless = dict(zip(rows, _chain_rows(standard_loop(BIPARTITE, samples),
                                          [(q, 0.0) for q in rows])))
    found = [None if isinstance(r, BerrylineError) else r
             for r in map(lossless.get, q_axis.tolist())]
    index = np.array([math.nan if r is None else r.q_index for r in found])
    settled = np.array([r is not None and r.q_rounded is not None
                        for r in found])
    q, eta = np.meshgrid(q_axis, eta_axis)
    phases = np.array(_closed_form_grid(q, eta))
    cells = ~np.isnan(phases[0]) & np.array([r is not None for r in found])
    gp, xp, gm, xm = np.where(cells, phases, math.nan)
    qi = np.where(cells, index, math.nan)
    region = _region_grid(q, eta)
    converged = cells & settled & ~_near_critical(q, eta)
    return PhaseDiagramGrid(
        q_axis=q_axis, eta_axis=eta_axis, gamma_g_plus=gp, xi_g_plus=xp,
        gamma_g_minus=gm, xi_g_minus=xm, q_index=qi, region=region,
        converged=converged, samples_per_loop=samples)


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_phase_diagram(grid, path):
    """Write the grid as CSV plus a JSON sidecar at path + ".json"."""
    eta, q = np.meshgrid(grid.eta_axis, grid.q_axis, indexing="ij")
    columns = [v.ravel().tolist() for v in (
        q, eta, grid.gamma_g_plus, grid.xi_g_plus, grid.gamma_g_minus,
        grid.xi_g_minus, grid.q_index, grid.region)]
    flags = ["true" if c else "false" for c in grid.converged.ravel().tolist()]
    lines = [_CSV_HEADER] + [_CSV_ROW % row for row in zip(*columns, flags)]
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

"""Crossing structure of the lossy chain's complex spectrum.

The two Bloch bands differ by twice the square root of a real radicand
r(k) = 1 + q^2 + 2 q cos k - eta^2 (in units of the intra-cell hopping),
read off ``models._radicand`` from r(pi) or r(0), whichever is nearer
zero. Where r > 0 the gap is purely real, where r < 0 purely imaginary,
and zeros of r are true crossings of the complex energies. Because r is
monotone in cos k the region structure in the (q, eta) quadrant is exact:

  GAPLESS_TRUE_CROSSING   |q - 1| <= eta <= q + 1   (zeros exist)
  TYPE_I                  eta <= |1 - q|            (real gap everywhere)
  TYPE_II                 eta >= 1 + q              (imaginary gap everywhere)

The inequalities are closed, so the boundary lines satisfy two of them at
once; the gapless label wins there and the full tie is kept in
``all_labels``. ``classify_region`` applies the inequalities,
``verify_region`` re-derives the same answer numerically from sign
changes of the radicand and raises if the two disagree.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadResolution, ClassificationMismatch
from .models import (_MAX_SAMPLES, _check_ratios, _radicand,
                     _radicand_extremes, _zone_grid)

GAPLESS_TRUE_CROSSING = "GAPLESS_TRUE_CROSSING"
TYPE_I = "TYPE_I"
TYPE_II = "TYPE_II"
_REGIONS = (GAPLESS_TRUE_CROSSING, TYPE_I, TYPE_II)

_WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class CrossingReport:
    """Region label, crossing witnesses, and extremal gap sizes.

    ``witnesses`` holds momenta where the radicand vanishes within
    tolerance; ``gap_min_re``/``gap_min_im`` are the minima over k of the
    real and imaginary gap magnitudes. ``all_labels`` lists every region
    inequality satisfied, which exceeds one exactly on the boundary lines.
    """

    region: str
    witnesses: tuple
    gap_min_re: float
    gap_min_im: float
    all_labels: tuple


def classify_region(q, eta):
    """Region of the (q, eta) plane from the closed inequalities alone.

    A point within 1e-8 max(1 + q, eta) of a line keeps its tie to it
    (see ``_inequalities``). Witnesses in the gapless region are the
    analytic zeros of the radicand at cos k = (eta^2 - 1 - q^2) / (2 q).
    """
    _check_ratios(q, eta)
    lo, hi = _radicand_extremes(q, eta)
    labels = tuple(label for label, holds in zip(
        _REGIONS, _inequalities(q, eta, lo, hi)) if holds)
    region = labels[0]
    witnesses = ()
    if region == GAPLESS_TRUE_CROSSING:
        c = (eta * eta - 1.0 - q * q) / (2.0 * q)
        k0 = math.acos(min(1.0, max(-1.0, c)))
        witnesses = (k0,) if k0 in (0.0, math.pi) else (-k0, k0)
    return CrossingReport(region=region, witnesses=witnesses,
                          gap_min_re=2.0 * math.sqrt(lo) if lo > 0.0 else 0.0,
                          gap_min_im=2.0 * math.sqrt(-hi) if hi < 0.0 else 0.0,
                          all_labels=labels)


def _inequalities(q, eta, lo, hi):
    """Whether each region of ``_REGIONS`` holds, on floats or arrays alike.

    On the radicand extremes lo = r(pi) and hi = r(0), with a point tied
    to eta = |1 - q| (tie_pi) or 1 + q (tie_zero) within 1e-8 max(1 + q,
    eta) in distance to the line, so an input rounded onto a line keeps
    its tie; a tolerance in radicand units would cover the whole TYPE_I
    strip next to q = 1. The first region that holds is the label.
    """
    tie_pi = _tied(abs(abs(1.0 - q) - eta), q, eta)
    tie_zero = _tied(abs(1.0 + q - eta), q, eta)
    return (((lo <= 0.0) | tie_pi) & ((hi >= 0.0) | tie_zero),
            (lo >= 0.0) | tie_pi, (hi <= 0.0) | tie_zero)


def _tied(distance, q, eta):
    # distance <= 1e-8 max(1 + q, eta), with no max, which floats lack
    return ((distance <= _WITNESS_TOL * (1.0 + q))
            | (distance <= _WITNESS_TOL * eta))


def _region_grid(q, eta):
    """``classify_region(q, eta).region`` over arrays of checked ratios."""
    lo, hi = _radicand_extremes(q, eta)
    first = np.argmax(_inequalities(q, eta, lo, hi), axis=0)
    return np.array(_REGIONS, dtype=object)[first]


def _bisect_zero(q, eta, a, b, fa):
    # one sign change of the radicand in [a, b]; narrow it to width 1e-10,
    # and return the midpoint with the radicand there
    while True:
        m = 0.5 * (a + b)
        fm = _radicand(1.0, q, eta, cmath.exp(1j * m))
        if fm == 0.0 or b - a <= 1e-10:
            return m, fm
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm


def verify_region(q, eta, k_samples=1024):
    """Numeric confirmation of ``classify_region`` on a momentum scan.

    Scans k over (-pi, pi] on a grid containing 0 and pi exactly, locates
    every sign change of the radicand by bisection, and checks the sign
    pattern demanded by the analytic label. Raises ClassificationMismatch
    when the scan contradicts the inequalities. ``k_samples`` is an integer
    from 256 to the loop refinement cap; any other type, or a count above
    the cap, raises BadResolution before any grid is built.
    """
    _check_ratios(q, eta)
    if not isinstance(k_samples, numbers.Integral):
        raise BadResolution(
            f"scan point count must be an integer, got {k_samples!r}")
    k_samples = int(k_samples)
    if k_samples < 256:
        raise ValueError(f"need at least 256 scan points, got {k_samples}")
    if k_samples > _MAX_SAMPLES:
        raise BadResolution(
            f"scan needs at most {_MAX_SAMPLES} points, got {k_samples}")
    if k_samples & 1:
        k_samples += 1  # keep 0 and pi on the grid
    analytic = classify_region(q, eta)
    scale = max(1.0, (1.0 + q) * (1.0 + q), eta * eta)

    # the frame's radicand, anchored at its extreme nearer zero, keeps the
    # digits of the TYPE_I strip next to q = 1 in the scan and the bisection
    grid = _zone_grid(k_samples)
    values = _radicand(1.0, q, eta, np.exp(1j * grid))
    flips = np.sign(values[:-1]) * np.sign(values[1:]) < 0.0
    bisected = [_bisect_zero(q, eta, float(grid[i]), float(grid[i + 1]),
                             float(values[i])) for i in np.flatnonzero(flips)]
    bad = [k for k, r in bisected if abs(r) > _WITNESS_TOL * scale]
    if bad:
        raise ClassificationMismatch(
            f"witness candidates fail the crossing condition: {bad}")
    # r touches zero without a sign change only at k = 0 and pi, on a line,
    # where the label ties to TYPE_II or TYPE_I
    witnesses = [k for k, label in ((0.0, TYPE_II), (math.pi, TYPE_I))
                 if label in analytic.all_labels[1:]]
    kept = []
    for k in sorted(witnesses + [k for k, _ in bisected]
                    + [float(k) for k in grid[values == 0.0]]):
        if not kept or k - kept[-1] > 1e-6:
            kept.append(k)
    if not {GAPLESS_TRUE_CROSSING: bool(kept),
            TYPE_I: not kept and values.min() > 0.0,
            TYPE_II: not kept and values.max() < 0.0}[analytic.region]:
        raise ClassificationMismatch(
            f"{analytic.region} label at q={q}, eta={eta} but the scan finds "
            f"{len(kept)} radicand zeros and values from {values.min():.3e} "
            f"to {values.max():.3e}")
    return CrossingReport(region=analytic.region, witnesses=tuple(kept),
                          gap_min_re=analytic.gap_min_re,
                          gap_min_im=analytic.gap_min_im,
                          all_labels=analytic.all_labels)

"""Crossing structure of the lossy chain's complex spectrum.

The two Bloch bands differ by twice the square root of a real radicand
r(k) = 1 + q^2 + 2 q cos k - eta^2 (in units of the intra-cell hopping).
Where r > 0 the gap is purely real, where r < 0 purely imaginary, and
zeros of r are true crossings of the complex energies. Because r is
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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationMismatch
from .models import _chain_radicand, _check_ratios, _zone_grid

GAPLESS_TRUE_CROSSING = "GAPLESS_TRUE_CROSSING"
TYPE_I = "TYPE_I"
TYPE_II = "TYPE_II"

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


def _applicable_labels(q, eta, lo, hi):
    # closed inequalities, evaluated in radicand units with the same zero
    # tolerance the momentum scan uses, so an input rounded onto a boundary
    # line keeps the boundary tie no matter which side the last ulp lands
    tol = _WITNESS_TOL * max(1.0, (1.0 + q) ** 2, eta * eta)
    labels = []
    if lo <= tol and hi >= -tol:
        labels.append(GAPLESS_TRUE_CROSSING)
    if lo >= -tol:
        labels.append(TYPE_I)
    if hi <= tol:
        labels.append(TYPE_II)
    return tuple(labels)


def complex_gap(p, k):
    """Complex band separation E_plus - E_minus at momentum k."""
    rad = _chain_radicand(p.v, p.v_prime, p.gamma, math.cos(k))
    return complex(2.0 * np.sqrt(complex(rad)))


def classify_region(q, eta):
    """Region of the (q, eta) plane from the closed inequalities alone.

    Witnesses in the gapless region are the analytic zeros of the
    radicand at cos k = (eta^2 - 1 - q^2) / (2 q).
    """
    _check_ratios(q, eta)
    lo = (1.0 - q) ** 2 - eta * eta  # radicand minimum, at k = pi
    hi = (1.0 + q) ** 2 - eta * eta  # radicand maximum, at k = 0
    labels = _applicable_labels(q, eta, lo, hi)
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


def _bisect_zero(f, a, b, fa, fb):
    # one sign change in [a, b]; narrow it to width 1e-10
    while b - a > 1e-10:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def verify_region(q, eta, k_samples=1024):
    """Numeric confirmation of ``classify_region`` on a momentum scan.

    Scans k over (-pi, pi] on a grid containing 0 and pi exactly, locates
    every sign change of the radicand by bisection, and checks the sign
    pattern demanded by the analytic label. Raises ClassificationMismatch
    when the scan contradicts the inequalities.
    """
    _check_ratios(q, eta)
    k_samples = int(k_samples)
    if k_samples < 256:
        raise ValueError(f"need at least 256 scan points, got {k_samples}")
    if k_samples & 1:
        k_samples += 1  # keep 0 and pi on the grid
    analytic = classify_region(q, eta)
    scale = max(1.0, (1.0 + q) ** 2, eta * eta)

    grid = _zone_grid(k_samples)
    values = _chain_radicand(1.0, q, eta, np.cos(grid))

    def f(k):
        return _chain_radicand(1.0, q, eta, math.cos(k))

    witnesses = []
    for i in range(k_samples):
        # grid hits catch tangential zeros on the region boundaries, where
        # the radicand touches zero without changing sign
        if abs(values[i]) <= _WITNESS_TOL * scale:
            witnesses.append(float(grid[i]))
    for i in range(k_samples - 1):
        if values[i] == 0.0 or values[i + 1] == 0.0:
            continue
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            witnesses.append(_bisect_zero(f, float(grid[i]), float(grid[i + 1]),
                                          float(values[i]), float(values[i + 1])))
    witnesses.sort()
    kept = []
    for k in witnesses:
        if not kept or k - kept[-1] > 1e-6:
            kept.append(k)

    bad = [k for k in kept if abs(f(k)) > _WITNESS_TOL * scale]
    if bad:
        raise ClassificationMismatch(
            f"witness candidates fail the crossing condition: {bad}")
    if analytic.region == GAPLESS_TRUE_CROSSING:
        if not kept:
            raise ClassificationMismatch(
                f"gapless label at q={q}, eta={eta} but the scan finds no "
                "radicand zero")
    elif analytic.region == TYPE_I:
        if kept or values.min() <= 0.0:
            raise ClassificationMismatch(
                f"TYPE_I label at q={q}, eta={eta} but the radicand is not "
                "positive over the whole zone")
    else:
        if kept or values.max() >= 0.0:
            raise ClassificationMismatch(
                f"TYPE_II label at q={q}, eta={eta} but the radicand is not "
                "negative over the whole zone")

    return CrossingReport(region=analytic.region, witnesses=tuple(kept),
                          gap_min_re=analytic.gap_min_re,
                          gap_min_im=analytic.gap_min_im,
                          all_labels=analytic.all_labels)

"""Closed-form global phase of the lossy chain in its gapped weak-loss regime.

Inside the region eta < |q - 1| the momentum integral of the diagonal
connection reduces to complete elliptic integrals. The real part of the
resulting phase is exactly 0 or pi depending on whether q is below or
above 1, and the imaginary part carries all of the loss dependence. Both
integrals are evaluated through Carlson symmetric forms, which scipy
computes to full double precision; the rest of this module is bookkeeping
for the two squared moduli and the domain checks.
"""

import math
from dataclasses import dataclass

from scipy.special import elliprf, elliprj

from .biortho import band_index
from .errors import DomainError, OutsideValidityDomain, UndefinedAtTransition
from .models import _at_transition, _check_ratios


@dataclass(frozen=True)
class EllipticArgs:
    """Squared moduli (x, y) entering the closed-form phase."""

    x: float
    y: float

    @classmethod
    def from_ratios(cls, q, eta):
        """Moduli for hopping ratio q and loss ratio eta.

        Valid while eta < |q - 1|; there both values sit in [0, 1).
        """
        _check_ratios(q, eta)
        x = 4.0 * q / ((q + 1.0) ** 2)
        y = 4.0 * q / ((q + 1.0) ** 2 - eta * eta)
        return cls(x=x, y=y)


def ellip_k(y):
    """Complete elliptic integral K with squared modulus y."""
    if y >= 1.0:
        raise DomainError(f"K needs squared modulus below 1, got {y}")
    return float(elliprf(0.0, 1.0 - y, 1.0))


def ellip_pi(x, y):
    """Complete elliptic integral Pi(x | y), characteristic x, squared modulus y."""
    if x >= 1.0 or y >= 1.0:
        raise DomainError(
            f"Pi needs characteristic and squared modulus below 1, got ({x}, {y})")
    value = elliprf(0.0, 1.0 - y, 1.0)
    if x != 0.0:
        value = value + (x / 3.0) * elliprj(0.0, 1.0 - y, 1.0, 1.0 - x)
    return float(value)


def closed_form_gamma(q, eta, band):
    """Global Berry phase of one band from the elliptic reduction.

    Returns a complex value whose real part is exactly pi for q > 1 and 0
    for q < 1. The band argument accepts the same labels as the numeric
    code ("plus"/"minus", "+"/"-", +1/-1).
    """
    _check_ratios(q, eta)
    if _at_transition(q):
        raise UndefinedAtTransition(
            "the closed form changes discontinuously across q = 1 and has "
            "no value on the transition itself")
    if eta >= abs(q - 1.0):
        raise OutsideValidityDomain(
            "the elliptic reduction holds only for eta below |q - 1|, "
            f"got eta = {eta} at q = {q}")
    args = EllipticArgs.from_ratios(q, eta)
    kernel = ellip_k(args.y) + ((q - 1.0) / (q + 1.0)) * ellip_pi(args.x, args.y)
    imag = 0.5 * eta * math.sqrt(args.y / q) * kernel
    real = math.pi if q > 1.0 else 0.0
    return complex(real, imag if band_index(band) == 0 else -imag)

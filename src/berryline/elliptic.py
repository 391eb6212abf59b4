"""Closed-form global phase of the lossy chain below the outer divergence line.

For every eta < q + 1 off the line eta = |q - 1| the momentum integral of
the diagonal connection reduces to complete elliptic integrals (Byrd &
Friedman, sections 233 and 236). Below eta = |q - 1| the real part is
exactly 0 or pi and the imaginary part carries all of the loss
dependence; between the lines the crossing momenta split the zone into
an imaginary-gap and a real-gap part, each diverging logarithmically
toward the line that closes it. Both integrals are Carlson symmetric
forms of the complementary parameter, which scipy computes to full
double precision. Every complementary parameter is built from the
factorized radicand extremes r(0) = (1+q-eta)(1+q+eta) and
r(pi) = (|1-q|-eta)(|1-q|+eta), which keep their digits next to the
lines where a difference of squares or an arccosine loses them.
"""

import math

from scipy.special import elliprf, elliprj

from .errors import DomainError, OutsideValidityDomain, UndefinedAtTransition
from .models import _at_transition, _check_ratios, band_index


def _k(mc):
    """K from the complementary parameter mc = 1 - m."""
    return float(elliprf(0.0, mc, 1.0))


def _pi(n, mc):
    """Pi(n | m) from the characteristic n and the complementary parameter mc."""
    return _k(mc) + (n / 3.0) * float(elliprj(0.0, mc, 1.0, 1.0 - n))


def ellip_k(y):
    """Complete elliptic integral K with squared modulus y."""
    if y >= 1.0:
        raise DomainError(f"K needs squared modulus below 1, got {y}")
    return _k(1.0 - y)


def ellip_pi(x, y):
    """Complete elliptic integral Pi(x | y), characteristic x, squared modulus y."""
    if x >= 1.0 or y >= 1.0:
        raise DomainError(
            f"Pi needs characteristic and squared modulus below 1, got ({x}, {y})")
    return _pi(x, 1.0 - y)


def closed_form_gamma(q, eta, band):
    """Global Berry phase of one band from the elliptic reduction.

    Below eta = |q - 1| the real part is exactly pi for q > 1 and 0 for
    q < 1. Between the lines the bands get pi [q > 1] +- eta (outer +
    i inner), the split integrals over the real-gap and imaginary-gap
    parts of the zone. On either line and beyond eta = q + 1 there is no
    value. The band argument accepts the same labels as the numeric code
    ("plus"/"minus", "+"/"-", +1/-1).
    """
    _check_ratios(q, eta)
    if _at_transition(q):
        raise UndefinedAtTransition(
            "the closed form changes discontinuously across q = 1 and has "
            "no value on the transition itself")
    r0 = (1.0 + q - eta) * (1.0 + q + eta)
    d = abs(1.0 - q)
    rpi = (d - eta) * (d + eta)
    sign = 1.0 if band_index(band) == 0 else -1.0
    step = math.pi if q > 1.0 else 0.0
    if rpi > 0.0:
        y = 4.0 * q / ((q + 1.0) ** 2 - eta * eta)
        x = 4.0 * q / ((q + 1.0) ** 2)
        mc = rpi / r0           # 1 - y
        kernel = _k(mc) + ((q - 1.0) / (q + 1.0)) * _pi(x, mc)
        return complex(step, sign * 0.5 * eta * math.sqrt(y / q) * kernel)
    if rpi == 0.0 or r0 <= 0.0:
        raise OutsideValidityDomain(
            "the elliptic reduction holds only for eta below q + 1 and off "
            f"the line eta = |q - 1|, got eta = {eta} at q = {q}")
    # u = cos k splits the winding rate into 1/2 + c1 / (u - u_p), with
    # u_p = -(1 + q^2) / (2q) and c1 = (q + u_p) / 2; at the crossing u_0,
    # 1 + u_0 = a and 1 - u_0 = b. The ratios c1 / (+-1 - u_p) and the
    # characteristics b / (1 - u_p), -a / (-1 - u_p) are written out in q
    a = -rpi / (2.0 * q)
    b = r0 / (2.0 * q)
    inner = 0.5 * _k(0.5 * a) + (q - 1.0) / (2.0 * (q + 1.0)) * _pi(
        r0 / (1.0 + q) ** 2, 0.5 * a)
    outer = 0.5 * _k(0.5 * b) + (q + 1.0) / (2.0 * (q - 1.0)) * _pi(
        rpi / d ** 2, 0.5 * b)
    scale = sign * eta / math.sqrt(q)
    return complex(step + scale * outer, scale * inner)

"""Closed-form global phase of the lossy chain off its divergence lines.

For every eta off the lines eta = |q - 1| and eta = q + 1 the momentum
integral of the diagonal connection reduces to complete elliptic
integrals (Byrd & Friedman, sections 233 and 236). Below eta = |q - 1|
the real part is exactly 0 or pi and the imaginary part carries all of
the loss dependence; beyond eta = q + 1 the same reduction, at an
imaginary modulus, gives a real phase. Between the lines the crossing
momenta split the zone into an imaginary-gap and a real-gap part, each
diverging logarithmically toward the line that closes it.

Each part is one combination K + c Pi(n | m), which is Bulirsch's
complete integral cel(kc, p, 1 + c, p + c) with kc^2 = 1 - m and
p = 1 - n, computed in plain float arithmetic. Both are written out in
q and eta: kc^2 as a ratio of the factorized radicand extremes
r(0) = (1+q-eta)(1+q+eta) and r(pi) = (|1-q|-eta)(|1-q|+eta), p as
the square ((q-1)/(q+1))^2 outside the lines and (eta/(1+q))^2 or
(eta/|1-q|)^2 between them. Next to q = 1 the characteristic n lies
within |q - 1|^2 of 1 or is of order -(eta/|q - 1|)^2, so 1 - n formed
in floating point loses the digits that cancel, and the coefficient c,
of order 1/|q - 1|, magnifies the loss; p written out keeps them all.
"""

import math

from .errors import DomainError, OutsideValidityDomain, UndefinedAtTransition
from .models import (_at_transition, _check_ratios, _radicand_extremes,
                     band_index)

# cel stops once the arithmetic and geometric means of 1 and kc agree to
# _CEL_TOL; the relative error left is about its square. For kc from the
# smallest subnormal up to 1e150 they meet within 13 steps, so a kc that
# has not settled after _CEL_STEPS is zero, not finite, or so large that
# its products overflow.
_CEL_TOL = 1e-8
_CEL_STEPS = 40


def cel(kc, p, a, b):
    """Bulirsch's complete elliptic integral, for p > 0.

    cel(kc, p, a, b) = int_0^{pi/2} (a cos^2 t + b sin^2 t) dt /
    ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t)), so K(m) is
    cel(sqrt(1 - m), 1, 1, 1) and Pi(n | m) is cel(sqrt(1 - m), 1 - n, 1, 1)
    (Bulirsch, Numer. Math. 13, 305 (1969); Press et al., Numerical
    Recipes, section 6.11). A p that is not positive, or a kc that is
    zero or not finite, raises DomainError.
    """
    if not p > 0.0:
        raise DomainError(f"cel needs p > 0, got {p}")
    qc = e = abs(kc)
    em = 1.0
    p = math.sqrt(p)
    b /= p
    for _ in range(_CEL_STEPS):
        f = a
        a += b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p += g
        g = em
        em += qc
        if abs(g - qc) <= g * _CEL_TOL:
            return 0.5 * math.pi * (b + a * em) / (em * (em + p))
        qc = 2.0 * math.sqrt(e)
        e = qc * em
    raise DomainError(f"cel needs a nonzero finite kc, got {kc}")


def ellip_k(y):
    """Complete elliptic integral K with squared modulus y."""
    if y >= 1.0:
        raise DomainError(f"K needs squared modulus below 1, got {y}")
    return cel(math.sqrt(1.0 - y), 1.0, 1.0, 1.0)


def ellip_pi(x, y):
    """Complete elliptic integral Pi(x | y), characteristic x, squared modulus y."""
    if x >= 1.0 or y >= 1.0:
        raise DomainError(
            f"Pi needs characteristic and squared modulus below 1, got ({x}, {y})")
    return cel(math.sqrt(1.0 - y), 1.0 - x, 1.0, 1.0)


def closed_form_gamma(q, eta, band):
    """Global Berry phase of one band from the elliptic reduction.

    Below eta = |q - 1| the real part is exactly pi for q > 1 and 0 for
    q < 1, and beyond eta = q + 1 the imaginary part is 0. Between the
    lines the bands get pi [q > 1] +- eta (outer + i inner), the split
    integrals over the real-gap and imaginary-gap parts of the zone. On
    either line and at q = 1 there is no value. The band argument accepts
    the same labels as the numeric code ("plus"/"minus", "+"/"-", +1/-1).
    """
    b = band_index(band)
    return _closed_form_pair(q, eta)[b]


def _closed_form_pair(q, eta):
    """Both bands' phases (plus, minus) of ``closed_form_gamma`` at once.

    The bands share the elliptic work: with plus = step + x + i y, minus
    is step - x - i y exactly.
    """
    _check_ratios(q, eta)
    if _at_transition(q):
        raise UndefinedAtTransition(
            "the closed form changes discontinuously across q = 1 and has "
            "no value on the transition itself")
    rpi, r0 = _radicand_extremes(q, eta)
    step = math.pi if q > 1.0 else 0.0
    t = (q - 1.0) / (q + 1.0)
    if rpi == 0.0 or r0 == 0.0:
        raise OutsideValidityDomain(
            "the elliptic reduction has no value on the lines eta = |q - 1| "
            f"and eta = q + 1, got eta = {eta} at q = {q}")
    if rpi > 0.0 or r0 < 0.0:
        # K + t Pi(x | y) at x = 4q / (q+1)^2, so 1 - x = t^2, and 1 - y =
        # r(pi) / r(0), above 1 (an imaginary modulus) beyond eta = q + 1
        p = t * t
        kernel = cel(math.sqrt(rpi / r0), p, 1.0 + t, p + t)
        if r0 < 0.0:
            x = eta / math.sqrt(-r0) * kernel
            return complex(step + x, 0.0), complex(step - x, -0.0)
        y = 4.0 * q / ((q + 1.0) ** 2 - eta * eta)
        half = 0.5 * eta * math.sqrt(y / q) * kernel
        return complex(step, half), complex(step, -half)
    # u = cos k splits the winding rate into 1/2 + c1 / (u - u_p), with
    # u_p = -(1 + q^2) / (2q) and c1 = (q + u_p) / 2; the crossing u_0 has
    # 1 + u_0 = -r(pi) / 2q and 1 - u_0 = r(0) / 2q. The inner part is
    # (K + t Pi) / 2 at 1 - m = (1 + u_0) / 2 and 1 - n = (eta / (1+q))^2,
    # the outer part (K + Pi / t) / 2 at 1 - m = (1 - u_0) / 2 and
    # 1 - n = (eta / |1-q|)^2
    p_in = (eta / (1.0 + q)) ** 2
    p_out = (eta / abs(1.0 - q)) ** 2
    inner = 0.5 * cel(math.sqrt(-rpi / (4.0 * q)), p_in, 1.0 + t, p_in + t)
    outer = 0.5 * cel(math.sqrt(r0 / (4.0 * q)), p_out, 1.0 + 1.0 / t,
                      p_out + 1.0 / t)
    scale = eta / math.sqrt(q)
    x, y = scale * outer, scale * inner
    return complex(step + x, y), complex(step - x, -y)

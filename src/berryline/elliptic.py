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

A phase diagram evaluates the closed form in one array pass over its
grid, each lane bit-equal to the point call, as the branch formulas and
``cel``'s AGM loop are written once for floats and arrays alike.
"""

import math

import numpy as np

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


def _agm_steps(kc, p, a, b, sqrt):
    """Each AGM step of ``cel``: whether its means met, and (a, b, p, em)."""
    qc = e = abs(kc)
    em = 1.0
    p = sqrt(p)
    b = b / p
    for _ in range(_CEL_STEPS):
        g = e / p
        a, b, p, g, em = a + b / p, 2.0 * (b + a * g), p + g, em, em + qc
        yield abs(g - qc) <= g * _CEL_TOL, a, b, p, em
        qc = 2.0 * sqrt(e)
        e = qc * em


def _cel_value(a, b, p, em):
    """The integral once the means have met."""
    return 0.5 * math.pi * (b + a * em) / (em * (em + p))


def cel(kc, p, a, b):
    """Bulirsch's complete elliptic integral, for p > 0.

    cel(kc, p, a, b) = int_0^{pi/2} (a cos^2 t + b sin^2 t) dt /
    ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t)), so K(m) is
    cel(sqrt(1 - m), 1, 1, 1) and Pi(n | m) is cel(sqrt(1 - m), 1 - n, 1, 1)
    (Bulirsch, Numer. Math. 13, 305 (1969); Press et al., Numerical
    Recipes, section 6.11). A p that is not positive, or a kc that is
    zero or not finite, raises DomainError. An array kc or p makes the
    arguments broadcast lanes, each frozen at the step where its float
    call returns, so it keeps that call's bits; a lane that float call
    would refuse comes back NaN.
    """
    if isinstance(kc, np.ndarray) or isinstance(p, np.ndarray):
        return _cel_lanes(*np.broadcast_arrays(kc, p, a, b))
    if not p > 0.0:
        raise DomainError(f"cel needs p > 0, got {p}")
    for met, a, b, p, em in _agm_steps(float(kc), p, a, b, math.sqrt):
        if met:
            return _cel_value(a, b, p, em)
    raise DomainError(f"cel needs a nonzero finite kc, got {kc}")


def _cel_lanes(kc, p, a, b):
    # lanes run on after they settle, so their later steps may overflow,
    # but each keeps the value of the step where it settled
    out = np.full(kc.shape, math.nan)
    active = p > 0.0
    with np.errstate(all="ignore"):
        for met, *state in _agm_steps(kc, p, a, b, np.sqrt):
            settled = active & met
            if settled.any():
                out[settled] = _cel_value(*(v[settled] for v in state))
                active &= ~settled
            if not active.any():
                break
    return out


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
    branch = next(f for holds, f in _branches(rpi, r0) if holds)
    x, y = branch(q, eta, rpi, r0, t)
    return complex(step + x, y), complex(step - x, -y)


def _closed_form_grid(q, eta):
    """``_closed_form_pair`` over same-shape float arrays of checked ratios.

    Returns the real arrays (gamma_plus, xi_plus, gamma_minus, xi_minus),
    NaN where the point call refuses: on the lines and within 1e-12 of
    q = 1. Each lane takes its point's branch by mask and keeps its bits.
    """
    rpi, r0 = _radicand_extremes(q, eta)
    t = (q - 1.0) / (q + 1.0)
    x, y = np.full((2,) + q.shape, math.nan)
    live = ~_at_transition(q)
    for holds, branch in _branches(rpi, r0):
        lanes = holds & live
        x[lanes], y[lanes] = branch(q[lanes], eta[lanes], rpi[lanes],
                                    r0[lanes], t[lanes])
    step = np.where(q > 1.0, math.pi, 0.0)
    return step + x, y, step - x, -y


# The branch formulas give (x, y) with plus = step + x + i y. Each is
# written in operations that round the same on floats and on arrays, so
# a grid lane keeps its point's bits.

def _branches(rpi, r0):
    """(where it holds, formula) of each branch; none holds on the lines."""
    return ((r0 < 0.0, _beyond_outer), (rpi > 0.0, _below_inner),
            ((rpi < 0.0) & (r0 > 0.0), _between_lines))


def _gapped_kernel(rpi, r0, t):
    # K + t Pi(x | y) at x = 4q / (q+1)^2, so 1 - x = t^2, and 1 - y =
    # r(pi) / r(0), above 1 (an imaginary modulus) beyond eta = q + 1
    p = t * t
    return cel(np.sqrt(rpi / r0), p, 1.0 + t, p + t)


def _beyond_outer(q, eta, rpi, r0, t):
    return eta / np.sqrt(-r0) * _gapped_kernel(rpi, r0, t), 0.0


def _below_inner(q, eta, rpi, r0, t):
    y = 4.0 * q / ((q + 1.0) * (q + 1.0) - eta * eta)
    return 0.0, 0.5 * eta * np.sqrt(y / q) * _gapped_kernel(rpi, r0, t)


def _between_lines(q, eta, rpi, r0, t):
    # u = cos k splits the winding rate into 1/2 + c1 / (u - u_p), with
    # u_p = -(1 + q^2) / (2q) and c1 = (q + u_p) / 2; the crossing u_0 has
    # 1 + u_0 = -r(pi) / 2q and 1 - u_0 = r(0) / 2q. The inner part is
    # (K + t Pi) / 2 at 1 - m = (1 + u_0) / 2 and 1 - n = (eta / (1+q))^2,
    # the outer part (K + Pi / t) / 2 at 1 - m = (1 - u_0) / 2 and
    # 1 - n = (eta / |1-q|)^2
    a_in, a_out = eta / (1.0 + q), eta / abs(1.0 - q)
    p_in, p_out = a_in * a_in, a_out * a_out
    inner = 0.5 * cel(np.sqrt(-rpi / (4.0 * q)), p_in, 1.0 + t, p_in + t)
    outer = 0.5 * cel(np.sqrt(r0 / (4.0 * q)), p_out, 1.0 + 1.0 / t,
                      p_out + 1.0 / t)
    scale = eta / np.sqrt(q)
    return scale * outer, scale * inner

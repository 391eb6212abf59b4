"""Complete elliptic integrals and the closed-form phase of the lossy chain."""

import math

import numpy as np
import pytest

from berryline.elliptic import closed_form_gamma, ellip_k, ellip_pi
from berryline.errors import DomainError, OutsideValidityDomain, UndefinedAtTransition

from oracles import agm_k, quad_k, quad_pi, split_integrals

# Frozen from the arithmetic-geometric-mean iteration in oracles.agm_k.
K_TABLE = {
    0.0: math.pi / 2.0,
    0.3: 1.713889448178791,
    0.5: 1.8540746773013717,
    0.7: 2.075363135292469,
    0.99: 3.6956373629898738,
}


def test_k_frozen_values():
    for y, want in K_TABLE.items():
        assert abs(ellip_k(y) - want) < 1e-12


def test_k_against_agm_oracle():
    for y in np.linspace(0.0, 0.95, 20):
        assert abs(ellip_k(float(y)) - agm_k(float(y))) < 1e-12


def test_k_against_quadrature_oracle():
    for y in (0.1, 0.4, 0.8):
        assert abs(ellip_k(y) - quad_k(y)) < 1e-12


def test_k_domain():
    with pytest.raises(DomainError):
        ellip_k(1.0)
    with pytest.raises(DomainError):
        ellip_k(1.5)


def test_pi_reduces_to_k_at_zero_characteristic():
    for y in (0.0, 0.3, 0.7):
        assert abs(ellip_pi(0.0, y) - ellip_k(y)) < 1e-12


def test_pi_frozen_values():
    assert abs(ellip_pi(0.3, 0.6) - 2.377858827830847) < 1e-12
    # Pi(x | 0) = pi / (2 sqrt(1 - x))
    assert abs(ellip_pi(0.5, 0.0) - math.pi / math.sqrt(2.0)) < 1e-12


def test_pi_against_quadrature_oracle():
    for x, y in ((0.2, 0.5), (0.6, 0.3), (-0.4, 0.8), (0.9, 0.1)):
        assert abs(ellip_pi(x, y) - quad_pi(x, y)) < 1e-12


def test_pi_domain():
    with pytest.raises(DomainError):
        ellip_pi(1.0, 0.5)
    with pytest.raises(DomainError):
        ellip_pi(0.5, 1.0)


def test_lossless_phase_is_a_pure_step():
    assert closed_form_gamma(2.0, 0.0, "plus") == complex(math.pi, 0.0)
    assert closed_form_gamma(5.0, 0.0, "minus") == complex(math.pi, 0.0)
    assert closed_form_gamma(0.5, 0.0, "plus") == 0.0j
    assert closed_form_gamma(0.2, 0.0, "minus") == 0.0j


def test_bands_carry_opposite_imaginary_parts():
    up = closed_form_gamma(2.0, 0.5, "plus")
    dn = closed_form_gamma(2.0, 0.5, "minus")
    assert up.real == math.pi and dn.real == math.pi
    assert up.imag > 0.0
    assert abs(up.imag + dn.imag) < 1e-15


def test_closed_form_matches_contour_integration():
    from berryline.berry import bipartite_phase_point

    for q, eta in ((0.5, 0.2), (2.0, 0.5)):
        want = closed_form_gamma(q, eta, "plus")
        r = bipartite_phase_point(q, eta)
        assert abs(complex(r.gamma_b_plus, r.xi_b_plus) - want) < 1e-6


def test_closed_form_band_labels():
    a = closed_form_gamma(2.0, 0.3, "plus")
    assert closed_form_gamma(2.0, 0.3, "+") == a
    assert closed_form_gamma(2.0, 0.3, 1) == a
    b = closed_form_gamma(2.0, 0.3, "minus")
    assert closed_form_gamma(2.0, 0.3, -1) == b
    with pytest.raises(ValueError):
        closed_form_gamma(2.0, 0.3, "up")


def test_closed_form_domain_errors():
    # between the lines the reduction has a value; frozen from 40-digit
    # mpmath quadrature of the split integrals
    gapless = closed_form_gamma(1.5, 1.0, "plus")
    assert abs(gapless - complex(5.443316256331932, 1.6414759256536529)) < 1e-12
    with pytest.raises(OutsideValidityDomain):
        closed_form_gamma(2.0, 3.5, "plus")      # TYPE_II, beyond eta = q + 1
    with pytest.raises(UndefinedAtTransition):
        closed_form_gamma(1.0, 0.0, "plus")
    with pytest.raises(OutsideValidityDomain):
        closed_form_gamma(2.0, 1.0, "plus")
    with pytest.raises(OutsideValidityDomain):
        closed_form_gamma(0.5, 0.5, "plus")
    with pytest.raises(OutsideValidityDomain):
        closed_form_gamma(2.0, 3.0, "plus")
    with pytest.raises(ValueError):
        closed_form_gamma(-2.0, 0.1, "plus")
    with pytest.raises(ValueError):
        closed_form_gamma(2.0, -0.1, "plus")


def test_gapless_closed_form_matches_the_split_quadrature():
    # cells more than 1e-3 from both lines and from the transition
    rng = np.random.default_rng(41)
    for _ in range(200):
        q = float(rng.uniform(0.1, 3.0))
        if abs(q - 1.0) < 1e-3:
            continue
        eta = float(rng.uniform(abs(q - 1.0) + 1e-3, q + 1.0 - 1e-3))
        inner, outer = split_integrals(q, eta)
        step = math.pi if q > 1.0 else 0.0
        plus = complex(step + eta * outer, eta * inner)
        minus = complex(step - eta * outer, -eta * inner)
        assert abs(closed_form_gamma(q, eta, "plus") - plus) <= 1e-10, (q, eta)
        assert abs(closed_form_gamma(q, eta, "minus") - minus) <= 1e-10, (q, eta)


@pytest.mark.parametrize("q, eta", [
    (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
    (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf),
])
def test_closed_form_refuses_non_finite_ratios(q, eta):
    with pytest.raises(ValueError):
        closed_form_gamma(q, eta, "plus")

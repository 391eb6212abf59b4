"""Complete elliptic integrals and the closed-form phase of the lossy chain."""

import math

import numpy as np
import pytest

from berryline.elliptic import (_closed_form_pair, cel, closed_form_gamma,
                                ellip_k, ellip_pi)
from berryline.errors import DomainError, OutsideValidityDomain, UndefinedAtTransition

from oracles import agm_k, closed_form_mp, quad_k, quad_pi, split_integrals

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


@pytest.mark.parametrize("kc", [math.nan, 0.0, math.inf, -math.inf])
def test_cel_refuses_a_modulus_that_never_settles(kc):
    # the iteration stops when its two means meet, which they never do
    # from kc = 0 or a non-finite kc; a bounded loop raises instead
    with pytest.raises(DomainError):
        cel(kc, 0.5, 1.0, 1.0)
    # an array call returns NaN in that lane, and its neighbours keep the
    # bits of their float calls
    lanes = cel(np.array([0.3, kc, 2.0]), 0.5, 1.0, 1.0)
    assert math.isnan(lanes[1])
    assert [lanes[0].hex(), lanes[2].hex()] == [
        cel(0.3, 0.5, 1.0, 1.0).hex(), cel(2.0, 0.5, 1.0, 1.0).hex()]


def test_array_cel_is_the_float_cel_bit_for_bit():
    # kc over the whole range the step bound covers, from the smallest
    # subnormal to 1e150, and p, a, b of either sign where p allows it
    rng = np.random.default_rng(1031)
    kc = np.concatenate([[5e-324, 1e150],
                         10.0 ** rng.uniform(-323.0, 150.0, 400),
                         rng.uniform(-3.0, 3.0, 200)])
    p = np.concatenate([10.0 ** rng.uniform(-20.0, 20.0, 500),
                        rng.uniform(-1.0, 0.0, 102)])
    a, b = rng.uniform(-5.0, 5.0, (2, kc.size))
    lanes = cel(kc, p, a, b)
    assert np.isfinite(lanes[:500]).all() and np.isnan(lanes[500:]).all()
    for k, *rest in zip(kc.tolist(), p.tolist(), a.tolist(), b.tolist(),
                        lanes.tolist()):
        got = rest.pop()
        try:
            want = cel(k, *rest).hex()
        except DomainError:
            want = math.nan.hex()
        assert got.hex() == want, (k, *rest)


@pytest.mark.parametrize("p", [0.0, -0.5, math.nan])
def test_cel_refuses_a_characteristic_at_or_beyond_the_pole(p):
    with pytest.raises(DomainError):
        cel(0.5, p, 1.0, 1.0)


def test_cel_settles_down_to_the_smallest_complementary_parameter():
    # K(m) ~ ln(4 / kc) as kc -> 0
    for kc in (math.sqrt(5e-324), 1e-150, 1e-20):
        assert abs(cel(kc, 1.0, 1.0, 1.0) - math.log(4.0 / kc)) < 1e-12


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
    # beyond eta = q + 1 too; only the lines and q = 1 have none
    beyond = closed_form_gamma(2.0, 3.5, "plus")
    want_x, want_y = closed_form_mp(2.0, 3.5)
    assert abs(beyond - complex(math.pi + want_x, want_y)) <= 1e-13
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


def test_both_bands_at_once_are_the_one_band_calls_bit_for_bit():
    # TYPE_I and gapless points: one elliptic evaluation gives both bands
    rng = np.random.default_rng(11)
    regions = {"TYPE_I": 0, "gapless": 0}
    while min(regions.values()) < 100:
        q = float(rng.uniform(0.1, 3.0))
        if abs(q - 1.0) < 1e-3:
            continue
        if rng.integers(2):
            eta = float(rng.uniform(0.0, abs(q - 1.0)))
            region = "TYPE_I"
        else:
            eta = float(rng.uniform(abs(q - 1.0), q + 1.0))
            region = "gapless"
        plus, minus = _closed_form_pair(q, eta)
        for got, band in ((plus, "plus"), (minus, "minus")):
            want = closed_form_gamma(q, eta, band)
            assert (got.real.hex(), got.imag.hex()) == (
                want.real.hex(), want.imag.hex()), (q, eta, band)
        regions[region] += 1


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_closed_form_keeps_its_digits_next_to_the_transition(side):
    # q = 1 +- 10^-j; q = 1 +- 1e-12 is the transition itself. eta is drawn
    # below the inner line, just above it and across the gapless band. The
    # parameters of the elliptic integrals are written out in q and eta, so
    # x and y keep full precision; forming 1 - n in floating point lost up
    # to 1e-10 at j = 3 and every digit from j = 8 on
    rng = np.random.default_rng(1009)
    for j in range(3, 12):
        q = 1.0 + side * 10.0 ** -j
        d = abs(q - 1.0)
        step = math.pi if q > 1.0 else 0.0
        etas = np.concatenate([rng.uniform(0.0, d, 3),
                               d * rng.uniform(1.0, 20.0, 3),
                               rng.uniform(d, 1.9, 3)])
        for eta in etas.tolist():
            want_x, want_y = closed_form_mp(q, eta)
            plus, _ = _closed_form_pair(q, eta)
            assert abs(plus.real - step - want_x) <= 1e-13, (q, eta)
            assert abs(plus.imag - want_y) <= 1e-13, (q, eta)


def test_closed_form_matches_60_digit_arithmetic_away_from_the_transition():
    rng = np.random.default_rng(1013)
    for _ in range(60):
        q = float(rng.uniform(0.05, 4.0))
        if abs(q - 1.0) < 1e-3:
            continue
        eta = float(rng.uniform(0.0, q + 1.0))
        if abs(eta - abs(q - 1.0)) < 1e-6:
            continue
        want_x, want_y = closed_form_mp(q, eta)
        plus, _ = _closed_form_pair(q, eta)
        step = math.pi if q > 1.0 else 0.0
        assert abs(plus.real - step - want_x) <= 1e-13, (q, eta)
        assert abs(plus.imag - want_y) <= 1e-13, (q, eta)


@pytest.mark.parametrize("q, eta", [
    (2.0, 3.0000001), (2.0, 3.000001), (0.5, 1.5000001), (1.000001, 2.1),
    (2.0, 4.0)])
def test_closed_form_beyond_the_outer_line_matches_60_digit_arithmetic(q, eta):
    # r(0) < 0: a real phase pi [q > 1] +- x, with imaginary parts +0 and -0
    want_x, want_y = closed_form_mp(q, eta)
    plus, minus = _closed_form_pair(q, eta)
    step = math.pi if q > 1.0 else 0.0
    assert want_y == 0.0
    assert abs(plus.real - step - want_x) <= 1e-13
    assert abs(minus.real - step + want_x) <= 1e-13
    assert plus.imag == minus.imag == 0.0
    assert (math.copysign(1.0, plus.imag), math.copysign(1.0, minus.imag)) == (
        1.0, -1.0)


def test_closed_form_beyond_the_outer_line_matches_on_seeded_draws():
    # 1e-3 to 3 above the line. The radicand extremes round 1 + q before
    # they subtract eta, which moves the line by up to an ulp of 1 + q, and
    # x, about (sqrt(q) / 2) ln(1 / distance), by up to sqrt(q) ulp(1 + q)
    # / distance: 2.4e-13 at 1.7e-3 from the line, and 6e-11 at 1e-6. The
    # refinement shares that rounding, so the bound names it
    rng = np.random.default_rng(1019)
    for _ in range(60):
        q = float(rng.uniform(0.05, 4.0))
        if abs(q - 1.0) < 1e-3:
            continue
        distance = float(10.0 ** rng.uniform(-3.0, math.log10(3.0)))
        eta = q + 1.0 + distance
        want_x, _ = closed_form_mp(q, eta)
        plus, minus = _closed_form_pair(q, eta)
        step = math.pi if q > 1.0 else 0.0
        bound = 1e-13 + math.sqrt(q) * math.ulp(1.0 + q) / distance
        assert abs(plus.real - step - want_x) <= bound, (q, eta)
        assert abs(minus.real - step + want_x) <= bound, (q, eta)


def test_closed_form_beyond_the_outer_line_matches_the_refinement():
    from berryline.berry import bipartite_phase_point

    rng = np.random.default_rng(1021)
    for _ in range(40):
        q = float(rng.uniform(0.05, 4.0))
        if abs(q - 1.0) < 1e-3:
            continue
        eta = q + 1.0 + float(10.0 ** rng.uniform(-6.0, math.log10(3.0)))
        plus, minus = _closed_form_pair(q, eta)
        r = bipartite_phase_point(q, eta)
        got = (r.gamma_b_plus, r.xi_b_plus, r.gamma_b_minus, r.xi_b_minus)
        want = (plus.real, plus.imag, minus.real, minus.imag)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (q, eta)


@pytest.mark.parametrize("q, eta", [
    (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
    (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf),
])
def test_closed_form_refuses_non_finite_ratios(q, eta):
    with pytest.raises(ValueError):
        closed_form_gamma(q, eta, "plus")

"""Region classification of the lossy chain's complex spectrum."""

import math

import numpy as np
import pytest

from berryline.errors import ClassificationMismatch
from berryline.models import BipartiteParams
from berryline.spectrum import (
    GAPLESS_TRUE_CROSSING,
    TYPE_I,
    TYPE_II,
    classify_region,
    complex_gap,
    verify_region,
)


def test_complex_gap_hermitian_is_twice_hopping_modulus():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.0)
    for k in (0.0, 0.6, np.pi / 2, np.pi):
        gap = complex_gap(p, k)
        assert abs(gap.imag) < 1e-15
        assert abs(gap.real - 2.0 * abs(1.0 + 2.0 * np.exp(-1j * k))) < 1e-13


def test_complex_gap_extremes():
    weak = BipartiteParams.from_ratios(0.5, 0.2)
    # radicand minimum (1-q)^2 - eta^2 = 0.21 sits at k = pi
    assert abs(complex_gap(weak, math.pi) - 2.0 * math.sqrt(0.21)) < 1e-14
    strong = BipartiteParams.from_ratios(0.5, 2.0)
    # radicand maximum (1+q)^2 - eta^2 = -1.75 sits at k = 0
    assert abs(complex_gap(strong, 0.0) - 2.0j * math.sqrt(1.75)) < 1e-14


def test_classify_gapless_interior():
    report = classify_region(1.0, 1.0)
    assert report.region == GAPLESS_TRUE_CROSSING
    assert report.all_labels == (GAPLESS_TRUE_CROSSING,)
    k0 = 2.0 * np.pi / 3.0
    assert len(report.witnesses) == 2
    assert abs(report.witnesses[0] + k0) < 1e-12
    assert abs(report.witnesses[1] - k0) < 1e-12
    assert report.gap_min_re == 0.0 and report.gap_min_im == 0.0


def test_classify_weak_loss():
    report = classify_region(0.5, 0.2)
    assert report.region == TYPE_I
    assert report.all_labels == (TYPE_I,)
    assert report.witnesses == ()
    assert abs(report.gap_min_re - 2.0 * math.sqrt(0.21)) < 1e-14
    assert report.gap_min_im == 0.0


def test_classify_strong_loss():
    report = classify_region(0.5, 2.0)
    assert report.region == TYPE_II
    assert report.all_labels == (TYPE_II,)
    assert report.witnesses == ()
    assert report.gap_min_re == 0.0
    assert abs(report.gap_min_im - 2.0 * math.sqrt(1.75)) < 1e-14


def test_classify_boundary_ties_prefer_gapless():
    low = classify_region(2.0, 1.0)  # eta = |q - 1|
    assert low.region == GAPLESS_TRUE_CROSSING
    assert low.all_labels == (GAPLESS_TRUE_CROSSING, TYPE_I)
    assert low.witnesses == (math.pi,)
    high = classify_region(0.5, 1.5)  # eta = q + 1
    assert high.region == GAPLESS_TRUE_CROSSING
    assert high.all_labels == (GAPLESS_TRUE_CROSSING, TYPE_II)
    assert high.witnesses == (0.0,)


def test_classify_ratio_guards():
    with pytest.raises(ValueError):
        classify_region(0.0, 1.0)
    with pytest.raises(ValueError):
        classify_region(-1.0, 1.0)
    with pytest.raises(ValueError):
        classify_region(1.0, -0.2)


def test_verify_agrees_with_classify_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        q = rng.uniform(0.1, 3.0)
        eta = rng.uniform(0.0, 3.0)
        analytic = classify_region(q, eta)
        scanned = verify_region(q, eta)
        assert scanned.region == analytic.region
        assert scanned.region in (GAPLESS_TRUE_CROSSING, TYPE_I, TYPE_II)


def test_verify_locates_interior_witnesses():
    report = verify_region(1.0, 1.0)
    k0 = 2.0 * np.pi / 3.0
    assert len(report.witnesses) == 2
    assert abs(report.witnesses[0] + k0) < 1e-6
    assert abs(report.witnesses[1] - k0) < 1e-6


def test_verify_catches_tangential_boundary_zeros():
    # On eta = q + 1 the radicand touches zero at k = 0 without a sign
    # change; on eta = |q - 1| the same happens at k = pi.
    top = verify_region(0.4, 1.4)
    assert top.region == GAPLESS_TRUE_CROSSING
    assert any(abs(k) < 1e-6 for k in top.witnesses)
    bottom = verify_region(1.5, 0.5)
    assert bottom.region == GAPLESS_TRUE_CROSSING
    assert any(abs(k - math.pi) < 1e-6 for k in bottom.witnesses)


def test_verify_scan_resolution_guard():
    with pytest.raises(ValueError):
        verify_region(1.0, 1.0, k_samples=255)
    report = verify_region(1.0, 1.0, k_samples=256)
    assert report.region == GAPLESS_TRUE_CROSSING
    # odd counts are rounded up so 0 and pi stay on the grid
    report = verify_region(1.0, 1.0, k_samples=257)
    assert report.region == GAPLESS_TRUE_CROSSING


def test_verify_deep_interior_has_no_witnesses():
    assert verify_region(2.5, 0.3).witnesses == ()
    assert verify_region(0.3, 2.5).witnesses == ()


@pytest.mark.parametrize("q, eta", [
    (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
    (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf),
])
def test_non_finite_ratios_are_refused(q, eta):
    with pytest.raises(ValueError):
        classify_region(q, eta)
    with pytest.raises(ValueError):
        verify_region(q, eta)

"""Acceptance gate: each test exercises one release criterion end to end.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Tolerances and budgets are stated inline next to each
assertion; nothing here relaxes what the library itself promises.
"""

import math
import time

import numpy as np

from berryline.berry import (
    apply_gauge,
    bipartite_phase_point,
    two_level_phase_point,
)
from berryline.elliptic import closed_form_gamma, ellip_k, ellip_pi
from berryline.errors import ClassificationMismatch
from berryline.evolution import Schedule, adiabatic_decomposition
from berryline.models import (
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    standard_loop,
)
from berryline.quadrature import pearson_line
from berryline.spectrum import classify_region, verify_region
from berryline.sweep import divergence_scan, phase_diagram

from oracles import (agm_k, draw_bipartite, draw_two_level,
                     first_order_correction_trace, quad_k, quad_pi)


def _chain(q, eta):
    return BipartiteModel(BipartiteParams.from_ratios(q, eta))


def test_c01_two_level_index_is_quantized_over_random_draws():
    # 200 draws split across the two sign regions, margins >= 0.05,
    # |Q - round(Q)| < 1e-6 against the sign condition, under 60 s total
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    for expected, region in ((1, "positive"), (0, "negative")):
        for _ in range(100):
            params = draw_two_level(rng, region)
            r = two_level_phase_point(params, n0=256)
            assert r.q_rounded is not None, params
            assert abs(r.q_index - round(r.q_index)) < 1e-6, params
            assert abs(r.q_rounded) == expected, params
    assert time.monotonic() - start < 60.0


def test_c02_bipartite_index_steps_at_unit_hopping_ratio():
    for q, expected in ((0.2, 0), (0.5, 0), (0.9, 0),
                        (1.1, 1), (2.0, 1), (5.0, 1)):
        for eta in (0.0, 0.3, 0.8 * abs(q - 1.0)):
            r = bipartite_phase_point(q, eta)
            assert abs(r.q_index - expected) <= 1e-6, (q, eta)


def test_c03_contour_phases_match_the_elliptic_closed_form():
    step = math.pi
    for q in np.linspace(0.15, 2.95, 20):
        q = float(q)
        expected_re = step if q > 1.0 else 0.0
        for j in range(20):
            eta = (j / 20.0) * 0.9 * abs(q - 1.0)
            r = bipartite_phase_point(q, eta)
            plus = complex(r.gamma_b_plus, r.xi_b_plus)
            minus = complex(r.gamma_b_minus, r.xi_b_minus)
            assert abs(plus - closed_form_gamma(q, eta, "plus")) < 1e-6, (q, eta)
            assert abs(minus - closed_form_gamma(q, eta, "minus")) < 1e-6, (q, eta)
            assert abs(r.gamma_b_plus - expected_re) < 1e-8, (q, eta)
            assert abs(r.gamma_b_minus - expected_re) < 1e-8, (q, eta)


def test_c04_pi_step_across_the_transition():
    above = bipartite_phase_point(1.05, 0.01)
    below = bipartite_phase_point(0.95, 0.01)
    assert abs((above.gamma_b_plus - below.gamma_b_plus) - math.pi) < 1e-4


def test_c05_logarithmic_divergences_along_both_lines():
    d2 = divergence_scan(0.5, "d2")
    assert d2.slope > 0.0
    assert d2.correlation >= 0.999
    # the real part takes a finite jump only; it never diverges toward d2
    assert max(abs(g.real) for g in d2.gammas) < 1e-6
    d1 = divergence_scan(0.5, "d1")
    assert d1.slope > 0.0
    assert d1.correlation >= 0.99


def test_c05_divergence_slopes_reach_the_analytic_rate():
    # at q = 0.5 both parts grow like (sqrt(2) / 4) ln(1 / distance); the
    # slope through the two deepest of 15 decades must match within 1e-9
    for line, eta_c in (("d1", 1.5), ("d2", 0.5)):
        fit = divergence_scan(0.5, line, decades=15)
        x = [-math.log(eta_c - eta) for eta in fit.etas[-2:]]
        slope = (fit.values[-1] - fit.values[-2]) / (x[1] - x[0])
        assert abs(slope - math.sqrt(2.0) / 4.0) <= 1e-9, (line, slope)


def test_c06_region_classification_has_no_mismatches():
    mismatches = []
    for q in np.linspace(0.1, 3.0, 50):
        for eta in np.linspace(0.0, 3.0, 50):
            try:
                report = verify_region(float(q), float(eta))
            except ClassificationMismatch:
                mismatches.append((float(q), float(eta)))
                continue
            assert report.region == classify_region(float(q), float(eta)).region
    assert mismatches == []
    # on the two boundary lines the gap radicand vanishes identically
    for q in np.linspace(0.1, 3.0, 25):
        q = float(q)
        for model, k in ((_chain(q, abs(q - 1.0)), math.pi),
                         (_chain(q, q + 1.0), 0.0)):
            e = model.energies(np.array([k]))
            radicand = ((e[0, 0] - e[1, 0]) / 2.0) ** 2
            assert abs(radicand) <= 1e-12, (q, k)


def test_c07_gauge_laws_hold_for_all_small_windings():
    two_level = TwoLevelModel(TwoLevelParams(
        h_x=1.0, h_y=1.0, h_z=0.5, d_x=2.0, d_y=2.0, d_z=0.0, theta=1.0))
    models = (two_level, _chain(2.0, 0.5))
    for model in models:
        loop = standard_loop(model.kind, 1024)
        for band in ("plus", "minus"):
            for n in range(-3, 4):
                windings = {"plus": n if band == "plus" else 0,
                            "minus": n if band == "minus" else 0}

                def gauge(alphas, b, w=windings):
                    return w[b] * np.asarray(alphas, dtype=float)

                shift = apply_gauge(loop, model, gauge, windings)
                assert shift.residual_a <= 1e-9, (model.kind, band, n)
                assert shift.residual_gamma_plus <= 1e-8, (model.kind, band, n)
                assert shift.residual_gamma_minus <= 1e-8, (model.kind, band, n)
                assert shift.residual_q <= 1e-6, (model.kind, band, n)
                assert abs((shift.q_new - shift.q_original) - n) <= 1e-6


def test_c08_first_order_connection_trace_vanishes():
    rng = np.random.default_rng(808)
    worst = 0.0
    for region in ("positive", "negative"):
        for _ in range(5):
            params = draw_two_level(rng, region)
            loop = standard_loop(TWO_LEVEL, 256)
            trace = first_order_correction_trace(loop, TwoLevelModel(params))
            worst = max(worst, trace)
    for region in ("TYPE_I", "TYPE_II"):
        for _ in range(5):
            q, eta = draw_bipartite(rng, region)
            loop = standard_loop(BIPARTITE, 256)
            trace = first_order_correction_trace(loop, _chain(q, eta))
            worst = max(worst, trace)
    assert worst < 1e-8


def test_c09_adiabatic_defect_scales_inversely_with_cycle_time():
    model = _chain(2.0, 0.3)
    cycle_times = [float(2 ** j) for j in range(7, 15)]
    defects = []
    for T in cycle_times:
        sched = Schedule(period_T=T, steps=math.ceil(3.0 * T ** 1.5))
        defects.append(adiabatic_decomposition(model, sched, "plus").defect)
    for larger, smaller in zip(defects, defects[1:]):
        assert smaller <= larger * (1.0 + 1e-6), defects
    slope, _, _ = pearson_line(np.log(cycle_times), np.log(defects))
    assert abs(slope + 1.0) <= 0.3, (slope, defects)
    # Hermitian drives pick up no imaginary phase in the slow limit
    hermitian_cases = (
        TwoLevelModel(TwoLevelParams(h_x=1.2, h_y=1.2, h_z=-0.4,
                                     d_x=0.0, d_y=0.0, d_z=0.0, theta=1.0)),
        _chain(2.0, 0.0),
    )
    T = 1.0e4
    for herm in hermitian_cases:
        sched = Schedule(period_T=T, steps=math.ceil(2.0 * T ** 1.5))
        r = adiabatic_decomposition(herm, sched, "plus")
        assert abs(r.total_phase.imag) < 1e-6, herm.kind


def test_c10_full_phase_diagram_reproduces_the_two_plateaus():
    start = time.monotonic()
    grid = phase_diagram((0.1, 3.0), (0.0, 3.0), 200, 200)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    total = grid.converged.size
    converged = int(np.count_nonzero(grid.converged))
    assert converged >= 0.95 * total, (converged, total)
    # every converged cell clear of the transition column is on a plateau
    spacing = float(grid.q_axis[1] - grid.q_axis[0])
    clear = np.abs(grid.q_axis - 1.0)[None, :] > spacing
    values = grid.q_index[grid.converged & clear]
    distance = np.minimum(np.abs(values), np.abs(values - 1.0))
    assert float(distance.max()) <= 1e-6


def test_c11_elliptic_integrals_match_independent_oracles():
    for y in np.linspace(0.0, 0.995, 40):
        y = float(y)
        k_val = ellip_k(y)
        assert abs(k_val - agm_k(y)) < 1e-12, y
        assert abs(ellip_pi(0.0, y) - k_val) <= 1e-12, y
    for y in (0.3, 0.7, 0.95):
        assert abs(ellip_k(y) - quad_k(y)) < 1e-12, y
    rng = np.random.default_rng(777)
    for _ in range(50):
        y = float(rng.uniform(0.0, 0.95))
        x = float(rng.uniform(-1.0, 0.95))
        assert abs(ellip_pi(x, y) - quad_pi(x, y)) < 1e-12, (x, y)

"""Complex band phases, the quantized global index, and gauge laws."""

import math

import numpy as np
import pytest

from berryline.berry import (
    analytic_q,
    apply_gauge,
    band_berry_phase,
    bipartite_phase_point,
    connection_samples,
    first_order_correction_trace,
    global_berry_phase,
    two_level_phase_point,
)
from berryline.errors import GaugeMismatch, SingularLoop, UndefinedAtTransition
from berryline.models import (
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    standard_loop,
)

from oracles import draw_two_level


def _tl(h, d, theta):
    return TwoLevelParams(h_x=h[0], h_y=h[1], h_z=h[2],
                          d_x=d[0], d_y=d[1], d_z=d[2], theta=theta)


def _chain(q, eta):
    return BipartiteModel(BipartiteParams.from_ratios(q, eta))


def test_connection_vanishes_for_constant_frame():
    # v_prime = 0 freezes the Bloch matrix over the whole zone.
    model = BipartiteModel(BipartiteParams(v=1.0, v_prime=0.0, gamma=0.3))
    loop = standard_loop(BIPARTITE, 64)
    for route in ("analytic", "fd"):
        for sample in connection_samples(loop, model, derivative=route):
            assert np.max(np.abs(sample.a_matrix)) < 1e-10


def test_connection_hermitian_two_level_diagonal():
    # Delta = 0 with equal x/y fields: the frame angle nu advances at unit
    # rate and the mixing angle is constant, so the diagonal connection is
    # the constant (1 +- cos chi) / 2.
    h, hz, theta = 1.3, 0.5, 1.0
    p = _tl((h, h, hz), (0.0, 0.0, 0.0), theta)
    e = math.sqrt(h * h * math.sin(theta) ** 2 + hz * hz * math.cos(theta) ** 2)
    cos_chi = hz * math.cos(theta) / e
    loop = standard_loop(TWO_LEVEL, 64)
    for sample in connection_samples(loop, TwoLevelModel(p)):
        assert abs(sample.a_matrix[0, 0] - 0.5 * (1.0 + cos_chi)) < 1e-8
        assert abs(sample.a_matrix[1, 1] - 0.5 * (1.0 - cos_chi)) < 1e-8


def test_connection_bipartite_pauli_decomposition():
    # The connection splits as
    #   (1/2)(s0 + sz cos chi - sx sin chi) dtheta - (i/2) sy dchi.
    # Trace and mixing angle come from independent routes: the winding
    # rate method and central differences of the pointwise closed form.
    from berryline.models import bipartite_closed_form

    params = BipartiteParams.from_ratios(2.0, 0.5)
    model = BipartiteModel(params)
    loop = standard_loop(BIPARTITE, 512)
    samples = connection_samples(loop, model)
    step = 1e-6
    for sample in samples[::37]:
        k = sample.alpha
        a = sample.a_matrix
        dtheta = float(model.winding_rate(np.array([k]))[0])
        chi = bipartite_closed_form(params, k)[0].chi_k
        dchi = (bipartite_closed_form(params, k + step)[0].chi_k
                - bipartite_closed_form(params, k - step)[0].chi_k) / (2.0 * step)
        assert abs((a[0, 0] + a[1, 1]) - dtheta) < 1e-7
        assert abs((a[0, 0] - a[1, 1]) - np.cos(chi) * dtheta) < 1e-6
        assert abs((a[0, 1] + a[1, 0]) + np.sin(chi) * dtheta) < 1e-6
        assert abs((a[0, 1] - a[1, 0]) + 1j * dchi) < 1e-5


def test_connection_fd_matches_analytic():
    model = _chain(2.0, 0.5)
    loop = standard_loop(BIPARTITE, 512)
    fd = connection_samples(loop, model)
    an = connection_samples(loop, model, derivative="analytic")
    assert len(fd) == len(an) == 512
    worst = max(np.max(np.abs(a.a_matrix - b.a_matrix)) for a, b in zip(fd, an))
    assert worst < 1e-7
    with pytest.raises(ValueError):
        connection_samples(loop, model, derivative="spline")


def test_band_phase_lossless_chain_is_a_step():
    loop = standard_loop(BIPARTITE, 1024)
    above = band_berry_phase(loop, _chain(2.0, 0.0), "plus")
    assert abs(above - math.pi) < 1e-12
    assert above.imag == 0.0
    below = band_berry_phase(loop, _chain(0.5, 0.0), "minus")
    assert abs(below) < 1e-12


def test_band_phase_hermitian_two_level():
    # gamma_+ = pi (1 + cos chi) with tan chi = (h / h_z) tan theta
    h, hz, theta = 1.3, 0.5, 1.0
    p = _tl((h, h, hz), (0.0, 0.0, 0.0), theta)
    e = math.sqrt(h * h * math.sin(theta) ** 2 + hz * hz * math.cos(theta) ** 2)
    cos_chi = hz * math.cos(theta) / e
    loop = standard_loop(TWO_LEVEL, 1024)
    got = band_berry_phase(loop, TwoLevelModel(p), "plus")
    assert abs(got - math.pi * (1.0 + cos_chi)) < 1e-10
    assert abs(got.imag) < 1e-12
    minus = band_berry_phase(loop, TwoLevelModel(p), "minus")
    assert abs(minus - math.pi * (1.0 - cos_chi)) < 1e-10


def test_band_phase_matches_elliptic_closed_form():
    from berryline.elliptic import closed_form_gamma

    loop = standard_loop(BIPARTITE, 1024)
    for q, eta in ((2.0, 0.5), (0.5, 0.2), (3.0, 1.2)):
        for band in ("plus", "minus"):
            got = band_berry_phase(loop, _chain(q, eta), band)
            assert abs(got - closed_form_gamma(q, eta, band)) < 1e-6


def test_band_phase_rejects_transition_and_singular_loops():
    loop = standard_loop(BIPARTITE, 1024)
    with pytest.raises(UndefinedAtTransition):
        band_berry_phase(loop, _chain(1.0, 0.5), "plus")
    tl_loop = standard_loop(TWO_LEVEL, 1024)
    singular = TwoLevelModel(_tl((1.0, 2.0, 0.3), (1.0, 0.5, 0.0), 1.0))
    with pytest.raises(SingularLoop):
        band_berry_phase(tl_loop, singular, "plus")


def test_global_phase_spec_points():
    p = _tl((1.0, 1.0, 0.4), (2.0, 2.0, 0.3), 1.3)
    assert two_level_phase_point(p).q_rounded == 1
    p = _tl((1.0, 1.0, 0.4), (2.0, 0.0, 0.3), 1.3)
    assert two_level_phase_point(p).q_rounded == 0
    p = _tl((1.5, 0.7, 0.2), (0.0, 0.0, 0.0), 1.1)
    assert two_level_phase_point(p).q_rounded == 1
    assert bipartite_phase_point(0.5, 0.1).q_rounded == 0
    assert bipartite_phase_point(2.0, 0.1).q_rounded == 1


def test_global_phase_quantization_random_draws():
    rng = np.random.default_rng(404)
    for style in ("positive", "negative"):
        expected = 1 if style == "positive" else 0
        for _ in range(15):
            params = draw_two_level(rng, style)
            result = two_level_phase_point(params, n0=256)
            assert result.q_rounded == expected
            assert abs(result.q_index - result.q_rounded) < 1e-6
            assert analytic_q(params) == expected
            # both routes stored and in agreement on every accepted run
            assert abs(result.q_quadrature - result.q_wilson) <= 1e-6


def test_global_phase_hermitian_reality():
    p = _tl((1.2, 0.9, 0.4), (0.0, 0.0, 0.0), 1.0)
    r = two_level_phase_point(p)
    assert abs(r.xi_b_plus) < 1e-8
    assert abs(r.xi_b_minus) < 1e-8
    r = bipartite_phase_point(2.0, 0.0)
    assert abs(r.xi_b_plus) < 1e-8
    assert abs(r.gamma_b_plus - math.pi) < 1e-8


def test_global_phase_result_shape():
    r = bipartite_phase_point(2.0, 0.5)
    assert r.q_rounded == 1
    assert abs(r.q_index - 1.0) < 1e-6
    assert r.resolution >= 1024
    assert r.refinement_history[-1][0] == r.resolution
    assert abs(r.gamma_b_plus - math.pi) < 1e-6
    assert abs(r.xi_b_plus + r.xi_b_minus) < 1e-9


def test_global_phase_rejects_singular_sets():
    with pytest.raises(SingularLoop):
        two_level_phase_point(_tl((1.0, 2.0, 0.3), (1.0, 0.5, 0.0), 1.0))
    with pytest.raises(UndefinedAtTransition):
        bipartite_phase_point(1.0, 0.5)
    loop = standard_loop(BIPARTITE, 1024)
    with pytest.raises(SingularLoop):
        global_berry_phase(loop, _chain(1.5, 1.0))


def test_gapless_region_phases():
    # Interior of the gapless region: the index still quantizes through
    # the EP-free winding routes, and the band phases pair up.
    r = bipartite_phase_point(1.5, 1.0)
    assert r.q_rounded == 1
    assert abs(r.q_quadrature - r.q_wilson) <= 1e-6
    assert abs(r.xi_b_plus + r.xi_b_minus) < 1e-12
    assert abs((r.gamma_b_plus + r.gamma_b_minus)
               - 2.0 * math.pi * r.q_index) < 1e-9
    low = bipartite_phase_point(0.7, 0.9)
    assert low.q_rounded == 0
    assert low.xi_b_plus != 0.0


def test_analytic_q_values():
    assert analytic_q(_tl((1.0, 1.0, 0.2), (2.0, 2.0, 0.0), 1.0)) == 1
    assert analytic_q(_tl((1.0, 1.0, 0.2), (1.0, 2.0, 0.0), 1.0)) is None
    assert analytic_q(_tl((1.0, 1.0, 0.2), (2.0, 0.3, 0.0), 1.0)) == 0
    assert analytic_q(_tl((1.5, 0.7, 0.0), (0.0, 0.0, 0.0), 1.0)) == 1
    assert analytic_q(BipartiteParams.from_ratios(2.0, 0.5)) == 1
    assert analytic_q(BipartiteParams.from_ratios(0.5, 0.5)) == 0
    assert analytic_q(BipartiteParams.from_ratios(1.0, 0.5)) is None
    # model wrappers unwrap to their parameters
    m = TwoLevelModel(_tl((1.0, 1.0, 0.2), (2.0, 2.0, 0.0), 1.0))
    assert analytic_q(m) == 1
    with pytest.raises(ValueError):
        analytic_q("chain")


def test_resolution_convergence_is_at_least_fourth_order():
    model = _chain(3.0, 1.9)  # close to the weak-loss boundary, peaky at k = pi

    def gamma_at(n):
        k = -np.pi + (np.arange(n) + 1.0) * (2.0 * np.pi / n)
        path = model.eigen_path(k)
        return complex(np.sum(path.connection[0, 0]) * (2.0 * np.pi / n))

    reference = gamma_at(8192)
    errors = [abs(gamma_at(n) - reference) for n in (16, 32, 64)]
    assert errors[1] <= errors[0] / 16.0 + 1e-13
    assert errors[2] <= errors[1] / 16.0 + 1e-13


def test_trace_additivity_and_real_total():
    p = _tl((1.0, 0.8, 0.3), (0.2, 0.4, 0.1), 1.2)
    model = TwoLevelModel(p)
    phis = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    path = model.eigen_path(phis)
    diag_sum = path.connection[0, 0] + path.connection[1, 1]
    assert np.max(np.abs(path.trace_connection - diag_sum)) < 1e-10
    # the amplitude-asymmetry term integrates out over a full period
    total = np.sum(path.trace_connection) * (2.0 * np.pi / 512)
    assert abs(total.imag) < 1e-8


def test_gauge_identity_leaves_everything_alone():
    model = _chain(2.0, 0.5)
    loop = standard_loop(BIPARTITE, 1024)
    zero = lambda alphas, band: np.zeros_like(alphas)
    r = apply_gauge(loop, model, zero, {"plus": 0, "minus": 0})
    assert abs(r.gamma_plus_new - r.gamma_plus) < 1e-9
    assert abs(r.gamma_minus_new - r.gamma_minus) < 1e-9
    assert abs(r.q_new - r.q_original) < 1e-9
    assert r.residual_a < 1e-9


def test_gauge_single_band_unit_winding():
    model = _chain(2.0, 0.5)
    loop = standard_loop(BIPARTITE, 1024)
    f = lambda alphas, band: alphas if band == "plus" else np.zeros_like(alphas)
    r = apply_gauge(loop, model, f, {"plus": 1, "minus": 0})
    assert abs(r.gamma_plus_new - r.gamma_plus - 2.0 * math.pi) < 1e-8
    assert abs(r.gamma_minus_new - r.gamma_minus) < 1e-8
    assert abs(r.q_new - r.q_original - 1.0) < 1e-6
    assert r.winding_plus == 1 and r.winding_minus == 0


def test_gauge_both_bands_negative_winding():
    model = TwoLevelModel(_tl((1.0, 1.0, 0.4), (2.0, 2.0, 0.3), 1.3))
    loop = standard_loop(TWO_LEVEL, 1024)
    f = lambda alphas, band: -2.0 * alphas
    r = apply_gauge(loop, model, f, {"plus": -2, "minus": -2})
    assert abs(r.q_new - r.q_original + 4.0) < 1e-6
    assert abs(r.gamma_plus_new - r.gamma_plus + 4.0 * math.pi) < 1e-8
    assert abs(r.gamma_minus_new - r.gamma_minus + 4.0 * math.pi) < 1e-8


def test_gauge_smooth_nonlinear_function():
    model = _chain(0.5, 0.1)
    loop = standard_loop(BIPARTITE, 1024)
    f = lambda alphas, band: 0.3 * np.sin(2.0 * alphas) + (
        alphas if band == "minus" else 0.0)
    r = apply_gauge(loop, model, f, {"plus": 0, "minus": 1})
    assert abs(r.q_new - r.q_original - 1.0) < 1e-6
    assert r.residual_gamma_plus < 1e-8
    assert r.residual_gamma_minus < 1e-8


def test_gauge_declared_winding_must_match():
    model = _chain(2.0, 0.5)
    loop = standard_loop(BIPARTITE, 1024)
    zero = lambda alphas, band: np.zeros_like(alphas)
    with pytest.raises(GaugeMismatch):
        apply_gauge(loop, model, zero, {"plus": 1, "minus": 0})


def test_first_order_trace_cancels():
    rng = np.random.default_rng(88)
    tl_loop = standard_loop(TWO_LEVEL, 1024)
    for _ in range(3):
        params = draw_two_level(rng, "positive")
        assert first_order_correction_trace(tl_loop, TwoLevelModel(params)) < 1e-8
    hermitian = _tl((1.2, 0.9, 0.4), (0.0, 0.0, 0.0), 1.0)
    assert first_order_correction_trace(tl_loop, TwoLevelModel(hermitian)) < 1e-8
    bp_loop = standard_loop(BIPARTITE, 1024)
    assert first_order_correction_trace(bp_loop, _chain(2.0, 0.5)) < 1e-8


@pytest.mark.parametrize("q, eta", [
    (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
    (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf),
])
def test_phase_point_refuses_non_finite_ratios(q, eta):
    with pytest.raises(ValueError):
        bipartite_phase_point(q, eta)

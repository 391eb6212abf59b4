"""Complex band phases, the quantized global index, and gauge laws."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berryline import berry
from berryline.berry import (
    analytic_q,
    apply_gauge,
    band_berry_phase,
    bipartite_phase_point,
    global_berry_phase,
    two_level_phase_point,
)
from berryline.errors import (Disagreement, GaugeMismatch, NotConverged,
                              SingularLoop, UndefinedAtTransition)
from berryline.models import (
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    loop_grid,
    standard_loop,
)
from berryline.quadrature import PAD

from oracles import (draw_two_level, fd_connection,
                     first_order_correction_trace)


def _tl(h, d, theta):
    return TwoLevelParams(h_x=h[0], h_y=h[1], h_z=h[2],
                          d_x=d[0], d_y=d[1], d_z=d[2], theta=theta)


def _chain(q, eta):
    return BipartiteModel(BipartiteParams.from_ratios(q, eta))


def _analytic_connection(loop, model):
    alphas, _ = loop_grid(loop, loop.n)
    return model.eigen_path(alphas).connection[:, PAD:PAD + loop.n]


def test_connection_vanishes_for_constant_frame():
    # v_prime = 0 freezes the Bloch matrix over the whole zone.
    model = BipartiteModel(BipartiteParams(v=1.0, v_prime=0.0, gamma=0.3))
    loop = standard_loop(BIPARTITE, 64)
    for route in (_analytic_connection, fd_connection):
        assert np.max(np.abs(route(loop, model))) < 1e-10


def test_connection_hermitian_two_level_diagonal():
    # Delta = 0 with equal x/y fields: the frame angle nu advances at unit
    # rate and the mixing angle is constant, so the diagonal connection is
    # the constant (1 +- cos chi) / 2.
    h, hz, theta = 1.3, 0.5, 1.0
    p = _tl((h, h, hz), (0.0, 0.0, 0.0), theta)
    e = math.sqrt(h * h * math.sin(theta) ** 2 + hz * hz * math.cos(theta) ** 2)
    cos_chi = hz * math.cos(theta) / e
    loop = standard_loop(TWO_LEVEL, 64)
    a = fd_connection(loop, TwoLevelModel(p))
    assert np.abs(a[0, 0] - 0.5 * (1.0 + cos_chi)).max() < 1e-8
    assert np.abs(a[1, 1] - 0.5 * (1.0 - cos_chi)).max() < 1e-8


def test_connection_bipartite_pauli_decomposition():
    # The connection splits as
    #   (1/2)(s0 + sz cos chi - sx sin chi) dtheta - (i/2) sy dchi.
    # Trace and mixing angle come from independent routes: the winding
    # rate method and central differences of the frame's mixing angle at
    # single points.
    model = _chain(2.0, 0.5)
    loop = standard_loop(BIPARTITE, 512)
    connection = fd_connection(loop, model)
    step = 1e-6

    def chi_at(k):
        return model.eigen_path(np.array([k])).chi[0]

    for j in range(0, loop.n, 37):
        k = float(loop.samples[j])
        a = connection[:, :, j]
        dtheta = float(model.winding_rate(np.array([k]))[0])
        chi = chi_at(k)
        dchi = (chi_at(k + step) - chi_at(k - step)) / (2.0 * step)
        assert abs((a[0, 0] + a[1, 1]) - dtheta) < 1e-7
        assert abs((a[0, 0] - a[1, 1]) - np.cos(chi) * dtheta) < 1e-6
        assert abs((a[0, 1] + a[1, 0]) + np.sin(chi) * dtheta) < 1e-6
        assert abs((a[0, 1] - a[1, 0]) + 1j * dchi) < 1e-5


@pytest.mark.parametrize("model", [
    _chain(2.0, 0.5),
    TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0)),
], ids=["bipartite", "two-level"])
def test_connection_fd_matches_analytic(model):
    loop = standard_loop(model.kind, 512)
    fd = fd_connection(loop, model)
    an = _analytic_connection(loop, model)
    assert fd.shape == (2, 2, 512)
    assert an.shape == (2, 512)
    assert np.abs(fd[[0, 1], [0, 1]] - an).max() < 1e-7


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


def _bits(z):
    return np.complex128(z).tobytes()


@pytest.mark.parametrize("q, eta", [(1.5, 1.0), (0.7, 0.9), (2.0, 2.5)])
def test_gapless_band_phase_is_the_point_phase(q, eta):
    loop = standard_loop(BIPARTITE, 1024)
    r = bipartite_phase_point(q, eta)
    plus = band_berry_phase(loop, _chain(q, eta), "plus")
    minus = band_berry_phase(loop, _chain(q, eta), "minus")
    assert _bits(plus) == _bits(complex(r.gamma_b_plus, r.xi_b_plus))
    assert _bits(minus) == _bits(complex(r.gamma_b_minus, r.xi_b_minus))
    for band in ("plus", "minus"):
        with pytest.raises(UndefinedAtTransition):
            band_berry_phase(loop, _chain(1.0, eta), band)


def test_route_conflicts_raise_typed_errors(monkeypatch):
    loop = standard_loop(BIPARTITE, 1024)
    model = _chain(2.0, 0.3)
    monkeypatch.setattr(berry, "_MAX_SAMPLES", 2048)
    clean = global_berry_phase(loop, model)
    assert clean.resolution == 2048
    wilson = berry._wilson_extrapolated
    monkeypatch.setattr(berry, "_wilson_extrapolated",
                        lambda right, left, n: wilson(right, left, n) + 0.5)
    with pytest.raises(Disagreement, match="Wilson loop give different") as err:
        global_berry_phase(loop, model)
    assert err.value.values == (clean.q_index, clean.q_wilson + 0.5)
    # an aliased Wilson route on every settled rung leaves nothing to compare
    monkeypatch.setattr(berry, "_wilson_extrapolated",
                        lambda right, left, n: None)
    with pytest.raises(NotConverged, match="still moving at 2048") as err:
        global_berry_phase(loop, model)
    assert err.value.history == clean.refinement_history


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
            assert abs(result.q_index - result.q_wilson) <= 1e-6


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
    assert abs(r.q_index - r.q_wilson) <= 1e-6
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
        return complex(np.sum(path.connection[0]) * (2.0 * np.pi / n))

    reference = gamma_at(8192)
    errors = [abs(gamma_at(n) - reference) for n in (16, 32, 64)]
    assert errors[1] <= errors[0] / 16.0 + 1e-13
    assert errors[2] <= errors[1] / 16.0 + 1e-13


def test_trace_additivity_and_real_total():
    p = _tl((1.0, 0.8, 0.3), (0.2, 0.4, 0.1), 1.2)
    model = TwoLevelModel(p)
    phis = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    path = model.eigen_path(phis)
    diag_sum = path.connection[0] + path.connection[1]
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
    # a declaration is an integer, never truncated to one
    turn = lambda alphas, band: alphas if band == "plus" else 0.0 * alphas
    for declared in (1.7, "1", 1.0):
        with pytest.raises(ValueError, match="must be an integer"):
            apply_gauge(loop, model, turn, {"plus": declared})
    checked = apply_gauge(loop, model, turn, {"plus": np.int64(1)})
    assert checked.winding_plus == 1


_GAUGE_MODELS = {
    TWO_LEVEL: TwoLevelModel(_tl((1.0, 1.0, 0.5), (2.0, 2.0, 0.0), 1.0)),
    BIPARTITE: _chain(2.0, 0.5),
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(sorted(_GAUGE_MODELS)), st.integers(-3, 3),
       st.integers(-3, 3), st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi))
def test_gauge_laws_hold_for_random_windings_on_both_bands(
        kind, n_plus, n_minus, bump, offset):
    # a winding on each band plus a smooth periodic part that winds nowhere
    windings = {"plus": n_plus, "minus": n_minus}

    def gauge(alphas, band):
        return windings[band] * alphas + bump * np.sin(alphas + offset)

    loop = standard_loop(kind, 1024)
    r = apply_gauge(loop, _GAUGE_MODELS[kind], gauge, windings)
    assert r.residual_a <= 1e-9
    assert max(r.residual_gamma_plus, r.residual_gamma_minus) <= 1e-8
    assert r.residual_q <= 1e-6
    assert abs((r.q_new - r.q_original) - (n_plus + n_minus)) <= 1e-6
    assert (r.winding_plus, r.winding_minus) == (n_plus, n_minus)


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


# Property tests: away from the singular sets the index is an integer, the
# sign conditions predict its magnitude, and it is the band-phase sum.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def _two_level_points(draw):
    margin = st.floats(0.07, 2.0)
    h_x, h_y = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    d_x = (h_x + draw(margin) if draw(st.booleans())
           else max(0.0, h_x - draw(margin)))
    d_y = (h_y + draw(margin) if draw(st.booleans())
           else max(0.0, h_y - draw(margin)))
    return TwoLevelParams(h_x=h_x, h_y=h_y, h_z=draw(st.floats(-1.0, 1.0)),
                          d_x=d_x, d_y=d_y, d_z=draw(st.floats(-1.0, 1.0)),
                          theta=draw(st.floats(0.1, math.pi - 0.1)))


@st.composite
def _chain_points(draw):
    q = draw(st.floats(0.1, 3.0))
    assume(abs(q - 1.0) > 0.15)
    low, high = abs(q - 1.0), q + 1.0
    # one of the three regions, at least 0.05 from both exceptional lines
    eta = draw(st.one_of(st.floats(0.0, low - 0.05),
                         st.floats(low + 0.05, high - 0.05),
                         st.floats(high + 0.05, high + 2.0)))
    return q, eta


def _assert_integer_band_sum(r, expected):
    assert r.q_rounded is not None
    assert abs(r.q_rounded) == expected
    band_sum = complex(r.gamma_b_plus + r.gamma_b_minus,
                       r.xi_b_plus + r.xi_b_minus)
    assert abs(band_sum - 2.0 * math.pi * r.q_rounded) <= 1e-9


@_PROPERTY
@given(_two_level_points())
def test_two_level_index_is_the_integer_band_phase_sum(params):
    r = two_level_phase_point(params, n0=256)
    _assert_integer_band_sum(r, analytic_q(params))


@_PROPERTY
@given(_chain_points())
def test_chain_index_is_the_integer_band_phase_sum(point):
    q, eta = point
    r = bipartite_phase_point(q, eta)
    _assert_integer_band_sum(r, analytic_q(BipartiteParams.from_ratios(q, eta)))


@_PROPERTY
@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(-1.0, 1.0),
       st.floats(0.1, math.pi - 0.1))
def test_hermitian_two_level_band_phases_are_real(h_x, h_y, h_z, theta):
    r = two_level_phase_point(_tl((h_x, h_y, h_z), (0.0, 0.0, 0.0), theta))
    assert max(abs(r.xi_b_plus), abs(r.xi_b_minus)) < 1e-12


@_PROPERTY
@given(st.floats(0.1, 3.0))
def test_lossless_chain_band_phases_are_real(q):
    assume(abs(q - 1.0) > 0.15)
    r = bipartite_phase_point(q, 0.0)
    assert max(abs(r.xi_b_plus), abs(r.xi_b_minus)) < 1e-12

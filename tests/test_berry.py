"""Complex band phases, the quantized global index, and gauge laws."""

import cmath
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berryline import berry, models
from berryline.berry import (
    analytic_q,
    apply_gauge,
    band_berry_phase,
    bipartite_phase_point,
    global_berry_phase,
    two_level_phase_point,
)
from berryline.elliptic import closed_form_gamma
from berryline.errors import (BerrylineError, DegenerateSpectrum,
                              Disagreement, GaugeMismatch, NotConverged,
                              PathTooCoarse, SingularLoop, SingularParameters,
                              TrueCrossing, UndefinedAtTransition)
from berryline.models import (
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    _ChainRows,
    _two_level_offdiag,
    loop_grid,
    standard_loop,
)
from berryline.quadrature import refine_dyadically, trapezoid_periodic
from berryline.spectrum import GAPLESS_TRUE_CROSSING, classify_region

from oracles import (chain_grid, draw_bipartite, draw_two_level,
                     fd_connection, first_order_correction_trace,
                     refined_chain_rows, settled_phases, uniform_route,
                     winding_rate)


def _tl(h, d, theta):
    return TwoLevelParams(h_x=h[0], h_y=h[1], h_z=h[2],
                          d_x=d[0], d_y=d[1], d_z=d[2], theta=theta)


def _chain(q, eta):
    return BipartiteModel(BipartiteParams.from_ratios(q, eta))


def _chain_grid(q, eta):
    return berry._node_grid(berry._chain_singularities(q, eta), 1)


def _two_level_grid(p):
    return berry._node_grid(berry._two_level_singularities(p), 2)


def _uniform_rung(found):
    # the uncapped rung of the nearest singularity on the uniform grid
    return berry._strip_rung(min(found)[0])


def _analytic_connection(loop, model):
    return model.eigen_path(loop_grid(loop, loop.n)).connection[:, :loop.n]


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
        dtheta = float(winding_rate(model.params, np.array([k]))[0])
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
    loop = standard_loop(BIPARTITE, 1024)
    for q, eta in ((2.0, 0.5), (0.5, 0.2), (3.0, 1.2)):
        for band in ("plus", "minus"):
            got = band_berry_phase(loop, _chain(q, eta), band)
            assert abs(got - closed_form_gamma(q, eta, band)) < 1e-6


def test_band_phase_rejects_transition_and_singular_loops():
    loop = standard_loop(BIPARTITE, 1024)
    for eta in (0.5, 3.0):
        with pytest.raises(UndefinedAtTransition):
            band_berry_phase(loop, _chain(1.0, eta), "plus")
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
    clean = global_berry_phase(loop, model)
    # with the cap at the settling rung, a refused settle leaves no rung
    monkeypatch.setattr(berry, "_MAX_SAMPLES", clean.resolution)
    assert _outcome_bits(global_berry_phase(loop, model)) == (
        _outcome_bits(clean))
    wilson = berry._wilson_q
    # a gapped band phase is its band of the global phase, so it refuses
    # where the global phase does
    routes = (lambda: global_berry_phase(loop, model),
              lambda: band_berry_phase(loop, model, "plus"))
    monkeypatch.setattr(berry, "_wilson_q",
                        lambda right, left, n: wilson(right, left, n) + 0.5)
    for route in routes:
        with pytest.raises(Disagreement,
                           match="Wilson loop give different") as err:
            route()
        assert err.value.values == (clean.q_index, clean.q_wilson + 0.5)
    # an aliased Wilson route (NaN) on every settled rung leaves nothing to
    # compare
    monkeypatch.setattr(berry, "_wilson_q",
                        lambda right, left, n: wilson(right, left, n) * math.nan)
    for route in routes:
        with pytest.raises(NotConverged, match=(
                f"still moving at {clean.resolution} samples")) as err:
            route()
        assert err.value.history == clean.refinement_history


def _dyadic_band_phase(loop, model, band):
    # the band phase's former route: uniform trapezoid rungs from loop.n,
    # each built on its own, refined until one doubling moves it < 1e-9
    b = berry.band_index(band)

    def band_phase(n):
        connection = model.eigen_path(loop_grid(loop, n)).connection[b, :n]
        return complex(trapezoid_periodic(connection, loop.period))

    return refine_dyadically(band_phase, loop.n, 1e-9, 65536)[0]


def test_gapped_band_phase_is_its_band_of_the_global_phase():
    # the evolve reference loops, then seeded draws of both families
    models = [_chain(2.0, 0.3), _chain(0.5, 0.2),
              TwoLevelModel(_tl((1.2, 1.2, -0.4), (0.0, 0.0, 0.0), 1.0))]
    rng = np.random.default_rng(25)
    models += [TwoLevelModel(draw_two_level(rng, style))
               for style in ("positive", "negative") * 8]
    models += [_chain(*draw_bipartite(rng, region))
               for region in ("TYPE_I", "TYPE_II") * 5]
    for model in models:
        for n in (1024, 4096):
            loop = standard_loop(model.kind, n)
            r = global_berry_phase(loop, model)
            uniform = uniform_route(loop, model)
            for band, value, reference in (
                    ("plus", complex(r.gamma_b_plus, r.xi_b_plus),
                     complex(uniform.gamma_b_plus, uniform.xi_b_plus)),
                    ("minus", complex(r.gamma_b_minus, r.xi_b_minus),
                     complex(uniform.gamma_b_minus, uniform.xi_b_minus))):
                got = band_berry_phase(loop, model, band)
                assert _bits(got) == _bits(value), (model, n, band)
                assert abs(reference - _dyadic_band_phase(
                    loop, model, band)) <= 1e-15, (model, n, band)
                assert abs(got - reference) <= 1e-12, (model, n, band)


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 65536])
def test_row_stacks_reduce_to_each_rows_bits(n):
    # a sweep evaluates its rows as one stack; every reduction along the
    # last axis must give each row the bits of its own 1-D evaluation
    rng = np.random.default_rng(n)
    samples = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    stacked = trapezoid_periodic(samples, 2.0 * math.pi)
    for r in range(6):
        row = samples[r].copy()
        assert stacked[r].tobytes() == trapezoid_periodic(
            row, 2.0 * math.pi).tobytes()

    # rows (v, v', gamma, b) with their own hoppings, loss rates and node
    # maps k = t - b sin t: clean, partly aliased and fully aliased Wilson
    # rows, a row at v != 1, and rows clustered at k = pi (b < 0) and 0
    rows = [(1.0, 2.0, 0.0, 0.0), (1.0, 2.0, 0.3, 0.0), (1.0, 2.0, 0.9, 0.0),
            (1.0, 2.0, 0.999, 0.0), (1.0, 2.0, 3.01, 0.0),
            (1.0, 2.0, 5.0, 0.0), (1.0, 2.0, 0.999, -0.9),
            (0.7, 1.3, 0.4, 0.0), (2.5, 1.1, 4.0, 0.6),
            (1.0, 1.05, 0.02, -0.97), (1.0, 1.2, 2.2001, 0.9)]
    t = loop_grid(standard_loop(BIPARTITE, 1024), n)
    b = np.array([row[3] for row in rows])[:, None]
    v, v_prime, gamma, _ = zip(*rows)
    stack = _ChainRows(v, v_prime, gamma, t - b * np.sin(t),
                       1.0 - b * np.cos(t))
    right, left = stack.kets(list(range(len(rows))))
    wilson = berry._wilson_q(right, left, n)
    for r, (v_r, vp_r, gamma_r, b_r) in enumerate(rows):
        # a row without a map is the plain frame on k = t
        grid = (t - b_r * np.sin(t), 1.0 - b_r * np.cos(t)) if b_r else (t,)
        one = _ChainRows([v_r], [vp_r], [gamma_r], *grid)
        assert type(one.errors[0]) is type(stack.errors[r]), rows[r]
        assert str(one.errors[0]) == str(stack.errors[r]), rows[r]
        assert one.connection[:, 0].tobytes() == (
            stack.connection[:, r].tobytes()), rows[r]
        assert one.trace[0].tobytes() == stack.trace[r].tobytes(), rows[r]
        right_r, left_r = one.kets([0])
        assert right_r[:, :, 0].tobytes() == right[:, :, r].tobytes()
        assert left_r[:, :, 0].tobytes() == left[:, :, r].tobytes()
        alone = berry._wilson_q(right_r[:, :, 0], left_r[:, :, 0], n)
        assert wilson[r].tobytes() == alone.tobytes(), rows[r]
    if n == 16:
        # a row whose overlaps turn by a quarter circle is NaN; the row that
        # aliased only on the chain over every second sample is finite
        assert np.isnan(wilson[3]) and np.isfinite(wilson[6])
        # the map clustered at 0 leaves the hopping zero at pi aliased
        assert isinstance(stack.errors[10], PathTooCoarse)


def _det_r_winding(right):
    # -(turn of arg det R from the anchor to the closure sample) / 2 pi
    det = right[0, 0] * right[1, 1] - right[0, 1] * right[1, 0]
    turn = np.unwrap(np.angle(det))
    return -(turn[-1] - turn[0]) / (2.0 * math.pi)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_the_wilson_route_is_the_winding_of_det_r(n):
    # L_m^H R_m+1 inverts L_m+1^H R_m for a biorthonormal 2x2 frame, so the
    # two-sided overlap sum is the winding of det R, an integer at any n;
    # seeded rows of both families, on uniform and node-mapped grids
    rng = np.random.default_rng(35 + n)
    stacks = []
    for style in ("positive", "negative") * 4:
        p = draw_two_level(rng, style)
        _, beta, centre = _two_level_grid(p)
        t = loop_grid(standard_loop(TWO_LEVEL, n), n)
        stacks += [TwoLevelModel(p)._rows(*berry._node_map(t, b, centre, 2))
                   for b in (0.0, beta)]
    for region in ("TYPE_I", "TYPE_II") * 4:
        q, eta = draw_bipartite(rng, region)
        _, beta, centre = _chain_grid(q, eta)
        t = loop_grid(standard_loop(BIPARTITE, n), n)
        stacks += [_ChainRows([1.0], [q], [eta],
                              *berry._node_map(t, b, centre, 1))
                   for b in (0.0, beta)]
    finite = 0
    for stack in stacks:
        if stack.errors[0] is not None:
            continue
        right, left = stack.kets([0])
        value = float(berry._wilson_q(right, left, n)[0])
        if math.isnan(value):
            continue
        finite += 1
        assert abs(value - _det_r_winding(right[:, :, 0])) <= 1e-12
        assert abs(value - round(value)) <= 1e-12
        # the route reads the duals: one band's dual turned at the anchor
        # sample moves it (a turn at an inner sample enters the step ahead
        # and the step behind alike, and cancels)
        for band in (0, 1):
            turned = left.copy()
            turned[:, band, 0, 0] *= cmath.exp(0.3j)
            moved = float(berry._wilson_q(right, turned, n)[0])
            assert math.isnan(moved) or abs(moved - value) >= 1e-3
    assert finite >= 3 * len(stacks) // 4


@pytest.mark.parametrize("values, resolution", [
    ((2.169933963714578, 2.161127330581359, -0.7813041333894652,
      3.549725502686595, 3.5545730796666697, 0.15838242074274222,
      2.949570833832275), 32),
    ((0.6940513268525285, 0.6490620542373811, 0.6651238832643913,
      2.7309423542622016, 2.413789918420177, 0.2338680082679383,
      0.2798115437289287), 64),
])
def test_a_two_level_point_settles_with_its_phases(values, resolution):
    # both points' band phases settle long before 512 samples, and the
    # Wilson route, the winding of det R, lets them stop there
    p = TwoLevelParams(*values)
    r = two_level_phase_point(p)
    assert r.resolution == resolution
    assert abs(r.q_wilson - 1.0) <= 1e-12
    _, beta, centre = _two_level_grid(p)
    loop = standard_loop(TWO_LEVEL, 1024)
    stack = TwoLevelModel(p)._rows(
        *berry._node_map(loop_grid(loop, 512), beta, centre, 2))
    fine = trapezoid_periodic(stack.connection[:, 0, :512], loop.period)
    got = (complex(r.gamma_b_plus, r.xi_b_plus),
           complex(r.gamma_b_minus, r.xi_b_minus))
    for band in (0, 1):
        assert abs(got[band] - fine[band]) <= 1e-12, band


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
    # the refinement starts at the strip rung and settles on the next one
    start = _chain_grid(2.0, 0.5)[0]
    assert 16 <= start < 1024
    assert r.refinement_history[0][0] == start
    assert r.resolution == 2 * start
    assert r.refinement_history[-1][0] == r.resolution
    assert abs(r.gamma_b_plus - math.pi) < 1e-6
    assert abs(r.xi_b_plus + r.xi_b_minus) < 1e-9


def test_strip_rung_grows_toward_every_line_and_stays_below_the_cap():
    approaches = {
        "d2 from below, q > 1": [(2.0, 1.0 - 10.0 ** -j) for j in range(1, 16)],
        "d2 from below, q < 1": [(0.5, 0.5 - 10.0 ** -j) for j in range(1, 16)],
        "d1 from above": [(0.5, 1.5 + 10.0 ** -j) for j in range(1, 16)],
        "q = 1 from above": [(1.0 + 10.0 ** -j, 0.0) for j in range(1, 12)],
        "q = 1 from below": [(1.0 - 10.0 ** -j, 0.0) for j in range(1, 12)],
    }
    for label, points in approaches.items():
        grids = [_chain_grid(q, eta) for q, eta in points]
        rungs = [n for n, _, _ in grids]
        assert all(16 <= n <= 32768 and n & (n - 1) == 0 for n in rungs), label
        assert rungs == sorted(rungs), label
        assert rungs[0] < rungs[-1], label
        for (q, eta), (n, beta, _) in zip(points, grids):
            uniform = _uniform_rung(berry._chain_singularities(q, eta))
            # the map only ever lowers the start, and is off exactly where
            # it cannot; at the 32768 cap a row may keep the map, whose
            # uncapped rung lies below the uncapped uniform one
            assert n <= min(uniform, 32768), (q, eta)
            assert beta != 0.0 or n == min(uniform, 32768), (q, eta)
            assert n == 32768 or (beta == 0.0) == (n == uniform), (q, eta)
            assert 0.0 <= beta < 1.0, (q, eta)
    # 1e-6 from a divergence line the uniform grid starts at 16384 samples
    # or more, the clustered one at a few hundred
    for q, eta in [(2.0, 1.0 - 1e-6), (0.5, 0.5 - 1e-6), (0.5, 1.5 + 1e-6),
                   (3.0, 4.0 + 1e-6)]:
        assert _uniform_rung(berry._chain_singularities(q, eta)) >= 16384
        assert _chain_grid(q, eta)[0] <= 512, (q, eta)
    # far from every line the refinement starts at a few dozen samples, on
    # the uniform grid
    assert _chain_grid(3.0, 0.0) == (32, 0.0, 0.0)
    # a singularity on the loop has no strip rung, and starts at the cap
    assert berry._strip_rung(0.0) == math.inf
    assert berry._node_grid([(0.0, 0.0)], 1) == (32768, 0.0, 0.0)


def test_node_grid_matches_the_chain_only_rule():
    # the 50 x 50 reference diagram, seeded draws, and approaches to every
    # line from 1e-1 to 1e-15 (1e-11 for q = 1, whose own 1e-12 is refused)
    cells = [(q, eta) for q in np.linspace(0.55, 2.05, 50)
             for eta in np.linspace(0.05, 2.55, 50)]
    rng = np.random.default_rng(23)
    cells += [(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.0, 6.0)))
              for _ in range(20000)]
    for j in range(1, 16):
        d = 10.0 ** -j
        cells += [(2.0, 1.0 - d), (0.5, 0.5 - d), (0.5, 1.5 + d),
                  (2.0, 3.0 + d), (0.2, 0.8 - d), (3.0, 4.0 + d)]
        if j <= 11:
            cells += [(1.0 + d, 0.0), (1.0 - d, 0.0), (1.0 + d, 0.5 * d)]
    compared, centres = 0, set()
    for q, eta in refined_chain_rows(cells):
        found = berry._chain_singularities(q, eta)
        n, beta, t0 = berry._node_grid(found, 1)
        assert berry._node_map(np.zeros(1), beta, t0, 1)[0][0] == 0.0
        if _uniform_rung(found) > 32768:
            # the uncapped rule keeps the map here, the capped one did not
            continue
        rung, b = chain_grid(q, eta)
        assert (n, beta) == (rung, abs(b)), (q, eta)
        if beta:
            # the map clusters at k = 0 for b > 0 and at k = pi for b < 0
            assert abs(t0 - (0.0 if b > 0.0 else math.pi)) <= 1e-12, (q, eta)
            centres.add(b > 0.0)
        compared += 1
    assert compared > 3000 and centres == {True, False}


def test_strip_width_matches_the_arccosine_form_near_the_lines():
    eps = np.finfo(float).eps
    points = ([(2.0, 1.0 - 10.0 ** -j) for j in range(2, 13)]
              + [(0.5, 1.5 + 10.0 ** -j) for j in range(2, 13)]
              + [(0.3, 0.7 - 10.0 ** -j) for j in range(2, 13)])
    for q, eta in points:
        c = (eta * eta - 1.0 - q * q) / (2.0 * q)
        naive = math.acosh(abs(c))
        # |c| carries a few ulp of rounding, which acosh magnifies by
        # 1 / sinh(width) next to the lines
        kept = 8.0 * eps * abs(c) / math.sqrt(c * c - 1.0) + 8.0 * eps * naive
        assert naive < abs(math.log(q))
        width = berry._chain_singularities(q, eta)[0][0]
        assert abs(width - naive) <= kept, (q, eta)


def test_strip_start_agrees_with_the_loop_start():
    # gapped cells more than 1e-3 from both lines and from the transition
    rng = np.random.default_rng(12)
    loop = standard_loop(BIPARTITE, 1024)
    cells = 0
    while cells < 200:
        q = float(rng.uniform(0.1, 3.0))
        if abs(q - 1.0) < 1e-3:
            continue
        if cells % 2:
            eta = float(rng.uniform(q + 1.0 + 1e-3, q + 3.0))
        elif abs(q - 1.0) > 2e-3:
            eta = float(rng.uniform(0.0, abs(q - 1.0) - 1e-3))
        else:
            continue
        strip = bipartite_phase_point(q, eta)
        full = uniform_route(loop, _chain(q, eta))
        assert strip.refinement_history[0][0] <= 1024
        for name in ("gamma_b_plus", "xi_b_plus", "gamma_b_minus",
                     "xi_b_minus"):
            assert abs(getattr(strip, name) - getattr(full, name)) <= 1e-12, (
                q, eta, name)
        assert strip.q_rounded == full.q_rounded
        cells += 1


def _uniform_route(q, eta):
    try:
        return uniform_route(standard_loop(BIPARTITE, 1024), _chain(q, eta))
    except (NotConverged, SingularLoop):
        # within 1e-4 of q = 1 a lossless loop counts as gapless
        return None


def test_clustered_route_matches_the_uniform_route_next_to_the_lines():
    # gapped points 10^-j from both divergence lines, and lossless points
    # 10^-j from the transition: the node-clustered refinement against
    # the uniform one from the loop's 1024 samples
    points = [(q, eta) for j in range(1, 8) for q, eta in (
        (2.0, 1.0 - 10.0 ** -j), (0.5, 0.5 - 10.0 ** -j),
        (0.5, 1.5 + 10.0 ** -j), (2.0, 3.0 + 10.0 ** -j))]
    points += [(1.0 + s * 10.0 ** -j, 0.0) for j in range(1, 6)
               for s in (1.0, -1.0)]
    compared = 0
    for q, eta in points:
        clustered = bipartite_phase_point(q, eta)
        assert abs(clustered.q_index - clustered.q_wilson) <= 1e-9, (q, eta)
        assert clustered.q_rounded == analytic_q(
            BipartiteParams.from_ratios(q, eta)), (q, eta)
        uniform = _uniform_route(q, eta)
        if uniform is None:
            continue
        compared += 1
        for name in ("gamma_b_plus", "xi_b_plus", "gamma_b_minus",
                     "xi_b_minus"):
            assert abs(getattr(clustered, name) - getattr(uniform, name)) <= (
                1e-10), (q, eta, name)
    assert compared >= 20
    # the uniform route runs out of rungs where the clustered one settles
    assert _uniform_route(2.0, 1.0 - 1e-7) is None
    assert bipartite_phase_point(2.0, 1.0 - 1e-7).resolution <= 1024


def _two_level_zeros(p, phi):
    """|c1|, its mirror, |c2|, its mirror and |w| at a complex phi, each
    relative to the size of its terms."""
    cos, sin = cmath.cos(phi), cmath.sin(phi)
    a_p, a_m = p.h_x + p.d_x, p.h_x - p.d_x
    b_p, b_m = p.h_y + p.d_y, p.h_y - p.d_y
    amp = complex(p.h_z, p.d_z) * math.cos(p.theta)
    s = math.sin(p.theta) ** 2
    c1, c2 = a_p * cos - 1j * b_p * sin, a_m * cos + 1j * b_m * sin
    w = amp * amp + s * c1 * c2
    return (abs(c1) / (abs(a_p * cos) + abs(b_p * sin)),
            abs(a_p * cos + 1j * b_p * sin) / (abs(a_p * cos) + abs(b_p * sin)),
            abs(c2) / (abs(a_m * cos) + abs(b_m * sin)),
            abs(a_m * cos - 1j * b_m * sin) / (abs(a_m * cos) + abs(b_m * sin)),
            abs(w) / (abs(amp * amp) + s * abs(c1 * c2)))


def test_two_level_singularities_are_zeros_of_the_frame_amplitudes():
    rng = np.random.default_rng(31)
    for style in ("positive", "negative") * 20:
        p = draw_two_level(rng, style)
        found = berry._two_level_singularities(p)
        assert len(found) == 4
        # each pair (a, phi0) is a zero of c1 or its mirror, of c2 or its
        # mirror, and of w, at phi0 and phi0 + pi, on one side of the axis
        for (a, phi0), picks in zip(found, ((0, 1), (2, 3), (4,), (4,))):
            assert 0.0 < a < math.inf, p
            for shift in (0.0, math.pi):
                worst = min(_two_level_zeros(p, complex(phi0 + shift, sign * a))[i]
                            for sign in (1.0, -1.0) for i in picks)
                assert worst <= 1e-10, (p, a, phi0)


def test_two_level_singularities_on_degenerate_coefficients():
    inf = math.inf
    sing = berry._two_level_singularities
    # a+ = b+ and a+ = -b+: c1 = a+ exp(-+ i phi) has no zero, and the
    # quadratic in z^2 loses its leading or its constant coefficient,
    # which leaves one zero of w
    for p in (_tl((1.0, 1.2, 0.2), (1.5, 1.3, 0.3), 1.0),
              _tl((1.0, -1.5, 0.2), (0.5, 0.0, 0.3), 1.0)):
        assert p.h_x + p.d_x == abs(p.h_y + p.d_y)
        found = sing(p)
        assert found[0] == (inf, 0.0)
        assert math.isfinite(found[1][0])
        assert sorted(math.isfinite(a) for a, _ in found[2:]) == [False, True]
        assert _two_level_grid(p)[0] >= 16
    # a- = b- and a+ = b+ together leave c1 c2 constant: nothing anywhere
    p = _tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0)
    assert sing(p) == ((inf, 0.0),) * 4
    assert _two_level_grid(p) == (16, 0.0, 0.0)
    # theta = 0 leaves w = A^2 constant, and theta = pi a sin^2 of 1.5e-32
    base = dict(h_x=1.2, h_y=0.7, h_z=0.3, d_x=0.4, d_y=1.1, d_z=0.2)
    w_free = sing(TwoLevelParams(**base, theta=0.0))
    assert w_free[2:] == ((inf, 0.0),) * 2
    assert all(a > 30.0 for a, _ in sing(TwoLevelParams(**base, theta=math.pi))[2:])
    # no A with theta = 0 either: w vanishes identically, and has no root
    assert sing(_tl((1.2, 0.7, 0.0), (0.4, 1.1, 0.0), 0.0))[2:] == (
        (inf, 0.0),) * 2
    # A = 0: w = sin^2(theta) c1 c2 has the zeros of c1 and c2
    found = sing(_tl((1.2, 0.7, 0.0), (0.4, 1.1, 0.0), 1.0))
    for (a, phi0), (b, psi0) in zip(sorted(found[:2]), sorted(found[2:])):
        assert abs(a - b) <= 1e-14 and abs(math.cos(2.0 * (phi0 - psi0)) - 1.0) <= 1e-14
    # Hermitian: the zeros of c1 and c2 and the two of w come in reciprocal
    # pairs in z^2, the same distance off the axis
    (a1, _), (a2, _), (w1, _), (w2, _) = sing(_tl((1.2, 0.7, 0.3), (0.0, 0.0, 0.0), 1.0))
    assert abs(a1 - a2) <= 1e-15 and abs(w1 - w2) <= 1e-15 and w1 > 0.0


def _uniform_two_level(params):
    return uniform_route(standard_loop(TWO_LEVEL, 1024), TwoLevelModel(params))


def test_two_level_refinement_starts_at_its_strip_rung():
    reference = two_level_phase_point(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0))
    assert reference.refinement_history[0][0] < 1024
    # the map and its start rung never make a draw settle later than the
    # uniform grid from 1024 samples
    rng = np.random.default_rng(21)
    for style in ("positive", "negative") * 100:
        params = draw_two_level(rng, style)
        n, beta, centre = _two_level_grid(params)
        assert 16 <= n <= 32768 and 0.0 <= beta < 1.0, params
        assert two_level_phase_point(params).resolution <= (
            _uniform_two_level(params).resolution), params


def test_two_level_gauge_check_settles_next_to_a_singularity():
    # a zero of w 3.8e-4 off the real axis: on the uniform grid law (a)
    # still missed by 9e-5 at 65536 samples
    params = _tl((2.4619798884207325, 2.330319178968498, 0.131),
                 (2.3191840780926776, 1.1330371030812918, -0.33381887109522435),
                 2.8001497453191635)
    assert _two_level_zeros(params, complex(0.13409664, -3.7556515e-4))[4] < 1e-6
    r = apply_gauge(standard_loop(TWO_LEVEL, 1024), TwoLevelModel(params),
                    lambda alphas, band: 2.0 * alphas, {"plus": 2, "minus": 2})
    assert r.residual_a <= 1e-9
    assert max(r.residual_gamma_plus, r.residual_gamma_minus) <= 1e-8
    assert abs(r.q_new - r.q_original - 4.0) <= 1e-6
    assert r.resolution <= 2048


def _band_phases(r):
    return (r.gamma_b_plus, r.xi_b_plus, r.gamma_b_minus, r.xi_b_minus)


def test_two_level_band_labels_do_not_depend_on_the_sample_count():
    # the square root of w is anchored at phi = 0; anchored at the first
    # padded sample, -2 (2 pi / n), the plus band here swapped with n
    p = _tl((1.9284154599511412, 2.1814682775669567, -0.06090155581024259),
            (2.7037356430929704, 5.048916623729786, 0.8013489945159307),
            0.532023354799509)
    want = _band_phases(two_level_phase_point(p, 1024))
    assert abs(want[0] - 1.778396) < 1e-6
    for n0 in (16, 32, 64, 128, 256, 512, 2048, 4096):
        got = _band_phases(two_level_phase_point(p, n0))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, n0
    # the loop's plus band at phi = 0 is the one-point frame's plus band
    model = TwoLevelModel(p)
    alphas = loop_grid(standard_loop(TWO_LEVEL, 256), 256)
    e_loop = model.eigen_path(alphas).values[0, 0]
    e_point = model.eigen_path(np.array([0.0])).values[0, 0]
    assert abs(e_loop - e_point) <= 1e-12 * abs(e_point)

    rng = np.random.default_rng(2014)
    for style in ("positive", "negative") * 100:
        params = draw_two_level(rng, style)
        coarse = _band_phases(two_level_phase_point(params, 64))
        fine = _band_phases(two_level_phase_point(params, 1024))
        assert max(abs(a - b) for a, b in zip(coarse, fine)) <= 1e-12, params


@pytest.mark.parametrize("model", [
    _chain(2.0, 0.3),
    TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0)),
], ids=["bipartite", "two-level"])
def test_a_loop_at_the_cap_leaves_no_second_rung(monkeypatch, model):
    at_cap = standard_loop(model.kind, 65536)
    p = model.params
    start, _, _ = (_two_level_grid(p) if model.kind == TWO_LEVEL
                   else _chain_grid(p.q, p.eta))
    built = []

    def grid(loop, n):
        built.append(n)
        return loop_grid(loop, n)

    # the loop evaluators settle from the node rung, which is at most
    # 32768, and build no 65536-sample first rung; the frame of the second
    # rung gives the first its phases, so every frame is a later rung
    with monkeypatch.context() as m:
        m.setattr(berry, "loop_grid", grid)
        r = global_berry_phase(at_cap, model)
        plus = band_berry_phase(at_cap, model, "plus")
    assert r.refinement_history[0][0] == start < 65536
    assert sorted(set(built)) == [n for n, _ in r.refinement_history[1:]]
    assert _bits(plus) == _bits(complex(r.gamma_b_plus, r.xi_b_plus))
    # a loop one rung below the cap settles on the same rungs; the
    # two-level loop is anchored at phi = 0 for every n, so bit for bit
    below = global_berry_phase(standard_loop(model.kind, 32768), model)
    assert [n for n, _ in below.refinement_history] == [
        n for n, _ in r.refinement_history]
    if model.kind == TWO_LEVEL:
        assert _outcome_bits(below) == _outcome_bits(r)
    # the gauge check needs no second rung: at the cap it starts, as from
    # any n at or above it, at twice its strip rung and settles on that
    # one grid; the gapless chain phase takes none
    built = []

    def grid(loop, n):
        built.append(n)
        return loop_grid(loop, n)

    with monkeypatch.context() as m:
        m.setattr(berry, "loop_grid", grid)
        check = apply_gauge(at_cap, model, lambda alphas, band: 0.0 * alphas,
                            {})
    start = 2 * (_two_level_grid(model.params) if model.kind == TWO_LEVEL
                 else _chain_grid(model.params.q, model.params.eta))[0]
    assert built == [start] and check.resolution == start < 65536
    gapless = standard_loop(BIPARTITE, 65536)
    assert band_berry_phase(gapless, _chain(1.5, 1.0), "plus") == (
        closed_form_gamma(1.5, 1.0, "plus"))


@pytest.mark.parametrize("n", [16, 1024, 65536])
def test_the_loop_evaluators_are_the_point_evaluators(n):
    # a loop's phases are its family's point evaluator at n0 = loop.n,
    # its result or its refusal bit for bit, at any v and eps_a of the
    # chain; the last four chain points lie next to a divergence line,
    # where the uniform nodes from loop.n still move at the cap
    rng = np.random.default_rng(43)
    models = [(TwoLevelModel(draw_two_level(rng, style)), False)
              for style in ("positive", "negative") * 4]
    cells = [draw_bipartite(rng, region) for region in ("TYPE_I", "TYPE_II") * 3]
    moving = [(2.0, 1.0 - 1e-7), (0.5, 0.5 - 1e-7), (0.5, 1.5 + 1e-8),
              (2.0, 3.0 + 1e-9)]
    models += [(BipartiteModel(BipartiteParams.from_ratios(
        q, eta, v=rng.uniform(0.5, 2.0), eps_a=rng.uniform(-1.0, 1.0))),
        (q, eta) in moving) for q, eta in cells + moving]
    checked = 0
    for model, moves in models:
        loop = standard_loop(model.kind, n)
        p = model.params
        point = (two_level_phase_point(p, n) if model.kind == TWO_LEVEL
                 else bipartite_phase_point(p.q, p.eta, n))
        assert _outcome_bits(global_berry_phase(loop, model)) == (
            _outcome_bits(point)), model
        for band, want in (("plus", complex(point.gamma_b_plus,
                                            point.xi_b_plus)),
                           ("minus", complex(point.gamma_b_minus,
                                             point.xi_b_minus))):
            assert _bits(band_berry_phase(loop, model, band)) == _bits(want), (
                model, band)
        if moves:
            with pytest.raises(NotConverged, match="still moving"):
                uniform_route(loop, model)
            checked += 1
    assert checked == len(moving)


def test_global_phase_rejects_singular_sets():
    with pytest.raises(SingularLoop):
        two_level_phase_point(_tl((1.0, 2.0, 0.3), (1.0, 0.5, 0.0), 1.0))
    with pytest.raises(UndefinedAtTransition):
        bipartite_phase_point(1.0, 0.5)
    loop = standard_loop(BIPARTITE, 1024)
    with pytest.raises(SingularLoop):
        global_berry_phase(loop, _chain(1.5, 1.0))
    # at q = 1 the loop refuses with the class band_berry_phase and the
    # point evaluator raise, gapped (eta = 3) or not
    for eta in (0.5, 3.0):
        with pytest.raises(UndefinedAtTransition, match="hopping ratio 1"):
            global_berry_phase(loop, _chain(1.0, eta))


@pytest.mark.parametrize("q", [1.000001, 0.999999])
def test_a_gapped_loop_next_to_q_1_refines_its_frame(q):
    # eta < |1 - q|: the loop crosses no degeneracy, but its exceptional
    # points nearly touch it, and on the uniform loop its phases still
    # move at the cap; the loop evaluators, the band phase and the point
    # evaluator read the elliptic closed form there
    loop, model = standard_loop(BIPARTITE, 1024), _chain(q, 5e-7)
    with pytest.raises(NotConverged, match="still moving"):
        uniform_route(loop, model)
    point = bipartite_phase_point(q, 5e-7)
    r = global_berry_phase(loop, model)
    assert _outcome_bits(r) == _outcome_bits(point)
    for band, got in (("plus", complex(r.gamma_b_plus, r.xi_b_plus)),
                      ("minus", complex(r.gamma_b_minus, r.xi_b_minus))):
        want = _bits(closed_form_gamma(q, 5e-7, band))
        assert _bits(band_berry_phase(loop, model, band)) == want
        assert _bits(got) == want


def test_gapless_region_phases():
    # Interior of the gapless region: the index still quantizes through
    # the lossless row's two routes, and the band phases pair up.
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


def test_an_aliased_gauge_wilson_route_is_refused(monkeypatch):
    # the Wilson route marks aliasing with NaN, which compares false
    model = _chain(2.0, 0.3)
    loop = standard_loop(BIPARTITE, 1024)
    zero = lambda alphas, band: np.zeros_like(alphas)
    wilson = berry._wilson_q
    monkeypatch.setattr(berry, "_wilson_q",
                        lambda right, left, n: wilson(right, left, n) * math.nan)
    with pytest.raises(Disagreement, match="transformed index") as err:
        apply_gauge(loop, model, zero, {})
    q_new, q_wilson = err.value.values
    assert type(q_new) is float and type(q_wilson) is float
    assert math.isnan(q_wilson)


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


def test_gauge_reports_the_settled_band_phases():
    # the gauge check stops at the first rung where its laws hold; the
    # untransformed phases it reports there are the refined band phases
    rng = np.random.default_rng(5)
    models = [TwoLevelModel(draw_two_level(rng, style))
              for style in ("positive", "negative") * 6]
    models += [_chain(*draw_bipartite(rng, region))
               for region in ("TYPE_I", "TYPE_II") * 4]
    for model in models:
        loop = standard_loop(model.kind, 1024)
        windings = {"plus": int(rng.integers(-3, 4)),
                    "minus": int(rng.integers(-3, 4))}
        r = apply_gauge(loop, model,
                        lambda alphas, band: windings[band] * alphas, windings)
        for band, gamma in (("plus", r.gamma_plus), ("minus", r.gamma_minus)):
            assert abs(gamma - band_berry_phase(loop, model, band)) <= 1e-8, (
                model, band)


def test_the_gauge_check_reads_the_phase_points_band_phases():
    # a second route to the untransformed numbers: the point evaluators
    # refine on their own grids (the node map, the chain's clustered
    # momenta) and settle to 1e-9, from whatever first rung
    rng = np.random.default_rng(34)
    points = [TwoLevelModel(draw_two_level(rng, style))
              for style in ("positive", "negative") * 6]
    points += [_chain(*draw_bipartite(rng, region))
               for region in ("TYPE_I", "TYPE_II") * 6]
    for i, model in enumerate(points):
        want = (two_level_phase_point(model.params)
                if model.kind == TWO_LEVEL
                else bipartite_phase_point(model.params.q, model.params.eta))
        winding = int(rng.integers(-3, 4))
        band = ("plus", "minus", "both")[i % 3]
        windings = {name: winding if band in (name, "both") else 0
                    for name in ("plus", "minus")}
        loop = standard_loop(model.kind, 1024)
        r = apply_gauge(loop, model,
                        lambda alphas, name: windings[name] * alphas, windings)
        assert abs(r.gamma_plus - complex(want.gamma_b_plus,
                                          want.xi_b_plus)) <= 1e-9, model
        assert abs(r.gamma_minus - complex(want.gamma_b_minus,
                                           want.xi_b_minus)) <= 1e-9, model
        assert abs(r.q_original - want.q_index) <= 1e-9, model
        assert r.resolution <= loop.n


def test_a_chain_without_a_strip_rung_gauges_from_loop_n():
    # v' = 0 leaves no zero of v_k to measure a strip from; the library
    # takes it, and the gauge check starts where it always did
    model = BipartiteModel(BipartiteParams(v=1.0, v_prime=0.0, gamma=0.3))
    r = apply_gauge(standard_loop(BIPARTITE, 1024), model,
                    lambda alphas, band: alphas if band == "plus"
                    else 0.0 * alphas, {"plus": 1})
    assert r.resolution == 1024
    assert abs(r.q_new - r.q_original - 1.0) <= 1e-6


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


@_PROPERTY
@given(st.floats(0.1, 3.0), st.floats(0.01, 0.99),
       st.sampled_from([16, 64, 1024]))
def test_a_gapless_point_carries_the_lossless_points_index(q, t, n0):
    # Q depends on the hopping winding alone: a gapless point reads it from
    # the lossless row at the same hopping ratio
    assume(abs(q - 1.0) > 1e-6)
    eta = abs(q - 1.0) + t * (2.0 * min(q, 1.0))
    assume(classify_region(q, eta).region == GAPLESS_TRUE_CROSSING)
    gapless = bipartite_phase_point(q, eta, n0)
    lossless = bipartite_phase_point(q, 0.0, n0)
    for name in ("q_index", "q_rounded", "q_wilson", "resolution",
                 "refinement_history"):
        assert getattr(gapless, name) == getattr(lossless, name), name
    assert (gapless.gamma_b_plus, gapless.xi_b_plus) != (
        lossless.gamma_b_plus, lossless.xi_b_plus)


@st.composite
def _two_level_draws(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return draw_two_level(rng, draw(st.sampled_from(("positive", "negative"))))


@_PROPERTY
@given(_two_level_draws())
def test_clustered_two_level_route_matches_the_uniform_route(params):
    clustered = two_level_phase_point(params)
    uniform = _uniform_two_level(params)
    # per band, so a swapped label would show as a miss
    for name in ("gamma_b_plus", "xi_b_plus", "gamma_b_minus", "xi_b_minus",
                 "q_index"):
        assert abs(getattr(clustered, name) - getattr(uniform, name)) <= 1e-10, (
            name)
    assert clustered.q_rounded == uniform.q_rounded == analytic_q(params)
    # the map leaves the branch anchor phi(0) = 0 where it was
    _, beta, centre = _two_level_grid(params)
    assert berry._node_map(np.zeros(1), beta, centre, 2)[0][0] == 0.0


def _outcome_bits(outcome):
    """Every field of an outcome as text; repr keeps each float's bits."""
    if isinstance(outcome, BerrylineError):
        return type(outcome), str(outcome), repr(sorted(vars(outcome).items()))
    return [(field.name, repr(getattr(outcome, field.name)))
            for field in dataclasses.fields(outcome)]


def _both_routes(monkeypatch, call):
    """``call()``'s outcome by the nested first rung, then by the oracle's."""
    outcomes = []
    for route in (berry._settled_phases, settled_phases):
        with monkeypatch.context() as m:
            m.setattr(berry, "_settled_phases", route)
            try:
                outcomes.append(call())
            except BerrylineError as exc:
                outcomes.append(exc)
    return outcomes


def _degenerate_at(phi0, theta=1.0):
    # h_z + i d_z chosen so that w = A^2 + sin^2(theta) c1 c2 vanishes at phi0
    base = _tl((1.0, 1.3, 0.0), (0.4, 0.2, 0.0), theta)
    c1, c2 = _two_level_offdiag(base, math.cos(phi0), math.sin(phi0))
    amp = cmath.sqrt(-(math.sin(theta) ** 2) * c1 * c2) / math.cos(theta)
    return _tl((1.0, 1.3, amp.real), (0.4, 0.2, amp.imag), theta)


def test_the_nested_first_rung_matches_the_rung_by_rung_oracle(monkeypatch):
    rng = np.random.default_rng(24)
    seen = set()

    def check(call, label):
        ours, ref = _both_routes(monkeypatch, call)
        seen.add(type(ref))
        assert _outcome_bits(ours) == _outcome_bits(ref), label

    for i in range(90):
        params = draw_two_level(rng, ("positive", "negative")[i % 2])
        if i % 3 == 0:
            # an amplitude 1e-2 to 1e-6 from its field
            off = 10.0 ** rng.uniform(-6.0, -2.0) * rng.choice((-1.0, 1.0))
            name = ("d_x", "d_y")[i % 2]
            field = abs(params.h_x if name == "d_x" else params.h_y)
            params = dataclasses.replace(params, **{name: field + off})
        n0 = int(rng.choice((16, 64, 1024)))
        check(lambda: two_level_phase_point(params, n0), (params, n0))
        if i % 3 == 1:
            loop = standard_loop(TWO_LEVEL, n0)
            check(lambda: uniform_route(loop, TwoLevelModel(params)),
                  (params, n0))
    # a vanishing amplitude at phi = 0, and touching branches on the even
    # and on the odd samples of the 32-sample grid
    for params in (_tl((1.0, 1.3, 0.2), (-1.0 + 1.5e-12, 0.2, 0.1), 1.0),
                   _degenerate_at(math.pi / 16), _degenerate_at(math.pi / 8)):
        loop = standard_loop(TWO_LEVEL, 16)
        check(lambda: uniform_route(loop, TwoLevelModel(params)), params)
    cells = []
    for i in range(300):
        kind = i % 4
        if kind < 2:
            cells.append(draw_bipartite(rng, ("TYPE_I", "TYPE_II")[kind]))
        elif kind == 2:
            # next to eta = |q - 1|, on both sides
            q = rng.uniform(0.2, 3.0)
            eta = abs(q - 1.0) + 10.0 ** rng.uniform(-12.0, -1.0) * rng.choice(
                (-1.0, 1.0))
            cells.append((q, max(eta, 0.0)))
        else:
            # next to q = 1
            q = 1.0 + 10.0 ** rng.uniform(-11.0, -2.0) * rng.choice((-1.0, 1.0))
            cells.append((q, rng.uniform(0.0, 2.0) * abs(q - 1.0)))
    rows = refined_chain_rows([(float(q), float(eta)) for q, eta in cells])
    for n0 in (16, 1024):
        loop = standard_loop(BIPARTITE, n0)
        ours, ref = _both_routes(monkeypatch,
                                 lambda: berry._chain_rows(loop, rows))
        for row, a, b in zip(rows, ours, ref):
            seen.add(type(b))
            assert _outcome_bits(a) == _outcome_bits(b), (row, n0)
    assert {berry.BerryPhaseResult, NotConverged, SingularParameters,
            DegenerateSpectrum} <= seen


def test_a_frame_on_the_even_samples_of_a_grid_is_that_grid_s_frame():
    # rung n of a node-mapped loop is the even samples of rung 2n, and
    # each unwrapped angle is its raw angle plus whole turns, so the frame
    # built on rung n is bit for bit the even samples of rung 2n's frame
    rng = np.random.default_rng(29)
    frames = []
    for i in range(60):
        p = draw_two_level(rng, ("positive", "negative")[i % 2])
        _, beta, centre = _two_level_grid(p)
        frames.append((TWO_LEVEL, lambda t, m=TwoLevelModel(p), b=beta,
                       c=centre: m._rows(*berry._node_map(t, b, c, 2))))
        q, eta = draw_bipartite(rng, ("TYPE_I", "TYPE_II")[i % 2])
        _, beta, t0 = _chain_grid(q, eta)
        frames.append((BIPARTITE, lambda t, q=q, eta=eta, b=beta, c=t0:
                       _ChainRows([1.0], [q], [eta],
                                  *berry._node_map(t, b, c, 1))))
    compared = refused = 0
    for kind, frame in frames:
        loop = standard_loop(kind, 1024)
        for n in (64, 256, 1024):
            ours = frame(loop_grid(loop, n))
            theirs = frame(loop_grid(loop, 2 * n))
            if ours.errors != [None] or theirs.errors != [None]:
                refused += 1
                continue
            compared += 1
            for a, b in ((ours.connection, theirs.connection),
                         (ours.trace, theirs.trace),
                         *zip(ours.kets([0]), theirs.kets([0]))):
                assert a.tobytes() == b[..., ::2].tobytes(), (kind, n)
    assert compared >= 9 * refused


def _frame_cases():
    """Seeded (model, grid) pairs of both families, refusals included."""
    rng = np.random.default_rng(33)
    drawn = []
    for i in range(48):
        p = draw_two_level(rng, ("positive", "negative")[i % 2])
        if i % 4 == 1:
            # an amplitude 1e-14 to 1e-3 from its field: SingularParameters
            # or, farther off, a too-coarse nu1 or nu2
            name = ("d_x", "d_y")[i % 8 == 1]
            field = abs(getattr(p, "h" + name[1:]))
            p = dataclasses.replace(p, **{name: field * (
                1.0 + 10.0 ** rng.uniform(-14.0, -3.0) * rng.choice((-1, 1)))})
        elif i % 4 == 2:
            # branches touching on a sample or between two of them
            p = _degenerate_at(rng.choice((math.pi / 8, rng.uniform(0.0, 6.0))))
        drawn.append(TwoLevelModel(p))
    for i in range(48):
        if i % 4 < 2:
            q, eta = draw_bipartite(rng, ("TYPE_I", "TYPE_II")[i % 2])
        elif i % 4 == 2:
            # gapless: the energies cross between the samples
            q = rng.uniform(0.2, 3.0)
            eta = rng.uniform(abs(q - 1.0), q + 1.0)
        else:
            # next to q = 1, where the hoppings nearly cancel at k = pi
            q, eta = 1.0 + 10.0 ** rng.uniform(-13.0, -2.0), 0.0
        drawn.append(BipartiteModel(BipartiteParams.from_ratios(
            q, eta, v=rng.uniform(0.5, 2.0), eps_a=rng.uniform(-1.0, 1.0))))
    return [(model, loop_grid(standard_loop(model.kind, 16), n))
            for model in drawn for n in (16, 64, 512)]


def test_the_one_row_stack_and_eigen_path_are_one_frame():
    # eigen_path is the one-row view of the stack the refinement reads:
    # the same connection, trace and kets bit for bit, or the same
    # refusal; the digest pins every frame's bits and every refusal's
    # class and message, and so the order of the two-level checks
    digest = hashlib.sha256()
    refused = set()
    for model, alphas in _frame_cases():
        stack = model._rows(alphas)
        try:
            path = model.eigen_path(alphas)
        except BerrylineError as exc:
            (error,) = stack.errors
            assert type(error) is type(exc) and str(error) == str(exc)
            refused.add(type(exc))
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        assert stack.errors == [None]
        assert stack.connection[:, 0].tobytes() == path.connection.tobytes()
        assert stack.trace[0].tobytes() == path.trace_connection.tobytes()
        for kets, ket in zip(stack.kets([0]), (path.right, path.left)):
            assert kets[:, :, 0].tobytes() == ket.tobytes()
        for name in ("values", "right", "left", "connection",
                     "trace_connection", "winding_phase", "chi"):
            digest.update(np.ascontiguousarray(getattr(path, name)).tobytes())
        if model.kind == TWO_LEVEL:
            # a node map scales the connection and its trace per unit t
            dphi = 1.0 - 0.3 * np.cos(2.0 * alphas)
            mapped = model._rows(alphas, dphi)
            assert mapped.connection.tobytes() == (
                stack.connection * dphi).tobytes()
            assert mapped.trace.tobytes() == (stack.trace * dphi).tobytes()
    assert refused == {SingularParameters, PathTooCoarse, DegenerateSpectrum,
                       TrueCrossing}
    assert digest.hexdigest() == (
        "7f8b88833581d1c5acb895e4b3017ae7c7e8f806417127038e2794343ce46d3a")


def _frame_sizes(monkeypatch):
    """The sample count of every frame built from here on, in order."""
    sizes = []
    two_level_rows = models._TwoLevelRows

    def two_level(p, phi, dphi=None):
        sizes.append(len(phi))
        return two_level_rows(p, phi, dphi)

    def chain_rows(v, v_prime, gamma, k, dk=None):
        sizes.append(np.shape(k)[-1])
        return _ChainRows(v, v_prime, gamma, k, dk)

    monkeypatch.setattr(models, "_TwoLevelRows", two_level)
    monkeypatch.setattr(berry, "_ChainRows", chain_rows)
    return sizes


def test_a_point_settling_on_its_second_rung_builds_one_frame(monkeypatch):
    sizes = _frame_sizes(monkeypatch)
    for call in (
            lambda: two_level_phase_point(_tl((1.0, 1.0, 0.2),
                                              (0.5, 0.5, 0.0), 1.0)),
            lambda: bipartite_phase_point(0.5, 0.1)):
        sizes.clear()
        result = call()
        (n, _), (fine, _) = result.refinement_history
        assert fine == 2 * n == result.resolution
        assert sizes == [fine + 1]
        # the rung-by-rung route builds both
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(berry, "_settled_phases", settled_phases)
            assert _outcome_bits(call()) == _outcome_bits(result)
        assert sizes == [n + 1, fine + 1]


def test_a_too_coarse_second_rung_builds_the_first_on_its_own(monkeypatch):
    params = _tl((2.1179737789356254, 2.038462778703135, 0.9616706775524602),
                 (3.312149012922944, 1.9629706411540049, 0.3710839689613894),
                 2.013386228528742)
    model = TwoLevelModel(params)
    loop = standard_loop(TWO_LEVEL, 16)
    with pytest.raises(PathTooCoarse):
        model.eigen_path(loop_grid(loop, 32))
    sizes = _frame_sizes(monkeypatch)
    ours, ref = _both_routes(monkeypatch, lambda: uniform_route(loop, model))
    assert sizes[:2] == [33, 17]
    assert isinstance(ours, berry.BerryPhaseResult)
    assert _outcome_bits(ours) == _outcome_bits(ref)

"""Hamiltonian families, closed-form frames, and loop containers."""

import hashlib
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berryline import berry, models, spectrum
from berryline.errors import (BadResolution, DegenerateSpectrum, PathTooCoarse,
                              SingularParameters, TrueCrossing)
from berryline.models import (
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    ParameterLoop,
    TwoLevelModel,
    TwoLevelParams,
    _two_level_axes,
    _zone_grid,
    loop_grid,
    standard_loop,
)
from berryline.spectrum import classify_region

from oracles import (assemble_two_level, bloch_matrix, char_poly_eigs,
                     dense_winding, eig2, matrix_at, point_system,
                     winding_rate)


def _tl(h, d, theta):
    return TwoLevelParams(h_x=h[0], h_y=h[1], h_z=h[2],
                          d_x=d[0], d_y=d[1], d_z=d[2], theta=theta)


def test_polar_axis_matrix_is_diagonal():
    p = _tl((1.0, 2.0, 0.7), (0.3, 0.4, 0.2), 0.0)
    m = matrix_at(TwoLevelModel(p), 1.3)
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0
    assert m[0, 0] == 0.7 + 0.2j
    assert m[1, 1] == -(0.7 + 0.2j)


def test_equatorial_hermitian_x_field_is_sigma_x():
    p = _tl((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), np.pi / 2)
    m = matrix_at(TwoLevelModel(p), 0.0)
    assert np.max(np.abs(m - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-15


def test_two_level_matches_independent_assembly():
    p = _tl((1.0, 2.0, 3.0), (0.5, 0.25, 0.1), np.pi / 3)
    got = matrix_at(TwoLevelModel(p), np.pi / 5)
    want = assemble_two_level(p, np.pi / 5)
    assert np.max(np.abs(got - want)) < 1e-12


def test_two_level_assembly_identity_many_draws():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = _tl(rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0, 3),
                rng.uniform(0.0, np.pi))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        got = matrix_at(TwoLevelModel(p), phi)
        assert np.max(np.abs(got - assemble_two_level(p, phi))) < 1e-12


def test_two_level_hermitian_when_amplitudes_vanish():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = _tl(rng.uniform(-2.0, 2.0, 3), (0.0, 0.0, 0.0), rng.uniform(0.0, np.pi))
        m = matrix_at(TwoLevelModel(p), rng.uniform(0.0, 2.0 * np.pi))
        assert np.array_equal(m, m.conj().T)


def test_two_level_singular_set_predicate():
    assert _tl((1.0, 2.0, 0.0), (1.0, 0.3, 0.0), 1.0).is_singular()
    assert _tl((1.0, 2.0, 0.0), (-1.0, 0.3, 0.0), 1.0).is_singular()
    assert _tl((1.0, 2.0, 0.0), (0.3, 2.0, 0.0), 1.0).is_singular()
    assert not _tl((1.0, 2.0, 0.0), (0.5, 0.3, 0.0), 1.0).is_singular()


def test_two_level_param_guards():
    with pytest.raises(ValueError):
        _tl((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), -0.1)
    with pytest.raises(ValueError):
        _tl((np.inf, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)


def test_hermitian_closed_form_reduction():
    # Equal x/y fields make every derived quantity elementary: the energy
    # loses its phi dependence, the amplitude asymmetry is one, and the
    # off-diagonal phase splits into exactly +/- phi.
    h, hz, theta, phi = 1.4, 0.6, 1.1, 0.7
    model = TwoLevelModel(_tl((h, h, hz), (0.0, 0.0, 0.0), theta))
    path = model.eigen_path(np.array([phi]))
    e = math.sqrt(h * h * math.sin(theta) ** 2 + hz * hz * math.cos(theta) ** 2)
    assert abs(path.values[0, 0] - e) < 1e-14
    assert abs(path.values[1, 0] + e) < 1e-14
    assert abs(path.winding_phase[0] - phi) < 1e-14
    # the plus ket's upper entry is rho exp(-i nu_minus) times the minus
    # ket's lower one, with rho the amplitude asymmetry
    ratio = path.right[0, 0, 0] / path.right[1, 1, 0]
    assert abs(ratio - np.exp(-1j * phi)) < 1e-14
    m = matrix_at(model, phi)
    assert abs(np.angle(m[0, 1]) + phi) < 1e-14
    assert abs(np.angle(m[1, 0]) - phi) < 1e-14


def test_closed_form_residuals_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = np.array([rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0),
                      rng.uniform(0.5, 1.0)]) * rng.choice([-1.0, 1.0], 3)
        d = rng.uniform(-0.5, 0.5, 3)
        p = _tl(h, d, rng.uniform(0.2, np.pi - 0.2))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        system = point_system(TwoLevelModel(p), phi)
        arr = matrix_at(TwoLevelModel(p), phi)
        for band in ("plus", "minus"):
            psi = system.right(band)
            resid = np.linalg.norm(arr @ psi - system.eigenvalue(band) * psi)
            assert resid < 1e-10
        assert abs(np.vdot(system.left("plus"), system.right("minus"))) < 1e-10
        assert abs(np.vdot(system.left("minus"), system.right("plus"))) < 1e-10
        # against the generic solver: same states up to gauge
        ref = eig2(arr)
        for band in ("plus", "minus"):
            e = system.eigenvalue(band)
            ref_band = min(("plus", "minus"),
                           key=lambda b: abs(ref.eigenvalue(b) - e))
            assert abs(ref.eigenvalue(ref_band) - e) < 1e-10
            overlap = abs(np.vdot(ref.right(ref_band), system.right(band)))
            assert abs(overlap - np.linalg.norm(system.right(band))) < 1e-8


def test_closed_form_mixing_angle_identity():
    p = _tl((1.0, 1.5, 0.8), (0.2, -0.1, 0.3), 1.2)
    path = TwoLevelModel(p).eigen_path(np.array([0.9]))
    z = complex(p.h_z, p.d_z)
    cos_chi = z * math.cos(p.theta) / path.values[0, 0]
    assert abs(np.cos(path.chi[0]) - cos_chi) < 1e-12


def test_off_diagonal_phase_winding_with_dominant_amplitudes():
    # With x/y amplitudes twice the fields, the two off-diagonal entries
    # co-rotate: their ratio c2/c1 = -(1/3) e^{2 i phi} winds twice, so the
    # half-difference angle advances by 2 pi over one azimuthal cycle.
    p = _tl((1.0, 1.0, 0.0), (2.0, 2.0, 0.0), np.pi / 2)
    model = TwoLevelModel(p)
    phis = np.linspace(0.0, 2.0 * np.pi, 513)
    path = model.eigen_path(phis)
    advance = path.winding_phase[-1] - path.winding_phase[0]
    assert abs(advance - 2.0 * np.pi) < 1e-10

    def ratio(phi):
        c1 = 3.0 * np.cos(phi) - 3.0j * np.sin(phi)
        c2 = -np.cos(phi) - 1.0j * np.sin(phi)
        return c2 / c1

    assert dense_winding(ratio) == 2


def test_closed_form_rejects_vanishing_dual_amplitude():
    # h_x = d_x and h_y = d_y kill the lower off-diagonal entry outright.
    p = _tl((1.0, 1.0, 0.5), (1.0, 1.0, 0.0), 1.0)
    with pytest.raises(SingularParameters):
        TwoLevelModel(p).eigen_path(np.array([0.4]))


def test_bloch_matrix_examples():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.0, eps_a=0.7)
    m = matrix_at(BipartiteModel(p), 0.0)
    assert np.max(np.abs(m - np.array([[0.7, 3.0], [3.0, 0.7]]))) < 1e-15

    p = BipartiteParams(v=1.0, v_prime=1.0, gamma=0.0)
    m = matrix_at(BipartiteModel(p), np.pi)
    assert abs(m[0, 1]) < 1e-15 and abs(m[1, 0]) < 1e-15

    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5, eps_a=0.2)
    assert matrix_at(BipartiteModel(p), 1.0)[1, 1] == 0.2 - 1.0j


def test_bloch_matrix_matches_independent_assembly():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.uniform(0.2, 2.0)
        vp = rng.uniform(0.0, 3.0)
        g = rng.uniform(0.0, 2.0)
        ea = rng.uniform(-1.0, 1.0)
        k = rng.uniform(-np.pi, np.pi)
        got = matrix_at(BipartiteModel(BipartiteParams(v, vp, g, ea)), k)
        assert np.max(np.abs(got - bloch_matrix(v, vp, g, k, ea))) < 1e-15


def test_bipartite_hermitian_when_lossless():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = BipartiteParams(v=rng.uniform(0.5, 2.0), v_prime=rng.uniform(0.0, 3.0),
                            gamma=0.0, eps_a=rng.uniform(-1.0, 1.0))
        m = matrix_at(BipartiteModel(p), rng.uniform(-np.pi, np.pi))
        assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("kind", [TWO_LEVEL, BIPARTITE])
def test_entry_rows_are_affine_in_the_drive_phasor(kind):
    # H(phi) = H0 + cos(phi) (H(0) - H(pi)) / 2 + sin(phi) (H(pi/2) - H0),
    # H0 = (H(0) + H(pi)) / 2: the form the evolution kernel reads
    rng = np.random.default_rng([11, kind == TWO_LEVEL])
    phi = rng.uniform(-math.pi, math.pi, 200)
    for _ in range(50):
        if kind == TWO_LEVEL:
            model = TwoLevelModel(_tl(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3),
                                      rng.uniform(0, math.pi)))
        else:
            model = BipartiteModel(BipartiteParams.from_ratios(
                rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0)))
        one, up, minus = model.entry_rows(np.array([1.0, 1j, -1.0])).T
        h0 = 0.5 * (one + minus)
        want = (h0[:, None] + np.cos(phi) * (0.5 * (one - minus))[:, None]
                + np.sin(phi) * (up - h0)[:, None])
        got = model.entry_rows(np.exp(1j * phi))
        assert got.shape == (4, phi.size)
        scale = np.abs(np.stack([one, up, minus])).max()
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * scale


def test_bipartite_param_derivations():
    p = BipartiteParams(v=2.0, v_prime=3.0, gamma=1.0, eps_a=0.3)
    assert p.q == 1.5
    assert p.eta == 0.5
    assert p.eps_b == 0.3 - 2.0j
    r = BipartiteParams.from_ratios(2.0, 0.5, v=1.5)
    assert r.v_prime == 3.0 and r.gamma == 0.75


def test_bipartite_param_guards():
    with pytest.raises(ValueError):
        BipartiteParams(v=0.0, v_prime=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        BipartiteParams(v=1.0, v_prime=-0.1, gamma=0.0)
    with pytest.raises(ValueError):
        BipartiteParams(v=1.0, v_prime=1.0, gamma=-1.0)


def test_bipartite_hermitian_closed_form():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.0, eps_a=0.4)
    k = 0.9
    path = BipartiteModel(p).eigen_path(np.array([k]))
    system = point_system(BipartiteModel(p), k)
    vk = 1.0 + 2.0 * np.exp(-1j * k)
    assert abs(system.eigenvalue("plus") - (0.4 + abs(vk))) < 1e-14
    assert abs(system.eigenvalue("minus") - (0.4 - abs(vk))) < 1e-14
    assert path.chi[0] == np.pi / 2
    r = 1.0 / np.sqrt(2.0)
    phase = np.exp(-1j * path.winding_phase[0])
    assert np.max(np.abs(system.right("plus") - [phase * r, r])) < 1e-14
    assert np.max(np.abs(system.right("minus") - [-phase * r, r])) < 1e-14


def test_bipartite_closed_form_frozen_point():
    system = point_system(
        BipartiteModel(BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5)), 0.0)
    root = np.sqrt(8.75)
    assert abs(system.eigenvalue("plus") - (root - 0.5j)) < 1e-14
    assert abs(system.eigenvalue("minus") - (-root - 0.5j)) < 1e-14


def test_bipartite_closed_form_vs_characteristic_roots():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5)
    k = np.pi / 3
    system = point_system(BipartiteModel(p), k)
    want = char_poly_eigs(bloch_matrix(1.0, 2.0, 0.5, k, 0.0))
    assert abs(system.eigenvalue("plus") - want[0]) < 1e-13
    assert abs(system.eigenvalue("minus") - want[1]) < 1e-13


def test_bipartite_mixing_angle_identity():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5)
    chi = BipartiteModel(p).eigen_path(np.array([1.0])).chi[0]
    # tan of the mixing angle reproduces |v_k| / (i Gamma)
    want = abs(bloch_matrix(1.0, 2.0, 0.5, 1.0)[0, 1]) / (1j * p.gamma)
    assert abs(np.tan(chi) - want) < 1e-12


def test_bipartite_interference_zero_is_a_crossing():
    p = BipartiteParams.from_ratios(1.0, 1.0)
    with pytest.raises(TrueCrossing):
        BipartiteModel(p).eigen_path(np.array([np.pi]))


def test_bipartite_radicand_zero_is_a_crossing():
    # eta inside (|q-1|, q+1): the radicand crosses zero at
    # cos k0 = (eta^2 - 1 - q^2) / (2 q)
    p = BipartiteParams.from_ratios(2.0, 1.5)
    k0 = math.acos((1.5**2 - 5.0) / 4.0)
    with pytest.raises(TrueCrossing):
        BipartiteModel(p).eigen_path(np.array([k0]))


def _radicand_cases():
    """Seeded (q, eta) 1e-12 to 1e-2 to either side of eta = |1 - q|, of
    eta = 1 + q and of q = 1, each with momenta at float pi, at 0, on the
    node map of its refinement and at its crossing momenta."""
    rng = np.random.default_rng(38)
    t = _zone_grid(64)
    for i in range(150):
        gap = 10.0 ** rng.uniform(-12.0, -2.0) * (-1.0, 1.0)[i % 2]
        q = rng.uniform(0.2, 0.9) if i // 2 % 2 else rng.uniform(1.1, 3.0)
        line = i // 4 % 3
        if line == 0:
            eta = abs(1.0 - q) + gap
        elif line == 1:
            eta = 1.0 + q + gap
        else:
            q = 1.0 + gap
            eta = rng.uniform(0.0, 2.0) * abs(gap)
        _, beta, centre = berry._node_grid(
            berry._chain_singularities(q, eta), 1)
        mapped = berry._node_map(t, beta, centre, 1)[0]
        crossings = list(classify_region(q, eta).witnesses)
        yield q, eta, np.array([math.pi, 0.0, -math.pi / 2,
                                *np.asarray(mapped).tolist(), *crossings])


def _slip(one_and_q, eta):
    """What rounding the sum 1 +- q, as given, moves (|1 +- q| - eta)(|1 +- q|
    + eta) by, to first order: the one rounding before the factored
    extreme subtracts eta."""
    total = one_and_q[0] + one_and_q[1]
    exact = Fraction(one_and_q[0]) + Fraction(one_and_q[1])
    size = abs(total)
    return float(abs(Fraction(total) - exact)) * (size + eta + abs(size - eta))


def test_the_one_radicand_keeps_its_digits_next_to_every_line():
    # r(k) = |1 + q exp(-ik)|^2 - eta^2 at the same float k, to 50 digits:
    # within a few ulp of the largest size it is made of, and within a few
    # ulp of the nearer extreme and the term added to it, besides what
    # rounding 1 - q or 1 + q moves that extreme by; the frame and the
    # energies read those same bits
    mpmath.mp.dps = 50
    eps = np.finfo(float).eps
    for q, eta, ks in _radicand_cases():
        u = np.exp(1j * ks)
        got = models._radicand(1.0, q, eta, u)
        mq, meta = mpmath.mpf(q), mpmath.mpf(eta)
        want = np.array([float(1 + mq * mq + 2 * mq * mpmath.cos(mpmath.mpf(k))
                               - meta * meta) for k in ks.tolist()])
        rpi, r0 = models._radicand_extremes(q, eta)
        to_pi, to_zero = q * np.abs(1.0 + u) ** 2, q * np.abs(1.0 - u) ** 2
        size = np.maximum(max(abs(rpi), abs(r0)), np.minimum(to_pi, to_zero))
        assert (np.abs(got - want) <= 4.0 * eps * size).all(), (q, eta)
        near, term, slip = ((abs(rpi), to_pi, _slip((1.0, -q), eta))
                            if abs(rpi) <= abs(r0)
                            else (abs(r0), to_zero, _slip((1.0, q), eta)))
        assert (np.abs(got - want) <= 4.0 * eps * np.maximum(near, term)
                + slip).all(), (q, eta)
        # one sample per row: only a row at a zero of r refuses its frame
        rows = models._ChainRows([1.0] * ks.size, [q] * ks.size,
                                 [eta] * ks.size, ks[:, None])
        framed = [r for r, error in enumerate(rows.errors) if error is None]
        assert rows.s[framed, 0].tobytes() == np.sqrt(
            got[framed].astype(complex)).tobytes()
        model = BipartiteModel(BipartiteParams.from_ratios(q, eta))
        energies = model.energies(u)
        assert energies[0].tobytes() == (
            -1j * eta + np.sqrt(got.astype(complex))).tobytes()


def test_the_scan_reads_the_one_radicand(monkeypatch):
    read = []

    def radicand(v, v_prime, gamma, u):
        read.append(np.size(u))
        return models._radicand(v, v_prime, gamma, u)

    monkeypatch.setattr(spectrum, "_radicand", radicand)
    report = spectrum.verify_region(2.0, 1.5)
    assert report.region == spectrum.GAPLESS_TRUE_CROSSING
    # the 1024-point scan, then the bisection of each of its two zeros
    assert read[0] == 1024 and len(read) > 2 and set(read[1:]) == {1}


def test_bipartite_gapless_loop_is_a_crossing():
    # no sample hits the crossing momenta, but the radicand changes sign
    # between samples: no frame continues around the loop, however fine
    model = BipartiteModel(BipartiteParams.from_ratios(1.5, 1.0))
    for n in (64, 1024, 65536):
        alphas = loop_grid(standard_loop(BIPARTITE, 1024), n)
        with pytest.raises(TrueCrossing, match="between sampled momenta"):
            model.eigen_path(alphas)


def test_chain_frames_off_unit_hopping_keep_their_bits():
    # the chain frame is the one-row case of a stack whose rows carry their
    # own hoppings and grids; at v != 1 its arrays keep the bits pinned
    # from the frame with the anchored radicand r(pi) + v v' |1 + u|^2 or
    # r(0) - v v' |1 - u|^2, on 68 momenta: two steps before the anchor of
    # a 64-sample loop to two steps past its closure
    loop = standard_loop(BIPARTITE, 64)
    alphas = loop.samples[0] + np.arange(-2, 66) * (loop.period / 64)
    digest = hashlib.sha256()
    for p in (BipartiteParams(v=0.7, v_prime=1.3, gamma=0.4, eps_a=0.2),
              BipartiteParams(v=2.5, v_prime=1.1, gamma=4.0, eps_a=-0.3)):
        path = BipartiteModel(p).eigen_path(alphas)
        for name in ("values", "right", "left", "connection",
                     "trace_connection", "winding_phase", "chi"):
            digest.update(np.ascontiguousarray(getattr(path, name)).tobytes())
    assert digest.hexdigest() == (
        "5eb21e7be8224f04e26a5f6411dbf210e2ef3394c07d493bc6365c7ad45c0083")


def test_standard_loops():
    loop = standard_loop(TWO_LEVEL, 16)
    assert loop.n == 16
    assert loop.samples[0] == 0.0
    assert abs(loop.samples[1] - np.pi / 8.0) < 1e-15
    loop = standard_loop(BIPARTITE, 1024)
    assert loop.n == 1024
    assert abs(loop.samples[-1] - np.pi) < 1e-12
    assert loop.samples[0] > -np.pi


def test_standard_loop_resolution_guards():
    with pytest.raises(BadResolution):
        standard_loop(TWO_LEVEL, 12)
    with pytest.raises(BadResolution):
        standard_loop(TWO_LEVEL, 8)
    with pytest.raises(ValueError):
        standard_loop("hexagonal", 16)


def test_parameter_loop_guards():
    # a loop is its family and its sample count, both checked on entry
    with pytest.raises(ValueError, match="unknown loop kind 'hexagonal'"):
        ParameterLoop("hexagonal", 16)
    for n in (0, -16, 8, 24, 1000):
        with pytest.raises(BadResolution, match="at least 16, got"):
            ParameterLoop(TWO_LEVEL, n)
    loop = ParameterLoop(BIPARTITE, 64)
    assert loop == standard_loop(BIPARTITE, 64)
    assert loop.period == 2.0 * np.pi
    assert not loop.samples.flags.writeable


@pytest.mark.parametrize("kind", [TWO_LEVEL, BIPARTITE])
@pytest.mark.parametrize("n", [2 ** 17, 2 ** 40])
def test_loops_above_the_refinement_cap_are_refused(kind, n):
    with pytest.raises(BadResolution,
                       match=f"count {n} exceeds the refinement cap 65536"):
        standard_loop(kind, n)


@pytest.mark.parametrize("kind", [TWO_LEVEL, BIPARTITE])
def test_loop_sample_counts_must_be_integers(kind):
    for n in (16.0, 16.5, "16", np.float64(64.0)):
        with pytest.raises(BadResolution,
                           match=re.escape(f"must be an integer, got {n!r}")):
            standard_loop(kind, n)
    assert standard_loop(kind, np.int64(64)) == standard_loop(kind, 64)


@pytest.mark.parametrize("n", [16, 64, 1024, 65536])
def test_loop_samples_are_the_family_grids(n):
    # phi = j 2pi/n from 0, k = -pi + (j + 1) 2pi/n up to pi, bit for bit
    j = np.arange(n)
    assert np.array_equal(standard_loop(TWO_LEVEL, n).samples,
                          j * (2.0 * np.pi / n))
    assert np.array_equal(standard_loop(BIPARTITE, n).samples,
                          -np.pi + (j + 1) * (2.0 * np.pi / n))


def test_loop_grid_runs_from_the_anchor_to_the_closure_point():
    # n + 1 uniform parameters: the loop anchor, then one per step up to
    # the same point one period later, bit for bit j * (2 pi / n) past it
    for kind in (TWO_LEVEL, BIPARTITE):
        loop = standard_loop(kind, 32)
        for n in (16, 32, 64):
            alphas = loop_grid(loop, n)
            assert alphas.shape == (n + 1,)
            assert alphas[0] == loop.samples[0]
            assert np.array_equal(
                alphas, loop.samples[0] + np.arange(n + 1) * (loop.period / n))
            assert abs(alphas[n] - (loop.samples[0] + loop.period)) < 1e-12
        # the loop's own rung is its samples and the closure point
        assert np.abs(loop_grid(loop, 32)[:32] - loop.samples).max() < 1e-14


def test_matrix_periodicity():
    p = _tl((1.0, 0.8, 0.4), (0.2, 0.1, -0.3), 1.3)
    model = TwoLevelModel(p)
    b = BipartiteModel(BipartiteParams(v=1.0, v_prime=1.7, gamma=0.6))
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0.0, 2.0 * np.pi, 25):
        a1 = matrix_at(model, alpha)
        a2 = matrix_at(model, alpha + 2.0 * np.pi)
        assert np.max(np.abs(a1 - a2)) < 1e-13
        b1 = matrix_at(b, alpha)
        b2 = matrix_at(b, alpha + 2.0 * np.pi)
        assert np.max(np.abs(b1 - b2)) < 1e-13


def test_closed_form_eigenvalues_match_eig2_both_models():
    rng = np.random.default_rng(19)
    for _ in range(50):
        h = rng.uniform(1.0, 2.0, 3)
        d = rng.uniform(-0.4, 0.4, 3)
        p = _tl(h, d, rng.uniform(0.3, np.pi - 0.3))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        system = point_system(TwoLevelModel(p), phi)
        ref = sorted(eig2(matrix_at(TwoLevelModel(p), phi)).eigenvalues,
                     key=lambda z: (z.real, z.imag))
        got = sorted(system.eigenvalues, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10

        bp = BipartiteParams(v=1.0, v_prime=rng.uniform(0.1, 3.0),
                             gamma=rng.uniform(0.0, 0.4))
        k = rng.uniform(-np.pi, np.pi)
        bsys = point_system(BipartiteModel(bp), k)
        bref = sorted(eig2(matrix_at(BipartiteModel(bp), k)).eigenvalues,
                      key=lambda z: (z.real, z.imag))
        bgot = sorted(bsys.eigenvalues, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(bgot, bref)) < 1e-10


def test_eigen_path_biorthonormal_along_loop():
    model = BipartiteModel(BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5))
    ks = np.linspace(-np.pi, np.pi, 257)
    path = model.eigen_path(ks)
    # <lambda_i | psi_j> = delta_ij at every sample
    overlap = np.einsum("cim,cjm->ijm", path.left.conj(), path.right)
    eye = np.eye(2)[:, :, None]
    assert np.max(np.abs(overlap - eye)) < 1e-12
    assert np.max(np.abs(path.values - model.energies(np.exp(1j * ks)))) < 1e-12


def test_winding_rate_integrates_to_topological_advance():
    ks = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    dk = 2.0 * np.pi / 4096
    fast = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.0)
    slow = BipartiteParams(v=1.0, v_prime=0.5, gamma=0.0)
    assert abs(np.sum(winding_rate(fast, ks)) * dk - 2.0 * np.pi) < 1e-10
    assert abs(np.sum(winding_rate(slow, ks)) * dk) < 1e-10


def test_entry_rows_match_matrices():
    p = _tl((1.0, 0.5, 0.2), (0.1, 0.3, 0.0), 0.9)
    model = TwoLevelModel(p)
    phis = np.array([0.0, 1.0, 2.5])
    rows = model.entry_rows(np.exp(1j * phis))
    for j, phi in enumerate(phis):
        m = assemble_two_level(p, phi)
        assert abs(rows[0, j] - m[0, 0]) < 1e-15
        assert abs(rows[1, j] - m[0, 1]) < 1e-15
        assert abs(rows[2, j] - m[1, 0]) < 1e-15
        assert abs(rows[3, j] - m[1, 1]) < 1e-15


def _stacked_rows(model, phasors):
    """The entry rows assembled by complex() and np.stack, the byte reference.

    complex(re, im) keeps the sign of a zero part, so the reference pins
    the signs of the zeros too.
    """
    p = model.params
    c, s = phasors.real, phasors.imag
    pair = np.frompyfunc(complex, 2, 1)
    if model.kind == TWO_LEVEL:
        st = math.sin(p.theta)
        a_p, a_m, b_p, b_m = _two_level_axes(p)
        h12 = pair(st * a_p * c, -st * b_p * s)
        h21 = pair(st * a_m * c, st * b_m * s)
        diag = complex(p.h_z, p.d_z) * math.cos(p.theta)
        diag_a, diag_b = diag, -diag
    else:
        re, im = p.v_prime * c + p.v, -p.v_prime * s
        h12, h21 = pair(re, im), pair(re, -im)
        diag_a, diag_b = p.eps_a, p.eps_b
    return np.stack([np.full(c.shape, diag_a, dtype=complex), h12, h21,
                     np.full(c.shape, diag_b, dtype=complex)]).astype(complex)


@pytest.mark.parametrize("model", [
    TwoLevelModel(_tl((1.0, 0.5, 0.2), (0.1, 0.3, -0.4), 0.9)),
    # theta = 0 makes the off-diagonal pair zeros of either sign
    TwoLevelModel(_tl((1.0, -0.5, 0.2), (0.1, 0.3, -0.4), 0.0)),
    TwoLevelModel(_tl((-1.0, 0.5, 0.0), (0.0, 0.0, -0.0), 2.0)),
    BipartiteModel(BipartiteParams.from_ratios(2.0, 0.3)),
    BipartiteModel(BipartiteParams.from_ratios(0.5, 0.0, eps_a=-0.25)),
])
def test_entry_rows_are_a_fresh_array_the_caller_may_overwrite(model):
    # a caller may scale the rows in place
    u = np.concatenate([[1.0, complex(1.0, -0.0), -1.0, complex(-1.0, -0.0)],
                        _PHASORS])
    rows = model.entry_rows(u)
    assert rows.shape == (4, u.size) and rows.dtype == complex
    assert rows.flags.c_contiguous and rows.flags.writeable
    want = _stacked_rows(model, u).tobytes()
    assert rows.tobytes() == want
    rows *= np.nan
    again = model.entry_rows(u)
    assert not np.shares_memory(again, rows)
    assert again.tobytes() == want


# Property tests: the accessors of one model must agree with each other on
# random parameters away from the singular sets.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)
_GRID = np.linspace(-0.5, 2.0 * np.pi, 1024)
_PHASORS = np.exp(1j * _GRID)


@st.composite
def _two_level_models(draw):
    amps = st.floats(-2.0, 2.0)
    p = TwoLevelParams(*(draw(amps) for _ in range(6)),
                       theta=draw(st.floats(0.0, np.pi)))
    # 0.05 clear of the singular lines |d_x| = |h_x| and |d_y| = |h_y|
    assume(abs(abs(p.d_x) - abs(p.h_x)) > 0.05
           and abs(abs(p.d_y) - abs(p.h_y)) > 0.05)
    return TwoLevelModel(p)


@st.composite
def _chain_models(draw):
    q = draw(st.floats(0.05, 3.0))
    assume(abs(q - 1.0) > 0.1)
    if draw(st.booleans()):
        eta = draw(st.floats(0.0, 0.9)) * (abs(q - 1.0) - 0.05)
    else:
        eta = q + 1.05 + draw(st.floats(0.0, 2.0))
    return BipartiteModel(BipartiteParams.from_ratios(
        q, eta, v=draw(st.floats(0.3, 2.0)), eps_a=draw(st.floats(-1.0, 1.0))))


_models = st.one_of(_two_level_models(), _chain_models())


def _assembled(model, alpha):
    p = model.params
    if model.kind == TWO_LEVEL:
        return assemble_two_level(p, alpha)
    return bloch_matrix(p.v, p.v_prime, p.gamma, alpha, p.eps_a)


@_PROPERTY
@given(_models)
def test_entry_rows_are_the_matrix_entries(model):
    rows = model.entry_rows(_PHASORS)
    scale = max(1.0, float(np.abs(rows).max()))
    for j in range(0, _GRID.size, 97):
        m = _assembled(model, _GRID[j])
        assert np.abs(rows[:, j] - m.ravel()).max() <= 1e-14 * scale


@_PROPERTY
@given(_models)
def test_energies_match_the_eigen_frame(model):
    try:
        values = model.eigen_path(_GRID).values
    except (SingularParameters, DegenerateSpectrum, PathTooCoarse, TrueCrossing):
        assume(False)
    assume(np.abs(values[0] - values[1]).min() > 1e-2)
    energies = model.energies(_PHASORS)
    # the branch pair may come out globally exchanged
    err = min(np.abs(values - energies).max(),
              np.abs(values - energies[::-1]).max())
    assert err <= 1e-10 * max(1.0, float(np.abs(values).max()))


@_PROPERTY
@given(_models)
def test_trace_and_determinant_give_the_energies(model):
    h11, h12, h21, h22 = model.entry_rows(_PHASORS)
    e_plus, e_minus = model.energies(_PHASORS)
    scale = max(1.0, float(np.abs([h11, h12, h21, h22]).max())) ** 2
    assert np.abs((h11 + h22) - (e_plus + e_minus)).max() <= 1e-12 * scale
    assert np.abs((h11 * h22 - h12 * h21) - e_plus * e_minus).max() <= 1e-12 * scale


@_PROPERTY
@given(st.floats(0.05, 3.0), st.floats(0.0, 4.0), st.floats(0.3, 2.0))
def test_winding_rate_depends_on_the_hopping_ratio_alone(q, eta, v):
    assume(abs(q - 1.0) > 0.05)
    params = BipartiteParams.from_ratios(q, eta, v=v)
    k = _GRID
    # d theta/dk of v_k = v + v' exp(-ik) in ratio units, the connection
    # trace of the chain's frame
    want = q * (q + np.cos(k)) / (1.0 + q * q + 2.0 * q * np.cos(k))
    assert np.abs(winding_rate(params, k) - want).max() <= 1e-12 * np.abs(want).max()


@_PROPERTY
@given(_chain_models())
def test_chain_rows_transpose_and_energies_are_even_under_k_to_minus_k(model):
    rows = model.entry_rows(_PHASORS)
    flipped = np.exp(1j * -_GRID)
    assert np.array_equal(model.entry_rows(flipped), rows[[0, 2, 1, 3]])
    assert np.array_equal(model.energies(flipped), model.energies(_PHASORS))


@_PROPERTY
@given(_models)
def test_energies_fill_an_output_buffer_with_their_own_bits(model):
    buf = np.full((2, _PHASORS.size), complex(math.nan, math.nan))
    assert model.energies(_PHASORS, out=buf) is buf
    assert buf.tobytes() == model.energies(_PHASORS).tobytes()


def test_the_chain_root_is_the_complex_square_root_bit_for_bit():
    # two real roots in place of csqrt on a real radicand, on seeded TYPE_I
    # (r > 0), gapless (both signs) and TYPE_II (r < 0) rows
    rng = np.random.default_rng(17)
    signs = set()
    for _ in range(40):
        q = rng.uniform(0.05, 3.0)
        for eta in (rng.uniform(0.0, abs(1.0 - q)), rng.uniform(abs(1.0 - q), 1.0 + q),
                    rng.uniform(1.0 + q, 4.0 + q)):
            r = models._radicand(1.0, q, eta, _PHASORS)
            signs.add((bool((r > 0.0).any()), bool((r < 0.0).any())))
            root = np.empty_like(_PHASORS)
            models._real_root(r, root)
            assert root.tobytes() == np.sqrt(r.astype(complex)).tobytes()
    assert signs == {(True, False), (True, True), (False, True)}
    # an exact zero of either sign, and the radicand's own zero on the line
    # eta = 1 + q at k = 0: csqrt gives +0 + 0i, with no negative zero
    r = np.concatenate([[0.0, -0.0, 2.25, -2.25],
                        models._radicand(1.0, 0.5, 1.5, np.array([1.0 + 0j]))])
    assert r[-1] == 0.0
    root = np.empty(r.size, dtype=complex)
    models._real_root(r, root)
    assert root.tobytes() == np.sqrt(r.astype(complex)).tobytes()
    assert not np.signbit(root[[0, 1, 4]].view(float)).any()


def _assert_hermitian(rows):
    h11, h12, h21, h22 = rows
    assert np.array_equal(h11.imag, np.zeros_like(h11.imag))
    assert np.array_equal(h22.imag, np.zeros_like(h22.imag))
    assert np.array_equal(h12, np.conj(h21))


@_PROPERTY
@given(st.tuples(*[st.floats(-2.0, 2.0)] * 3), st.floats(0.0, np.pi))
def test_two_level_rows_are_hermitian_without_gain_and_loss(h, theta):
    model = TwoLevelModel(_tl(h, (0.0, 0.0, 0.0), theta))
    _assert_hermitian(model.entry_rows(_PHASORS))


@_PROPERTY
@given(st.floats(0.05, 3.0), st.floats(0.3, 2.0), st.floats(-1.0, 1.0))
def test_chain_rows_are_hermitian_without_loss(q, v, eps_a):
    model = BipartiteModel(BipartiteParams.from_ratios(q, 0.0, v=v, eps_a=eps_a))
    _assert_hermitian(model.entry_rows(_PHASORS))

"""Hamiltonian families, closed-form frames, and loop containers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berryline.biortho import eig2
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
    bipartite_bloch,
    bipartite_closed_form,
    loop_grid,
    standard_loop,
    two_level_closed_form,
    two_level_hamiltonian,
)
from berryline.quadrature import PAD

from oracles import assemble_two_level, bloch_matrix, char_poly_eigs, dense_winding


def _tl(h, d, theta):
    return TwoLevelParams(h_x=h[0], h_y=h[1], h_z=h[2],
                          d_x=d[0], d_y=d[1], d_z=d[2], theta=theta)


def test_polar_axis_matrix_is_diagonal():
    p = _tl((1.0, 2.0, 0.7), (0.3, 0.4, 0.2), 0.0)
    m = two_level_hamiltonian(p, 1.3).as_array()
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0
    assert m[0, 0] == 0.7 + 0.2j
    assert m[1, 1] == -(0.7 + 0.2j)


def test_equatorial_hermitian_x_field_is_sigma_x():
    p = _tl((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), np.pi / 2)
    m = two_level_hamiltonian(p, 0.0).as_array()
    assert np.max(np.abs(m - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-15


def test_two_level_matches_independent_assembly():
    p = _tl((1.0, 2.0, 3.0), (0.5, 0.25, 0.1), np.pi / 3)
    got = two_level_hamiltonian(p, np.pi / 5).as_array()
    want = assemble_two_level(p, np.pi / 5)
    assert np.max(np.abs(got - want)) < 1e-12


def test_two_level_assembly_identity_many_draws():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = _tl(rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0, 3),
                rng.uniform(0.0, np.pi))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        got = two_level_hamiltonian(p, phi).as_array()
        assert np.max(np.abs(got - assemble_two_level(p, phi))) < 1e-12


def test_two_level_hermitian_when_amplitudes_vanish():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = _tl(rng.uniform(-2.0, 2.0, 3), (0.0, 0.0, 0.0), rng.uniform(0.0, np.pi))
        m = two_level_hamiltonian(p, rng.uniform(0.0, 2.0 * np.pi)).as_array()
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
    p = _tl((h, h, hz), (0.0, 0.0, 0.0), theta)
    derived, system = two_level_closed_form(p, phi)
    e = math.sqrt(h * h * math.sin(theta) ** 2 + hz * hz * math.cos(theta) ** 2)
    assert abs(system.eigenvalue("plus") - e) < 1e-14
    assert abs(system.eigenvalue("minus") + e) < 1e-14
    assert abs(derived.rho - 1.0) < 1e-14
    assert abs(derived.nu_minus - phi) < 1e-14
    assert abs(derived.nu1 + phi) < 1e-14
    assert abs(derived.nu2 - phi) < 1e-14


def test_closed_form_residuals_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = np.array([rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0),
                      rng.uniform(0.5, 1.0)]) * rng.choice([-1.0, 1.0], 3)
        d = rng.uniform(-0.5, 0.5, 3)
        p = _tl(h, d, rng.uniform(0.2, np.pi - 0.2))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        derived, system = two_level_closed_form(p, phi)
        m = two_level_hamiltonian(p, phi)
        arr = m.as_array()
        for band in ("plus", "minus"):
            psi = system.right(band)
            resid = np.linalg.norm(arr @ psi - system.eigenvalue(band) * psi)
            assert resid < 1e-10
        assert abs(np.vdot(system.left("plus"), system.right("minus"))) < 1e-10
        assert abs(np.vdot(system.left("minus"), system.right("plus"))) < 1e-10
        # against the generic solver: same states up to gauge
        ref = eig2(m)
        for band in ("plus", "minus"):
            e = system.eigenvalue(band)
            ref_band = min(("plus", "minus"),
                           key=lambda b: abs(ref.eigenvalue(b) - e))
            assert abs(ref.eigenvalue(ref_band) - e) < 1e-10
            overlap = abs(np.vdot(ref.right(ref_band), system.right(band)))
            assert abs(overlap - np.linalg.norm(system.right(band))) < 1e-8


def test_closed_form_mixing_angle_identity():
    p = _tl((1.0, 1.5, 0.8), (0.2, -0.1, 0.3), 1.2)
    derived, system = two_level_closed_form(p, 0.9)
    z = complex(p.h_z, p.d_z)
    cos_chi = z * math.cos(p.theta) / system.eigenvalue("plus")
    assert abs(np.cos(derived.chi) - cos_chi) < 1e-12


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
        two_level_closed_form(p, 0.4)


def test_bloch_matrix_examples():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.0, eps_a=0.7)
    m = bipartite_bloch(p, 0.0).as_array()
    assert np.max(np.abs(m - np.array([[0.7, 3.0], [3.0, 0.7]]))) < 1e-15

    p = BipartiteParams(v=1.0, v_prime=1.0, gamma=0.0)
    m = bipartite_bloch(p, np.pi).as_array()
    assert abs(m[0, 1]) < 1e-15 and abs(m[1, 0]) < 1e-15

    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5, eps_a=0.2)
    assert bipartite_bloch(p, 1.0).as_array()[1, 1] == 0.2 - 1.0j


def test_bloch_matrix_matches_independent_assembly():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.uniform(0.2, 2.0)
        vp = rng.uniform(0.0, 3.0)
        g = rng.uniform(0.0, 2.0)
        ea = rng.uniform(-1.0, 1.0)
        k = rng.uniform(-np.pi, np.pi)
        got = bipartite_bloch(BipartiteParams(v, vp, g, ea), k).as_array()
        assert np.max(np.abs(got - bloch_matrix(v, vp, g, k, ea))) < 1e-15


def test_bipartite_hermitian_when_lossless():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = BipartiteParams(v=rng.uniform(0.5, 2.0), v_prime=rng.uniform(0.0, 3.0),
                            gamma=0.0, eps_a=rng.uniform(-1.0, 1.0))
        m = bipartite_bloch(p, rng.uniform(-np.pi, np.pi)).as_array()
        assert np.array_equal(m, m.conj().T)


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
    derived, system = bipartite_closed_form(p, k)
    vk = 1.0 + 2.0 * np.exp(-1j * k)
    assert abs(system.eigenvalue("plus") - (0.4 + abs(vk))) < 1e-14
    assert abs(system.eigenvalue("minus") - (0.4 - abs(vk))) < 1e-14
    assert derived.chi_k == np.pi / 2
    r = 1.0 / np.sqrt(2.0)
    phase = np.exp(-1j * derived.theta_k)
    assert np.max(np.abs(system.right("plus") - [phase * r, r])) < 1e-14
    assert np.max(np.abs(system.right("minus") - [-phase * r, r])) < 1e-14


def test_bipartite_closed_form_frozen_point():
    derived, system = bipartite_closed_form(
        BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5), 0.0)
    root = np.sqrt(8.75)
    assert abs(system.eigenvalue("plus") - (root - 0.5j)) < 1e-14
    assert abs(system.eigenvalue("minus") - (-root - 0.5j)) < 1e-14


def test_bipartite_closed_form_vs_characteristic_roots():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5)
    k = np.pi / 3
    derived, system = bipartite_closed_form(p, k)
    want = char_poly_eigs(bloch_matrix(1.0, 2.0, 0.5, k, 0.0))
    assert abs(system.eigenvalue("plus") - want[0]) < 1e-13
    assert abs(system.eigenvalue("minus") - want[1]) < 1e-13


def test_bipartite_mixing_angle_identity():
    p = BipartiteParams(v=1.0, v_prime=2.0, gamma=0.5)
    derived, _ = bipartite_closed_form(p, 1.0)
    # tan of the mixing angle reproduces |v_k| / (i Gamma)
    want = abs(derived.v_k) / (1j * p.gamma)
    assert abs(np.tan(derived.chi_k) - want) < 1e-12


def test_bipartite_interference_zero_is_a_crossing():
    p = BipartiteParams.from_ratios(1.0, 1.0)
    with pytest.raises(TrueCrossing):
        bipartite_closed_form(p, np.pi)


def test_bipartite_radicand_zero_is_a_crossing():
    # eta inside (|q-1|, q+1): the radicand crosses zero at
    # cos k0 = (eta^2 - 1 - q^2) / (2 q)
    p = BipartiteParams.from_ratios(2.0, 1.5)
    k0 = math.acos((1.5**2 - 5.0) / 4.0)
    with pytest.raises(TrueCrossing):
        bipartite_closed_form(p, k0)


def test_standard_loops():
    loop = standard_loop(TWO_LEVEL, 16)
    assert loop.n == 16
    assert loop.samples[0] == 0.0
    assert abs(loop.spacing - np.pi / 8.0) < 1e-15
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
    with pytest.raises(ValueError):
        ParameterLoop(samples=np.linspace(0.0, 2.0 * np.pi, 16),
                      period=2.0 * np.pi, kind=TWO_LEVEL)  # includes closure point
    bad = np.arange(16) * (2.0 * np.pi / 16)
    with pytest.raises(ValueError):
        ParameterLoop(samples=bad, period=4.0 * np.pi, kind=TWO_LEVEL)
    with pytest.raises(ValueError):
        ParameterLoop(samples=bad[::-1], period=2.0 * np.pi, kind=TWO_LEVEL)


def test_loop_grid_padding():
    loop = standard_loop(TWO_LEVEL, 32)
    alphas, h, n = loop_grid(loop, refine=2)
    assert n == 64
    assert alphas.size == n + 2 * PAD
    assert abs(alphas[PAD] - loop.samples[0]) < 1e-15
    assert abs(alphas[PAD + n] - (loop.samples[0] + loop.period)) < 1e-12


def test_matrix_periodicity():
    p = _tl((1.0, 0.8, 0.4), (0.2, 0.1, -0.3), 1.3)
    model = TwoLevelModel(p)
    b = BipartiteModel(BipartiteParams(v=1.0, v_prime=1.7, gamma=0.6))
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0.0, 2.0 * np.pi, 25):
        a1 = model.matrix(alpha).as_array()
        a2 = model.matrix(alpha + 2.0 * np.pi).as_array()
        assert np.max(np.abs(a1 - a2)) < 1e-13
        b1 = b.matrix(alpha).as_array()
        b2 = b.matrix(alpha + 2.0 * np.pi).as_array()
        assert np.max(np.abs(b1 - b2)) < 1e-13


def test_closed_form_eigenvalues_match_eig2_both_models():
    rng = np.random.default_rng(19)
    for _ in range(50):
        h = rng.uniform(1.0, 2.0, 3)
        d = rng.uniform(-0.4, 0.4, 3)
        p = _tl(h, d, rng.uniform(0.3, np.pi - 0.3))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        _, system = two_level_closed_form(p, phi)
        ref = sorted(eig2(two_level_hamiltonian(p, phi)).eigenvalues,
                     key=lambda z: (z.real, z.imag))
        got = sorted(system.eigenvalues, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10

        bp = BipartiteParams(v=1.0, v_prime=rng.uniform(0.1, 3.0),
                             gamma=rng.uniform(0.0, 0.4))
        k = rng.uniform(-np.pi, np.pi)
        _, bsys = bipartite_closed_form(bp, k)
        bref = sorted(eig2(bipartite_bloch(bp, k)).eigenvalues,
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
    assert np.max(np.abs(path.values - model.energies(ks))) < 1e-12


def test_winding_rate_integrates_to_topological_advance():
    ks = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    dk = 2.0 * np.pi / 4096
    fast = BipartiteModel(BipartiteParams(v=1.0, v_prime=2.0, gamma=0.0))
    slow = BipartiteModel(BipartiteParams(v=1.0, v_prime=0.5, gamma=0.0))
    assert abs(np.sum(fast.winding_rate(ks)) * dk - 2.0 * np.pi) < 1e-10
    assert abs(np.sum(slow.winding_rate(ks)) * dk) < 1e-10


def test_entry_rows_match_matrices():
    p = _tl((1.0, 0.5, 0.2), (0.1, 0.3, 0.0), 0.9)
    model = TwoLevelModel(p)
    phis = np.array([0.0, 1.0, 2.5])
    rows = model.entry_rows(phis)
    for j, phi in enumerate(phis):
        m = model.matrix(phi).as_array()
        assert abs(rows[0, j] - m[0, 0]) < 1e-15
        assert abs(rows[1, j] - m[0, 1]) < 1e-15
        assert abs(rows[2, j] - m[1, 0]) < 1e-15
        assert abs(rows[3, j] - m[1, 1]) < 1e-15


# Property tests: the accessors of one model must agree with each other on
# random parameters away from the singular sets.
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)
_GRID = np.linspace(-0.5, 2.0 * np.pi, 1024)


@st.composite
def _two_level_models(draw):
    amps = st.floats(-2.0, 2.0)
    p = TwoLevelParams(*(draw(amps) for _ in range(6)),
                       theta=draw(st.floats(0.0, np.pi)))
    assume(not p.is_singular(tol=0.05))
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


@_PROPERTY
@given(_models)
def test_entry_rows_are_the_matrix_entries(model):
    rows = model.entry_rows(_GRID)
    scale = max(1.0, float(np.abs(rows).max()))
    for j in range(0, _GRID.size, 97):
        m = model.matrix(_GRID[j]).as_array()
        assert np.abs(rows[:, j] - m.ravel()).max() <= 1e-14 * scale


@_PROPERTY
@given(_models)
def test_energies_match_the_eigen_frame(model):
    try:
        values = model.eigen_path(_GRID).values
    except (SingularParameters, DegenerateSpectrum, PathTooCoarse, TrueCrossing):
        assume(False)
    assume(np.abs(values[0] - values[1]).min() > 1e-2)
    energies = model.energies(_GRID)
    # the branch pair may come out globally exchanged
    err = min(np.abs(values - energies).max(),
              np.abs(values - energies[::-1]).max())
    assert err <= 1e-10 * max(1.0, float(np.abs(values).max()))


@_PROPERTY
@given(_models)
def test_trace_and_determinant_give_the_energies(model):
    h11, h12, h21, h22 = model.entry_rows(_GRID)
    e_plus, e_minus = model.energies(_GRID)
    scale = max(1.0, float(np.abs([h11, h12, h21, h22]).max())) ** 2
    assert np.abs((h11 + h22) - (e_plus + e_minus)).max() <= 1e-12 * scale
    assert np.abs((h11 * h22 - h12 * h21) - e_plus * e_minus).max() <= 1e-12 * scale


@_PROPERTY
@given(st.floats(0.05, 3.0), st.floats(0.0, 4.0), st.floats(0.3, 2.0))
def test_winding_rate_depends_on_the_hopping_ratio_alone(q, eta, v):
    assume(abs(q - 1.0) > 0.05)
    model = BipartiteModel(BipartiteParams.from_ratios(q, eta, v=v))
    k = _GRID
    # d theta/dk of v_k = v + v' exp(-ik) in ratio units, the integrand of
    # the gapless winding route
    want = q * (q + np.cos(k)) / (1.0 + q * q + 2.0 * q * np.cos(k))
    assert np.abs(model.winding_rate(k) - want).max() <= 1e-12 * np.abs(want).max()

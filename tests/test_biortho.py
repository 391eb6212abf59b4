"""Band labels and the generic biorthogonal 2x2 eigen-solver oracle."""

import numpy as np
import pytest

from berryline.errors import DegenerateSpectrum
from berryline.models import band_index

from oracles import (DefectiveMatrix, bloch_matrix, char_poly_eigs, eig2,
                     metrics)


def test_band_index_labels():
    assert band_index("plus") == 0
    assert band_index("+") == 0
    assert band_index(1) == 0
    assert band_index("minus") == 1
    assert band_index(-1) == 1
    with pytest.raises(ValueError):
        band_index("up")


def test_eig2_diagonal():
    sys = eig2([[3.0 + 1j, 0.0], [0.0, 1.0 - 2j]])
    assert sys.eigenvalue("plus") == 3.0 + 1j
    assert sys.eigenvalue("minus") == 1.0 - 2j
    assert np.allclose(sys.right("plus"), [1.0, 0.0])
    assert np.allclose(sys.right("minus"), [0.0, 1.0])


def test_eig2_sigma_x():
    sys = eig2([[0.0, 1.0], [1.0, 0.0]])
    assert abs(sys.eigenvalue("plus") - 1.0) < 1e-15
    assert abs(sys.eigenvalue("minus") + 1.0) < 1e-15
    r = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(sys.right("plus") - [r, r])) < 1e-15
    assert np.max(np.abs(sys.right("minus") - [r, -r])) < 1e-15


def test_eig2_rejects_scalar_matrix():
    with pytest.raises(DegenerateSpectrum):
        eig2([[2.0, 0.0], [0.0, 2.0]])


def test_eig2_rejects_jordan_block():
    with pytest.raises(DefectiveMatrix):
        eig2([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DefectiveMatrix):
        eig2([[1.0, 0.5], [0.0, 1.0]])


def test_eig2_matches_characteristic_roots_on_lossy_chain():
    # Frozen case: one Bloch matrix of the lossy chain, compared against
    # roots of the characteristic polynomial computed independently.
    mat = bloch_matrix(1.0, 2.0, 0.5, np.pi / 3.0, 0.0)
    sys = eig2(mat)
    want = char_poly_eigs(mat)
    assert abs(sys.eigenvalue("plus") - want[0]) < 1e-14
    assert abs(sys.eigenvalue("minus") - want[1]) < 1e-14
    assert abs(want[0] - (np.sqrt(6.75) - 0.5j)) < 1e-14
    assert abs(want[1] - (-np.sqrt(6.75) - 0.5j)) < 1e-14


def test_eig2_random_matrices_reconstruct():
    rng = np.random.default_rng(1203)
    kept = 0
    while kept < 100:
        arr = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        scale = np.linalg.norm(arr)
        ev = np.linalg.eigvals(arr)
        if abs(ev[0] - ev[1]) < 1e-3 * scale:
            continue
        kept += 1
        sys = eig2(arr)
        checks = metrics(sys, arr)
        assert checks["residual"] <= 1e-10 * max(1.0, scale)
        assert checks["biortho"] <= 1e-10


def test_eig2_adjoint_swaps_roles():
    # Eigen-system of the adjoint: eigenvalues conjugate, and each left
    # vector of H reappears as a right eigendirection of H dagger.
    rng = np.random.default_rng(77)
    for _ in range(25):
        arr = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        scale = np.linalg.norm(arr)
        ev = np.linalg.eigvals(arr)
        if abs(ev[0] - ev[1]) < 1e-3 * scale:
            continue
        sys = eig2(arr)
        sysd = eig2(arr.conj().T)
        for band in ("plus", "minus"):
            target = np.conj(sys.eigenvalue(band))
            gaps = [abs(target - sysd.eigenvalue(b)) for b in ("plus", "minus")]
            j = "plus" if gaps[0] <= gaps[1] else "minus"
            assert min(gaps) <= 1e-10 * max(1.0, scale)
            lam = sys.left(band)
            psi_d = sysd.right(j)
            overlap = abs(np.vdot(psi_d, lam)) / np.linalg.norm(lam)
            assert abs(overlap - 1.0) <= 1e-10


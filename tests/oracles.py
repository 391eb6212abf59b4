"""Independent oracles shared by the test modules.

Every function here reaches a target quantity by a route the library
does not use: arithmetic-geometric-mean iteration and scipy adaptive
quadrature for the elliptic integrals, double-exponential quadrature of
the chain's gapless split integrals, characteristic-polynomial roots
and a generic 2x2 biorthogonal solver for eigen-systems, Pauli-matrix
assembly for the two-level Hamiltonian, finite differences of the frame
for the connection, Fourier differentiation of the frame for the
first-order connection trace, and dense unwrapped sampling for windings.
Agreement between these and the library is evidence, not tautology.
``matrix_at`` and ``point_system`` are the plain helpers: they read the
library's own matrix and eigen frame at a point, for the checks against
these routes.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from berryline.errors import DefectiveMatrix, DegenerateSpectrum
from berryline.models import _MAX_SAMPLES, band_index, loop_grid
from berryline.quadrature import PAD, tanh_sinh

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def agm_k(y):
    """Complete elliptic integral K via AGM iteration, ~1e-15 accurate."""
    a, b = 1.0, math.sqrt(1.0 - y)
    for _ in range(40):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def quad_k(y):
    value, _ = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - y * math.sin(t) ** 2),
        0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return value


def quad_pi(x, y):
    value, _ = integrate.quad(
        lambda t: 1.0 / ((1.0 - x * math.sin(t) ** 2)
                         * math.sqrt(1.0 - y * math.sin(t) ** 2)),
        0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return value


def split_integrals(q, eta):
    """(inner, outer) split integrals of the lossy chain's gapless phase.

    The crossing momentum k0 splits the half zone into the imaginary-gap
    part (0, k0) and the real-gap part (k0, pi). Each integrates the
    hopping phase's winding rate over the square root of the radicand's
    magnitude 2q |cos k - cos k0|, an inverse-square-root endpoint that
    double-exponential quadrature resolves. The radicand is written in
    endpoint offsets, 4q sin((k+k0)/2) sin(|k0-k|/2), so the square root
    keeps its digits there. The band phases are
    pi [q > 1] +- eta (outer + i inner).
    """
    k0 = math.acos((eta * eta - 1.0 - q * q) / (2.0 * q))

    def rate(k):
        return q * (q + np.cos(k)) / (1.0 + q * q + 2.0 * q * np.cos(k))

    def inner(x, da, db):
        return rate(x) / np.sqrt(4.0 * q * np.sin(k0 - 0.5 * db) * np.sin(0.5 * db))

    def outer(x, da, db):
        return rate(x) / np.sqrt(4.0 * q * np.sin(k0 + 0.5 * da) * np.sin(0.5 * da))

    return (float(tanh_sinh(inner, 0.0, k0, tol=1e-12)),
            float(tanh_sinh(outer, k0, math.pi, tol=1e-12)))


def char_poly_eigs(matrix):
    """Eigenvalues as roots of z^2 - tr z + det, ordered like eig2."""
    m = np.asarray(matrix, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    roots = np.roots([1.0, -tr, det])
    return sorted(roots, key=lambda z: (-z.real, -z.imag))


def matrix_at(model, alpha):
    """The library's 2x2 matrix of a model at one loop parameter."""
    return model.entry_rows(np.array([float(alpha)]))[:, 0].reshape(2, 2)


@dataclass(frozen=True)
class BiorthoEigenSystem:
    """Eigenvalues with paired right and left eigenvectors at one point.

    ``eigenvalues[0]`` belongs to the first band, ``eigenvalues[1]`` to the
    second. Columns of ``right_vectors`` are the kets |psi_i>; columns of
    ``left_vectors`` are kets of the adjoint matrix, so the bra <lambda_i|
    is the conjugate transpose of column i, normalized to
    <lambda_i|psi_j> = delta_ij.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def eigenvalue(self, band):
        return complex(self.eigenvalues[band_index(band)])

    def right(self, band):
        return self.right_vectors[:, band_index(band)].copy()

    def left(self, band):
        return self.left_vectors[:, band_index(band)].copy()


def point_system(model, alpha):
    """The library's eigen frame of a model at one loop parameter.

    That is ``model.eigen_path`` on the one-point grid ``[alpha]`` at
    index 0, packaged like the ``eig2`` result it is compared with.
    """
    path = model.eigen_path(np.array([float(alpha)]))
    return BiorthoEigenSystem(eigenvalues=path.values[:, 0],
                              right_vectors=path.right[:, :, 0],
                              left_vectors=path.left[:, :, 0])


# Gap below this fraction of the matrix scale counts as a degeneracy.
DEGENERACY_RTOL = 1e-9

# Left/right pairing weaker than this means the eigenvector matrix is
# numerically singular and biorthogonal normalization would blow up.
_PAIRING_TOL = 1e-6

_CONSTRUCTION_TOL = 1e-10


def metrics(system, matrix):
    """Worst residual ||H psi - E psi|| and worst |<lambda_i|psi_j> - delta_ij|.

    Returned as a dict with keys 'residual' and 'biortho'.
    """
    r = system.right_vectors
    residual = np.linalg.norm(np.asarray(matrix) @ r - r * system.eigenvalues,
                              axis=0)
    overlap = system.left_vectors.conj().T @ r
    return {"residual": float(residual.max()),
            "biortho": float(np.abs(overlap - np.eye(2)).max())}


def _direction(c0, c1, scale):
    """Pick the better conditioned of two candidate (c0, c1) vectors."""
    v = np.array(c0 if abs(c0[0]) + abs(c0[1]) >= abs(c1[0]) + abs(c1[1]) else c1,
                 dtype=complex)
    norm = np.linalg.norm(v)
    if norm <= 1e-14 * scale:
        raise DefectiveMatrix("no usable eigendirection at this eigenvalue")
    return v / norm


def eig2(matrix):
    """Closed-form biorthogonal eigen-system of any 2x2 complex matrix.

    Eigenvalues are ordered by descending real part, ties broken by
    descending imaginary part. Right vectors have unit norm with their
    largest-modulus component rotated real positive; left vectors are
    rescaled against them so the pairing is exactly biorthonormal.

    Raises DegenerateSpectrum when the gap falls below
    ``DEGENERACY_RTOL * max(1, ||H||_F)`` and the matrix is a multiple of
    the identity, DefectiveMatrix when the coalescence leaves a single
    eigendirection or the left/right pairing is numerically singular.
    """
    h = np.asarray(matrix, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(h)))
    mean = 0.5 * (h[0, 0] + h[1, 1])
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    s = np.sqrt(complex(mean * mean - det))
    e_hi, e_lo = mean + s, mean - s
    if (e_hi.real, e_hi.imag) < (e_lo.real, e_lo.imag):
        e_hi, e_lo = e_lo, e_hi
    gap = abs(e_hi - e_lo)
    if gap <= DEGENERACY_RTOL * scale:
        off = max(abs(h[0, 1]), abs(h[1, 0]),
                  abs(h[0, 0] - mean), abs(h[1, 1] - mean))
        if off <= DEGENERACY_RTOL * scale:
            raise DegenerateSpectrum(
                f"eigenvalues coincide, gap {gap:.3e} on a scalar matrix", gap=gap)
        raise DefectiveMatrix(
            f"coalescent eigenvalues (gap {gap:.3e}) with a single eigendirection")

    rights = []
    lefts = []
    for e in (e_hi, e_lo):
        psi = _direction((h[0, 1], e - h[0, 0]), (e - h[1, 1], h[1, 0]), scale)
        k = int(np.argmax(np.abs(psi)))
        psi = psi / (psi[k] / abs(psi[k]))
        row = _direction((h[1, 0], e - h[0, 0]), (e - h[1, 1], h[0, 1]), scale)
        pairing = row @ psi
        if abs(pairing) <= _PAIRING_TOL:
            raise DefectiveMatrix(
                f"left/right pairing {abs(pairing):.3e} is numerically singular")
        rights.append(psi)
        lefts.append(np.conj(row) / np.conj(pairing))

    system = BiorthoEigenSystem(
        eigenvalues=np.array([e_hi, e_lo]),
        right_vectors=np.column_stack(rights),
        left_vectors=np.column_stack(lefts),
    )
    checks = metrics(system, h)
    if checks["residual"] > _CONSTRUCTION_TOL * scale or checks["biortho"] > _CONSTRUCTION_TOL:
        raise DefectiveMatrix(
            "eigen-system failed construction checks "
            f"(residual {checks['residual']:.3e}, biortho {checks['biortho']:.3e})")
    return system


def fd_connection(loop, model):
    """Finite-difference connection i<lambda_i|d psi_j> on the loop samples.

    Differentiates the model's right frame by 4th-order central
    differences on the padded loop grid, refining 2x and 4x until its
    diagonal agrees with the frame's closed-form diagonal connection within
    1e-8 (relative to its largest entry). Returns the full connection,
    off-diagonal entries included, as shape (2, 2, n).
    """
    worst = None
    for refine in (1, 2, 4):
        n = loop.n * refine
        alphas, h = loop_grid(loop, n)
        path = model.eigen_path(alphas)

        def right(shift):
            return path.right[:, :, PAD + shift:PAD + n + shift]

        dpsi = (right(-2) - 8.0 * right(-1)
                + 8.0 * right(1) - right(2)) / (12.0 * h)
        left = np.conj(path.left[:, :, PAD:PAD + n])
        a_fd = 1j * np.einsum("cim,cjm->ijm", left, dpsi)
        a_ref = path.connection[:, PAD:PAD + n]
        worst = float(np.abs(a_fd[[0, 1], [0, 1]] - a_ref).max())
        if worst <= 1e-8 * max(1.0, float(np.abs(a_ref).max())):
            return a_fd[:, :, ::refine]
    raise AssertionError(
        "finite-difference and closed-form connections still disagree at "
        f"4x refinement (worst {worst:.3e})")


def spectral_derivative(samples, period, axis=-1):
    """Derivative of smooth samples covering exactly one period, by FFT.

    Spectrally accurate for analytic inputs; the unmatched Nyquist mode of
    even grids carries no derivative information and is dropped.
    """
    f = np.asarray(samples)
    n = f.shape[axis]
    wave = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        wave[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    factor = (2j * np.pi / period) * wave.reshape(shape)
    return np.fft.ifft(np.fft.fft(f, axis=axis) * factor, axis=axis)


def _correction_max(loop, model, n):
    alphas, _ = loop_grid(loop, n)
    path = model.eigen_path(alphas[PAD:PAD + n])
    dpsi = spectral_derivative(path.right, loop.period)
    dlam = spectral_derivative(path.left, loop.period)
    dlam_psi = np.einsum("cim,cjm->ijm", np.conj(dlam), path.right)
    lam_dpsi = np.einsum("cim,cjm->ijm", np.conj(path.left), dpsi)
    trace_first_order = (1j * (dlam_psi[0, 1] * lam_dpsi[1, 0]
                               - dlam_psi[1, 0] * lam_dpsi[0, 1])
                         / (path.values[0] - path.values[1]))
    return float(np.abs(trace_first_order).max())


def first_order_correction_trace(loop, model):
    """Largest modulus along the loop of the first-order connection trace.

    The two cross terms cancel identically for biorthonormal frames, so
    this measures numerical consistency of independently differentiated
    left and right frames. Fourier differentiation of the periodic paths
    converges spectrally; the grid doubles from 4096 samples while the
    probe still improves and sits above 1e-9, so sharply localised frame
    features get resolved instead of polluting the estimate.
    """
    n = max(loop.n, 4096)
    value = _correction_max(loop, model, n)
    while value > 1e-9 and n < _MAX_SAMPLES:
        n *= 2
        probe = _correction_max(loop, model, n)
        if not probe < value:
            break
        value = probe
    return value

def assemble_two_level(p, phi):
    """Two-level matrix from the Pauli decomposition, term by term.

    The Hermitian part is the field vector contracted with the Pauli
    matrices on the sweep direction; the gain/loss part is written as
    three literal 2x2 blocks. No shared code with the library's
    coefficient-based construction.
    """
    sx, sy, cz = (math.sin(p.theta) * math.cos(phi),
                  math.sin(p.theta) * math.sin(phi),
                  math.cos(p.theta))
    herm = p.h_x * sx * SIGMA_X + p.h_y * sy * SIGMA_Y + p.h_z * cz * SIGMA_Z
    loss = (p.d_x * sx * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
            + p.d_y * sy * np.array([[0.0, -1.0j], [-1.0j, 0.0]], dtype=complex)
            + p.d_z * cz * np.array([[1.0j, 0.0], [0.0, -1.0j]], dtype=complex))
    return herm + loss


def dense_winding(values_fn, n=1 << 16):
    """Winding number of a complex path by dense unwrapped sampling."""
    grid = np.linspace(0.0, 2.0 * math.pi, n + 1)
    phases = np.unwrap(np.angle(values_fn(grid)))
    return (phases[-1] - phases[0]) / (2.0 * math.pi)


def bloch_matrix(v, v_prime, gamma, k, eps_a=0.0):
    """Bipartite Bloch matrix assembled directly, for cross-checks."""
    vk = v + v_prime * cmath.exp(-1j * k)
    return np.array([[eps_a, vk], [np.conj(vk), eps_a - 2j * gamma]],
                    dtype=complex)


def draw_two_level(rng, sign_region):
    """Random two-level parameters with both amplitudes clear of the lines.

    ``sign_region`` "positive" puts both gain/loss amplitudes on the same
    side of their field magnitudes (index 1); "negative" mixes the sides
    (index 0). Margins stay at least 0.07 from the singular set.
    """
    h_x = rng.uniform(0.5, 3.0)
    h_y = rng.uniform(0.5, 3.0)
    if sign_region == "positive":
        if rng.integers(2) == 0:
            d_x = rng.uniform(0.0, h_x - 0.07)
            d_y = rng.uniform(0.0, h_y - 0.07)
        else:
            d_x = rng.uniform(h_x + 0.07, h_x + 3.0)
            d_y = rng.uniform(h_y + 0.07, h_y + 3.0)
    elif sign_region == "negative":
        if rng.integers(2) == 0:
            d_x = rng.uniform(0.0, h_x - 0.07)
            d_y = rng.uniform(h_y + 0.07, h_y + 3.0)
        else:
            d_x = rng.uniform(h_x + 0.07, h_x + 3.0)
            d_y = rng.uniform(0.0, h_y - 0.07)
    else:
        raise ValueError(sign_region)
    from berryline import TwoLevelParams
    return TwoLevelParams(h_x=h_x, h_y=h_y, h_z=rng.uniform(-1.0, 1.0),
                          d_x=d_x, d_y=d_y, d_z=rng.uniform(-1.0, 1.0),
                          theta=rng.uniform(0.1, math.pi - 0.1))


def draw_bipartite(rng, region):
    """Random (q, eta) inside one gapped region, clear of its borders."""
    if region == "TYPE_I":
        q = rng.uniform(0.2, 3.0)
        while abs(q - 1.0) < 0.15:
            q = rng.uniform(0.2, 3.0)
        eta = rng.uniform(0.0, 0.9 * abs(q - 1.0))
    elif region == "TYPE_II":
        q = rng.uniform(0.2, 3.0)
        eta = rng.uniform(1.1 * (q + 1.0), 1.1 * (q + 1.0) + 1.0)
    else:
        raise ValueError(region)
    return q, eta


def scalar_rk4(model, schedule, psi0, dual=False, project=None,
               record_every=None):
    """Reference RK4 cycle: one scalar step at a time, no blocking.

    Steps psi one classical 4th-order step at a time in plain Python
    complex arithmetic, on the same half-step grid of ``model.entry_rows``
    as the library's blocked kernel, with the same stability guards.
    Without ``project`` the state is never rescaled; with ``project`` =
    (l0, l1) it also tracks the branch of c = l0 a + l1 b stepwise and
    renormalizes every 16 steps. Returns (psi, log_scale, turn, records)
    with psi(T) = psi * exp(log_scale); ``records`` lists (t, psi) every
    ``record_every`` steps, unscaled.
    """
    from berryline.errors import StepTooLarge
    T = schedule.period_T
    steps = schedule.steps
    h = T / steps
    t = np.arange(2 * steps + 1, dtype=float) * (0.5 * h)
    rows = model.entry_rows(np.asarray(schedule.path_function()(t), dtype=float))
    if dual:
        rows = np.conj(rows[[0, 2, 1, 3], :])
    e11, e12, e21, e22 = (r.tolist() for r in rows)
    a, b = complex(psi0[0]), complex(psi0[1])
    n2 = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
    log_scale = 0.0
    turn = 0.0
    records = []
    if project is not None:
        l0, l1 = complex(project[0]), complex(project[1])
        c_prev = l0 * a + l1 * b
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(steps):
        j = 2 * i
        p11 = e11[j]; p12 = e12[j]; p21 = e21[j]; p22 = e22[j]
        q11 = e11[j + 1]; q12 = e12[j + 1]; q21 = e21[j + 1]; q22 = e22[j + 1]
        r11 = e11[j + 2]; r12 = e12[j + 2]; r21 = e21[j + 2]; r22 = e22[j + 2]
        k1a = -1j * (p11 * a + p12 * b)
        k1b = -1j * (p21 * a + p22 * b)
        xa = a + half * k1a
        xb = b + half * k1b
        k2a = -1j * (q11 * xa + q12 * xb)
        k2b = -1j * (q21 * xa + q22 * xb)
        xa = a + half * k2a
        xb = b + half * k2b
        k3a = -1j * (q11 * xa + q12 * xb)
        k3b = -1j * (q21 * xa + q22 * xb)
        xa = a + h * k3a
        xb = b + h * k3b
        k4a = -1j * (r11 * xa + r12 * xb)
        k4b = -1j * (r21 * xa + r22 * xb)
        na = a + sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
        nb = b + sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
        m2 = (na.real * na.real + na.imag * na.imag
              + nb.real * nb.real + nb.imag * nb.imag)
        if m2 > 100.0 * n2:
            raise StepTooLarge(f"norm grew in step {i}", step=i,
                               growth=math.sqrt(m2 / n2))
        a, b, n2 = na, nb, m2
        if record_every is not None and (i + 1) % record_every == 0:
            records.append(((i + 1) * h, np.array([a, b])))
        if project is None:
            continue
        c_new = l0 * a + l1 * b
        ratio = c_new / c_prev
        step_turn = math.atan2(ratio.imag, ratio.real)
        if abs(step_turn) > 1.5:
            raise StepTooLarge(f"turn too fast at step {i}", step=i,
                               growth=None)
        turn += step_turn
        c_prev = c_new
        if i & 15 == 15 and n2 > 0.0:
            log_scale += 0.5 * math.log(n2)
            inv = 1.0 / math.sqrt(n2)
            a *= inv
            b *= inv
            c_prev *= inv
            n2 = 1.0
    return np.array([a, b]), log_scale, turn, records

"""Independent oracles shared by the test modules.

Every function here reaches a target quantity by a route the library
does not use: arithmetic-geometric-mean iteration and scipy adaptive
quadrature for the elliptic integrals, double-exponential quadrature of
the chain's gapless split integrals, the chain's elliptic reduction in
60-digit arithmetic, characteristic-polynomial roots
and a generic 2x2 biorthogonal solver for eigen-systems (with the
``DefectiveMatrix`` error it raises at a Jordan block), Pauli-matrix
assembly for the two-level Hamiltonian, finite differences of the frame
for the connection, Fourier differentiation of the left and right
frames (with ``quadrature.spectral_derivative``) for the first-order
connection trace, the closed-form rate of the chain's
hopping phase, dense unwrapped sampling for windings, the
chain-only rule for a gapped chain row's start rung and node map, the
rung-by-rung refinement that builds one frame per rung, the RK4 step
matrices composed on whole (2, 2, N) stacks by broadcasting, the
two-level energies on the branch of ``np.unwrap``, and the exact cycle of
a rotation-covariant two-level loop in the frame that rotates with its
drive.
Agreement between these and the library is evidence, not tautology.
``matrix_at``, ``point_system`` and ``refined_chain_rows`` are the plain
helpers: they read the library's own matrix and eigen frame at a point,
and the chain rows its point evaluator refines, for the checks against
these routes.
"""

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate

from berryline import berry
from berryline.berry import (_GAMMA_TOL, _PASS_SAMPLES, _ROUND_TOL,
                             _ROUTE_TOL, BerryPhaseResult, _wilson_q)
from berryline.errors import (BerrylineError, DegenerateSpectrum,
                              Disagreement, NotConverged, PathTooCoarse,
                              SingularLoop, UndefinedAtTransition)
from berryline.models import (_MAX_SAMPLES, _TWO_PI, TWO_LEVEL,
                              _radicand_extremes, _two_level_offdiag,
                              band_index, loop_grid)
from berryline.quadrature import (spectral_derivative, tanh_sinh,
                                  trapezoid_periodic)
from berryline.spectrum import GAPLESS_TRUE_CROSSING


class DefectiveMatrix(BerrylineError):
    """The eigenvector matrix is numerically singular (Jordan-like block)."""


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


def closed_form_mp(q, eta):
    """(x, y) of the chain's plus-band phase pi [q > 1] + x + i y, to 60 digits.

    The same Byrd & Friedman reduction as ``elliptic``, K + c Pi(n | m),
    evaluated by mpmath from the exact float inputs: every difference
    that loses digits in floating point next to q = 1 (1 - n above all)
    is exact here. Below eta = |q - 1| the real part x is 0; beyond
    eta = q + 1 the imaginary part y is 0, and the same reduction runs at
    a negative parameter m = 1 - r(pi) / r(0).
    """
    with mpmath.workdps(60):
        q, eta = mpmath.mpf(q), mpmath.mpf(eta)
        r0 = (1 + q - eta) * (1 + q + eta)
        rpi = (q - 1) ** 2 - eta ** 2

        def part(c, n, m):
            return mpmath.ellipk(m) + c * mpmath.ellippi(n, m)

        if rpi > 0 or r0 < 0:
            value = eta / mpmath.sqrt(abs(r0)) * part(
                (q - 1) / (q + 1), 4 * q / (q + 1) ** 2, 1 - rpi / r0)
            return (float(value), 0.0) if r0 < 0 else (0.0, float(value))
        scale = eta / (2 * mpmath.sqrt(q))
        inner = part((q - 1) / (q + 1), r0 / (q + 1) ** 2, 1 + rpi / (4 * q))
        outer = part((q + 1) / (q - 1), rpi / (q - 1) ** 2, 1 - r0 / (4 * q))
        return float(scale * outer), float(scale * inner)


def char_poly_eigs(matrix):
    """Eigenvalues as roots of z^2 - tr z + det, ordered like eig2."""
    m = np.asarray(matrix, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    roots = np.roots([1.0, -tr, det])
    return sorted(roots, key=lambda z: (-z.real, -z.imag))


def matrix_at(model, alpha):
    """The library's 2x2 matrix of a model at one loop parameter."""
    u = np.exp(1j * np.array([float(alpha)]))
    return model.entry_rows(u)[:, 0].reshape(2, 2)


def refined_chain_rows(cells):
    """The rows ``bipartite_phase_point`` refines for these cells, sorted: a
    gapped cell's own (q, eta), or the lossless row (q, 0) of a closed-form
    cell; a cell at q = 1 has none."""
    rows = set()
    for q, eta in cells:
        try:
            gapless = berry._closed_form_region(q, eta)
        except UndefinedAtTransition:
            continue
        rows.add((q, 0.0) if gapless else (q, eta))
    return sorted(rows)


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
        h = loop.period / n
        # two ghost samples on each side of the n loop samples
        path = model.eigen_path(loop.samples[0] + np.arange(-2, n + 2) * h)

        def right(shift):
            return path.right[:, :, 2 + shift:2 + n + shift]

        dpsi = (right(-2) - 8.0 * right(-1)
                + 8.0 * right(1) - right(2)) / (12.0 * h)
        left = np.conj(path.left[:, :, 2:2 + n])
        a_fd = 1j * np.einsum("cim,cjm->ijm", left, dpsi)
        a_ref = path.connection[:, 2:2 + n]
        worst = float(np.abs(a_fd[[0, 1], [0, 1]] - a_ref).max())
        if worst <= 1e-8 * max(1.0, float(np.abs(a_ref).max())):
            return a_fd[:, :, ::refine]
    raise AssertionError(
        "finite-difference and closed-form connections still disagree at "
        f"4x refinement (worst {worst:.3e})")


def _correction_max(loop, model, n):
    path = model.eigen_path(loop_grid(loop, n))
    dpsi = spectral_derivative(path.right, loop.period)
    dlam = spectral_derivative(path.left, loop.period)
    right, left = path.right[..., :n], path.left[..., :n]
    dlam_psi = np.einsum("cim,cjm->ijm", np.conj(dlam), right)
    lam_dpsi = np.einsum("cim,cjm->ijm", np.conj(left), dpsi)
    trace_first_order = (1j * (dlam_psi[0, 1] * lam_dpsi[1, 0]
                               - dlam_psi[1, 0] * lam_dpsi[0, 1])
                         / (path.values[0, :n] - path.values[1, :n]))
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


def _expm_i(k, t):
    """exp(-i K t) of a 2x2 matrix K at the times t, in closed form: (2, 2, n).

    K = k0 I + K' with K' traceless, so K'^2 = d^2 I and exp(-i K t) =
    exp(-i k0 t) (cos(d t) I - i sin(d t) / d K'), even in the root d.
    """
    t = np.asarray(t, dtype=float)
    k0 = 0.5 * (k[0, 0] + k[1, 1])
    kp = k - k0 * np.eye(2)
    d = np.sqrt(complex(kp[0, 0] ** 2 + kp[0, 1] * kp[1, 0]))
    cos = np.cos(d * t)
    sinc = t * np.sinc(d * t / np.pi) if d != 0 else t.astype(complex)
    out = cos * np.eye(2)[..., None] - 1j * sinc * kp[..., None]
    return out * np.exp(-1j * k0 * t)


def _rotating_generator(params, T, dual):
    """K = H(0) - (pi / T) sigma_z: a rotation-covariant loop, frozen.

    With h_x = h_y and d_x = d_y, H(phi) = U H(0) U^dagger for U =
    diag(exp(-i phi / 2), exp(i phi / 2)), so in the frame that rotates
    with the drive phi = 2 pi t / T the matrix is constant (Rabi, Phys.
    Rev. 51, 652 (1937)). A dual run follows H^dagger, covariant alike.
    """
    if params.h_x != params.h_y or params.d_x != params.d_y:
        raise ValueError("the loop is not rotation-covariant")
    h = assemble_two_level(params, 0.0)
    return (np.conj(h.T) if dual else h) - (math.pi / T) * SIGMA_Z


def exact_cycle(params, T, psi0, dual=False):
    """psi(T) of one cycle of a rotation-covariant two-level loop, exactly.

    psi(t) = U(phi(t)) exp(-i K t) psi0, and U(2 pi) = -I, so psi(T) =
    -exp(-i K T) psi0 with K of ``_rotating_generator``.
    """
    k = _rotating_generator(params, T, dual)
    return -_expm_i(k, [T])[..., 0] @ np.asarray(psi0, dtype=complex)


def exact_total_phase(params, T, band, samples):
    """-i log c(T) / c(0) on the continuous branch of c = lambda . psi(t).

    psi starts in the band's right eigenvector at phi = 0 and lambda is
    its left one there. c(t) is exact at every t, so its argument is
    unwrapped over ``samples`` equal steps, which must each turn it by
    less than pi.
    """
    from berryline.models import TwoLevelModel
    system = point_system(TwoLevelModel(params), 0.0)
    right, left = system.right(band), system.left(band)
    t = np.linspace(0.0, T, samples + 1)
    phi = (2.0 * math.pi / T) * t
    psi = np.einsum("ijn,j->in", _expm_i(_rotating_generator(params, T, False), t),
                    right)
    psi *= np.exp(np.array([-0.5j, 0.5j])[:, None] * phi)
    c = np.conj(left) @ psi / (np.conj(left) @ right)
    turns = np.angle(c[1:] / c[:-1])
    assert np.abs(turns).max() < 0.5 * math.pi
    return complex(turns.sum(), -math.log(abs(c[-1])))


def winding_rate(params, alphas):
    """d theta / dk of the chain's off-diagonal phase, finite for all q != 1."""
    k = np.asarray(alphas, dtype=float)
    # |v_k|^2 = (v - v')^2 + 4 v v' cos^2(k / 2), without cancellation at pi
    v, v_prime = params.v, params.v_prime
    mod2 = (v - v_prime) ** 2 + 4.0 * v * v_prime * np.cos(0.5 * k) ** 2
    return v_prime * (v_prime + v * np.cos(k)) / mod2


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


def unwrapped_two_level_energies(params, phasors):
    """Both two-level energy branches at phasors exp(i phi), shape (2, M).

    sqrt|w| exp(i arg_w / 2) with arg w unwrapped by ``np.unwrap`` from
    its principal value at the first phasor: the branch rule the
    library's principal root with sign flips must reproduce. The radicand
    w is the library's, so only the root and its branch differ.
    """
    u = np.asarray(phasors, dtype=complex)
    st = math.sin(params.theta)
    a = complex(params.h_z, params.d_z) * math.cos(params.theta)
    c1, c2 = _two_level_offdiag(params, u.real, u.imag)
    w = a * a + c1 * c2 * (st * st)
    e = np.sqrt(np.abs(w)) * np.exp(0.5j * np.unwrap(np.angle(w)))
    return np.stack([e, -e])


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


def chain_grid(q, eta):
    """Start rung and node map of a gapped chain row, by the chain-only rule.

    Returns (n, b) for the momenta k(t) = t - b sin t at uniform loop
    nodes t. The exceptional points sit acosh|c| off the real axis, with
    cos k = c = (eta^2 - 1 - q^2) / (2 q), at Re k = pi below eta =
    |q - 1| and at Re k = 0 above eta = q + 1; the zero of v_k sits at
    k = pi + i |ln q|. With the nearer one at distance a, beta = (y - a)
    / sinh y with y = a^(1/3), b = beta at centre 0 and -beta at centre
    pi. The rung is the strip rung of y, capped at 32768 and doubled
    while w = ln(1e9) / n and a far singularity at the opposite point
    (distance a') leave w + beta sinh w > a'; b = 0 where that rung is no
    lower than the capped rung of a on the uniform grid.
    """
    decay = -math.log(1e-9)
    cap = _MAX_SAMPLES // 2

    def rung(width):
        n = 16
        while n < cap and width * n < decay:
            n *= 2
        return n

    rpi, r0 = _radicand_extremes(q, eta)
    delta = (rpi if rpi > 0.0 else -r0) / (2.0 * q)
    exceptional = math.log1p(delta + math.sqrt(delta * (delta + 2.0)))
    hopping = abs(math.log(q))
    at_zero = rpi < 0.0
    near, far = sorted((exceptional, hopping))
    uniform = rung(near)
    y = near ** (1.0 / 3.0)
    beta = (y - near) / math.sinh(y)
    n = rung(y)
    if at_zero:
        while n < cap and decay / n + beta * math.sinh(decay / n) > far:
            n *= 2
    if n >= uniform:
        return uniform, 0.0
    return n, (beta if at_zero and exceptional <= hopping else -beta)


_EYE = np.eye(2)[:, :, None]


def _apply(a, x):
    """Matrices a[row, col, ...] times the column vectors x[row, ...]."""
    y = a[:, 0, None] * x[0]
    y += a[:, 1, None] * x[1]
    return y


def broadcast_step_matrices(seg):
    """RK4 step matrices M[:, :, n] of the (4, 2 N + 1) entry rows ``seg``.

    The composition M = (P + 2 x2 + x3 + R x3) / 3 with x2 = I + Q (I +
    P) and x3 = I + 2 Q x2 of the rows at t_n, t_n + h/2 and t_n + h, on
    whole (2, 2, N) stacks with I broadcast: the reference for the step
    polynomial of ``evolution._step_polynomial``.
    """
    p, q, r = (e.reshape(2, 2, -1)
               for e in (seg[:, :-1:2], seg[:, 1::2], seg[:, 2::2]))
    x2 = _apply(q, p + _EYE) + _EYE
    x3 = 2.0 * _apply(q, x2) + _EYE
    acc = _apply(r, x3) + x3 + 2.0 * x2 + p
    return acc * (1.0 / 3.0)


def scalar_rk4(model, schedule, psi0, dual=False, project=None,
               record_every=None, rescale=False):
    """Reference RK4 cycle: one scalar step at a time, no blocking.

    Steps psi one classical 4th-order step at a time in plain Python
    complex arithmetic, with the same stability guards as the library's
    blocked kernel. Its ``model.entry_rows`` come on the half-step grid,
    from cosines and sines of the drive angle (t / T) 2 pi, where the
    kernel evaluates its step polynomial at a table of phasors.
    With ``project`` = (l0, l1) it tracks the branch of c = l0 a + l1 b
    stepwise. With ``project`` or ``rescale`` it renormalizes every 16
    steps; otherwise the state is never rescaled. Returns (psi, log_scale, turn, records)
    with psi(T) = psi * exp(log_scale); ``records`` lists (t, psi) every
    ``record_every`` steps, unscaled.
    """
    from berryline.errors import StepTooLarge
    T = schedule.period_T
    steps = schedule.steps
    h = T / steps
    t = np.arange(2 * steps + 1, dtype=float) * (0.5 * h)
    alpha = (t / T) * _TWO_PI
    rows = model.entry_rows(np.cos(alpha) + 1j * np.sin(alpha))
    if dual:
        rows = np.conj(rows[[0, 2, 1, 3], :])
    e11, e12, e21, e22 = (r.tolist() for r in rows)
    a, b = complex(psi0[0]), complex(psi0[1])
    n2 = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
    log_scale = 0.0
    turn = 0.0
    records = []
    c_prev = 0.0
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
        if project is not None:
            c_new = l0 * a + l1 * b
            ratio = c_new / c_prev
            step_turn = math.atan2(ratio.imag, ratio.real)
            if abs(step_turn) > 1.5:
                raise StepTooLarge(f"turn too fast at step {i}", step=i,
                                   growth=None)
            turn += step_turn
            c_prev = c_new
        if (project is not None or rescale) and i & 15 == 15 and n2 > 0.0:
            log_scale += 0.5 * math.log(n2)
            inv = 1.0 / math.sqrt(n2)
            a *= inv
            b *= inv
            c_prev *= inv
            n2 = 1.0
    return np.array([a, b]), log_scale, turn, records


def settled_phases(loop, frames, starts):
    """The refinement of ``berry._settled_phases``, one frame per rung.

    The reference route for the nested first rung: every rung, a row's
    first included, builds its own frame stack at its own sample count,
    so rung n never reads the samples of rung 2n. Arguments and outcomes
    are those of ``berry._settled_phases``.
    """
    outcomes = [None] * len(starts)
    rung_of = dict(enumerate(starts))
    history = {row: [] for row in rung_of}
    prev = {}
    conflict = {}
    while rung_of and min(rung_of.values()) <= _MAX_SAMPLES:
        n = min(rung_of.values())
        at_n = [row for row, m in rung_of.items() if m == n]
        size = max(1, _PASS_SAMPLES // n)
        for rows in (at_n[k:k + size] for k in range(0, len(at_n), size)):
            stack = frames(loop_grid(loop, n), rows)
            phases = q_quad = None       # no row has a frame
            if stack.connection is not None:
                phases = trapezoid_periodic(stack.connection[..., :n],
                                            loop.period)
                q_quad = (trapezoid_periodic(stack.trace[..., :n],
                                             loop.period).real
                          / _TWO_PI).tolist()
            settling = []
            for i, (row, error) in enumerate(zip(rows, stack.errors)):
                rung_of[row] = 2 * n
                if isinstance(error, PathTooCoarse):
                    prev.pop(row, None)
                    continue
                if error is not None:
                    outcomes[row] = error
                    del rung_of[row]
                    continue
                bands = phases[:, i].tolist()
                history[row].append((n, q_quad[i]))
                last = prev.get(row)
                if last is not None and all(
                        abs(g - old) < _GAMMA_TOL for g, old in zip(bands, last)):
                    settling.append((i, row, bands))
                prev[row] = bands
            if not settling:
                continue
            right, left = stack.kets([i for i, _, _ in settling])
            q_wilson = _wilson_q(right, left, n).tolist()
            for (i, row, (plus, minus)), q_w in zip(settling, q_wilson):
                q_q = q_quad[i]
                if not abs(q_q - q_w) <= _ROUTE_TOL:
                    conflict[row] = (q_q, q_w)
                    continue
                nearest = round(q_q)
                outcomes[row] = BerryPhaseResult(
                    gamma_b_plus=plus.real, xi_b_plus=plus.imag,
                    gamma_b_minus=minus.real, xi_b_minus=minus.imag,
                    q_index=q_q,
                    q_rounded=(nearest if abs(q_q - nearest) < _ROUND_TOL
                               else None),
                    resolution=n, refinement_history=history[row],
                    q_wilson=q_w)
                del rung_of[row]
    for row in rung_of:
        if row in conflict and not math.isnan(conflict[row][1]):
            values = conflict[row]
            outcomes[row] = Disagreement(
                "trace quadrature and Wilson loop give different indices "
                f"({values[0]:.9f} vs {values[1]:.9f})", values=values)
        else:
            outcomes[row] = NotConverged(
                f"per-band phases still moving at {_MAX_SAMPLES} samples",
                history=history[row])
    return outcomes


def uniform_route(loop, model):
    """The dual-route refinement on the loop's uniform grid, from ``loop.n``.

    The reference for the node-mapped point evaluators: the model's own
    frame at the loop's parameters, no node map, every rung anchored at
    ``loop.samples[0]`` and the first at ``loop.n`` itself, which at
    65536 leaves no second rung. It calls ``berry._settled_phases``
    through the module, so a test that replaces that refinement replaces
    it here too. Refuses what ``berry.global_berry_phase`` refuses before
    any frame: a two-level loop on a singular line and a chain loop whose
    spectrum crosses with SingularLoop, a chain at hopping ratio 1 with
    UndefinedAtTransition.
    """
    p = model.params
    if model.kind == TWO_LEVEL:
        if p.is_singular():
            raise SingularLoop(
                "an off-diagonal amplitude vanishes somewhere on every sweep")
    elif berry._closed_form_region(p.q, p.eta) == GAPLESS_TRUE_CROSSING:
        raise SingularLoop(
            "the loop crosses a true degeneracy of the complex spectrum")
    return berry._raised(berry._settled_phases(
        loop, lambda alphas, rows: model._rows(alphas), [loop.n]))

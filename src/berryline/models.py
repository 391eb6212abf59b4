"""The two Hamiltonian families and the loops they are driven around.

Family one is a driven two-level system: a real field (h_x, h_y, h_z) on
the Bloch sphere plus imaginary amplitudes (d_x, d_y, d_z) that make the
matrix non-Hermitian, swept in the azimuthal angle phi at fixed polar
angle theta. Family two is a two-site-per-cell chain with loss on one
sublattice, described in momentum space by a 2x2 Bloch matrix swept over
the zone k in (-pi, pi].

Both families come with closed-form eigen frames built along whole loops:
branch angles are continuously unwrapped, dual (left) vectors are paired
so <lambda_i|psi_j> = delta_ij holds to roundoff, and the analytic
parameter derivative of the frame is packaged as a 2x2 connection at
every sample. Downstream phase integration consumes these paths.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from .biortho import BiorthoEigenSystem, ComplexMatrix2
from .errors import (
    BadResolution,
    DegenerateSpectrum,
    SingularParameters,
    TrueCrossing,
)
from .quadrature import PAD, unwrap_checked

TWO_LEVEL = "two-level"
BIPARTITE = "bipartite"

_TWO_PI = 2.0 * math.pi


def _require_finite(obj, names):
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class TwoLevelParams:
    """Field components, non-Hermitian amplitudes, and the fixed polar angle."""

    h_x: float
    h_y: float
    h_z: float
    d_x: float
    d_y: float
    d_z: float
    theta: float

    def __post_init__(self):
        for name in ("h_x", "h_y", "h_z", "d_x", "d_y", "d_z", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _require_finite(self, ("h_x", "h_y", "h_z", "d_x", "d_y", "d_z", "theta"))
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    def is_singular(self, tol=1e-12):
        """True when an amplitude magnitude matches its field magnitude.

        On those lines one off-diagonal entry of the matrix vanishes at
        some point of every azimuthal loop, and the winding index loses
        its meaning.
        """
        return (abs(abs(self.d_x) - abs(self.h_x)) <= tol
                or abs(abs(self.d_y) - abs(self.h_y)) <= tol)


def _at_transition(q):
    """True at hopping ratio 1, where v_k vanishes at k = pi and Q jumps."""
    return abs(q - 1.0) <= 1e-12


def _check_ratios(q, eta):
    """Refuse ratios outside the chain's quadrant: finite q > 0, eta >= 0."""
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be nonnegative and finite, got {eta}")


@dataclass(frozen=True)
class TwoLevelDerived:
    """Closed-form intermediates at a single azimuthal angle.

    ``chi`` is the complex mixing angle of the eigen frame; ``nu1``/``nu2``
    are the phases of the two off-diagonal entries, combined into
    ``nu_plus``/``nu_minus``; ``rho`` is the amplitude asymmetry entering
    the frame normalization.
    """

    z: complex
    r_plus: float
    r_minus: float
    nu1: float
    nu2: float
    nu_plus: float
    nu_minus: float
    rho: float
    chi: complex


@dataclass(frozen=True)
class BipartiteParams:
    """Lattice parameters: one lossy sublattice, two hopping amplitudes."""

    v: float
    v_prime: float
    gamma: float
    eps_a: float = 0.0

    def __post_init__(self):
        for name in ("v", "v_prime", "gamma", "eps_a"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _require_finite(self, ("v", "v_prime", "gamma", "eps_a"))
        if self.v <= 0.0:
            raise ValueError(f"v must be positive, got {self.v}")
        if self.v_prime < 0.0:
            raise ValueError(f"v_prime must be nonnegative, got {self.v_prime}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")

    @classmethod
    def from_ratios(cls, q, eta, v=1.0, eps_a=0.0):
        """Build parameters from the hopping ratio q and loss ratio eta."""
        return cls(v=v, v_prime=q * v, gamma=eta * v, eps_a=eps_a)

    @property
    def q(self):
        return self.v_prime / self.v

    @property
    def eta(self):
        return self.gamma / self.v

    @property
    def eps_b(self):
        # the lossy on-site energy is derived, never stored
        return self.eps_a - 2j * self.gamma


@dataclass(frozen=True)
class BipartiteDerived:
    """Closed-form intermediates at a single momentum."""

    theta_k: float
    chi_k: complex
    v_k: complex
    radicand: float


@dataclass(frozen=True)
class ParameterLoop:
    """Uniform dyadic discretization of one closed parameter cycle.

    Samples cover exactly one period: the implied closure point
    samples[0] + period is not stored. Sample counts are powers of two,
    at least 16, so grids refine by doubling without moving nodes.
    """

    samples: np.ndarray
    period: float
    kind: str

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "period", float(self.period))
        arr.flags.writeable = False
        if self.kind not in (TWO_LEVEL, BIPARTITE):
            raise ValueError(f"unknown loop kind {self.kind!r}")
        if arr.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        n = arr.size
        if n < 16 or n & (n - 1):
            raise BadResolution(
                f"loop needs a power-of-two sample count of at least 16, got {n}")
        if not self.period > 0.0:
            raise ValueError("period must be positive")
        h = self.period / n
        diffs = np.diff(arr)
        if np.any(diffs <= 0.0):
            raise ValueError("samples must increase strictly")
        if np.max(np.abs(diffs - h)) > 1e-12 * self.period:
            raise ValueError("samples must be uniformly spaced")
        if abs((arr[-1] - arr[0]) - (self.period - h)) > 1e-12 * self.period:
            raise ValueError("samples must span exactly one period")

    @property
    def n(self):
        return self.samples.size

    @property
    def spacing(self):
        return self.period / self.samples.size


def _zone_grid(n):
    """n uniform momenta over the Brillouin zone (-pi, pi], pi included."""
    return -math.pi + (np.arange(n) + 1) * (_TWO_PI / n)


def standard_loop(kind, n):
    """The default closed loop: phi over [0, 2pi) or k over (-pi, pi]."""
    if kind == TWO_LEVEL:
        samples = np.arange(n) * (_TWO_PI / n)
    elif kind == BIPARTITE:
        samples = _zone_grid(n)
    else:
        raise ValueError(f"unknown loop kind {kind!r}")
    return ParameterLoop(samples=samples, period=_TWO_PI, kind=kind)


def loop_grid(loop, refine=1):
    """Padded evaluation grid for a loop at ``refine`` times its resolution.

    Returns (alphas, spacing, n) where alphas holds n + 2*PAD uniformly
    spaced values starting PAD steps before the loop anchor; index PAD + n
    is the closure point one full period past the anchor.
    """
    n = loop.n * int(refine)
    h = loop.period / n
    alphas = loop.samples[0] + np.arange(-PAD, n + PAD) * h
    return alphas, h, n


@dataclass(frozen=True)
class EigenPath:
    """Closed-form eigen frame evaluated along a grid of loop parameters.

    Axis convention: ``right[c, b, m]`` is component c of band b's right
    vector at sample m, and ``left`` holds the dual kets in the same
    layout. ``connection[i, j, m]`` is i<lambda_i|d psi_j> from the
    analytic parameter derivative of the frame. ``winding_phase`` is the
    unwrapped angle whose net advance carries the topological index, and
    ``chi`` the unwrapped complex mixing angle.
    """

    alphas: np.ndarray
    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    connection: np.ndarray
    trace_connection: np.ndarray
    winding_phase: np.ndarray
    chi: np.ndarray


def two_level_hamiltonian(p, phi):
    """Matrix of the two-level family at azimuthal angle phi."""
    return TwoLevelModel(p).matrix(phi)


def bipartite_bloch(p, k):
    """Bloch matrix of the lossy chain at momentum k."""
    return BipartiteModel(p).matrix(k)


def _two_level_axes(p):
    """Semi-axes (a_p, a_m, b_p, b_m) of the ellipses c1 and c2 trace in phi."""
    return p.h_x + p.d_x, p.h_x - p.d_x, p.h_y + p.d_y, p.h_y - p.d_y


def _two_level_offdiag(p, cphi, sphi):
    """Off-diagonal pair (c1, c2) of the two-level matrix, less sin(theta).

    Their phases carry the winding: the global index is 1 exactly when
    (d_x^2 - h_x^2)(d_y^2 - h_y^2) > 0.
    """
    a_p, a_m, b_p, b_m = _two_level_axes(p)
    return a_p * cphi - 1j * b_p * sphi, a_m * cphi + 1j * b_m * sphi


def _hopping(p, k):
    """Off-diagonal Bloch entry v_k = v + v' exp(-ik) of the chain."""
    return p.v + p.v_prime * np.exp(-1j * k)


def _chain_radicand(v, v_prime, gamma, cos_k):
    """|v_k|^2 - gamma^2: zero at the exceptional points, |v_k|^2 at gamma = 0."""
    return v * v + v_prime * v_prime + 2.0 * v * v_prime * cos_k - gamma * gamma


def _frame_connection(g, cos_chi, sin_chi, d_chi):
    """Connection i<lambda_i|d psi_j> of a frame with complex mixing angle chi.

    ``g`` is the connection trace and ``d_chi`` the derivative of chi.
    """
    app = 0.5 * g * (1.0 + cos_chi)
    amm = 0.5 * g * (1.0 - cos_chi)
    apm = -0.5 * g * sin_chi - 0.5j * d_chi
    amp = -0.5 * g * sin_chi + 0.5j * d_chi
    return np.stack([np.stack([app, apm]), np.stack([amp, amm])])


def _two_level_frame(p, phi):
    """All closed-form arrays of the two-level family on a phi grid."""
    phi = np.asarray(phi, dtype=float)
    a_p, a_m, b_p, b_m = _two_level_axes(p)
    amp_scale = max(1.0, abs(a_p), abs(a_m), abs(b_p), abs(b_m))
    cphi = np.cos(phi)
    sphi = np.sin(phi)
    c1, c2 = _two_level_offdiag(p, cphi, sphi)
    r_p = np.abs(c1)
    r_m = np.abs(c2)
    if min(r_p.min(), r_m.min()) <= 1e-12 * amp_scale:
        raise SingularParameters(
            "an off-diagonal amplitude vanishes at a sampled angle; the dual "
            "frame is undefined there")
    nu1 = unwrap_checked(np.angle(c1))
    nu2 = unwrap_checked(np.angle(c2))
    nu_minus = 0.5 * (nu2 - nu1)
    nu_plus = 0.5 * (nu2 + nu1)
    rho = np.sqrt(r_p / r_m)
    st = math.sin(p.theta)
    ct = math.cos(p.theta)
    z = complex(p.h_z, p.d_z)
    a = z * ct
    b = np.sqrt(r_p * r_m) * np.exp(1j * nu_plus) * st
    w = a * a + b * b
    aw = np.abs(w)
    if aw.min() <= 1e-12 * max(1.0, aw.max()):
        raise DegenerateSpectrum(
            "the two branches touch at a sampled angle of this loop",
            gap=2.0 * math.sqrt(aw.min()))
    # branch of the square root follows the unwrapped argument, so the
    # energy is continuous along the sweep
    e = np.sqrt(aw) * np.exp(0.5j * unwrap_checked(np.angle(w)))
    u = (a + 1j * b) / e
    chi = unwrap_checked(np.angle(u)) - 1j * np.log(np.abs(u))
    half = 0.5 * chi
    ch2 = np.cos(half)
    sh2 = np.sin(half)
    phase = np.exp(-1j * nu_minus)
    right = np.stack([
        np.stack([rho * phase * ch2, sh2]),
        np.stack([-rho * phase * sh2, ch2]),
    ], axis=1)
    left = np.stack([
        np.stack([(phase / rho) * np.conj(ch2), np.conj(sh2)]),
        np.stack([-(phase / rho) * np.conj(sh2), np.conj(ch2)]),
    ], axis=1)

    dln_rp = (b_p * b_p - a_p * a_p) * sphi * cphi / (r_p * r_p)
    dln_rm = (b_m * b_m - a_m * a_m) * sphi * cphi / (r_m * r_m)
    d_nu1 = -a_p * b_p / (r_p * r_p)
    d_nu2 = a_m * b_m / (r_m * r_m)
    g = 0.5j * (dln_rp - dln_rm) + 0.5 * (d_nu2 - d_nu1)
    cos_chi = a / e
    sin_chi = b / e
    d_chi = sin_chi * cos_chi * (
        0.5 * (dln_rp + dln_rm) + 0.5j * (d_nu2 + d_nu1))
    return SimpleNamespace(
        alphas=phi, c1=c1, c2=c2, r_p=r_p, r_m=r_m, nu1=nu1, nu2=nu2,
        nu_plus=nu_plus, nu_minus=nu_minus, rho=rho, z=z,
        values=np.stack([e, -e]), right=right, left=left,
        connection=_frame_connection(g, cos_chi, sin_chi, d_chi),
        trace=g, winding=nu_minus, chi=chi)


def _bipartite_frame(p, k):
    """All closed-form arrays of the lossy chain on a k grid."""
    k = np.asarray(k, dtype=float)
    vk = _hopping(p, k)
    mod = np.abs(vk)
    rad = mod * mod - p.gamma * p.gamma
    if np.abs(rad).min() <= 1e-12 * max(1.0, (p.v + p.v_prime) ** 2, p.gamma ** 2):
        raise TrueCrossing(
            "the two complex energies coincide at a sampled momentum")
    if mod.min() <= 1e-12 * max(1.0, p.v + p.v_prime):
        # hoppings interfere to zero: the real parts of the two energies
        # merge there, and the off-diagonal phase has no value either
        raise TrueCrossing(
            "the hoppings cancel at a sampled momentum and the real parts "
            "of the two energies merge")
    s = np.sqrt(rad.astype(complex))
    theta = -unwrap_checked(np.angle(vk))
    u = 1j * (p.gamma + mod) / s
    chi = unwrap_checked(np.angle(u)) - 1j * np.log(np.abs(u))
    half = 0.5 * chi
    ch2 = np.cos(half)
    sh2 = np.sin(half)
    phase = np.exp(-1j * theta)
    right = np.stack([
        np.stack([phase * ch2, sh2]),
        np.stack([-phase * sh2, ch2]),
    ], axis=1)
    left = np.stack([
        np.stack([phase * np.conj(ch2), np.conj(sh2)]),
        np.stack([-phase * np.conj(sh2), np.conj(ch2)]),
    ], axis=1)

    centroid = p.eps_a - 1j * p.gamma
    cos_chi = 1j * p.gamma / s
    sin_chi = mod / s
    d_mod = -p.v * p.v_prime * np.sin(k) / mod
    d_theta = p.v_prime * (p.v_prime + p.v * np.cos(k)) / (mod * mod)
    d_chi = 1j * p.gamma * d_mod / (s * s)
    return SimpleNamespace(
        alphas=k, v_k=vk, mod=mod, rad=rad, theta=theta,
        values=np.stack([centroid + s, centroid - s]), right=right, left=left,
        connection=_frame_connection(d_theta, cos_chi, sin_chi, d_chi),
        trace=d_theta.astype(complex), winding=theta, chi=chi)


def _path_from_frame(frame):
    return EigenPath(
        alphas=frame.alphas, values=frame.values, right=frame.right,
        left=frame.left, connection=frame.connection,
        trace_connection=frame.trace, winding_phase=frame.winding,
        chi=frame.chi)


def _point_system(f):
    """Eigen-system of a frame evaluated at a single point."""
    return BiorthoEigenSystem(
        eigenvalues=f.values[:, 0].copy(),
        right_vectors=f.right[:, :, 0].copy(),
        left_vectors=f.left[:, :, 0].copy())


def two_level_closed_form(p, phi):
    """Closed-form intermediates and eigen-system at one azimuthal angle.

    Branch angles are anchored at their principal values here; loop-level
    evaluation unwraps them continuously instead.
    """
    f = _two_level_frame(p, np.array([float(phi)]))
    derived = TwoLevelDerived(
        z=f.z, r_plus=float(f.r_p[0]), r_minus=float(f.r_m[0]),
        nu1=float(f.nu1[0]), nu2=float(f.nu2[0]),
        nu_plus=float(f.nu_plus[0]), nu_minus=float(f.nu_minus[0]),
        rho=float(f.rho[0]), chi=complex(f.chi[0]))
    return derived, _point_system(f)


def bipartite_closed_form(p, k):
    """Closed-form intermediates and eigen-system at one momentum."""
    f = _bipartite_frame(p, np.array([float(k)]))
    derived = BipartiteDerived(
        theta_k=float(f.theta[0]), chi_k=complex(f.chi[0]),
        v_k=complex(f.v_k[0]), radicand=float(f.rad[0]))
    return derived, _point_system(f)


@dataclass(frozen=True)
class TwoLevelModel:
    """Loop-evaluation adapter around TwoLevelParams."""

    params: TwoLevelParams
    kind: ClassVar[str] = TWO_LEVEL
    period: ClassVar[float] = _TWO_PI

    def matrix(self, alpha):
        return ComplexMatrix2(*self.entry_rows(np.array([float(alpha)]))[:, 0])

    def eigen_path(self, alphas):
        return _path_from_frame(_two_level_frame(self.params, alphas))

    def energies(self, alphas):
        """Both energy branches on a grid, continuous along it, shape (2, M)."""
        p = self.params
        phi = np.asarray(alphas, dtype=float)
        st = math.sin(p.theta)
        ct = math.cos(p.theta)
        a = complex(p.h_z, p.d_z) * ct
        c1, c2 = _two_level_offdiag(p, np.cos(phi), np.sin(phi))
        w = a * a + c1 * c2 * (st * st)
        e = np.sqrt(np.abs(w)) * np.exp(0.5j * np.unwrap(np.angle(w)))
        return np.stack([e, -e])

    def entry_rows(self, alphas):
        """Matrix entries (h11, h12, h21, h22) on a grid, shape (4, M)."""
        p = self.params
        phi = np.asarray(alphas, dtype=float)
        st = math.sin(p.theta)
        ct = math.cos(p.theta)
        z = complex(p.h_z, p.d_z)
        c1, c2 = _two_level_offdiag(p, np.cos(phi), np.sin(phi))
        diag = np.full(phi.shape, z * ct, dtype=complex)
        return np.stack([diag, c1 * st, c2 * st, -diag])


@dataclass(frozen=True)
class BipartiteModel:
    """Loop-evaluation adapter around BipartiteParams."""

    params: BipartiteParams
    kind: ClassVar[str] = BIPARTITE
    period: ClassVar[float] = _TWO_PI

    def matrix(self, alpha):
        return ComplexMatrix2(*self.entry_rows(np.array([float(alpha)]))[:, 0])

    def eigen_path(self, alphas):
        return _path_from_frame(_bipartite_frame(self.params, alphas))

    def energies(self, alphas):
        p = self.params
        k = np.asarray(alphas, dtype=float)
        rad = _chain_radicand(p.v, p.v_prime, p.gamma, np.cos(k))
        s = np.sqrt(rad.astype(complex))
        centroid = p.eps_a - 1j * p.gamma
        return np.stack([centroid + s, centroid - s])

    def entry_rows(self, alphas):
        p = self.params
        k = np.asarray(alphas, dtype=float)
        vk = _hopping(p, k)
        diag_a = np.full(k.shape, complex(p.eps_a), dtype=complex)
        diag_b = np.full(k.shape, p.eps_b, dtype=complex)
        return np.stack([diag_a, vk, np.conj(vk), diag_b])

    def winding_rate(self, alphas):
        """d theta / dk of the off-diagonal phase, finite for all q != 1."""
        p = self.params
        k = np.asarray(alphas, dtype=float)
        mod2 = _chain_radicand(p.v, p.v_prime, 0.0, np.cos(k))
        return p.v_prime * (p.v_prime + p.v * np.cos(k)) / mod2

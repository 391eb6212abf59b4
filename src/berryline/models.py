"""The two Hamiltonian families and the loops they are driven around.

Family one is a driven two-level system: a real field (h_x, h_y, h_z) on
the Bloch sphere plus imaginary amplitudes (d_x, d_y, d_z) that make the
matrix non-Hermitian, swept in the azimuthal angle phi at fixed polar
angle theta. Family two is a two-site-per-cell chain with loss on one
sublattice, described in momentum space by a 2x2 Bloch matrix swept over
the zone k in (-pi, pi].

Both families come with closed-form eigen frames built along whole loops:
branch angles are continuously unwrapped, dual (left) vectors are paired
so <lambda_b|psi_b'> = delta_bb' holds to roundoff, and the analytic
parameter derivative of the frame gives each band's diagonal connection
i<lambda_b|d psi_b> at every sample. Both come as stacks of rows that
build kets only on demand, which the phase refinement reads: the chain's
rows each have their own hoppings, loss rate and momentum grid, and a
model's ``_rows`` is its frame as a stack of one row. ``eigen_path`` is
the one-row view of that stack; a single point's frame is the path on a
one-point grid, ``model.eigen_path(np.array([alpha]))`` at index 0, and
its two bands are labelled 'plus' (index 0) and 'minus' (index 1).
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    BadResolution,
    DegenerateSpectrum,
    PathTooCoarse,
    SingularParameters,
    TrueCrossing,
)
from .quadrature import halved_verdicts, unwrap_checked, unwrap_rows

TWO_LEVEL = "two-level"
BIPARTITE = "bipartite"

_TWO_PI = 2.0 * math.pi

_BAND_INDEX = {
    "plus": 0, "+": 0, 1: 0, +1: 0,
    "minus": 1, "-": 1, -1: 1,
}


def band_index(band):
    """Map a band label ('plus'/'minus', +1/-1) to the storage index."""
    try:
        return _BAND_INDEX[band]
    except (KeyError, TypeError):
        raise ValueError(f"unknown band label {band!r}") from None


_MAX_RATIO = 1e150      # squares of larger values leave the float range


def _require_finite(obj):
    """Coerce every field of a frozen parameter record to a finite float."""
    for field in dataclasses.fields(obj):
        value = float(getattr(obj, field.name))
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")
        object.__setattr__(obj, field.name, value)


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
        _require_finite(self)
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        for name, value in vars(self).items():
            if abs(value) > _MAX_RATIO:
                raise ValueError(f"{name} must be at most {_MAX_RATIO:g} in "
                                 f"magnitude, got {value}")

    def is_singular(self):
        """True when an amplitude magnitude matches its field magnitude.

        On those lines, to within 1e-12, one off-diagonal entry of the matrix vanishes at
        some point of every azimuthal loop, and the winding index loses
        its meaning.
        """
        return (abs(abs(self.d_x) - abs(self.h_x)) <= 1e-12
                or abs(abs(self.d_y) - abs(self.h_y)) <= 1e-12)


def _at_transition(q):
    """True at hopping ratio 1, where v_k vanishes at k = pi and Q jumps."""
    return abs(q - 1.0) <= 1e-12


def _check_ratios(q, eta):
    """Refuse ratios outside the chain's quadrant or too large to square."""
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be nonnegative and finite, got {eta}")
    if q > _MAX_RATIO or eta > _MAX_RATIO:
        name, value = ("q", q) if q > _MAX_RATIO else ("eta", eta)
        raise ValueError(f"{name} must be at most {_MAX_RATIO:g}, got {value}")


@dataclass(frozen=True)
class BipartiteParams:
    """Lattice parameters: one lossy sublattice, two hopping amplitudes."""

    v: float
    v_prime: float
    gamma: float
    eps_a: float = 0.0

    def __post_init__(self):
        _require_finite(self)
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


_MAX_SAMPLES = 65536     # the finest loop, and the default refinement cap


def _check_integer(value, name):
    """``value`` as an int; anything but an integer raises ValueError."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_resolution(n):
    """Refuse a loop sample count outside the powers of two from 16 to the cap."""
    if not isinstance(n, numbers.Integral):
        raise BadResolution(
            f"loop sample count must be an integer, got {n!r}")
    if n < 16 or n & (n - 1):
        raise BadResolution(
            f"loop needs a power-of-two sample count of at least 16, got {n}")
    if n > _MAX_SAMPLES:
        raise BadResolution(
            f"loop sample count {n} exceeds the refinement cap {_MAX_SAMPLES}")


def _zone_grid(n):
    """n uniform momenta over the Brillouin zone (-pi, pi], pi included."""
    return -math.pi + (np.arange(n) + 1) * (_TWO_PI / n)


@dataclass(frozen=True)
class ParameterLoop:
    """Uniform dyadic discretization of one closed parameter cycle.

    The family ``kind`` and the sample count ``n`` fix the loop: phi over
    [0, 2pi) for the two-level family, k over (-pi, pi] for the chain.
    Samples cover exactly one period: the implied closure point
    samples[0] + period is not stored. Sample counts are powers of two
    from 16 to the refinement cap, so grids refine by doubling without
    moving nodes.
    """

    kind: str
    n: int
    samples: np.ndarray = dataclasses.field(init=False, repr=False,
                                            compare=False)
    period: ClassVar[float] = _TWO_PI

    def __post_init__(self):
        _check_resolution(self.n)
        if self.kind == TWO_LEVEL:
            samples = np.arange(self.n) * (_TWO_PI / self.n)
        elif self.kind == BIPARTITE:
            samples = _zone_grid(self.n)
        else:
            raise ValueError(f"unknown loop kind {self.kind!r}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


def standard_loop(kind, n):
    """The default closed loop of a family at n samples."""
    return ParameterLoop(kind, n)


def loop_grid(loop, n):
    """n + 1 uniform parameters from ``loop.samples[0]`` to one period on,
    so a frame on them shows how each ket closes on itself.
    """
    return loop.samples[0] + np.arange(n + 1) * (loop.period / n)


@dataclass(frozen=True)
class EigenPath:
    """Closed-form eigen frame evaluated along a grid of loop parameters.

    Axis convention: ``values[b, m]`` is band b's energy at sample m,
    ``right[c, b, m]`` is component c of band b's right vector, and
    ``left`` holds the dual kets in the same layout. ``connection[b, m]``,
    shape (2, M), is band b's diagonal connection i<lambda_b|d psi_b> from
    the analytic parameter derivative of the frame, and
    ``trace_connection`` their sum. ``winding_phase`` is the unwrapped
    angle whose net advance carries the topological index, and ``chi``
    the complex mixing angle, continuous along the grid.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    connection: np.ndarray
    trace_connection: np.ndarray
    winding_phase: np.ndarray
    chi: np.ndarray


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


def _radicand_extremes(v_prime, gamma, v=1.0):
    """The radicand's extremes (r(pi), r(0)) at hoppings v, v', loss gamma.

    r(pi) = (|v - v'| - gamma)(|v - v'| + gamma) and r(0) = (v + v' -
    gamma)(v + v' + gamma), in factors that keep their digits next to the
    lines; at v = 1 the arguments are the ratios (q, eta).
    """
    d, s = abs(v - v_prime), v + v_prime
    return (d - gamma) * (d + gamma), (s - gamma) * (s + gamma)


def _radicand(v, v_prime, gamma, u):
    """The chain radicand r(k) = |v_k|^2 - gamma^2 at phasors u = exp(+-ik).

    r(pi) + v v' |1 + u|^2 or r(0) - v v' |1 - u|^2, from the factored
    extreme nearer zero, so r keeps the digits that the expanded form
    cancels next to the lines and q = 1 (Higham, Accuracy and Stability of
    Numerical Algorithms, SIAM 2002, ch. 1); the arguments broadcast.
    """
    rpi, r0 = _radicand_extremes(v_prime, gamma, v)
    at_zero = abs(r0) < abs(rpi)
    sign = 1.0 - 2.0 * at_zero
    # one product is the anchor, the other exactly 0; |1 + sign u| = |u + sign|
    return (at_zero * r0 + (1.0 - at_zero) * rpi
            + sign * v * v_prime * ((u.real + sign) ** 2 + u.imag ** 2))


def _real_root(r, out):
    """np.sqrt(r + 0j) of real r into ``out``, bit for bit: np.maximum(-0., 0.) is +0."""
    np.sqrt(np.maximum(r, 0.0), out=out.real)
    np.sqrt(np.maximum(-r, 0.0), out=out.imag)


def _mixing_angle(angle, u):
    """The complex mixing angle chi from u = exp(i chi) and a continuous arg u."""
    return angle - 1j * np.log(np.abs(u))


def _kets(chi, pr, mr, pl):
    """Right and dual kets from the mixing angle chi, each (2, 2) + chi.shape.

    Right kets are (pr cos, sin) and (mr sin, cos) of chi / 2, duals have pl
    and -pl there; mr is -pr as the family rounds it (that sets the sign of
    exact zeros).
    """
    half = 0.5 * chi
    ch2 = np.cos(half)
    sh2 = np.sin(half)
    right = np.empty((2, 2) + chi.shape, dtype=complex)
    right[0, 0] = pr * ch2
    right[1, 0] = sh2
    right[0, 1] = mr * sh2
    right[1, 1] = ch2
    left = np.conj(right)   # then pl and -pl in place of pr and mr
    left[0, 0] = pl * left[1, 1]
    left[0, 1] = -pl * left[1, 0]
    return right, left


def _band_connection(g, cos_chi):
    """The diagonal connections g (1 +- cos chi) / 2 for connection trace g."""
    return np.stack([0.5 * g * (1.0 + cos_chi), 0.5 * g * (1.0 - cos_chi)])


class _TwoLevelRows:
    """The two-level frame on a phi grid, as a stack of one row.

    The contract of ``_ChainRows``, with ``dphi`` as its ``dk``; the row's
    error is checked in the order SingularParameters, the PathTooCoarse
    of nu1 and of nu2, DegenerateSpectrum, then the PathTooCoarse of
    arg w and of arg u.
    """

    def __init__(self, p, phi, dphi=None):
        self.connection, self.errors = None, [None]
        try:
            self._build(p, np.asarray(phi, dtype=float), dphi)
        except (SingularParameters, PathTooCoarse, DegenerateSpectrum) as exc:
            self.errors = [exc]

    def _build(self, p, phi, dphi):
        a_p, a_m, b_p, b_m = _two_level_axes(p)
        amp_scale = max(1.0, abs(a_p), abs(a_m), abs(b_p), abs(b_m))
        cphi, sphi = np.cos(phi), np.sin(phi)
        c1, c2 = _two_level_offdiag(p, cphi, sphi)
        r_p, r_m = np.abs(c1), np.abs(c2)
        if min(r_p.min(), r_m.min()) <= 1e-12 * amp_scale:
            raise SingularParameters(
                "an off-diagonal amplitude vanishes at a sampled angle; the "
                "dual frame is undefined there")
        nu1, nu2 = (unwrap_checked(np.angle(c)) for c in (c1, c2))
        nu_minus, nu_plus = 0.5 * (nu2 - nu1), 0.5 * (nu2 + nu1)
        a = complex(p.h_z, p.d_z) * math.cos(p.theta)
        b = np.sqrt(r_p * r_m) * np.exp(1j * nu_plus) * math.sin(p.theta)
        w = a * a + b * b
        aw = np.abs(w)
        if aw.min() <= 1e-12 * max(1.0, aw.max()):
            raise DegenerateSpectrum(
                "the two branches touch at a sampled angle of this loop",
                gap=2.0 * math.sqrt(aw.min()))
        # the square root is the principal one at the loop anchor phi = 0
        # (the sample nearest it) and follows the unwrapped argument from
        # there, so the energy is continuous along the sweep and the band
        # labels do not depend on how finely it is sampled
        principal = np.angle(w)
        arg_w = unwrap_checked(principal)
        anchor = int(np.argmin(np.abs(phi)))
        turns = round(float(arg_w[anchor] - principal[anchor]) / _TWO_PI)
        if turns:
            arg_w = arg_w - turns * _TWO_PI
        e = np.sqrt(aw) * np.exp(0.5j * arg_w)
        dln_rp = (b_p * b_p - a_p * a_p) * sphi * cphi / (r_p * r_p)
        dln_rm = (b_m * b_m - a_m * a_m) * sphi * cphi / (r_m * r_m)
        d_nu1 = -a_p * b_p / (r_p * r_p)
        d_nu2 = a_m * b_m / (r_m * r_m)
        g = 0.5j * (dln_rp - dln_rm) + 0.5 * (d_nu2 - d_nu1)
        u = (a + 1j * b) / e
        arg_u = unwrap_checked(np.angle(u))
        connection, trace = _band_connection(g, a / e)[:, None], g[None]
        if dphi is not None:
            connection, trace = connection * dphi, trace * dphi
        self.connection, self.trace = connection, trace
        self.s, self.winding = e[None], nu_minus[None]
        self._chi = _mixing_angle(arg_u, u)[None]
        self._rho = np.sqrt(r_p / r_m)[None]
        self._phase = np.exp(-1j * nu_minus)[None]
        self._angles = nu1, nu2, arg_w, arg_u

    def chi(self, rows):
        """The complex mixing angle of the given rows."""
        return self._chi[rows]

    def kets(self, rows):
        """Right and dual kets of the given rows, each (2, 2, len(rows), M)."""
        rho, phase = self._rho[rows], self._phase[rows]
        return _kets(self._chi[rows], rho * phase, -rho * phase, phase / rho)

    def halved(self):
        """The row's first PathTooCoarse on every second sample, as a list."""
        verdicts = halved_verdicts(np.stack(self._angles))
        return [next(filter(None, verdicts), None)]


class _ChainRows:
    """The lossy-chain frame for a stack of rows, each on its own k grid.

    Row r is the chain at hoppings v[r], v_prime[r] and loss rate
    gamma[r], sampled at the momenta k[r] (a 1-D k is every row's grid).
    ``dk``, when given, holds dk/dt of each row's grid along the loop
    parameter t, and the connection and its trace are per unit t.
    ``errors[r]`` is None or the error row r's frame raises, checked in
    the order of one frame: a TrueCrossing where a lossy row's radicand
    changes sign or meets zero within 1e-14 of its range 4 v v' (the
    rounding of k, a few ulp of pi times its slope, at most 2 v v', and of
    the form itself), then a TrueCrossing where the hoppings cancel, then
    the PathTooCoarse of the hopping phase theta aliasing. A row without
    an error reads ``connection[b, r, m]``, band b's diagonal connection,
    and ``trace[r, m]``, their sum; ``kets(rows)`` builds the right and
    dual kets of the given rows only, and ``halved()`` the rows' spacing
    verdicts on every second sample.
    """

    def __init__(self, v, v_prime, gamma, k, dk=None):
        v, v_prime, g = np.array([v, v_prime, gamma], dtype=float)[..., None]
        u = np.exp(-1j * np.asarray(k, dtype=float))
        vk = v + v_prime * u        # the Bloch entry v_k = v + v' exp(-ik)
        mod = np.abs(vk)
        rad = _radicand(v, v_prime, g, u)
        # energies meet where r changes sign or nears zero within tol, so
        # where min r <= tol and max r >= -tol; a lossless row's r = |v_k|^2
        # >= (v - v')^2 leaves only hoppings that cancel (below)
        tol = 4e-14 * (v * v_prime)[:, 0]
        crossing = (g[:, 0] != 0.0) & (rad.min(-1) <= tol) & (rad.max(-1) >= -tol)
        # hoppings interfering to zero merge the real parts of the two
        # energies, and leave the off-diagonal phase without a value
        cancel = mod.min(axis=-1) <= 1e-12 * np.maximum(1.0, v + v_prime)[:, 0]
        theta, coarse = unwrap_rows(np.angle(vk))
        self.winding = -theta
        self.errors = [
            TrueCrossing("the two complex energies meet at or between sampled "
                         "momenta") if cross
            else TrueCrossing("the hoppings cancel at a sampled momentum and "
                              "the real parts of the two energies merge")
            if cut else error
            for cross, cut, error in zip(crossing.tolist(), cancel.tolist(),
                                         coarse)]
        if crossing.any():
            # a crossing row is evaluated lossless: its unread values stay finite
            rad = np.where(crossing[:, None], mod * mod, rad)
        if cancel.any():
            mod = np.where(cancel[:, None], 1.0, mod)
            rad = np.where(cancel[:, None], 1.0, rad)
        d_theta = v_prime * (v_prime + v * u.real) / (mod * mod)
        if dk is not None:
            d_theta = d_theta * dk
        self.trace = d_theta.astype(complex)
        self.s = np.sqrt(rad.astype(complex))
        self.connection = _band_connection(d_theta, 1j * g / self.s)
        self._g, self._mod = g, mod

    def chi(self, rows):
        """The complex mixing angle of the given rows."""
        # arg u is constant along a gapped row, pi/2 where s is real and 0
        # where it is imaginary, so it needs no unwrapping
        u = 1j * (self._g[rows] + self._mod[rows]) / self.s[rows]
        return _mixing_angle(np.angle(u), u)

    def kets(self, rows):
        """Right and dual kets of the given rows, each (2, 2, len(rows), M)."""
        phase = np.exp(-1j * self.winding[rows])
        return _kets(self.chi(rows), phase, -phase, phase)

    def halved(self):
        """Per row, None or its PathTooCoarse on every second sample."""
        return halved_verdicts(self.winding)


def _one_row(rows, centroid=None):
    """The EigenPath of a one-row frame stack, or the row's error raised.

    Row 0 is read without its row axis. The energies are ``centroid`` +-
    ``rows.s``, half their splitting, or +- ``rows.s`` alone.
    """
    if rows.errors[0] is not None:
        raise rows.errors[0]
    (right, left), s = rows.kets(0), rows.s[0]
    values = np.stack([s, -s])
    return EigenPath(
        values=values if centroid is None else centroid + values,
        right=right, left=left, connection=rows.connection[:, 0],
        trace_connection=rows.trace[0], winding_phase=rows.winding[0],
        chi=rows.chi(0))


@dataclass(frozen=True)
class TwoLevelModel:
    """Loop-evaluation adapter around TwoLevelParams."""

    params: TwoLevelParams
    kind: ClassVar[str] = TWO_LEVEL

    def eigen_path(self, alphas):
        return _one_row(self._rows(alphas))

    def _rows(self, alphas, dalpha=None):
        """The frame on a grid of loop parameters, as a one-row stack."""
        return _TwoLevelRows(self.params, alphas, dalpha)

    def energies(self, phasors, out=None):
        """Both energy branches, continuous along phasors exp(i phi), in ``out``: (2, M).

        The principal root of the squared energy w, its sign flipped after
        each pair of roots that point apart, as np.unwrap does on arg w.
        """
        p = self.params
        u = np.asarray(phasors, dtype=complex)
        st = math.sin(p.theta)
        ct = math.cos(p.theta)
        a = complex(p.h_z, p.d_z) * ct
        c1, c2 = _two_level_offdiag(p, u.real, u.imag)
        e = np.empty((2,) + u.shape, dtype=complex) if out is None else out
        np.sqrt(a * a + c1 * c2 * (st * st), out=e[0])
        apart = e.real[0, 1:] * e.real[0, :-1] + e.imag[0, 1:] * e.imag[0, :-1] < 0.0
        np.negative(e[0, 1:], out=e[0, 1:], where=np.logical_xor.accumulate(apart))
        np.negative(e[0], out=e[1])
        return e

    def entry_rows(self, phasors):
        """Matrix entries (h11, h12, h21, h22) at phasors exp(i phi).

        A fresh (4, M) array, the caller's to overwrite, affine in cos phi and
        sin phi: the evolution kernel reads its terms at phi = 0, pi/2, pi.
        """
        p = self.params
        u = np.asarray(phasors, dtype=complex)
        st = math.sin(p.theta)
        diag = complex(p.h_z, p.d_z) * math.cos(p.theta)
        a_p, a_m, b_p, b_m = _two_level_axes(p)
        rows = np.empty((4,) + u.shape, dtype=complex)
        rows[0], rows[3] = diag, -diag
        # sin(theta) (c1, c2), part by part
        np.multiply(u.real, st * a_p, out=rows[1].real)
        np.multiply(u.imag, -st * b_p, out=rows[1].imag)
        np.multiply(u.real, st * a_m, out=rows[2].real)
        np.multiply(u.imag, st * b_m, out=rows[2].imag)
        return rows


@dataclass(frozen=True)
class BipartiteModel:
    """Loop-evaluation adapter around BipartiteParams."""

    params: BipartiteParams
    kind: ClassVar[str] = BIPARTITE

    def eigen_path(self, alphas):
        p = self.params
        return _one_row(self._rows(alphas), p.eps_a - 1j * p.gamma)

    def _rows(self, alphas, dalpha=None):
        """The frame on a grid of loop parameters, as a one-row stack."""
        p = self.params
        return _ChainRows([p.v], [p.v_prime], [p.gamma], alphas, dalpha)

    def energies(self, phasors, out=None):
        """Both energy branches at phasors exp(ik) along a grid, in ``out``: (2, M)."""
        p = self.params
        u = np.asarray(phasors, dtype=complex)
        e = np.empty((2,) + u.shape, dtype=complex) if out is None else out
        _real_root(_radicand(p.v, p.v_prime, p.gamma, u), e[1])
        centroid = p.eps_a - 1j * p.gamma
        np.add(centroid, e[1], out=e[0])
        np.subtract(centroid, e[1], out=e[1])
        return e

    def entry_rows(self, phasors):
        """Bloch matrix entries (h11, h12, h21, h22) at phasors exp(ik).

        A fresh (4, M) array, the caller's to overwrite, affine in cos k and
        sin k: the evolution kernel reads its terms at k = 0, pi/2 and pi.
        """
        p = self.params
        u = np.asarray(phasors, dtype=complex)
        rows = np.empty((4,) + u.shape, dtype=complex)
        rows[0], rows[3] = p.eps_a, p.eps_b
        # v_k = v + v' exp(-ik), part by part
        np.multiply(u.real, p.v_prime, out=rows[1].real)
        rows[1].real += p.v
        np.multiply(u.imag, -p.v_prime, out=rows[1].imag)
        np.conjugate(rows[1], out=rows[2])
        return rows

"""Direct time evolution under a cycled Hamiltonian and its phase accounting.

States follow i d psi/dt = H(alpha(t)) psi (and duals the adjoint
equation) under classical fixed-step 4th-order integration. After one
cycle the band amplitude c(T) = <lambda_band(0)|psi(T)> gives the total
complex phase -i log c(T), its log branch tracked stepwise so no 2 pi is
lost. The report splits it into a dynamical part (minus the time integral
of the band energy) plus the loop phase of the family's point evaluator,
and states the leftover defect openly instead of hiding it.

One kernel steps both ``evolve`` and the decomposition. Each RK4 step of
the linear equation is a 2x2 matrix; per streamed chunk of m steps all of
them are built at once and split into about 2 sqrt(m) blocks. The model's
entry rows come once per chunk, at the drive phasors exp(i alpha) of the
half-step grid of all its blocks. Each phasor is one product of a coarse
and a fine table entry (``Schedule.phasors``), so a chunk takes about 256
+ 2 m / 256 cosines and sines, not 2 (2 m + 1); the decomposition reads
its band energies at the even points of the same phasors. The rows are
scaled in place (and conjugated, for a dual run); the step matrices are
then composed entry by entry on strided 1-D rows of them, a few thousand
steps per pass. Running products within the blocks come vectorized
across blocks, a walk over the block products gives each block's start,
and then every per-step state at once feeds the growth guard, the
records and the branch of c(t). Products are renormalized every 16 steps
and states at each block start, the scale kept as a running log, so no
cycle underflows or overflows in the kernel.

Two caveats worth knowing. Runs deep in the lossy regime are flagged
``strong_regime`` because fixed-order adiabatic accounting degrades
there. And the projection reference stays pinned at alpha(0), so when
the instantaneous eigenframe winds around that fixed direction during
the cycle the accumulated argument gains an extra 2 pi per turn (or pi
for frames returning to minus themselves), which the loop integral does
not contain; the reported defect then saturates at that multiple of pi
no matter how slow the drive, and the decomposition is meaningful only
modulo whole turns. Cycles whose frame keeps a fixed overlap sign with
the start, like the lossy-chain sweeps checked in the tests, are free of
this and their defect genuinely vanishes as 1/T.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeOutOfRange, BandLeakage, StepTooLarge
from .models import _TWO_PI, TWO_LEVEL, _check_integer, band_index
from .berry import bipartite_phase_point, two_level_phase_point

_CHUNK = 1 << 15           # steps per streamed chunk of matrix entries
_GROUP_STEPS = 4096        # steps per pass of the propagator algebra
_RENORM_MASK = 15          # renormalize at least every 16 steps
_GROWTH_LIMIT_SQ = 100.0   # squared norm growth allowed in one step
_MAX_TURN = 1.5            # largest per-step turn of c(t) the branch tracking trusts
_MAX_STEPS = 2 ** 24       # 1.4-1.7 s of RK4 stepping on a shared 2-core x86
_FINE = 256                # drive phasors per row of the coarse x fine table


@dataclass(frozen=True)
class Schedule:
    """One closed drive cycle alpha(t) = 2 pi t / T: duration and step count.

    The drive advances the loop parameter by one period at a constant
    rate. The step count must be an integer no larger than 2^24, so one
    cycle ends in seconds. Counts below 1000, or fewer than 10 steps per
    unit time, are refused too; explicit stepping is not trustworthy
    there. Every refusal is a ValueError.
    """

    period_T: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "period_T", float(self.period_T))
        if not math.isfinite(self.period_T) or self.period_T <= 0.0:
            raise ValueError(f"cycle time must be positive, got {self.period_T}")
        object.__setattr__(self, "steps",
                           _check_integer(self.steps, "step count"))
        if self.steps > _MAX_STEPS:
            raise ValueError(
                f"need at most {_MAX_STEPS} steps, got {self.steps}")
        if self.steps < 1000:
            raise ValueError(f"need at least 1000 steps, got {self.steps}")
        if self.steps < 10.0 * self.period_T:
            raise ValueError(
                f"{self.steps} steps over T={self.period_T} is fewer than 10 "
                "per unit time")

    def phasors(self, start, count):
        """Drive phasors exp(i alpha_j) at half steps start <= j < start + count.

        alpha_j = pi j / steps is the drive at t = j h / 2. Each phasor is
        one product coarse[J] fine[r] for j = J S + r and S = _FINE, so a
        run of count phasors takes about S + count / S cosines and sines.
        The product depends on j alone: any run is the same slice of the
        whole-cycle grid, bit for bit.
        """
        n = self.steps
        top = np.arange(start // _FINE, (start + count - 1) // _FINE + 1)
        # J S reduced into [-n, n) in integers, so its angle is within pi
        coarse = np.exp(1j * (((top * _FINE + n) % (2 * n) - n) * (math.pi / n)))
        fine = np.exp(1j * (np.arange(_FINE) * (math.pi / n)))
        first = start - int(top[0]) * _FINE
        return (coarse[:, None] * fine).ravel()[first:first + count]


@dataclass(frozen=True)
class EvolutionReport:
    """Full-cycle phase accounting for one band.

    ``total_phase`` is -i log of the band amplitude ratio over the cycle;
    ``gamma_d + i xi_d`` its dynamical part, ``gamma_g + i xi_g`` the loop
    phase computed independently, ``defect`` the modulus of what is left
    over. ``strong_regime`` marks runs too lossy for the weak-coupling
    adiabatic picture and ``leak_ratio`` the final relative weight in the
    other band.
    """

    psi_final: np.ndarray
    total_phase: complex
    gamma_d: float
    xi_d: float
    gamma_g: float
    xi_g: float
    defect: float
    strong_regime: bool
    leak_ratio: float


def _apply(a, x):
    """Matrices a[row, col, ...] times the column vectors x[row, ...]."""
    y = a[:, 0, None] * x[0]
    y += a[:, 1, None] * x[1]
    return y


def _product(a, x):
    """Entries (00, 01, 10, 11) of the 2x2 product a x.

    Each is a_i0 x_0j + a_i1 x_1j, summed in that order.
    """
    a00, a01, a10, a11 = a
    x00, x01, x10, x11 = x
    y = [a00 * x00, a00 * x01, a10 * x00, a10 * x01]
    for e, z in zip(y, (a01 * x10, a01 * x11, a11 * x10, a11 * x11)):
        e += z
    return y


def _step_matrices(seg, out):
    """RK4 step matrices of a run of blocks, written into ``out``.

    ``seg`` holds the rows (h11, h12, h21, h22), times -i h/2, on the
    2 N + 1 half-step points of N steps; ``out`` has shape (length, 2, 2,
    N / length) and takes the matrix of step n = b * length + k at [k, :,
    :, b]. With P, Q, R the entries at t_n, t_n + h/2, t_n + h, M = (P +
    2 x2 + x3 + R x3) / 3 for x2 = I + Q (I + P) and x3 = I + 2 Q x2,
    composed entry by entry on strided 1-D rows, in the operation order of
    the 2x2 matrix products.
    """
    p = [e[:-1:2] for e in seg]
    q = [e[1::2] for e in seg]
    r = [e[2::2] for e in seg]
    # I's zeros are added too: they turn -0 into +0, as a matrix sum does
    eye = (1.0, 0.0, 0.0, 1.0)
    x2 = _product(q, [e + one for e, one in zip(p, eye)])
    for e, one in zip(x2, eye):
        e += one
    x3 = _product(q, x2)
    for e, one in zip(x3, eye):
        np.multiply(2.0, e, out=e)
        e += one
    for k, (e, e3, e2, ep) in enumerate(zip(_product(r, x3), x3, x2, p)):
        e += e3
        e += 2.0 * e2
        e += ep
        np.multiply(e.reshape(-1, out.shape[0]), 1.0 / 3.0,
                    out=out[:, k >> 1, k & 1].T)


@np.errstate(all="ignore")
def _propagate(model, schedule, psi, dual=False, project=None,
               record_every=None, energies=None):
    """One cycle of ``schedule`` from psi: (state, log_scale, turn, records).

    psi(T) = state * exp(log_scale); ``turn`` sums the per-step angles of
    c = project . psi and ``records`` lists (t, psi(t)) every
    ``record_every`` steps. ``energies``, if given, takes each chunk's
    drive phasors at its integer steps, the even half steps. Raises
    StepTooLarge at the first step that grows the squared norm a
    hundredfold, leaves it without a finite value, or turns c over 1.5 rad.
    """
    steps = schedule.steps
    h = schedule.period_T / steps
    state, log_scale, turn = np.asarray(psi, dtype=complex), 0.0, 0.0
    records = None if record_every is None else [(0.0, state.copy())]
    for step0 in range(0, steps, _CHUNK):
        m = min(_CHUNK, steps - step0)
        # M[k, :, :, b] steps n = b * length + k; the entries come on the
        # half-step grid of all nblocks blocks, and padding steps get M = I
        length = math.isqrt(m // 4) + 1
        nblocks = -(-m // length)
        u = schedule.phasors(2 * step0, 2 * length * nblocks + 1)
        if energies is not None:
            energies(u[:2 * m + 1:2])
        ent = model.entry_rows(u)
        rows = list(ent)
        if dual:
            # adjoint: conjugate entries, swap the off-diagonal pair
            np.conjugate(ent, out=ent)
            rows[1], rows[2] = rows[2], rows[1]
        np.multiply(ent, -0.5j * h, out=ent)
        mats = np.empty((length, 2, 2, nblocks), dtype=complex)
        group = max(1, _GROUP_STEPS // length)
        for b0 in range(0, nblocks, group):
            seg = slice(2 * b0 * length, 2 * (b0 + group) * length + 1)
            _step_matrices([e[seg] for e in rows], mats[..., b0:b0 + group])
        mats[m - (nblocks - 1) * length:, :, :, -1] = np.eye(2)
        norms = []   # in place: mats[k] becomes M_k ... M_0 of its block
        for k in range(1, length):
            mats[k] = _apply(mats[k], mats[k - 1])
            if k & _RENORM_MASK == _RENORM_MASK:
                norms.append(np.linalg.norm(mats[k].reshape(4, -1), axis=0))
                mats[k] /= norms[-1]
        norms = np.array(norms).reshape(-1, nblocks)
        logs = np.cumsum(np.vstack([np.zeros(nblocks), np.log(norms)]), axis=0)
        logs = logs[(np.arange(length) + 1) // (_RENORM_MASK + 1)]
        (u, v), starts, start_log = state.tolist(), [], []
        for plog, (p11, p12, p21, p22) in zip(
                logs[-1].tolist(), zip(*mats[-1].reshape(4, -1).tolist())):
            norm = math.hypot(u.real, u.imag, v.real, v.imag)
            if 0.0 < norm < math.inf:
                u, v, log_scale = u / norm, v / norm, log_scale + math.log(norm)
            starts.append((u, v))
            start_log.append(log_scale)
            u, v, log_scale = p11 * u + p12 * v, p21 * u + p22 * v, log_scale + plog
        starts = np.array(starts).T
        states = mats[:, :, 0] * starts[0] + mats[:, :, 1] * starts[1]
        logs += start_log
        n2 = np.linalg.norm(states, axis=1) ** 2
        before = np.concatenate([np.linalg.norm(starts, axis=0)[None] ** 2, n2[:-1]])
        before[_RENORM_MASK::_RENORM_MASK + 1] /= norms * norms
        # written so that a norm that is not finite fails it too
        bad = grown = ~(n2 <= _GROWTH_LIMIT_SQ * before)
        if project is not None:
            c = project @ states
            turns = np.angle(c / np.concatenate([(project @ starts)[None], c[:-1]]))
            bad = grown | (np.abs(turns) > _MAX_TURN)
            turn += float(turns.sum())
        k, b = np.nonzero(bad)
        if k.size:
            step = step0 + int((b * length + k).min())
            b, k = divmod(step - step0, length)
            growth = float(np.sqrt(n2[k, b] / before[k, b])) if grown[k, b] else None
            what = ("the band amplitude turned over 1.5 rad" if growth is None
                    else f"norm grew {growth:.2f}-fold" if math.isfinite(n2[k, b])
                    else "the state is no longer finite")
            raise StepTooLarge(f"{what} in step {step}; the fixed step cannot "
                               "follow this spectrum", step=step, growth=growth)
        if records is not None:
            n = np.arange(record_every - 1 - step0 % record_every, m, record_every)
            k, b = n % length, n // length
            records += zip(((step0 + n + 1) * h).tolist(),
                           states[k, :, b] * np.exp(logs[k, b])[:, None])
        k, b = (m - 1) % length, (m - 1) // length
        state, log_scale = states[k, :, b].copy(), float(logs[k, b])
    return state, log_scale, turn, records


def evolve(model, schedule, psi0, dual=False, record_every=None):
    """Integrate one cycle; returns psi(T), or (psi(T), records) if recording.

    Classical 4th-order stepping at fixed step T/steps, with matrix
    entries streamed in chunks. A single step growing the squared norm a
    hundredfold aborts the run: the step size is unstable against the
    local spectrum, and no later result would mean anything. A final
    state outside the floating-point range raises AmplitudeOutOfRange.
    ``record_every``, the recording stride in steps, must be a positive
    integer.
    """
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    if not np.all(np.isfinite(psi0)):
        raise ValueError("initial state must be finite")
    if not np.any(psi0 != 0.0):
        raise ValueError("initial state must be nonzero")
    if record_every is not None:
        record_every = _check_integer(record_every, "record_every")
        if record_every <= 0:
            raise ValueError("record_every must be a positive stride")

    state, log_scale, _, records = _propagate(
        model, schedule, psi0, dual=dual, record_every=record_every)
    with np.errstate(over="ignore", invalid="ignore"):
        psi_final = state * np.exp(log_scale)
    if not (np.all(np.isfinite(psi_final)) and np.any(psi_final != 0.0)):
        raise AmplitudeOutOfRange(
            f"the final state has norm exp({log_scale:.6g}), outside the "
            "floating-point range", log_scale=log_scale)
    if records is None:
        return psi_final
    if records[-1][0] != schedule.period_T:
        records.append((schedule.period_T, psi_final.copy()))
    return psi_final, records


class _BandEnergyIntegral:
    """Trapezoid of the tracked band energy over the cycle, plus extremes.

    Fed each chunk as ``_propagate``'s ``energies``, each with its own
    branch anchor. The root's sign is re-matched at each seam against the
    previous chunk's last value, exactly: the ambiguity flips both bands.
    """

    def __init__(self, model, schedule, band):
        self.model, self.band, self.last = model, band, None
        self.h = schedule.period_T / schedule.steps
        self.total, self.max_im_half_gap = 0.0 + 0.0j, 0.0

    def __call__(self, phasors):
        e, last = self.model.energies(phasors), self.last
        if last is not None and abs(e[0, 0] + last) < abs(e[0, 0] - last):
            e = e[::-1]
        sel = e[self.band]
        self.total += self.h * (sel.sum() - 0.5 * (sel[0] + sel[-1]))
        self.max_im_half_gap = max(self.max_im_half_gap, float(
            np.abs(np.imag(0.5 * (e[0] - e[1]))).max()))
        self.last = complex(e[0, -1])


def adiabatic_decomposition(model, schedule, band):
    """Evolve one band eigenstate through a cycle and split its phase.

    The initial state is the closed-form band eigenvector at alpha(0);
    c(t) = <lambda_band(0)|psi(t)> is projected every step and its
    argument accumulated continuously. The loop phase is this band's of
    ``two_level_phase_point`` or ``bipartite_phase_point``, bit for bit,
    taken before any step, so a loop without one is refused before the
    cycle runs.
    """
    b = band_index(band)
    p = model.params
    r = (two_level_phase_point(p) if model.kind == TWO_LEVEL
         else bipartite_phase_point(p.q, p.eta))
    gamma_geo = (complex(r.gamma_b_plus, r.xi_b_plus),
                 complex(r.gamma_b_minus, r.xi_b_minus))[b]
    frame = model.eigen_path(np.array([0.0]))
    psi = frame.right[:, b, 0]
    # alpha(T) = 2 pi is one full period past alpha(0) = 0, where the
    # single-point closed-form frame coincides with the one at alpha(0),
    # so both end-of-cycle projections use the frame built here
    lam_sel = np.conj(frame.left[:, b, 0])
    lam_oth = np.conj(frame.left[:, 1 - b, 0])
    energy = _BandEnergyIntegral(model, schedule, b)
    state, log_scale, accum, _ = _propagate(model, schedule, psi,
                                            project=lam_sel, energies=energy)

    c_mag = abs(lam_sel @ state)
    if c_mag == 0.0:
        raise BandLeakage("the followed band amplitude vanished", ratio=math.inf)
    leak_ratio = abs(lam_oth @ state) / c_mag
    if leak_ratio > 0.1:
        raise BandLeakage(
            f"state leaked into the other band (relative weight {leak_ratio:.3f}); "
            "the drive is not adiabatic at this cycle time",
            ratio=leak_ratio)
    total_phase = complex(accum, -(log_scale + math.log(c_mag)))

    gamma_dyn = -energy.total
    strong_regime = energy.max_im_half_gap * schedule.period_T / _TWO_PI > 50.0
    defect = abs(total_phase - (gamma_dyn + gamma_geo))
    with np.errstate(over="ignore"):
        psi_final = state * np.exp(log_scale)
    return EvolutionReport(
        psi_final=psi_final, total_phase=total_phase,
        gamma_d=float(gamma_dyn.real), xi_d=float(gamma_dyn.imag),
        gamma_g=float(gamma_geo.real), xi_g=float(gamma_geo.imag),
        defect=float(defect), strong_regime=bool(strong_regime),
        leak_ratio=float(leak_ratio))

"""Direct time evolution under a cycled Hamiltonian and its phase accounting.

States follow i d psi/dt = H(alpha(t)) psi (and duals follow the adjoint
equation) under classical fixed-step 4th-order integration. After one
full cycle the band amplitude c(T) = <lambda_band(0)|psi(T)> defines the
total complex phase -i log c(T), with the log branch tracked stepwise so
no 2 pi is ever lost. The report splits that phase into a dynamical part
(minus the time integral of the band energy) plus the geometric loop
phase, and states the leftover defect openly instead of hiding it.

One kernel steps both ``evolve`` and the decomposition. Each RK4 step of
the linear equation is a 2x2 matrix; per streamed chunk of m steps all of
them are built at once and split into about 2 sqrt(m) blocks. Running
products within the blocks come vectorized across blocks, a walk over the
block products gives each block's start, and then every per-step state at
once feeds the growth guard, the records and the branch of c(t). Products
are renormalized every 16 steps and states at each block start, the scale
kept as a running log, so no cycle underflows or overflows in the kernel.

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

from .biortho import band_index
from .errors import AmplitudeOutOfRange, BandLeakage, StepTooLarge
from .models import _TWO_PI, standard_loop
from .berry import band_berry_phase

_CHUNK = 1 << 15           # steps per streamed chunk of matrix entries
_GROUP_STEPS = 4096        # steps per pass of the propagator algebra
_RENORM_MASK = 15          # renormalize at least every 16 steps
_GROWTH_LIMIT_SQ = 100.0   # squared norm growth allowed in one step
_MAX_TURN = 1.5            # largest per-step turn of c(t) the branch tracking trusts
_EYE = np.eye(2)[:, :, None]


@dataclass(frozen=True)
class Schedule:
    """One closed drive cycle: duration, step count, and the path alpha(t).

    The default path is linear over one period. Step counts below 1000,
    or fewer than 10 steps per unit time, are refused outright; explicit
    stepping is not trustworthy there.
    """

    period_T: float
    steps: int
    path: object = None

    def __post_init__(self):
        object.__setattr__(self, "period_T", float(self.period_T))
        object.__setattr__(self, "steps", int(self.steps))
        if not math.isfinite(self.period_T) or self.period_T <= 0.0:
            raise ValueError(f"cycle time must be positive, got {self.period_T}")
        if self.steps < 1000:
            raise ValueError(f"need at least 1000 steps, got {self.steps}")
        if self.steps < 10.0 * self.period_T:
            raise ValueError(
                f"{self.steps} steps over T={self.period_T} is fewer than 10 "
                "per unit time")
        if self.path is not None and not callable(self.path):
            raise ValueError("path must be callable or None")

    def path_function(self):
        if self.path is not None:
            return self.path
        T = self.period_T
        return lambda t: (np.asarray(t, dtype=float) / T) * _TWO_PI


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


def _cycle(model, schedule):
    """(T, step h, path function, alpha(0)) of a schedule closing the loop once."""
    T = schedule.period_T
    path_fn = schedule.path_function()
    ends = np.asarray(path_fn(np.array([0.0, T])), dtype=float)
    if abs((ends[1] - ends[0]) - model.period) > 1e-9:
        raise ValueError(
            "the schedule must advance the loop parameter by exactly one "
            f"period; it advances by {ends[1] - ends[0]!r}")
    return T, T / schedule.steps, path_fn, float(ends[0])


def _apply(a, x):
    """Matrices a[row, col, ...] times the column vectors x[row, ...]."""
    y = a[:, 0, None] * x[0]
    y += a[:, 1, None] * x[1]
    return y


@np.errstate(all="ignore")
def _propagate(model, path_fn, h, steps, psi, dual=False, project=None,
               record_every=None):
    """One cycle from psi: (state, log_scale, turn, records).

    psi(T) = state * exp(log_scale); ``turn`` sums the per-step angles of
    c = project . psi and ``records`` lists (t, psi(t)) every
    ``record_every`` steps. Raises StepTooLarge at the first step that
    grows the squared norm a hundredfold or turns c over 1.5 rad.
    """
    state, log_scale, turn = np.asarray(psi, dtype=complex), 0.0, 0.0
    records = None if record_every is None else [(0.0, state.copy())]
    for step0 in range(0, steps, _CHUNK):
        m = min(_CHUNK, steps - step0)
        t = (np.arange(2 * m + 1, dtype=float) + 2.0 * step0) * (0.5 * h)
        rows = model.entry_rows(np.asarray(path_fn(t), dtype=float))
        if dual:
            # adjoint: conjugate entries, swap the off-diagonal pair
            rows = np.conj(rows[[0, 2, 1, 3], :])
        # M[k, :, :, b] steps n = b * length + k: with P, Q, R the entries at
        # t_n, t_n + h/2, t_n + h times -i h/2, M = (P + 2 x2 + x3 + R x3) / 3
        # for x2 = I + Q (I + P), x3 = I + 2 Q x2; padding steps get M = I
        length = math.isqrt(m // 4) + 1
        nblocks = -(-m // length)
        ent = np.zeros((4, 2 * length * nblocks + 1), dtype=complex)
        np.multiply(rows, -0.5j * h, out=ent[:, :2 * m + 1])
        mats = np.empty((length, 2, 2, nblocks), dtype=complex)
        group = max(1, _GROUP_STEPS // length)
        for b0 in range(0, nblocks, group):
            seg = ent[:, 2 * b0 * length:2 * (b0 + group) * length + 1]
            p, q, r = (e.reshape(2, 2, -1)
                       for e in (seg[:, :-1:2], seg[:, 1::2], seg[:, 2::2]))
            x2 = _apply(q, p + _EYE) + _EYE
            x3 = 2.0 * _apply(q, x2) + _EYE
            acc = _apply(r, x3) + x3 + 2.0 * x2 + p
            np.multiply(acc.reshape(2, 2, -1, length), 1.0 / 3.0,
                        out=mats[..., b0:b0 + group].transpose(1, 2, 3, 0))
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
        bad = grown = n2 > _GROWTH_LIMIT_SQ * before
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
            what = (f"norm grew {growth:.2f}-fold" if growth
                    else "the band amplitude turned over 1.5 rad")
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
    """
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    if not np.all(np.isfinite(psi0)):
        raise ValueError("initial state must be finite")
    if not np.any(psi0 != 0.0):
        raise ValueError("initial state must be nonzero")
    T, h, path_fn, _ = _cycle(model, schedule)
    if record_every is not None:
        record_every = int(record_every)
        if record_every <= 0:
            raise ValueError("record_every must be a positive stride")

    state, log_scale, _, records = _propagate(
        model, path_fn, h, schedule.steps, psi0, dual=dual,
        record_every=record_every)
    with np.errstate(over="ignore", invalid="ignore"):
        psi_final = state * np.exp(log_scale)
    if not (np.all(np.isfinite(psi_final)) and np.any(psi_final != 0.0)):
        raise AmplitudeOutOfRange(
            f"the final state has norm exp({log_scale:.6g}), outside the "
            "floating-point range", log_scale=log_scale)
    if records is None:
        return psi_final
    if records[-1][0] != T:
        records.append((T, psi_final.copy()))
    return psi_final, records


def _band_energy_integral(model, path_fn, h, steps, band):
    """Trapezoid of the tracked band energy over the cycle, plus extremes.

    Energies come chunkwise with a per-chunk branch anchor; the sign of
    the square root is re-matched at each seam against the previous
    chunk's last value, which is exact because the ambiguity is a global
    flip of the branch pair.
    """
    total = 0.0 + 0.0j
    prev_plus = None
    max_im_half_gap = 0.0
    for s0 in range(0, steps, _CHUNK):
        s_end = min(s0 + _CHUNK, steps)
        t = (np.arange(s0, s_end + 1, dtype=float)) * h
        e = model.energies(np.asarray(path_fn(t), dtype=float))
        if prev_plus is not None and abs(e[0, 0] + prev_plus) < abs(e[0, 0] - prev_plus):
            e = e[::-1]
        sel = e[band]
        total += h * (sel.sum() - 0.5 * (sel[0] + sel[-1]))
        max_im_half_gap = max(max_im_half_gap,
                              float(np.abs(np.imag(0.5 * (e[0] - e[1]))).max()))
        prev_plus = complex(e[0, -1])
    return total, max_im_half_gap


def adiabatic_decomposition(model, schedule, band):
    """Evolve one band eigenstate through a cycle and split its phase.

    The initial state is the closed-form band eigenvector at alpha(0);
    the amplitude c(t) = <lambda_band(0)|psi(t)> is projected every step
    and its argument accumulated continuously. Applies to the two built-in
    model families.
    """
    b = band_index(band)
    T, h, path_fn, alpha0 = _cycle(model, schedule)

    frame = model.eigen_path(np.array([alpha0]))
    psi = frame.right[:, b, 0]
    # alpha(T) differs from alpha(0) by one full period, where the
    # single-point closed-form frame coincides with the one at alpha(0),
    # so both end-of-cycle projections use the frame built here
    lam_sel = np.conj(frame.left[:, b, 0])
    lam_oth = np.conj(frame.left[:, 1 - b, 0])
    state, log_scale, accum, _ = _propagate(
        model, path_fn, h, schedule.steps, psi, project=lam_sel)

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

    energy_integral, max_im_half_gap = _band_energy_integral(
        model, path_fn, h, schedule.steps, b)
    gamma_dyn = -energy_integral
    strong_regime = max_im_half_gap * T / _TWO_PI > 50.0

    loop = standard_loop(model.kind, 4096)
    gamma_geo = band_berry_phase(loop, model, band)

    defect = abs(total_phase - (gamma_dyn + gamma_geo))
    with np.errstate(over="ignore"):
        psi_final = state * np.exp(log_scale)
    return EvolutionReport(
        psi_final=psi_final, total_phase=total_phase,
        gamma_d=float(gamma_dyn.real), xi_d=float(gamma_dyn.imag),
        gamma_g=float(gamma_geo.real), xi_g=float(gamma_geo.imag),
        defect=float(defect), strong_regime=bool(strong_regime),
        leak_ratio=float(leak_ratio))

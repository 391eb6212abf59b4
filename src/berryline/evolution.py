"""Direct time evolution under a cycled Hamiltonian and its phase accounting.

States follow i d psi/dt = H(alpha(t)) psi (and duals the adjoint
equation) under classical fixed-step 4th-order integration. After one
cycle the band amplitude c(T) = <lambda_band(0)|psi(T)> gives the total
complex phase -i log c(T), its log branch tracked stepwise so no 2 pi is
lost. The report splits it into a dynamical part (minus the time integral
of the band energy) plus the loop phase of the family's point evaluator,
and states the leftover defect openly instead of hiding it.

One kernel steps both ``evolve`` and the decomposition. Each RK4 step is
a 2x2 matrix; both families' entries are affine in the drive phasor u =
exp(i alpha), so it is a Laurent polynomial in u, its coefficients
composed once per cycle from the entries at u = 1, i and -1. Each matrix
entry takes two Horner chains at its step's phasor, one product of a
coarse and a fine table entry (``Schedule.phasors``), where the
decomposition reads its band energies too. A chunk of m steps scans its
running products in two levels (Blelloch, CMU-CS-90-190): in blocks of
about 0.75 m^(1/3) steps, vectorized across blocks, then in superblocks
of as many blocks, vectorized across the superblocks that a walk visits.
Each array a chunk touches is a view of one workspace per cycle.
Per-step states are formed only where read: by the branch of c(t), the
records and the growth guard, which a chunk skips when its matrix
entries bound every step's growth below the guard's, so plain ``evolve``
reads one state per chunk. Products are renormalized every 16 rows and
states at each block start, the scale kept as a running log, so no cycle
underflows or overflows in the kernel.

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

_CHUNK = 1 << 15           # steps per streamed chunk of step matrices
_RENORM_MASK = 15          # renormalize at least every 16 steps
_GROWTH_LIMIT_SQ = 100.0   # squared norm growth allowed in one step
_MAX_TURN = 1.5            # largest per-step turn of c(t) the branch tracking trusts
_MAX_STEPS = 2 ** 24       # 0.31-0.51 s of RK4 stepping on a shared 2-core x86
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

    def phasors(self, start, count, out=None):
        """Drive phasors exp(i alpha_n) at steps start <= n < start + count.

        alpha_n = 2 pi n / steps is the drive at t = n h. Each phasor is
        one product coarse[J] fine[r] for n = J S + r and S = _FINE, so a
        run of count phasors takes about S + count / S cosines and sines.
        The product depends on n alone: any run is the same slice of the
        whole-cycle grid, bit for bit. Given ``out`` (count + 2 S - 2
        entries hold any run), the rows fill it and the run is its slice.
        """
        n = self.steps
        top = np.arange(start // _FINE, (start + count - 1) // _FINE + 1)
        # 2 J S reduced into [-n, n) in integers, so its angle is within pi
        coarse = np.exp(1j * (((2 * _FINE * top + n) % (2 * n) - n) * (math.pi / n)))
        fine = np.exp(1j * (np.arange(0, 2 * _FINE, 2) * (math.pi / n)))
        first = start - int(top[0]) * _FINE
        rows = None if out is None else out[:len(top) * _FINE].reshape(-1, _FINE)
        return np.multiply(coarse[:, None], fine, out=rows).ravel()[first:first + count]


@dataclass(frozen=True)
class EvolutionReport:
    """Full-cycle phase accounting for one band.

    ``total_phase`` is -i log of the band amplitude ratio over the cycle;
    ``gamma_d + i xi_d`` its dynamical part, ``gamma_g + i xi_g`` the loop
    phase computed independently, ``defect`` the modulus of what is left
    over. ``strong_regime`` marks runs too lossy for the weak-coupling
    adiabatic picture and ``leak_ratio`` the final relative weight in the
    other band. The final state is ``psi_unit`` exp(``log_norm``); as
    floats, ``psi_final`` reads zero or non-finite outside the float range.
    """

    psi_final: np.ndarray
    psi_unit: np.ndarray
    log_norm: float
    total_phase: complex
    gamma_d: float
    xi_d: float
    gamma_g: float
    xi_g: float
    defect: float
    strong_regime: bool
    leak_ratio: float


def _times(a, b):
    """Product of centred (k, 2, 2) Laurent stacks in u; ``a`` has degree one."""
    out = np.zeros((len(b) + 2, 2, 2), dtype=complex)
    np.add.at(out, np.arange(len(b)) + np.arange(3)[:, None],
              np.einsum("irk,jkc->ijrc", a, b))
    return out


def _step_polynomial(model, schedule, dual):
    """RK4 step matrix M(u) = sum_j C_j u^j in the drive phasor u: C_-4 .. C_4.

    Entries affine in u give H(u) = H_- / u + H_0 + H_+ u, read at u = 1,
    i, -1 (a dual run's adjoint swaps H_-+ for their conjugate transposes).
    P, Q, R, the entries times -i h/2 at t_n, t_n + h/2, t_n + h, are P(u),
    P(u w), P(u w^2) for w = exp(i pi / steps), so M = (P + 2 x2 + x3 + R
    x3) / 3 with x2 = I + Q (I + P) and x3 = I + 2 Q x2.
    """
    e1, ei, em = model.entry_rows(np.array([1.0, 1j, -1.0])).T.reshape(3, 2, 2)
    h0, odd = 0.5 * (e1 + em), 0.5 * (e1 - em)   # odd = H_+ + H_-
    even = -1j * (ei - h0)                       # H_+ - H_-
    p = np.stack([0.5 * (odd - even), h0, 0.5 * (odd + even)])
    p = np.conj(p.transpose(0, 2, 1))[::-1] if dual else p
    p *= -0.5j * schedule.period_T / schedule.steps
    w = np.exp((1j * math.pi / schedule.steps) * np.arange(-1, 2))[:, None, None]
    q, eye = p * w, np.eye(2)
    x2 = _times(q, p)
    x2[1:4] += q
    x2[2] += eye
    x3 = 2.0 * _times(q, x2)
    x3[3] += eye
    m = _times(q * w, x3)
    m[1:8] += x3
    m[2:7] += 2.0 * x2
    m[3:6] += p
    return m * (1.0 / 3.0)


def _laurent(c, u, work):
    """Matrices sum_j c[d + j] u^j, |j| <= d, at phasors u (L, n): (L, 2, 2, n).

    Horner chains per entry in u and conj(u) = 1/u, from the top nonzero
    term, in the first 6 u.size entries of the complex workspace ``work``.
    """
    out = work[:4 * u.size].reshape(len(u), 2, 2, -1)
    ubar, t = work[4 * u.size:6 * u.size].reshape((2,) + u.shape)
    d, ubar = len(c) // 2, np.conj(u, out=ubar)
    for k, row in enumerate(c.reshape(-1, 4).T.tolist()):
        entry = out[:, k >> 1, k & 1]
        entry[...] = row[d]
        for z, chain in ((u, row[:d:-1]), (ubar, row[:d])):
            while chain and chain[0] == 0:
                chain = chain[1:]
            if chain:
                # c * z: numpy's complex multiply is not symmetric in rounding
                np.multiply(chain[0], z, out=t)
                for cj in chain[1:]:
                    t += cj
                    t *= z
                entry += t
    return out


def _running(mats, x0, x1):
    """In place, row k of (L, 2, 2, n) ``mats`` becomes M_k ... M_0: (norms, logs).

    Row k = 16 r + 15 is divided by norms[r], and row k carries the scale
    exp(logs[(k + 1) // 16]) per column; x0, x1 are (2, 2, n) operand rows.
    """
    norms = []
    for k in range(1, len(mats)):
        np.multiply(mats[k, :, 0, None], mats[k - 1, 0], out=x0)
        np.multiply(mats[k, :, 1, None], mats[k - 1, 1], out=x1)
        np.add(x0, x1, out=mats[k])
        if k & _RENORM_MASK == _RENORM_MASK:
            norms.append(np.linalg.norm(mats[k].reshape(4, -1), axis=0))
            mats[k] /= norms[-1]
    norms = np.array(norms).reshape(-1, mats.shape[-1])
    logs = np.vstack([np.zeros((1, norms.shape[1])), np.log(norms)])
    return norms, np.cumsum(logs, axis=0)


@np.errstate(all="ignore")
def _propagate(model, schedule, psi, dual=False, project=None,
               record_every=None, energies=None):
    """One cycle of ``schedule`` from psi: (state, log_scale, turn, records).

    psi(T) = state * exp(log_scale); ``turn`` sums the per-step angles of
    c = project . psi and ``records`` lists (t, psi(t)) every
    ``record_every`` steps. ``energies``, if given, takes each chunk's
    drive phasors at its steps and the step that ends it, and a (2, m + 1)
    buffer. Raises StepTooLarge at the first step that grows the squared
    norm a hundredfold, leaves it without a finite value, or turns c over
    1.5 rad.

    ``_running`` scans the blocks, then the superblocks of a chunk; a walk
    over the superblocks gives each block a unit start. One workspace per
    cycle, sized to the first chunk, holds every array a chunk touches.

    A chunk whose step matrices all have |Re M_ij|, |Im M_ij| < sqrt(12.5)
    is certified: |M x|^2 <= |M|_F^2 |x|^2 < 100 |x|^2, so no step of it
    can grow that much. If its last state is finite too, it forms states
    only where they are read (by the projection and the records; plain
    ``evolve`` reads the last). Any other chunk runs every guard.
    """
    steps = schedule.steps
    h = schedule.period_T / steps
    state, log_scale, turn = np.asarray(psi, dtype=complex), 0.0, 0.0
    records = None if record_every is None else [(0.0, state.copy())]
    poly = _step_polynomial(model, schedule, dual)
    for step0 in range(0, steps, _CHUNK):
        m = min(_CHUNK, steps - step0)
        # M[k, :, :, b] steps n = b * length + k, for block b = s * group + j
        # of superblock s; padding steps, whole blocks too, get M = I
        length = group = max(2, round(0.75 * m ** (1 / 3)))
        nsuper = -(-m // (length * group))
        nblocks = nsuper * group
        npad = length * nblocks
        if not step0:
            work = np.empty(7 * npad + 12 * nblocks, dtype=complex)
        assert 7 * npad + 12 * nblocks <= work.size
        # work: phasors and energies, step matrices, then c, its shift, turns
        # and flags; Horner rows, then states; the grid; the products' rows
        u = schedule.phasors(step0, npad + 1, out=work)
        if energies is not None:
            energies(u[:m + 1], work[npad + 1:npad + 2 * m + 3].reshape(2, -1))
        grid = work[6 * npad:7 * npad].reshape(length, nblocks)
        grid[...] = u[:-1].reshape(nblocks, length).T
        mats = _laurent(poly, grid, work)
        b = (m - 1) // length
        mats[m - b * length:, :, :, b] = np.eye(2)
        mats[..., b + 1:] = np.eye(2)[..., None]
        parts = mats.ravel().view(float)   # the certificate, before the products
        peak = np.abs([parts.min(), parts.max()]).max()
        certified = 8.0 * peak * peak < _GROWTH_LIMIT_SQ
        rows, tops = np.split(work[7 * npad:7 * npad + 12 * nblocks], [8 * nblocks])
        norms, logs = _running(mats, *rows.reshape(2, 2, 2, nblocks))
        tops = tops.reshape(group, 2, 2, nsuper)
        tops[...] = mats[-1].reshape(2, 2, nsuper, group).transpose(3, 0, 1, 2)
        _, top_logs = _running(tops, *rows[:8 * nsuper].reshape(2, 2, 2, nsuper))
        # rlog[s, j]: the log scale of the first j blocks of superblock s
        rlog = np.hstack([np.zeros((nsuper, 1)), logs[-1].reshape(nsuper, group)])
        rlog = np.cumsum(rlog, axis=1) + top_logs[
            np.arange(group + 1) // (_RENORM_MASK + 1)].T
        (x, y), first, first_log = state.tolist(), [], []
        for plog, (p11, p12, p21, p22) in zip(
                rlog[:, -1].tolist(), zip(*tops[-1].reshape(4, -1).tolist())):
            norm = math.hypot(x.real, x.imag, y.real, y.imag)
            if 0.0 < norm < math.inf:
                x, y, log_scale = x / norm, y / norm, log_scale + math.log(norm)
            first.append((x, y))
            first_log.append(log_scale)
            x, y, log_scale = p11 * x + p12 * y, p21 * x + p22 * y, log_scale + plog
        # block j > 0 of superblock s starts at R_(j-1) times its start
        first = np.array(first).T
        starts = [first[None], tops[:-1, :, 0] * first[0] + tops[:-1, :, 1] * first[1]]
        starts = np.concatenate(starts).transpose(1, 2, 0).reshape(2, nblocks)
        start_log = (np.array(first_log)[:, None] + rlog[:, :-1]).ravel()
        norm = np.hypot(np.abs(starts[0]), np.abs(starts[1]))
        norm[~((0.0 < norm) & (norm < math.inf))] = 1.0
        starts /= norm
        start_log += np.log(norm)
        k = (m - 1) % length   # the last step, in block b
        state = mats[k, :, 0, b] * starts[0, b] + mats[k, :, 1, b] * starts[1, b]
        log_scale = float(logs[(k + 1) // (_RENORM_MASK + 1), b] + start_log[b])
        certified = certified and np.isfinite(state).all()
        if certified and project is None and records is None:
            continue
        states = work[4 * npad:6 * npad].reshape(length, 2, nblocks)
        for i in range(2):
            np.multiply(mats[:, i, 0], starts[0], out=states[:, i])
            states[:, i] += np.multiply(mats[:, i, 1], starts[1], out=grid)
        bad = grown = np.zeros((length, nblocks), dtype=bool)
        if not certified:
            n2 = np.linalg.norm(states, axis=1) ** 2
            before = np.vstack([np.linalg.norm(starts, axis=0) ** 2, n2[:-1]])
            before[_RENORM_MASK::_RENORM_MASK + 1] /= norms * norms
            # written so that a norm that is not finite fails it too
            bad = grown = ~(n2 <= _GROWTH_LIMIT_SQ * before)
        if project is not None:
            c, shifted = work[:2 * npad].reshape(2, length, nblocks)
            turns = work[2 * npad:3 * npad].view(float)[:npad].reshape(length, -1)
            flags = work[3 * npad:4 * npad].view(bool)[:npad].reshape(length, -1)
            np.matmul(project, states, out=c)
            np.matmul(project, starts, out=shifted[0])
            shifted[1:] = c[:-1]
            np.divide(c, shifted, out=shifted)
            np.arctan2(shifted.imag, shifted.real, out=turns)
            turn += float(turns.sum())
            np.greater(np.abs(turns, out=turns), _MAX_TURN, out=flags)
            bad = np.logical_or(grown, flags, out=flags)
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
            scale = np.exp(logs[(k + 1) // (_RENORM_MASK + 1), b] + start_log[b])
            records += zip(((step0 + n + 1) * h).tolist(),
                           states[k, :, b] * scale[:, None])
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

    Fed each chunk and its buffer as ``_propagate``'s ``energies``, each
    with its own branch anchor. The root's sign is re-matched at each seam
    against the previous chunk's last value: the ambiguity flips both bands.
    """

    def __init__(self, model, schedule, band):
        self.model, self.band, self.last = model, band, None
        self.h = schedule.period_T / schedule.steps
        self.total, self.max_im_half_gap = 0.0 + 0.0j, 0.0

    def __call__(self, phasors, out=None):
        e, last = self.model.energies(phasors, out), self.last
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
    norm = float(np.linalg.norm(state))
    return EvolutionReport(
        psi_final=psi_final, psi_unit=state / norm,
        log_norm=log_scale + math.log(norm), total_phase=total_phase,
        gamma_d=float(gamma_dyn.real), xi_d=float(gamma_dyn.imag),
        gamma_g=float(gamma_geo.real), xi_g=float(gamma_geo.imag),
        defect=float(defect), strong_regime=bool(strong_regime),
        leak_ratio=float(leak_ratio))

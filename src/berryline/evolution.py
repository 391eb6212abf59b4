"""Direct time evolution under a cycled Hamiltonian and its phase accounting.

States follow i d psi/dt = H(alpha(t)) psi (and duals the adjoint
equation) under classical fixed-step 4th-order integration. After one
cycle the band amplitude c(T) = <lambda_band(0)|psi(T)> gives the total
complex phase -i log c(T), its log branch tracked stepwise so no 2 pi is
lost. The report splits it into a dynamical part (minus the time integral
of the band energy) plus the loop phase of ``global_berry_phase``, and
states the leftover defect openly instead of hiding it.

One kernel steps both ``evolve`` and the decomposition. Each RK4 step is
a 2x2 matrix; both families' entries are affine in the drive phasor u =
exp(i alpha), so it is a Laurent polynomial in u, its coefficients
composed once per cycle from the entries at u = 1, i and -1. The drive
advances at a constant rate, so the product of L consecutive steps is
one function of its first phasor, analytic on the unit circle. Once per
cycle, samples at K roots of unity and one FFT give its Fourier series;
per chunk, one matmul of fixed shape reads every block's product off it.
A pairwise tree multiplies the blocks into superblocks and a walk over
the superblocks carries the state, so plain ``evolve`` does no per-step
work outside its last block. States are formed only where read, from a
block's start through its step matrices: by the branch of c(t), the
records, and the growth guard of a cycle whose coefficients do not
bound every step's growth below the guard's, which takes blocks of one
step. A step matrix takes two Horner chains per entry at its step's
phasor, one product of a coarse and a fine table entry
(``Schedule.phasors``), where the decomposition reads its band energies
too. The state is renormalized at each superblock and block start, the
scale kept as a running log, so no cycle underflows or overflows in the
kernel.

Two caveats worth knowing. Runs deep in the lossy regime are flagged
``strong_regime`` because fixed-order adiabatic accounting degrades
there. And the projection reference stays pinned at alpha(0), so the
accumulated argument can gain a whole turn, 2 pi, which the loop
integral does not contain; the reported defect then saturates at that
turn no matter how slow the drive, and the decomposition is meaningful
only modulo whole turns. The lossy chain is not free of this: at
(q, eta) = (2, 0.3) and 3 T^1.5 steps the minus band's defect reads
6.21 at T = 64 and 6.27 at T = 256, while the plus band's falls as 1/T,
0.071 and 0.018.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeOutOfRange, BandLeakage, StepTooLarge
from .models import _TWO_PI, _check_integer, band_index, standard_loop
from .berry import global_berry_phase

_CHUNK = 1 << 15           # steps per chunk: bounds the per-step workspace
_GROWTH_LIMIT_SQ = 100.0   # squared norm growth allowed in one step
_MAX_TURN = 1.5            # largest per-step turn of c(t) the branch tracking trusts
_MAX_STEPS = 2 ** 24       # evolve 0.07-0.11 s, decomposition 1.7-2.1 s (shared 2-core x86)
_FINE = 256                # drive phasors per row of the coarse x fine table
_BLOCK = 64                # longest block of a series: its product stays below 10^64
_SPREAD = 16.0             # widest ratio of sampled block norms a series may span
_ROUNDING = 2.0 ** -45     # coefficients this far below the largest are rounding
_GROUP = 16                # blocks per superblock


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
        top = np.arange(start // _FINE, (start + count - 1) // _FINE + 1)
        coarse, fine = self._table(top)
        first = start - int(top[0]) * _FINE
        rows = None if out is None else out[:len(top) * _FINE].reshape(-1, _FINE)
        return np.multiply(coarse[:, None], fine, out=rows).ravel()[first:first + count]

    def _table(self, top):
        """(coarse, fine): the phasor of step n = J S + r is coarse[J] fine[r].

        ``top`` lists the rows J the coarse table holds.
        """
        n = self.steps
        # 2 J S reduced into [-n, n) in integers, so its angle is within pi
        coarse = np.exp(1j * (((2 * _FINE * top + n) % (2 * n) - n) * (math.pi / n)))
        return coarse, np.exp(1j * (np.arange(0, 2 * _FINE, 2) * (math.pi / n)))


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


def _product(mats):
    """M_(L-1) ... M_0 of the (L, 2, 2, n) stack ``mats``, L a power of two: (2, 2, n).

    Pairwise, later step on the left, in log2 L vectorized levels.
    """
    while len(mats) > 1:
        a, b = mats[1::2], mats[::2]
        mats = a[:, :, :1] * b[:, None, 0] + a[:, :, 1:] * b[:, None, 1]
    return mats[0]


def _sweep(mats, x, out, spare):
    """Row k of ``out`` becomes M_k ... M_0 x, for (k, 2, 2, n) ``mats``.

    x (2, n) advances one row at a time, vectorized across the n columns;
    ``spare`` is a (2, n) operand row.
    """
    for k in range(len(out)):
        np.multiply(mats[k, :, 0], x[0], out=out[k])
        out[k] += np.multiply(mats[k, :, 1], x[1], out=spare)
        x = out[k]


class _BlockSeries:
    """The RK4 product of each block of L steps, read off one series per cycle.

    The drive advances at a constant rate, so the product of the L steps
    from step n is one 2x2 function P(U) = M(U w^(2L-2)) ... M(U w^2) M(U)
    of U = u_n, a Laurent polynomial in U. Analytic on |U| = 1, its
    Fourier coefficients fall to rounding within a few dozen terms
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)). P is sampled at K
    roots of unity from the step polynomial ``poly``, and one FFT gives
    its coefficients Q_J. K doubles up to 2 L, then L and K halve, until
    the top quarter of the coefficients sits at rounding and the sampled
    norms span at most _SPREAD, so each block's product is good to
    rounding of its own size. From L = ``longest`` = 64 down, a certified
    block's product stays in the float range. ``length`` is L, and
    exp(``log_scale``) the scale ``products`` leaves out. Without a
    series (``rows`` None), L = 1: a block is one step, read directly.
    """

    def __init__(self, poly, schedule, longest):
        self.length, self.log_scale, self.rows = 1, 0.0, None
        length, size, p = longest, 16, None
        while length > 1:
            # a doubled series keeps the points it has, as its even points
            at = np.arange(size) if p is None else np.arange(1, size, 2)
            grid = (np.exp((2j * math.pi / schedule.steps) * np.arange(length))[:, None]
                    * np.exp((2j * math.pi / size) * at))
            new = _product(_laurent(poly, grid, np.empty(6 * grid.size, dtype=complex)))
            p = new if p is None else np.stack([p, new], axis=-1).reshape(2, 2, size)
            norms = np.linalg.norm(p.reshape(4, size), axis=0)
            # written so that a zero or non-finite norm fails it too
            if norms.min() * _SPREAD >= norms.max():
                q = np.fft.fft(p.reshape(4, size), axis=1) / (size * norms.max())
                if (np.abs(q[:, 3 * size // 8:5 * size // 8 + 1]).max()
                        <= _ROUNDING * np.abs(q).max()):
                    break
                if size < 2 * length:
                    size *= 2
                    continue
            length, size, p = length // 2, max(16, size // 2), None
        else:
            return
        self.length, self.log_scale = length, math.log(norms.max())
        self.steps = schedule.steps
        self.coarse, self.fine = schedule._table(np.arange(self.steps // _FINE + 1))
        self.power = np.r_[0:size // 2, -(size // 2):0]
        # block j of a superblock: the series times (u_(j L))^J
        self.rows = q.T * self._phasors(
            length * np.arange(_GROUP)[:, None] * self.power)[..., None]

    def _phasors(self, n):
        """The table phasors of steps n mod steps, as ``Schedule.phasors`` has them."""
        n = n % self.steps
        return self.coarse[n // _FINE] * self.fine[n % _FINE]

    def products(self, step0, out):
        """Block j of superblock s from step0 into out[j, s] (_GROUP, nsuper, 4).

        One matmul multiplies the powers U^J of each superblock's first
        phasor, exact table phasors, by ``rows``. Its shape is fixed by
        ``out``, so a block's product depends on its index alone.
        """
        heads = step0 + self.length * _GROUP * np.arange(out.shape[1])
        return np.matmul(self._phasors(heads[:, None] * self.power), self.rows, out=out)


@np.errstate(all="ignore")
def _propagate(model, schedule, psi, dual=False, project=None,
               record_every=None, energies=None):
    """One cycle of ``schedule`` from psi: (state, log_scale, turn, records).

    psi(T) = state * exp(log_scale); ``turn`` sums the per-step angles of
    c = project . psi and ``records`` lists (t, psi(t)) every
    ``record_every`` steps before the last. ``energies``, if given, takes
    each chunk's drive phasors at its steps and the step that ends it, and
    a (2, m + 1) buffer. Raises StepTooLarge at the first step that grows
    the squared norm a hundredfold, leaves it without a finite value, or
    turns c over 1.5 rad.

    The step matrix M(u) = sum_j C_j u^j has |M_ij| <= sum_j |C_j,ij| on
    |u| = 1, and |M x|^2 <= |M|_F^2 |x|^2. A cycle whose sums give |M|_F^2
    < 100 is certified: no step of it can grow the norm that much. Its
    blocks of L steps read their products off one ``_BlockSeries``, a
    matmul of fixed shape per chunk. A cycle the certificate does not
    cover takes blocks of one step, read directly, and runs every guard
    on every step. The cycle's last block, which may be short, takes the
    product of its own step matrices.

    A pairwise tree gives each superblock's product and a walk over the
    superblocks their unit starts, the scale kept as a running log, so
    no cycle underflows or overflows in the kernel. States are formed
    only where read (by the projection, the records and the guards of an
    uncertified cycle) by ``_sweep``: within superblocks to each block's
    start, then within blocks to each step, vectorized across blocks.
    """
    steps = schedule.steps
    h = schedule.period_T / steps
    state, log_scale, turn = np.asarray(psi, dtype=complex), 0.0, 0.0
    records = None if record_every is None else [(0.0, state.copy())]
    poly = _step_polynomial(model, schedule, dual)
    certified = (np.abs(poly).sum(axis=0) ** 2).sum() < _GROWTH_LIMIT_SQ
    series = _BlockSeries(poly, schedule, _BLOCK if certified else 1)
    length = series.length
    dense = not certified or project is not None or records is not None
    # the matrices of every step: where states are read, or the blocks are steps
    every = dense or series.rows is None
    # block b = s * _GROUP + j of superblock s holds steps b * length + k
    # of its chunk; padding steps, whole blocks too, get M = I
    nsuper = -(-min(steps, _CHUNK) // (length * _GROUP))
    nblocks = nsuper * _GROUP
    npad = length * nblocks
    # work: phasors and energies, step matrices, then c, its shift, turns
    # and flags; Horner rows, then states; the grid
    work = np.empty(7 * (npad if every else length), dtype=complex)
    tops = np.empty((_GROUP, 2, 2, nsuper), dtype=complex)
    starts = np.empty((_GROUP, 2, nsuper), dtype=complex)
    spare = np.empty((2, nblocks), dtype=complex)
    products = np.empty((_GROUP, nsuper, 4), dtype=complex)
    for step0 in range(0, steps, _CHUNK):
        m = min(_CHUNK, steps - step0)
        last = step0 + m == steps
        b = (m - 1) // length   # the block of the chunk's last step
        # the blocks that read the series: all, or all but the cycle's last
        serial = b if last else b + 1
        if every or last:
            # every block's step matrices, or the last block's alone
            u = (schedule.phasors(step0, npad + 1, out=work) if every
                 else schedule.phasors(step0 + b * length, length + 1))
            if energies is not None:
                energies(u[:m + 1], work[npad + 1:npad + 2 * m + 3].reshape(2, -1))
            count = npad if every else length
            grid = work[6 * count:7 * count].reshape(length, -1)
            grid[...] = u[:-1].reshape(-1, length).T
            mats = _laurent(poly, grid, work)
            mats[m - b * length:, :, :, b if every else 0] = np.eye(2)
            mats[..., b + 1:] = np.eye(2)[..., None]
        if series.rows is None:
            tops[...] = mats[0].reshape(2, 2, nsuper, _GROUP).transpose(3, 0, 1, 2)
        else:
            tops[...] = series.products(step0, products).transpose(0, 2, 1).reshape(
                _GROUP, 2, 2, nsuper)
            s, j = divmod(np.arange(serial, nblocks), _GROUP)
            tops[j, :, :, s] = np.eye(2)
            if last:
                tops[b % _GROUP, :, :, b // _GROUP] = _product(
                    mats[..., b if every else 0])
        # blog[s, j]: the log scale of block j of superblock s
        blog = np.where(np.arange(nblocks) < serial, series.log_scale, 0.0)
        blog = blog.reshape(nsuper, _GROUP)
        (x, y), heads, head_log = state.tolist(), [], []
        for plog, (p11, p12, p21, p22) in zip(
                blog.sum(axis=1).tolist(), zip(*_product(tops).reshape(4, -1).tolist())):
            norm = math.hypot(x.real, x.imag, y.real, y.imag)
            if 0.0 < norm < math.inf:
                x, y, log_scale = x / norm, y / norm, log_scale + math.log(norm)
            heads.append((x, y))
            head_log.append(log_scale)
            x, y, log_scale = p11 * x + p12 * y, p21 * x + p22 * y, log_scale + plog
        state = np.array([x, y])
        if not dense:
            continue
        # block j of superblock s starts at its first j blocks times its head
        starts[0] = np.array(heads).T
        _sweep(tops, starts[0], starts[1:], spare[:, :nsuper])
        starts_b = starts.transpose(1, 2, 0).reshape(2, nblocks)
        start_log = (np.array(head_log)[:, None] + np.cumsum(blog, axis=1) - blog).ravel()
        norm = np.hypot(np.abs(starts_b[0]), np.abs(starts_b[1]))
        norm[~((0.0 < norm) & (norm < math.inf))] = 1.0
        starts_b /= norm
        start_log += np.log(norm)
        states = work[4 * npad:6 * npad].reshape(length, 2, nblocks)
        _sweep(mats, starts_b, states, spare)
        bad = grown = np.zeros((length, nblocks), dtype=bool)
        if not certified:
            n2 = np.linalg.norm(states, axis=1) ** 2
            before = np.vstack([np.linalg.norm(starts_b, axis=0) ** 2, n2[:-1]])
            # written so that a norm that is not finite fails it too
            bad = grown = ~(n2 <= _GROWTH_LIMIT_SQ * before)
        if project is not None:
            c, shifted = work[:2 * npad].reshape(2, length, nblocks)
            turns = work[2 * npad:3 * npad].view(float)[:npad].reshape(length, -1)
            flags = work[3 * npad:4 * npad].view(bool)[:npad].reshape(length, -1)
            np.matmul(project, states, out=c)
            np.matmul(project, starts_b, out=shifted[0])
            np.conjugate(c[:-1], out=shifted[1:])
            np.conjugate(shifted[0], out=shifted[0])
            # the angle of c over the previous c
            np.multiply(c, shifted, out=shifted)
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
            # not the cycle's last step: evolve records psi(T) at t = T
            n = np.arange(record_every - 1 - step0 % record_every, m - last,
                          record_every)
            k, b = n % length, n // length
            scale = np.exp(start_log[b])
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
    integer; the records are (t, psi(t)) from t = 0 at that stride, the
    cycle's last step read once, as (T, psi(T)).
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        psi_final = state * np.exp(log_scale)
        log_norm = log_scale + float(np.log(np.linalg.norm(state)))
    if not (np.all(np.isfinite(psi_final)) and np.any(psi_final != 0.0)):
        raise AmplitudeOutOfRange(
            f"the final state has norm exp({log_norm:.6g}), outside the "
            "floating-point range", log_scale=log_norm)
    if records is None:
        return psi_final
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
    ``global_berry_phase`` on the standard loop of 1024 samples, bit for
    bit, taken before any step: a loop without one, on a two-level
    singular line, at hopping ratio 1 or in the chain's gapless region,
    where exceptional points sit on the loop and no band can be followed
    around it, is refused before the cycle runs.
    """
    b = band_index(band)
    r = global_berry_phase(standard_loop(model.kind, 1024), model)
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

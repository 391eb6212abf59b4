"""Direct time evolution under a cycled Hamiltonian and its phase accounting.

States follow i d psi/dt = H(alpha(t)) psi (and duals the adjoint
equation) under classical fixed-step 4th-order integration. After one
cycle the band amplitude c(T) = <lambda_band(0)|psi(T)> gives the total
complex phase -i log c(T), its log branch tracked along the cycle so no
2 pi is lost. The report splits it into a dynamical part (minus the time integral
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
work outside its last block, and most of a decomposition does none
either. Its band energy E_b is analytic and periodic in the drive too:
one Fourier series per cycle, from K samples, gives its integral and
the dynamical phase Phi = Re int E_b dt at every block head. So c(t) is
projected only at the block heads, which the walk already forms, and
the branch tracked is that of c exp(i Phi), which turns only by the
geometric and non-adiabatic phase. Blocks whose heads cannot show that
it turns slowly and stays clear of zero are stepped one at a time: their
states are formed from the block's start through its step matrices and
every step's turn of c is guarded. Every block is stepped where the band
energy series does not settle or does not bound every step's turn of c
below the guard's; where it does not settle, the dynamical phase is the
trapezoid of the band energies on the step grid. A cycle whose
coefficients do not bound every step's growth below the guard's, or
whose block products no series fits, takes blocks of one step: its
heads are its steps, each guarded on its turn of c and, uncertified,
on its growth. A step matrix takes two Horner chains per entry at its
step's phasor, one product of a coarse and a fine table entry
(``Schedule.phasors``).
The state is renormalized at each superblock and block start, the scale
kept as a running log, so no cycle underflows or overflows in the
kernel.

What no cycle time changes is computed once per model: both bands' loop
phases and kets at alpha = 0, and each band's energy samples and series
coefficients. What a schedule fixes is computed once per cycle: the
generator, the step polynomial, its certificate and the block series,
which a decomposition and plain ``evolve`` on one schedule share. Both
are kept in bounded caches, keyed by the model's class and the bit
patterns of its params (a cycle also by its schedule and ``dual``):
16 models of at most 147 kB each (2.4 MB) and 4 cycles of at most 1.2
MB each, at 2^24 steps (4.8 MB). Other model objects are built afresh
on every call. A refusal is never kept, so it is raised again, before
any step, on every call; kept arrays are read-only.

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

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeOutOfRange, BandLeakage, StepTooLarge
from .models import (_TWO_PI, BipartiteModel, TwoLevelModel, _check_integer,
                     band_index, standard_loop)
from .berry import global_berry_phase

_CHUNK = 1 << 15           # steps per chunk: bounds the workspace of its step matrices
_GROWTH_LIMIT_SQ = 100.0   # squared norm growth allowed in one step
_MAX_TURN = 1.5            # largest per-step turn of c(t) the branch tracking trusts
_MAX_STEPS = 2 ** 24       # evolve 0.05-0.08 s, decomposition 0.18-0.32 s (shared 2-core x86)
_FINE = 256                # drive phasors per row of the coarse x fine table
_BLOCK = 64                # longest block of a series: its product stays below 10^64
_SPREAD = 16.0             # widest ratio of sampled block norms a series may span
_ROUNDING = 2.0 ** -45     # coefficients this far below the largest are rounding
_GROUP = 16                # blocks per superblock
_MAX_SAMPLES = 2048        # most band energy samples: past them the heads cost more than steps
_LEAK = 0.1                # largest other-band part of c at a projected head
_FAINT = 1e-2              # smallest |c| / |project| at a projected head
_HEAD_TURN = 0.5           # largest turn of c~ from one projected head to the next
_SLOW_TURN = 0.1           # allowance for c~'s own turn in one step
_LOOPS = 16                # models whose loop constants are kept
_CYCLES = 4                # cycles whose constants are kept


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


def _generator(model, dual):
    """H(u) = H_- / u + H_0 + H_+ u in the drive phasor u: (H_-, H_0, H_+), (3, 2, 2).

    Entries affine in u, read at u = 1, i, -1. A dual run's adjoint swaps
    H_-+ for their conjugate transposes.
    """
    e1, ei, em = model.entry_rows(np.array([1.0, 1j, -1.0])).T.reshape(3, 2, 2)
    h0, odd = 0.5 * (e1 + em), 0.5 * (e1 - em)   # odd = H_+ + H_-
    even = -1j * (ei - h0)                       # H_+ - H_-
    p = np.stack([0.5 * (odd - even), h0, 0.5 * (odd + even)])
    return np.conj(p.transpose(0, 2, 1))[::-1] if dual else p


def _step_polynomial(generator, schedule):
    """RK4 step matrix M(u) = sum_j C_j u^j in the drive phasor u: C_-4 .. C_4.

    P, Q, R, the ``_generator`` terms times -i h/2 at t_n, t_n + h/2,
    t_n + h, are P(u), P(u w), P(u w^2) for w = exp(i pi / steps), so M =
    (P + 2 x2 + x3 + R x3) / 3 with x2 = I + Q (I + P) and x3 = I + 2 Q x2.
    """
    p = generator * (-0.5j * schedule.period_T / schedule.steps)
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


def _kept(constants, model, *args):
    """``constants(key, model, *args)``, kept in its bounded cache for the two families.

    ``key`` is the model's class and the bit patterns of its params, so
    0.0 and -0.0 key apart; any other model is built afresh on every
    call, with key None. Only returns are kept: a refusal is computed
    and raised again on every call.
    """
    if type(model) not in (TwoLevelModel, BipartiteModel):
        return constants.__wrapped__(None, model, *args)
    values = tuple(vars(model.params).values())
    return constants((type(model), struct.pack(f"{len(values)}d", *values)),
                     model, *args)


def _frozen(*arrays):
    """Make ``arrays`` read-only: a cache hands them to every later call."""
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=_CYCLES)
def _cycle_constants(key, model, schedule, dual):
    """(generator, step polynomial, certificate, block series) of one cycle.

    Through ``_kept``, entries are told apart by ``key``, ``schedule``
    and ``dual``: a period is positive and finite, so float equality of
    periods is equality of their bits. A worst-case entry, at 2^24
    steps, holds 1.2 MB, most of it the series' coarse phasor table.
    ``adiabatic_decomposition`` and plain ``evolve`` on one schedule
    share the entry, one fit.
    """
    generator = _generator(model, dual)
    poly = _step_polynomial(generator, schedule)
    certified = (np.abs(poly).sum(axis=0) ** 2).sum() < _GROWTH_LIMIT_SQ
    series = _BlockSeries(poly, schedule, _BLOCK if certified else 1)
    _frozen(generator, poly, *(v for v in vars(series).values()
                               if isinstance(v, np.ndarray)))
    return generator, poly, certified, series


@np.errstate(all="ignore")
def _propagate(model, schedule, psi, dual=False, project=None, energy=None):
    """One cycle of ``schedule`` from psi: (state, log_scale, turn).

    psi(T) = state * exp(log_scale); ``turn`` is the argument that c =
    project . psi gains over the cycle, its branch tracked so no 2 pi is
    lost. ``energy``, the followed band's ``_BandEnergy``, comes with
    ``project``. Raises StepTooLarge at the first step that grows the
    squared norm a hundredfold, leaves it without a finite value, or
    turns c over 1.5 rad.

    The step matrix M(u) = sum_j C_j u^j has |M_ij| <= sum_j |C_j,ij| on
    |u| = 1, and |M x|^2 <= |M|_F^2 |x|^2. A cycle whose sums give |M|_F^2
    < 100 is certified: no step of it can grow the norm that much. Its
    blocks of L steps read their products off one ``_BlockSeries``, a
    matmul of fixed shape per chunk. A cycle the certificate does not
    cover, or whose products no series fits, takes blocks of one step,
    read directly. The cycle's last block, which may be short, takes the
    product of its own step matrices. The step polynomial, the
    certificate and the series are the cycle's ``_cycle_constants``.

    A pairwise tree gives each superblock's product and a walk over the
    superblocks their unit starts, the scale kept as a running log, so
    no cycle underflows or overflows in the kernel. Where they are read,
    ``_sweep`` forms the block heads within each superblock, vectorized
    across superblocks. Blocks of one step have the steps for heads, so
    an uncertified cycle guards every step's growth on its heads' norms.

    With a projection, ``_head_turns`` turns c over each chunk's blocks
    from their heads and steps the blocks they cannot vouch for; it is
    the one reader of ``energy``.
    """
    steps = schedule.steps
    state, log_scale, turn = np.asarray(psi, dtype=complex), 0.0, 0.0
    generator, poly, certified, series = _kept(_cycle_constants, model, schedule, dual)
    length = series.length
    # the matrices of every step where the blocks are steps
    every = series.rows is None
    # block b = s * _GROUP + j of superblock s holds steps b * length + k
    # of its chunk; padding steps, whole blocks too, get M = I
    nsuper = -(-min(steps, _CHUNK) // (length * _GROUP))
    nblocks = nsuper * _GROUP
    npad = length * nblocks
    # work: phasors, then step matrices and Horner rows; the grid
    work = np.empty(7 * (npad if every else length), dtype=complex)
    tops = np.empty((_GROUP, 2, 2, nsuper), dtype=complex)
    starts = np.empty((_GROUP + 1, 2, nsuper), dtype=complex)
    spare = np.empty((2, nsuper), dtype=complex)
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
                tops[b % _GROUP, :, :, b // _GROUP] = _product(mats[..., 0])
        # the log scale of each superblock: its blocks that read the series
        plogs = np.where(np.arange(nblocks) < serial, series.log_scale, 0.0)
        (x, y), heads = state.tolist(), []
        for plog, (p11, p12, p21, p22) in zip(
                plogs.reshape(nsuper, _GROUP).sum(axis=1).tolist(),
                zip(*_product(tops).reshape(4, -1).tolist())):
            norm = math.hypot(x.real, x.imag, y.real, y.imag)
            if 0.0 < norm < math.inf:
                x, y, log_scale = x / norm, y / norm, log_scale + math.log(norm)
            heads.append((x, y))
            x, y, log_scale = p11 * x + p12 * y, p21 * x + p22 * y, log_scale + plog
        state = np.array([x, y])
        if certified and project is None:
            continue
        # block j of superblock s starts at its first j blocks times its
        # head, and ends at its first j + 1
        starts[0] = np.array(heads).T
        _sweep(tops, starts[0], starts[1:], spare)
        n2 = None if certified else np.linalg.norm(starts, axis=1) ** 2
        if project is None:
            _guard(step0, b + 1, n2)
        else:
            turn += _head_turns(starts, b + 1, step0, m, project, generator,
                                energy, series, poly, n2)
    return state, log_scale, turn


def _unit(states):
    """The (2, n) ``states`` over their norms, in place; a zero or non-finite norm is left as 1."""
    norm = np.hypot(np.abs(states[0]), np.abs(states[1]))
    norm[~((0.0 < norm) & (norm < math.inf))] = 1.0
    states /= norm
    return states


def _refuse(step, growth=None):
    """Raise StepTooLarge for ``step``: its norm growth, or a turn of c over 1.5 rad."""
    what = ("the band amplitude turned over 1.5 rad" if growth is None
            else f"norm grew {growth:.2f}-fold" if math.isfinite(growth)
            else "the state is no longer finite")
    raise StepTooLarge(f"{what} in step {step}; the fixed step cannot "
                       "follow this spectrum", step=step, growth=growth)


def _guard(step0, nb, n2, turned=None):
    """Raise StepTooLarge at the first of a chunk's nb one-step blocks that fails a guard.

    The heads are the steps: block k is step step0 + k, from head k to
    head k + 1. For an uncertified cycle, ``n2`` holds the squared norms
    of the heads, (_GROUP + 1, nsuper) as the superblocks hold them, and
    a step fails that grows it a hundredfold or leaves it without a
    finite value; a certified cycle passes None. ``turned`` holds the
    blocks' turns of c, and a turn over _MAX_TURN fails.
    """
    bad = np.zeros(nb, dtype=bool) if turned is None else np.abs(turned) > _MAX_TURN
    if n2 is not None:
        # written so that a norm that is not finite fails it too
        grown = ~(n2[1:] <= _GROWTH_LIMIT_SQ * n2[:-1]).T.ravel()[:nb]
        bad |= grown
    if bad.any():
        k = int(bad.argmax())
        s, j = divmod(k, _GROUP)
        _refuse(step0 + k, float(np.sqrt(n2[j + 1, s] / n2[j, s]))
                if n2 is not None and grown[k] else None)


def _head_turns(rows, nb, step0, m, project, generator, energy, series, poly, n2):
    """The turn of c = project . psi over the nb blocks of a chunk of m steps, from their heads.

    rows[j, :, s] is the state at head j = 0 .. _GROUP of superblock s, the
    start of its block j and the end of its block j - 1, as the block
    products give it from the superblock's head. Where the blocks are
    single steps, the angle of c from head to head is a step's turn, and
    ``_guard`` refuses the first that turns c over _MAX_TURN or, by the
    squared head norms ``n2`` of an uncertified cycle, grows too much.

    Longer blocks: with the dynamical phase Phi = Re int E_b dt divided
    out, c~ = c exp(i Phi) turns only by the geometric and non-adiabatic
    phase (and RK4's phase error), so a block turns c by the principal
    angle of c~ at its end over c~ at its start, minus its Phi. That holds
    where the heads show that c~ turns slowly and stays clear of zero: c~
    turns at most _HEAD_TURN, and at both heads |c| is at least _FAINT
    |project| |psi| and the other band's part of c at most _LEAK of the
    followed band's. The parts come from the spectral projectors: with K
    = H - tr H / 2 and e = E_b - tr H / 2 at a head, project . (K + e) psi
    and project . (K - e) psi are the followed and the other band's parts
    times 2 e and -2 e. Every other block is stepped one at a time by
    ``_stepped_turns``; so is every block where ``energy`` does not bound
    a step's turn of c (``bounds_steps``).
    """
    length, nsuper = series.length, rows.shape[2]
    x, y = rows[:, 0], rows[:, 1]
    c = project[0] * x + project[1] * y
    turned = c[1:] * np.conj(c[:-1])
    if length == 1:
        # block s _GROUP + j at [j, s]
        turned = np.arctan2(turned.imag, turned.real).T.ravel()[:nb]
        _guard(step0, nb, n2, turned)
        return float(turned.sum())
    if energy.bounds_steps():
        at = np.minimum(step0 + length * (_GROUP * np.arange(nsuper)
                                          + np.arange(_GROUP + 1)[:, None]), step0 + m)
        e, phi, e_end, phi_end = energy.at(series, at[0], step0 + m)
        # the chunk's last block may be short: it ends where the chunk does
        s, j = divmod(nb - 1, _GROUP)
        e[j + 1, s], phi[j + 1, s] = e_end, phi_end
        u = series._phasors(at)
        ubar = np.conj(u)
        trace = np.trace(generator, axis1=1, axis2=2)
        e -= 0.5 * (trace[0] * ubar + trace[1] + trace[2] * u)
        lk = project @ (generator - 0.5 * trace[:, None, None] * np.eye(2))
        k = ((lk[0, 0] * x + lk[0, 1] * y) * ubar + lk[1, 0] * x + lk[1, 1] * y
             + (lk[2, 0] * x + lk[2, 1] * y) * u)
        e *= c
        # written so that a NaN fails each test too
        clear = ((np.abs(k - e) <= _LEAK * np.abs(k + e))
                 & (np.abs(c) >= _FAINT * np.linalg.norm(project) * np.hypot(np.abs(x), np.abs(y))))
        dphi = energy.rate * np.diff(at, axis=0) + np.diff(phi, axis=0)
        turned *= np.exp(1j * dphi)
        turned = np.arctan2(turned.imag, turned.real)
        slow = (np.abs(turned) <= _HEAD_TURN) & clear[:-1] & clear[1:]
        turned -= dphi
        # block s _GROUP + j at [j, s]
        turned, slow = turned.T.ravel()[:nb], slow.T.ravel()[:nb]
        stepped = np.flatnonzero(~slow)
    else:
        turned, stepped = np.empty(nb), np.arange(nb)
    if stepped.size:
        s, j = divmod(stepped, _GROUP)
        turned[stepped] = _stepped_turns(_unit(rows[j, :, s].T), step0 + length * stepped,
                                         step0 + m, project, series, poly)
    return float(turned.sum())


def _stepped_turns(starts, firsts, end, project, series, poly):
    """The turn of c over blocks from unit ``starts`` (2, n) at steps ``firsts``, step by step.

    Every step's matrix, state and angle of c over c at the step before,
    vectorized across the blocks; steps from ``end`` on take M = I.
    Raises StepTooLarge at the first step that turns c over _MAX_TURN.
    """
    n = firsts + np.arange(series.length)[:, None]
    mats = _laurent(poly, series._phasors(n), np.empty(6 * n.size, dtype=complex))
    mats.transpose(0, 3, 1, 2)[n >= end] = np.eye(2)
    states = np.empty((series.length, 2, n.shape[1]), dtype=complex)
    _sweep(mats, starts, states, np.empty_like(starts))
    c = project @ states
    turns = c * np.conj(np.vstack([project @ starts, c[:-1]]))
    turns = np.arctan2(turns.imag, turns.real)
    bad = np.abs(turns) > _MAX_TURN
    if bad.any():
        _refuse(int(n[bad].min()))
    return turns.sum(axis=0)


def evolve(model, schedule, psi0, dual=False):
    """Integrate one cycle from psi0; returns psi(T), one state of shape (2,).

    Classical 4th-order stepping at fixed step T/steps, the matrix
    entries read once per cycle at u = 1, i and -1. A single step growing
    the squared norm a hundredfold aborts the run: the step size is
    unstable against the local spectrum, and no later result would mean
    anything. A final state outside the floating-point range raises
    AmplitudeOutOfRange.
    """
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    if not np.all(np.isfinite(psi0)):
        raise ValueError("initial state must be finite")
    if not np.any(psi0 != 0.0):
        raise ValueError("initial state must be nonzero")

    state, log_scale, _ = _propagate(model, schedule, psi0, dual=dual)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        psi_final = state * np.exp(log_scale)
        log_norm = log_scale + float(np.log(np.linalg.norm(state)))
    if not (np.all(np.isfinite(psi_final)) and np.any(psi_final != 0.0)):
        raise AmplitudeOutOfRange(
            f"the final state has norm exp({log_norm:.6g}), outside the "
            "floating-point range", log_scale=log_norm)
    return psi_final


@functools.lru_cache(maxsize=_LOOPS)
@np.errstate(all="ignore")
def _band_samples(key, model):
    """Per band, the samples and coefficients (K, e, a) of its energy series, or None.

    E_b is analytic and periodic in the drive wherever the loop is gapped,
    so one short series gives it at any phasor (Trefethen & Weideman, as
    in ``_BlockSeries``). ``model.energies`` samples both bands at K roots
    of unity, its branch anchored at u = 1 as the step grid's trapezoid
    anchors its first chunk, and one FFT gives band b's coefficients a_J.
    K doubles from 16 until the top quarter of them sits at rounding; a
    band is None where K passes _MAX_SAMPLES first. No cycle time enters, so ``_kept`` keeps
    them per model: at most 147 kB, with the bands settled at 2048 and
    1024 samples.
    """
    settled, size = [None, None], 16
    while None in settled and size <= _MAX_SAMPLES:
        e = model.energies(np.exp((2j * math.pi / size) * np.arange(size)))
        for b in (0, 1):
            if settled[b] is not None:
                continue
            a = np.fft.fft(e[b]) / size
            # written so that a non-finite coefficient fails it too
            if (np.abs(a[3 * size // 8:5 * size // 8 + 1]).max()
                    <= _ROUNDING * np.abs(a).max()):
                _frozen(e, a)
                settled[b] = size, e, a
        size *= 2
    return tuple(settled)


class _BandEnergy:
    """The followed band's energy E_b over one cycle, from one Fourier series.

    The series is band b's of ``_band_samples``, kept per model; this
    instance adds what the cycle time sets. It gives ``total`` = T a_0,
    the integral over the cycle, and ``max_im_half_gap``; ``at`` gives
    E_b and Re int E_b dt at block heads. ``coef`` is None where the
    series did not settle; ``total`` is then the trapezoid of the band
    energies on the step grid, and ``max_im_half_gap`` their extreme,
    taken chunk by chunk, each chunk on the branch of its own anchor. The
    root's sign is re-matched at each seam against the previous chunk's
    last value: the ambiguity flips both bands.
    """

    @np.errstate(all="ignore")
    def __init__(self, model, schedule, band):
        self.coef, h = None, schedule.period_T / schedule.steps
        settled = _kept(_band_samples, model)[band]
        if settled is None:
            self.total, self.max_im_half_gap, last = 0.0 + 0.0j, 0.0, None
            for step0 in range(0, schedule.steps, _CHUNK):
                e = model.energies(schedule.phasors(
                    step0, min(_CHUNK, schedule.steps - step0) + 1))
                if last is not None and abs(e[0, 0] + last) < abs(e[0, 0] - last):
                    e = e[::-1]
                sel, last = e[band], complex(e[0, -1])
                self.total += h * (sel.sum() - 0.5 * (sel[0] + sel[-1]))
                self.max_im_half_gap = max(self.max_im_half_gap, float(
                    np.abs(np.imag(0.5 * (e[0] - e[1]))).max()))
            return
        size, e, a = settled
        self.coef, self.power = a, np.r_[0:size // 2, -(size // 2):0]
        self.total = schedule.period_T * complex(a[0])
        self.rate = h * float(a[0].real)
        self.max_im_half_gap = float(np.abs(0.5 * (e[0] - e[1]).imag).max())
        # a step turns a band's part of c by the angle of RK4's stability
        # function R(z) at z = -i h E; the other band's part, up to _LEAK of
        # the followed band's, turns c by as much as its ratio moves
        z = -1j * h * e
        r = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
        self.step_turn = float(np.abs(np.angle(r[band])).max() + _LEAK / (1.0 - _LEAK)
                               * np.abs(r[1 - band] / r[band] - 1.0).max())
        # the periodic part of int E_b dt: a_J T / (2 pi i J) u^J
        self.integral = np.where(self.power == 0, 0.0,
                                 a * (schedule.period_T / (2j * math.pi)) / self.power)
        self.rows = None

    def bounds_steps(self):
        """Whether the series settled and keeps every step's turn under the guard's."""
        return self.coef is not None and self.step_turn + _SLOW_TURN < _MAX_TURN

    def at(self, series, firsts, end):
        """(E_b, the periodic part of Re int E_b dt) at block heads, then both at step ``end``.

        The heads are j series.length steps past each superblock's first
        step in ``firsts``, j = 0 .. _GROUP, on the table phasors of
        ``series``: two (_GROUP + 1, n) arrays. As in
        ``_BlockSeries.products``, one matmul multiplies the powers U^J of
        each first phasor by the series shifted once per cycle to each j.
        """
        if self.rows is None:
            shifts = series._phasors(
                series.length * np.arange(_GROUP + 1)[:, None] * self.power)
            self.rows = np.stack([self.coef * shifts, self.integral * shifts], axis=-1)
        powers = series._phasors(np.append(firsts, end)[:, None] * self.power)
        heads = np.matmul(powers[:-1], self.rows)
        tail = powers[-1] @ self.rows[0]
        return heads[..., 0], heads[..., 1].real, tail[0], tail[1].real


@functools.lru_cache(maxsize=_LOOPS)
def _loop_constants(key, model):
    """Both bands' loop phases and their kets (right, conjugated left) at alpha = 0.

    The loop phases are ``global_berry_phase``'s on the standard loop of
    1024 samples, so a loop without one raises its refusal here. No
    cycle time enters, so ``_kept`` keeps them per model.
    """
    r = global_berry_phase(standard_loop(model.kind, 1024), model)
    frame = model.eigen_path(np.array([0.0]))
    # alpha(T) = 2 pi is one full period past alpha(0) = 0, where the
    # single-point closed-form frame coincides with the one at alpha(0),
    # so both end-of-cycle projections use the frame built here
    kets = tuple((frame.right[:, b, 0], np.conj(frame.left[:, b, 0])) for b in (0, 1))
    _frozen(*(v for pair in kets for v in pair))
    return ((complex(r.gamma_b_plus, r.xi_b_plus),
             complex(r.gamma_b_minus, r.xi_b_minus)), kets)


def adiabatic_decomposition(model, schedule, band):
    """Evolve one band eigenstate through a cycle and split its phase.

    The initial state is the closed-form band eigenvector at alpha(0);
    c(t) = <lambda_band(0)|psi(t)> is projected at the block heads, and
    at every step of the blocks whose heads cannot vouch for its turn,
    and its argument accumulated continuously. The dynamical part is T
    times the mean of the band energy series, or the trapezoid of the
    band energies on the step grid where that series does not settle. The
    loop phase is this band's of ``global_berry_phase`` on the standard
    loop of 1024 samples, bit for bit, taken before any step: a loop
    without one, on a two-level singular line, at hopping ratio 1 or in
    the chain's gapless region, where exceptional points sit on the loop
    and no band can be followed around it, is refused before the cycle
    runs.
    """
    b = band_index(band)
    gammas, kets = _kept(_loop_constants, model)
    psi, lam_sel = kets[b]
    lam_oth = kets[1 - b][1]
    energy = _BandEnergy(model, schedule, b)
    state, log_scale, accum = _propagate(model, schedule, psi,
                                         project=lam_sel, energy=energy)

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
    gamma_geo = gammas[b]
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

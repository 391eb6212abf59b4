"""Cycle integration, its stability guards, and the adiabatic phase split."""

import cmath
import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berryline.berry import (band_berry_phase, bipartite_phase_point,
                             two_level_phase_point)
from berryline.elliptic import closed_form_gamma
from berryline import evolution
from berryline.errors import (AmplitudeOutOfRange, BandLeakage, BerrylineError,
                              SingularLoop, StepTooLarge,
                              UndefinedAtTransition)
from berryline.evolution import (_BLOCK, _CHUNK, _GROUP, Schedule,
                                 _BandEnergy, _generator, _laurent, _product,
                                 _step_polynomial, adiabatic_decomposition,
                                 evolve)
from berryline.models import (
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    band_index,
    standard_loop,
)
from berryline.quadrature import pearson_line
from oracles import (assemble_two_level, broadcast_step_matrices,
                     draw_two_level, exact_cycle, exact_total_phase,
                     point_system, scalar_rk4, unwrapped_two_level_energies)


def _tl(h, d, theta):
    return TwoLevelParams(h_x=h[0], h_y=h[1], h_z=h[2],
                          d_x=d[0], d_y=d[1], d_z=d[2], theta=theta)


def _chain(q, eta):
    return BipartiteModel(BipartiteParams.from_ratios(q, eta))


def test_schedule_rejects_thin_step_budgets():
    with pytest.raises(ValueError):
        Schedule(period_T=1.0, steps=999)
    # 4999 steps over T = 500 is fewer than 10 per unit time
    with pytest.raises(ValueError):
        Schedule(period_T=500.0, steps=4999)
    assert Schedule(period_T=500.0, steps=5000).steps == 5000


def test_schedule_rejects_bad_periods_and_paths():
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Schedule(period_T=bad, steps=1000)
    # the drive is always alpha(t) = 2 pi t / T; no other path is taken
    with pytest.raises(TypeError):
        Schedule(period_T=1.0, steps=1000, path=lambda t: t)


def test_schedule_refuses_unbounded_and_non_integer_step_counts():
    # 2^24 steps is under a second of RK4; a count past it would run on
    # without bound as T grows, and a fractional count used to truncate
    assert Schedule(period_T=1.0, steps=2 ** 24).steps == 2 ** 24
    assert Schedule(period_T=1.0, steps=np.int64(1000)).steps == 1000
    for steps, message in (
            (2 ** 24 + 1, "need at most 16777216 steps, got 16777217"),
            (10 ** 13, "need at most 16777216 steps, got 10000000000000"),
            (1000.5, "step count must be an integer, got 1000.5"),
            (1000.0, "step count must be an integer, got 1000.0"),
            ("1000", "step count must be an integer, got '1000'")):
        with pytest.raises(ValueError) as info:
            Schedule(period_T=1.0, steps=steps)
        assert str(info.value) == message


def test_schedule_default_path_is_linear_over_one_turn():
    # step n is at t = n h, so the drive reaches a quarter turn at
    # n = steps / 4 and closes the turn at n = steps
    sched = Schedule(period_T=8.0, steps=1000)
    u = sched.phasors(0, 1001)
    assert u[0] == 1.0
    ulp = np.spacing(1.0)
    for j, want in ((250, 1j), (1000, 1.0)):
        assert abs(u[j].real - want.real) <= 2 * ulp
        assert abs(u[j].imag - want.imag) <= 2 * ulp


@pytest.mark.parametrize("steps, start, stop, stride", [
    # two whole turns: the step index is reduced into one turn in integers
    (1000, 0, 2001, 1),
    (10240, 0, 20481, 1),
    # a stride prime to the table's 256 columns meets every fine phasor
    # and every coarse row
    (278000, 0, 556001, 13),
    # the last 65536 steps of the longest cycle's second turn and 167
    # steps past its end
    (2 ** 24, 2 * (2 ** 24 - 2 ** 15), 2 ** 25 + 167, 5),
])
def test_schedule_phasors_match_the_exact_drive(steps, start, stop, stride):
    u = Schedule(period_T=1.0, steps=steps).phasors(start, stop - start)
    j = np.arange(start, stop, stride)
    with mpmath.workprec(80):
        want = np.array([complex(mpmath.expjpi(mpmath.mpf(2 * i) / steps))
                         for i in j.tolist()])
    assert np.abs(u[j - start] - want).max() <= 1.5e-15


class _Recorder:
    """A model that records the phasors its rows and energies are read at."""

    def __init__(self, model):
        self.model, self.at_rows, self.at_energies = model, [], []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def entry_rows(self, phasors):
        self.at_rows.append(np.array(phasors))
        return self.model.entry_rows(phasors)

    def energies(self, phasors, out=None):
        self.at_energies.append(np.array(phasors))
        return self.model.energies(phasors, out)


@pytest.mark.parametrize("steps", [1000, 40000, 2 ** 17 + 3])
def test_every_chunk_reads_its_slice_of_the_cycle_grid(steps, monkeypatch):
    sched = Schedule(period_T=float(steps) / 10.0, steps=steps)
    at_steps, fitted = [], []
    block_series = evolution._BlockSeries

    def recorded(c, u, work):
        at_steps.append(np.array(u))
        return _laurent(c, u, work)

    def fit(*args):
        # the series samples off the cycle grid, once per cycle
        with monkeypatch.context() as unrecorded:
            unrecorded.setattr(evolution, "_laurent", _laurent)
            fitted.append(block_series(*args))
        return fitted[-1]

    monkeypatch.setattr(evolution, "_laurent", recorded)
    monkeypatch.setattr(evolution, "_BlockSeries", fit)
    recorder = _Recorder(_chain(2.0, 0.3))
    adiabatic_decomposition(recorder, sched, "plus")
    monkeypatch.undo()
    # the entry rows are read once per cycle, at the phasors 1, i and -1
    assert len(recorder.at_rows) == 1
    assert recorder.at_rows[0].tolist() == [1.0, 1j, -1.0]
    # the band energies once per size of their series, at its roots of
    # unity from u = 1, never on the cycle grid
    sizes = [u.size for u in recorder.at_energies]
    assert sizes == [16 * 2 ** k for k in range(len(sizes))]
    for u in recorder.at_energies:
        roots = np.exp((2j * math.pi / u.size) * np.arange(u.size))
        assert u.tobytes() == roots.tobytes()
    (series,) = fitted
    length = series.length
    assert length == 64
    whole = sched.phasors(0, steps + _CHUNK)
    # step phasors are read only in the blocks stepped one at a time and
    # in the cycle's last block: each is its block's run of the cycle grid
    block_of = {whole[n].tobytes(): n for n in range(0, steps, length)}
    blocks = []
    for u in at_steps:
        assert u.shape[0] == length
        for run in u.T:
            n = block_of[run[0].tobytes()]
            assert run.tobytes() == whole[n:n + length].tobytes()
            blocks.append(n // length)
    # the cycle's last block once, and a few blocks where c~ nears zero
    assert blocks.count((steps - 1) // length) == 1
    assert 2 <= len(blocks) == len(set(blocks)) <= 10
    # and any run of the grid is its slice, wherever it starts
    rng = np.random.default_rng(5)
    for start in rng.integers(0, steps, 20).tolist():
        count = int(rng.integers(1, 2000))
        assert (sched.phasors(start, count).tobytes()
                == whole[start:start + count].tobytes())
    # the powers of the series are table phasors of the grid, and a
    # block's product depends on its index alone: superblocks that one
    # product shape places at other rows give the same bits
    n = np.arange(0, steps, 7)
    assert series._phasors(n).tobytes() == whole[n].tobytes()
    nsuper = -(-min(steps, _CHUNK) // (length * _GROUP))
    out = np.empty((_GROUP, nsuper, 4), dtype=complex)
    first = series.products(0, out).copy()
    for shift in range(1, nsuper):
        moved = series.products(shift * length * _GROUP, out)
        assert moved[:, :-shift].tobytes() == first[:, shift:].tobytes()


@pytest.mark.parametrize("sign_region", ["positive", "negative"])
def test_two_level_energies_take_the_unwrapped_branch(sign_region,
                                                      monkeypatch):
    # the principal root with sign flips against the former np.unwrap
    # form: the same branch at every sample, to rounding
    rng = np.random.default_rng([7, sign_region == "positive"])
    sched = Schedule(period_T=409.6, steps=4096)
    u = sched.phasors(0, sched.steps + 1)
    left = []
    for _ in range(100):
        p = draw_two_level(rng, sign_region)
        got = TwoLevelModel(p).energies(u)
        want = unwrapped_two_level_energies(p, u)
        assert np.all((got * np.conj(want)).real > 0.0)
        assert (np.abs(got - want) / np.abs(want)).max() <= 4e-15
        # arg w leaves (-pi, pi] where the tracked root turns left of the
        # imaginary axis
        if (want[0].real < 0.0).any():
            left.append(p)
    assert len(left) >= 30
    # a cycle of three chunks: the series reads the whole cycle's branch
    # from u = 1; where no series settles, the step grid's trapezoid takes
    # each chunk on the branch of its own anchor, re-matched at the seams
    sched = Schedule(period_T=7000.0, steps=2 * _CHUNK + 5000)
    whole = sched.phasors(0, sched.steps + 1)
    h = sched.period_T / sched.steps
    for p in left[:4]:
        model = TwoLevelModel(p)
        fitted = [_BandEnergy(model, sched, b) for b in (0, 1)]
        with monkeypatch.context() as unsettled:
            # no series gets a sample
            unsettled.setattr(evolution, "_MAX_SAMPLES", 8)
            evolution._band_samples.cache_clear()
            integrals = [_BandEnergy(model, sched, b) for b in (0, 1)]
        evolution._band_samples.cache_clear()
        for step0 in range(0, sched.steps, _CHUNK):
            m = min(_CHUNK, sched.steps - step0)
            chunk = sched.phasors(step0, m + 1)
            want = unwrapped_two_level_energies(p, chunk)
            got = model.energies(chunk)
            assert np.all((got * np.conj(want)).real > 0.0)
            assert (np.abs(got - want) / np.abs(want)).max() <= 4e-15
        for b in (0, 1):
            e = unwrapped_two_level_energies(p, whole)[b]
            want = h * (e.sum() - 0.5 * (e[0] + e[-1]))
            assert fitted[b].coef is not None and integrals[b].coef is None
            for integral in (fitted[b], integrals[b]):
                assert abs(integral.total - want) <= 1e-13 * h * np.abs(e).sum()


def test_evolve_constant_diagonal_matches_the_exact_exponential():
    # theta = 0 kills the off-diagonal entries, so H = diag(h_z, -h_z) and
    # the upper amplitude is a pure phasor while the lower never turns on.
    model = TwoLevelModel(_tl((0.7, 0.4, 1.0), (0.0, 0.0, 0.0), 0.0))
    psi = evolve(model, Schedule(period_T=1.0, steps=1000), (1.0, 0.0))
    assert abs(psi[0] - cmath.exp(-1j)) < 1e-12
    assert psi[1] == 0.0


def test_evolve_final_norm_follows_the_decay_law():
    # theta = 0 with d_z < 0: the upper amplitude decays as exp(-0.3 t)
    model = TwoLevelModel(_tl((0.7, 0.4, 0.0), (0.0, 0.0, -0.3), 0.0))
    psi = evolve(model, Schedule(period_T=4.0, steps=1024), (1.0, 0.0))
    assert abs(np.linalg.norm(psi) - math.exp(-0.3 * 4.0)) < 1e-10


def test_evolve_input_guards():
    model = TwoLevelModel(_tl((0.7, 0.4, 1.0), (0.0, 0.0, 0.0), 0.0))
    sched = Schedule(period_T=1.0, steps=1000)
    with pytest.raises(ValueError):
        evolve(model, sched, (0.0, 0.0))
    with pytest.raises(ValueError):
        evolve(model, sched, (math.nan, 1.0))


def test_dual_evolution_matches_forward_for_hermitian_matrices():
    model = TwoLevelModel(_tl((1.1, 0.8, 0.5), (0.0, 0.0, 0.0), 1.0))
    sched = Schedule(period_T=3.0, steps=1500)
    psi0 = np.array([0.6, 0.8j])
    assert np.array_equal(evolve(model, sched, psi0),
                          evolve(model, sched, psi0, dual=True))


def test_dual_pairing_is_conserved_for_lossy_chains():
    # <chi|psi> is a constant of motion when chi follows the adjoint flow,
    # even though psi decays and chi grows by e^{eta T} separately.
    model = _chain(2.0, 0.5)
    sched = Schedule(period_T=10.0, steps=20000)
    rng = np.random.default_rng(314)
    psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi_t = evolve(model, sched, psi0)
    chi_t = evolve(model, sched, chi0, dual=True)
    before = np.vdot(chi0, psi0)
    after = np.vdot(chi_t, psi_t)
    assert abs(after - before) < 1e-8 * max(1.0, abs(before))


def test_evolve_aborts_on_an_unstable_step():
    # |E| h = 4.5 per step sits far outside the stability region
    model = TwoLevelModel(_tl((0.7, 0.4, 45.0), (0.0, 0.0, 0.0), 0.0))
    with pytest.raises(StepTooLarge) as info:
        evolve(model, Schedule(period_T=100.0, steps=1000), (1.0, 1.0))
    assert info.value.step == 0
    assert info.value.growth > 10.0


def test_evolve_is_self_convergent_under_step_refinement():
    # the state shrinks by hundreds of orders of magnitude over this cycle,
    # so agreement is judged relative to the surviving amplitude
    model = _chain(2.0, 0.5)
    coarse = evolve(model, Schedule(period_T=500.0, steps=131072), (1.0, 0.0))
    fine = evolve(model, Schedule(period_T=500.0, steps=262144), (1.0, 0.0))
    scale = np.linalg.norm(fine)
    assert 0.0 < scale < 1e-50
    assert np.linalg.norm(coarse - fine) < 1e-6 * scale


@pytest.mark.parametrize("band", ["plus", "minus"])
@pytest.mark.parametrize("model, T", [
    # the benchmark's three loops
    (_chain(2.0, 0.3), 64.0),
    (TwoLevelModel(_tl((1.2, 1.2, -0.4), (0.0, 0.0, 0.0), 1.0)), 64.0),
    (TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0)), 64.0),
    (_chain(0.5, 0.2), 64.0),
    # TYPE_I loops on either side of q = 1 read the closed form; only a
    # cycle this fast keeps their state in its band
    (_chain(0.999999, 5e-7), 0.25),
    (_chain(1.000001, 5e-7), 0.25),
])
def test_loop_phase_is_the_point_evaluators_band_phase(model, T, band):
    steps = max(1000, math.ceil(3.0 * T ** 1.5))
    r = adiabatic_decomposition(model, Schedule(period_T=T, steps=steps), band)
    p = model.params
    point = (two_level_phase_point(p) if model.kind == "two-level"
             else bipartite_phase_point(p.q, p.eta))
    want = ((point.gamma_b_plus, point.xi_b_plus) if band == "plus"
            else (point.gamma_b_minus, point.xi_b_minus))
    assert np.array([r.gamma_g, r.xi_g]).tobytes() == np.array(want).tobytes()
    if model.kind == "bipartite" and T < 1.0:
        assert complex(*want) == closed_form_gamma(p.q, p.eta, band)
    # the uniform refinement of the loop agrees within its settle slack
    loop = standard_loop(model.kind, 4096)
    assert abs(complex(*want) - band_berry_phase(loop, model, band)) <= 1e-9


@pytest.mark.parametrize("model, error", [
    # |d_y| = |h_y|, hopping ratio 1, and a gapless chain, whose
    # exceptional points sit on the loop
    (TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 1.0, 0.0), 1.0)), SingularLoop),
    (_chain(1.0, 0.3), UndefinedAtTransition),
    (_chain(1.2, 0.25), SingularLoop),
])
def test_a_loop_without_a_phase_is_refused_before_any_step(
        model, error, monkeypatch):
    def propagate(*args, **kwargs):
        raise AssertionError("the cycle was stepped")

    monkeypatch.setattr(evolution, "_propagate", propagate)
    with pytest.raises(error):
        adiabatic_decomposition(
            model, Schedule(period_T=1.0, steps=16777216), "plus")


def test_decomposition_lossless_chain_recovers_the_loop_phase():
    model = _chain(2.0, 0.0)
    sched = Schedule(period_T=200.0, steps=5657)
    r = adiabatic_decomposition(model, sched, "plus")
    assert abs(r.gamma_g - math.pi) < 1e-9
    assert abs(r.xi_g) < 1e-12
    assert abs(r.xi_d) < 1e-12
    assert r.defect < 0.05
    assert not r.strong_regime
    assert r.leak_ratio < 0.01
    assert abs(r.total_phase.imag) < 1e-3


def test_decomposition_lossy_chain_accounting():
    q, eta, T = 2.0, 0.3, 512.0
    model = _chain(q, eta)
    r = adiabatic_decomposition(model, Schedule(period_T=T, steps=23170), "plus")
    # the uniform loss contributes an exactly linear-in-T amplitude rate
    assert abs(r.xi_d - eta * T) < 1e-6
    assert abs(complex(r.gamma_g, r.xi_g) - closed_form_gamma(q, eta, "plus")) < 1e-6
    assert 0.0 <= r.defect < 0.05
    assert r.leak_ratio < 0.01
    assert not r.strong_regime
    assert np.all(np.isfinite(r.psi_final))


def test_decomposition_flags_strongly_attenuated_cycles():
    # deep over-damped chain: the imaginary gap dominates the whole cycle
    model = _chain(0.5, 2.5)
    r = adiabatic_decomposition(model, Schedule(period_T=200.0, steps=2000), "plus")
    assert r.strong_regime
    assert r.leak_ratio < 0.01


def test_band_leakage_raised_when_the_cycle_is_too_fast():
    model = _chain(2.0, 0.3)
    with pytest.raises(BandLeakage) as info:
        adiabatic_decomposition(model, Schedule(period_T=1.0, steps=1000), "plus")
    assert info.value.ratio > 0.1
    # an even faster cycle barely moves the state at all, which keeps the
    # leak under the budget while the decomposition itself stays meaningless
    r = adiabatic_decomposition(model, Schedule(period_T=0.5, steps=1000), "plus")
    assert r.leak_ratio <= 0.1
    assert r.defect > 0.1


def test_hermitian_defect_falls_inversely_with_cycle_time():
    # h_z < 0 keeps the instantaneous frame from winding around the fixed
    # projection reference, so the defect is a genuine 1/T adiabatic error
    model = TwoLevelModel(_tl((1.2, 1.2, -0.4), (0.0, 0.0, 0.0), 1.0))
    cycle_times = [1.0e2, 1.0e3, 1.0e4]
    defects = []
    for T in cycle_times:
        sched = Schedule(period_T=T, steps=math.ceil(2.0 * T ** 1.5))
        r = adiabatic_decomposition(model, sched, "plus")
        assert r.leak_ratio < 0.05
        assert not r.strong_regime
        defects.append(r.defect)
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 1e-3
    slope, _, corr = pearson_line(np.log(cycle_times), np.log(defects))
    assert abs(slope + 1.0) < 0.3
    assert corr < -0.999
    # the slowest Hermitian drive shows no spurious attenuation either
    assert abs(r.total_phase.imag) < 1e-6


class _BurstDrive:
    """Uniform loss at ``decay`` with a 50-fold gain burst for t in (at + 0.02, at + 0.27).

    On a 0.1 grid the burst covers both late stages of the step at t = at
    and grows the norm about 24-fold there, well past the stability guard.
    """

    period = 2.0 * math.pi

    def __init__(self, T, decay, at=1500.0):
        self.T = T
        self.decay = decay
        self.at = at

    def entry_rows(self, phasors):
        # the time read off the drive angle, in [0, T)
        t = np.mod(np.angle(phasors), self.period) * (self.T / self.period)
        burst = (t > self.at + 0.02) & (t < self.at + 0.27)
        diag = np.where(burst, 50j, -1j * self.decay)
        zero = np.zeros_like(diag)
        return np.stack([diag, zero, zero, diag])


def _half_step_kernel(monkeypatch, drive, schedule):
    """Make the kernel step ``drive``, which is not affine in the phasor.

    Its step matrices become the broadcast composition of its entry rows
    on the half-step grid of each chunk's integer-step phasors u: u, u w
    and the next step's u w^2, for the half-step turn w. They come in a
    fresh array; the kernel's workspace goes unused. The drive has no
    step polynomial, so the kernel gets one of NaN coefficients, which no
    certificate covers: every step is read from the substitute.
    """
    h = schedule.period_T / schedule.steps
    w = np.exp(1j * math.pi / schedule.steps)

    def step_matrices(c, u, work):
        flat = u.T.ravel()
        half = np.empty(2 * flat.size + 1, dtype=complex)
        half[:-1:2], half[1::2], half[-1] = flat, flat * w, flat[-1] * w * w
        mats = broadcast_step_matrices(drive.entry_rows(half) * (-0.5j * h))
        return mats.reshape(2, 2, u.shape[1], len(u)).transpose(3, 0, 1, 2)

    monkeypatch.setattr(evolution, "_step_polynomial",
                        lambda generator, schedule: np.full((9, 2, 2), np.nan))
    monkeypatch.setattr(evolution, "_laurent", step_matrices)


@pytest.mark.parametrize("T, dual", [(1300.0, False), (2048.0, False),
                                     (2420.0, False), (1300.0, True),
                                     (2048.0, True)])
def test_evolve_returns_lossy_chain_states_at_their_true_scale(T, dual):
    # psi decays and its dual grows as exp(-+eta T); at T = 2420 psi is
    # subnormal, far below where its squared norm underflows
    model = _chain(2.0, 0.3)
    sched = Schedule(period_T=T, steps=math.ceil(10.0 * T))
    psi = evolve(model, sched, (0.6, 0.8j), dual=dual)
    assert np.all(np.isfinite(psi)) and np.any(psi != 0.0)
    rate = 0.3 if dual else -0.3
    assert abs(math.log(np.abs(psi).max()) - rate * T) < 3.0


@pytest.mark.parametrize("T, dual", [(4096.0, False), (2420.0, True),
                                     (4096.0, True)])
def test_evolve_refuses_states_outside_the_float_range(T, dual):
    model = _chain(2.0, 0.3)
    sched = Schedule(period_T=T, steps=math.ceil(10.0 * T))
    with pytest.raises(AmplitudeOutOfRange) as info:
        evolve(model, sched, (0.6, 0.8j), dual=dual)
    rate = 0.3 if dual else -0.3
    assert abs(info.value.log_scale - rate * T) < 3.0
    # the log of the final norm, as the rescaled scalar oracle has it
    psi, log_scale, _ = scalar_rk4(model, sched, (0.6, 0.8j), dual=dual,
                                   rescale=True)
    log_norm = log_scale + math.log(np.linalg.norm(psi))
    assert abs(info.value.log_scale - log_norm) <= 1e-9
    assert f"exp({info.value.log_scale:.6g})" in str(info.value)


def test_growth_guard_stays_live_after_the_state_leaves_the_float_range(
        monkeypatch):
    # by t = 1500 psi is ~1e-326, below the float range: the unscaled
    # oracle sees a zero squared norm and lets the burst through
    sched = Schedule(period_T=2000.0, steps=20000)
    drive = _BurstDrive(2000.0, decay=0.5)
    assert not np.any(np.abs(scalar_rk4(drive, sched, (0.6, 0.8))[0]) > 1e-300)
    _half_step_kernel(monkeypatch, drive, sched)
    with pytest.raises(StepTooLarge) as info:
        evolve(drive, sched, (0.6, 0.8))
    assert info.value.step == 15000
    assert info.value.growth > 10.0


def _close(value, reference, tol=1e-11):
    return np.all(np.abs(np.asarray(value) - reference)
                  <= tol * np.max(np.abs(reference)))


@pytest.mark.parametrize("model, T, steps", [
    (_chain(2.0, 0.3), 100.0, 40000),
    (TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0)), 50.0, 6000),
    # |E| h reaches 0.67: certified, but no block product has a short
    # series, so every block is one step
    (TwoLevelModel(_tl((10.0, 25.0, 0.0), (0.0, 0.0, 0.0), math.pi / 2)),
     1000.0, 40000),
])
@pytest.mark.parametrize("dual", [False, True])
def test_evolve_matches_the_scalar_oracle(model, T, steps, dual):
    # 40000 steps span two chunks
    sched = Schedule(period_T=T, steps=steps)
    psi0 = np.array([0.6, 0.8j])
    ref = scalar_rk4(model, sched, psi0, dual=dual)[0]
    assert _close(evolve(model, sched, psi0, dual=dual), ref)


@pytest.mark.parametrize("dual", [False, True])
def test_the_final_state_matches_the_oracle_across_the_seams(dual):
    # 32769 steps: a 32768-step chunk whose last superblock ends in 16
    # padding steps and two whole identity blocks, then a one-step chunk
    model = _chain(2.0, 0.3)
    sched = Schedule(period_T=100.0, steps=_CHUNK + 1)
    psi0 = np.array([0.6, 0.8j])
    ref = scalar_rk4(model, sched, psi0, dual=dual)[0]
    assert _close(evolve(model, sched, psi0, dual=dual), ref)


@pytest.mark.parametrize("model, degree", [
    # nilpotent H_+ and H_- stop the chain's steps at u^2 and u^-2
    (_chain(2.0, 0.3), 2),
    (TwoLevelModel(_tl((0.7, -1.3, 0.4), (0.3, 0.9, -0.2), 0.8)), 4),
    # theta = 0: H is constant and diagonal
    (TwoLevelModel(_tl((0.7, -1.3, 0.4), (0.3, 0.9, -0.2), 0.0)), 0),
], ids=["chain", "two-level", "two-level-theta0"])
@pytest.mark.parametrize("dual", [False, True])
def test_step_polynomial_matches_the_broadcast_composition(model, degree,
                                                           dual):
    # the oracle composes P, Q, R from entry rows at the exact half-step
    # phasors; the polynomial reads the rows at three phasors per cycle
    sched = Schedule(period_T=300.0, steps=3000)
    n = sched.steps
    rows = model.entry_rows(np.exp(1j * math.pi * np.arange(2 * n + 1) / n))
    if dual:
        rows = np.conj(rows[[0, 2, 1, 3]])
    want = broadcast_step_matrices(rows * (-0.5j * sched.period_T / n))
    c = _step_polynomial(_generator(model, dual), sched)
    assert np.abs(np.flatnonzero(c.reshape(9, 4).any(axis=1)) - 4).max() == degree
    u = sched.phasors(0, n).reshape(-1, 40).T.copy()
    got = _laurent(c, u, np.empty(6 * n, dtype=complex))
    got = got.transpose(1, 2, 3, 0).reshape(2, 2, n)
    # four ulp of the unit entries
    assert np.abs(got - want).max() <= 1e-15
    # diagonal steps keep exact zeros off the diagonal
    assert degree != 0 or not (got[0, 1].any() or got[1, 0].any()
                               or want[0, 1].any() or want[1, 0].any())


@pytest.mark.parametrize("model, T, fits", [
    (_chain(2.0, 0.3), 3600.0, True),
    # generic and not circular: no rotation makes its loop constant
    (TwoLevelModel(_tl((0.7, -1.3, 0.4), (0.3, 0.9, -0.2), 0.8)), 900.0, True),
    # its gain swings with the drive, so much at h = 0.1 that no series
    # keeps the rounding of its smaller products: each step is read
    (TwoLevelModel(_tl((1.0, 1.0, 0.2), (2.0, 0.0, 0.0), 1.0)), 3600.0, False),
], ids=["chain", "two-level", "swinging-gain"])
@pytest.mark.parametrize("dual", [False, True])
def test_every_block_product_matches_the_direct_product(model, T, fits, dual):
    # a chunk seam, then a short last chunk whose last block is short
    sched = Schedule(period_T=T, steps=_CHUNK + 4133)
    n = sched.steps
    rows = model.entry_rows(np.exp(1j * math.pi * np.arange(2 * n + 1) / n))
    if dual:
        rows = np.conj(rows[[0, 2, 1, 3]])
    mats = broadcast_step_matrices(rows * (-0.5j * T / n))
    c = _step_polynomial(_generator(model, dual), sched)
    series = evolution._BlockSeries(c, sched, _BLOCK)
    if series.rows is None:
        assert not fits
        return
    length = series.length
    # direct: the product of each block's step matrices, one step at a time
    nfull, short = divmod(n, length)
    assert short
    steps = np.zeros((2, 2, (nfull + 1) * length), dtype=complex)
    steps[0, 0] = steps[1, 1] = 1.0
    steps[..., :n] = mats
    steps = steps.reshape(2, 2, -1, length)
    direct = np.zeros((2, 2, nfull + 1), dtype=complex)
    direct[0, 0] = direct[1, 1] = 1.0
    for k in range(length):
        direct = np.einsum("ijb,jkb->ikb", steps[..., k], direct)
    # the series: every block of every chunk, at the kernel's product shape
    nsuper = _CHUNK // (length * _GROUP)
    out = np.empty((_GROUP, nsuper, 4), dtype=complex)
    got = np.concatenate([
        series.products(step0, out).transpose(1, 0, 2).reshape(-1, 4)
        for step0 in range(0, n, _CHUNK)])[:nfull]
    got = got.T.reshape(2, 2, -1) * math.exp(series.log_scale)
    want = direct[..., :nfull]
    size = np.linalg.norm(want.reshape(4, -1), axis=0)
    assert (np.linalg.norm((got - want).reshape(4, -1), axis=0) <= 1e-13 * size).all()
    # the short last block: the product of its own step matrices
    u = sched.phasors(nfull * length, length)[:, None]
    last = _laurent(c, u, np.empty(6 * length, dtype=complex))
    last[short:] = np.eye(2)[..., None]
    want = direct[..., -1]
    assert np.linalg.norm(_product(last)[..., 0] - want) <= 1e-13 * np.linalg.norm(want)


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.asarray(a).tobytes())
    return digest.hexdigest()


# sha256 of psi(T) as complex128 bytes: the CLI reference set pins no
# dual run
_pinned_runs = pytest.mark.parametrize("model, T, steps, dual, psi_sha", [
    (_chain(2.0, 0.3), 100.0, 40000, False,
     "573cdbb5979ce247c67ad31778c4dd45a318604643a1a5bc5afebe96c0fe6017"),
    (_chain(2.0, 0.3), 100.0, 40000, True,
     "9a897d3dcb347f01a562385394963c6519494ac681dd8592699ce07ae7caa114"),
    (TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0)), 50.0, 6000,
     False,
     "70bc212b391617adcaa2ea1a6910cef38d8c91231b310e686254659a65ed5139"),
    (TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0)), 50.0, 6000,
     True,
     "840a06f9cb10c7f666133ebf8f0ef59a7260de5924742236c3618c21718f6a47"),
], ids=["chain", "chain-dual", "two-level", "two-level-dual"])


@_pinned_runs
def test_public_evolve_keeps_its_bits(model, T, steps, dual, psi_sha):
    # the chain's 40000 steps span two chunks, the second with a ragged
    # last block
    psi = evolve(model, Schedule(period_T=T, steps=steps),
                 np.array([0.6, 0.8j]), dual=dual)
    assert _sha256(psi) == psi_sha


@_pinned_runs
def test_plain_evolve_forms_no_per_step_state(model, T, steps, dual, psi_sha,
                                              monkeypatch):
    # a certified cycle without a projection forms only its last state;
    # the per-step sweep is for the projection and the uncertified guards
    def no_sweep(*args):
        raise AssertionError("a per-step state was formed")

    monkeypatch.setattr(evolution, "_sweep", no_sweep)
    psi = evolve(model, Schedule(period_T=T, steps=steps),
                 np.array([0.6, 0.8j]), dual=dual)
    assert _sha256(psi) == psi_sha


@pytest.mark.parametrize("loop", ["chain", "hermitian", "gain-loss"])
@pytest.mark.parametrize("T, steps", [(256.0, 12288), (1024.0, 10240)],
                         ids=["c09", "cli"])
def test_the_decomposition_steps_only_the_blocks_its_heads_cannot_vouch_for(
        loop, T, steps, monkeypatch):
    # a certified cycle projects at its block heads; outside the block
    # series it evaluates the step matrices of its last block and of the
    # blocks it steps one at a time: at most 12 blocks of 64 steps (10 on
    # the chain at T = 256, where c~ nears zero; 1 on the Hermitian loop)
    model = {"chain": _chain(2.0, 0.3),
             "hermitian": TwoLevelModel(_tl((1.2, 1.2, -0.4), (0.0, 0.0, 0.0), 1.0)),
             "gain-loss": TwoLevelModel(_tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0))}[loop]
    evaluated, block_series = [], evolution._BlockSeries

    def counted(c, u, work):
        evaluated.append(u.size)
        return _laurent(c, u, work)

    def fit(*args):
        with monkeypatch.context() as uncounted:
            uncounted.setattr(evolution, "_laurent", _laurent)
            return block_series(*args)

    monkeypatch.setattr(evolution, "_laurent", counted)
    monkeypatch.setattr(evolution, "_BlockSeries", fit)
    adiabatic_decomposition(model, Schedule(period_T=T, steps=steps), "plus")
    assert _BLOCK <= sum(evaluated) <= 12 * _BLOCK


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4095))
def test_the_coefficient_sums_bound_the_growth_of_a_step(seed, turn):
    # |M_ij(u)| <= sum_j |C_j,ij| on |u| = 1 and |M x|^2 <= |M|_F^2 |x|^2,
    # the kernel's certificate, tight for M = [[1, 1], [1, 1]], x = (1, 1);
    # whole-number parts, so no square leaves the normal range
    values = np.random.default_rng(seed).integers(-1000, 1001, 76)
    c = values[:72].astype(float).view(complex).reshape(9, 2, 2)
    x = values[72:].astype(float).view(complex)
    u = np.exp(2j * math.pi * turn / 4096)
    m = (c * u ** np.arange(-4, 5)[:, None, None]).sum(axis=0)
    bound = (np.abs(c).sum(axis=0) ** 2).sum()
    growth = np.linalg.norm(m @ x) ** 2
    assert growth <= bound * np.linalg.norm(x) ** 2 * (1.0 + 1e-14)


# H = [[0, c1], [0, 0]] along the whole loop, so each RK4 step is I + M_12:
# at h = 0.1 |M_12| reaches 10 and the coefficient sums bound the squared
# growth by 102, yet no step grows the squared norm more than 74.6-fold
# (27.4-fold in the dual run)
_NILPOTENT = TwoLevelModel(_tl((50.0, 50.0, 0.0), (50.0, 50.0, 0.0),
                               math.pi / 2))


@pytest.mark.parametrize("dual, psi_sha", [
    (False, "bec4a88e6250583d2b4335f5fda483021e00386b10195f1133781602e4d1a424"),
    (True, "df9c8be6ea03082319d11cdd1b3e2462b2fb713f2481557b13ff122c89b23924"),
], ids=["forward", "dual"])
def test_an_uncertified_cycle_that_passes_the_guard_keeps_its_bits(dual,
                                                                  psi_sha):
    sched = Schedule(period_T=4000.0, steps=40000)
    c = _step_polynomial(_generator(_NILPOTENT, dual), sched)
    assert (np.abs(c).sum(axis=0) ** 2).sum() >= 100.0
    # every state formed and guarded, psi(T) keeps its pinned bits; the
    # upper entry swings to 1.0e5 and back, so the oracle agrees to 1e-9
    psi0 = np.array([0.6, 0.8j])
    psi = evolve(_NILPOTENT, sched, psi0, dual=dual)
    assert _close(psi, scalar_rk4(_NILPOTENT, sched, psi0, dual=dual)[0], 1e-9)
    assert _sha256(psi) == psi_sha


# two-level cycles whose state leaves its band. A test of the turn of c~
# from head to head alone, without the band parts at the heads, refused
# the first at step 1771 and turned the second 15 whole turns off
_LEAVES_BAND = [
    (TwoLevelModel(TwoLevelParams(
        2.1039292630562016, 1.9242356861845198, -0.9238854266175218,
        0.8358539741869045, 0.444069444610911, 0.752437616218542,
        1.4758717696423063)), 292.14500182391885, 2922, "minus"),
    (TwoLevelModel(TwoLevelParams(
        2.556177032023594, 2.2350958117916386, 0.7462352557733549,
        0.6716086310416607, 1.6999711587980202, -0.28989779655093617,
        1.3066060355461762)), 161.5626466026425, 6161, "plus"),
]


def _route(model, sched, band):
    """How the kernel runs a decomposition's cycle.

    "heads" steps only the blocks its heads cannot vouch for;
    "uncertified" and "one-step" take blocks of one step, whose heads
    are the steps; "unsettled" and "turn-bound" step every block.
    """
    _, _, certified, series = evolution._kept(evolution._cycle_constants,
                                              model, sched, False)
    energy = _BandEnergy(model, sched, band_index(band))
    if not certified:
        return "uncertified"
    if series.rows is None:
        return "one-step"
    if energy.coef is None:
        return "unsettled"
    return "heads" if energy.bounds_steps() else "turn-bound"


@pytest.mark.parametrize("model, T, steps, band, route, tol, psi_tol", [
    (_chain(2.0, 0.3), 200.0, 40000, "plus", "heads", 1e-11, 1e-11),
    (_chain(2.0, 0.0), 200.0, 5657, "plus", "heads", 1e-11, 1e-11),
    (TwoLevelModel(_tl((1.2, 1.2, -0.4), (0.0, 0.0, 0.0), 1.0)), 100.0, 2000,
     "plus", "heads", 1e-11, 1e-11),
    # whole identity blocks in the last superblock, then a one-step chunk
    (_chain(2.0, 0.3), 200.0, _CHUNK + 1, "plus", "heads", 1e-11, 1e-11),
    (TwoLevelModel(_tl((1.2, 1.2, -0.4), (0.0, 0.0, 0.0), 1.0)), 300.0,
     _CHUNK + 1, "plus", "heads", 1e-11, 1e-11),
    # refused at step 339
    _LEAVES_BAND[0] + ("heads", 1e-11, 1e-11),
    # its defect is 264; the other band's growth magnifies the rounding of
    # the table phasors, so stepping every block is 4.8e-9 from the scalar
    # steps in total_phase and 2.6e-7 in psi(T), as the head route is
    _LEAVES_BAND[1] + ("heads", 1e-8, 1e-6),
    # psi(T) leaves the float range, at log norm 5851
    (TwoLevelModel(TwoLevelParams(
        43.69867468068047, 17.42723073977091, 2.917499248410584,
        57.100927304072535, 44.33144463183489, 12.753895729400615,
        2.6143449755440384)), 267.5951014575852, 2676, "plus",
     "uncertified", 5e-15, 1e-11),
    (TwoLevelModel(TwoLevelParams(
        30.90698867792813, 29.799378289784606, 9.240785905894386,
        36.26477726113803, 36.64422880327852, 1.13001039009168,
        0.631111903024601)), 199.6400774622946, 1997, "plus",
     "one-step", 5e-15, 1e-11),
    (TwoLevelModel(TwoLevelParams(
        0.5531601175494174, 3.0510323852308754, 0.19808874267392484,
        0.29140636438699463, 2.4323554860515593, 0.850718647468262,
        0.8158234133038095)), 207.76177058320977, 2078, "plus",
     "unsettled", 5e-15, 1e-11),
    # a step may turn c by 1.66 rad, as the energy series bounds it
    (BipartiteModel(BipartiteParams.from_ratios(13.62719459718084,
                                                0.03818212562587995)),
     133.42762280112467, 1335, "plus", "turn-bound", 5e-15, 1e-11),
], ids=["model0-200.0-40000", "model1-200.0-5657", "model2-100.0-2000",
        "model3-200.0-32769", "model4-300.0-32769", "leaves-band-refused",
        "leaves-band-returned", "uncertified", "one-step-blocks",
        "unsettled-energy", "turn-bound"])
def test_decomposition_matches_the_scalar_oracle(model, T, steps, band, route,
                                                 tol, psi_tol, monkeypatch):
    sched = Schedule(period_T=T, steps=steps)
    assert _route(model, sched, band) == route
    system = point_system(model, 0.0)
    lam = np.conj(system.left(band))
    routes = []
    # the cycle's own route; where that projects at block heads, every
    # block stepped one at a time too, its every state projected and
    # guarded
    for every_block in (False, True)[:2 if route == "heads" else 1]:
        if every_block:
            monkeypatch.setattr(evolution._BandEnergy, "bounds_steps",
                                lambda self: False)
        try:
            routes.append(adiabatic_decomposition(model, sched, band))
        except StepTooLarge as refused:
            routes.append(refused.step)
    try:
        psi, log_scale, turn = scalar_rk4(model, sched, system.right(band),
                                          project=lam)
    except StepTooLarge as ref:
        assert routes == [ref.step] * len(routes)
        return
    r = routes[0]
    for stepped in routes[1:]:
        assert abs(r.total_phase - stepped.total_phase) <= 1e-11 * abs(stepped.total_phase)
        assert abs(r.defect - stepped.defect) <= 1e-11 * max(1.0, stepped.defect)
        assert _close(r.psi_final, stepped.psi_final)
    total = complex(turn, -(log_scale + math.log(abs(lam @ psi))))
    defect = abs(total - complex(r.gamma_d + r.gamma_g, r.xi_d + r.xi_g))
    assert abs(r.total_phase - total) <= tol * abs(total)
    assert abs(r.defect - defect) <= tol * max(1.0, defect)
    # psi(T) as its unit state and log norm: some cycles end outside the
    # float range
    norm = np.linalg.norm(psi)
    assert _close(r.psi_unit, psi / norm, psi_tol)
    assert abs(r.log_norm - (log_scale + math.log(norm))) <= psi_tol


# the bench's rotation-covariant loops: h_x = h_y and d_x = d_y
_COVARIANT = {
    "hermitian": _tl((1.2, 1.2, -0.4), (0.0, 0.0, 0.0), 1.0),
    "gain-loss": _tl((1.0, 1.0, 0.2), (0.5, 0.5, 0.0), 1.0),
}


@pytest.mark.parametrize("loop", sorted(_COVARIANT))
@pytest.mark.parametrize("T", [256.0, 1024.0])
def test_evolve_meets_the_exact_cycle_of_a_covariant_loop(loop, T):
    # c09's step rule; RK4's error leads with T h^4 |H|^5 / 120, which the
    # Hermitian loop meets to 4e-4 of itself
    p = _COVARIANT[loop]
    sched = Schedule(period_T=T, steps=math.ceil(3.0 * T ** 1.5))
    h = T / sched.steps
    bound = 1.01 * T * h ** 4 * np.linalg.norm(assemble_two_level(p, 0.0), 2) ** 5 / 120
    psi0 = np.array([0.6, 0.8j])
    for dual in (False, True):
        want = exact_cycle(p, T, psi0, dual=dual)
        got = evolve(TwoLevelModel(p), sched, psi0, dual=dual)
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("loop", sorted(_COVARIANT))
@pytest.mark.parametrize("band", ["plus", "minus"])
def test_decomposition_meets_the_exact_total_phase(loop, band):
    p, T = _COVARIANT[loop], 256.0
    r = adiabatic_decomposition(
        TwoLevelModel(p), Schedule(period_T=T, steps=math.ceil(3.0 * T ** 1.5)),
        band)
    assert abs(r.total_phase - exact_total_phase(p, T, band, 16384)) <= 1e-6


@pytest.mark.parametrize("band", [
    "plus",
    pytest.param("minus", marks=pytest.mark.xfail(
        strict=True, reason="the adiabatic decomposition's 2 pi defect on "
        "this band, ROADMAP.md item 1")),
])
def test_dynamical_and_geometric_add_up_to_the_exact_total_phase(band):
    # at c09's step rule the defect falls like 1 / T: 4.5e-3 on the plus
    # band at T = 1024, while the minus band misses by a whole turn, 6.28
    p, T = _COVARIANT["hermitian"], 1024.0
    r = adiabatic_decomposition(
        TwoLevelModel(p), Schedule(period_T=T, steps=math.ceil(3.0 * T ** 1.5)),
        band)
    split = complex(r.gamma_d + r.gamma_g, r.xi_d + r.xi_g)
    assert abs(exact_total_phase(p, T, band, 16384) - split) <= 1e-2


@pytest.mark.parametrize("band", [
    "plus",
    pytest.param("minus", marks=pytest.mark.xfail(
        strict=True, reason="the adiabatic decomposition's 2 pi defect on "
        "this band, ROADMAP.md item 1")),
])
def test_the_lossy_chain_defect_falls_like_one_over_the_cycle_time(band):
    # at c09's step rule the plus band's defect is 0.071 at T = 64 and
    # 0.018 at T = 256, while the minus band's stays a whole turn, 6.21
    # and 6.27
    for T in (64.0, 256.0):
        r = adiabatic_decomposition(
            _chain(2.0, 0.3),
            Schedule(period_T=T, steps=math.ceil(3.0 * T ** 1.5)), band)
        assert r.defect <= 10.0 / T


def test_guards_fire_at_the_oracle_steps(monkeypatch):
    cases = [
        # growth: |E| h = 4.5 at once, and a late gain burst
        (TwoLevelModel(_tl((0.7, 0.4, 45.0), (0.0, 0.0, 0.0), 0.0)),
         Schedule(period_T=100.0, steps=1000), (1.0, 1.0), 0),
        (_BurstDrive(2000.0, decay=0.001), Schedule(period_T=2000.0, steps=20000),
         (0.6, 0.8), 15000),
        # an uncertified 32768-step chunk has superblocks of 16 one-step
        # blocks: a burst at the first step of superblock 1332, and one in
        # the chunk's last step
        (_BurstDrive(4000.0, decay=0.001, at=2131.2),
         Schedule(period_T=4000.0, steps=40000), (0.6, 0.8), 37 * 24 * 24),
        (_BurstDrive(4000.0, decay=0.001, at=3276.7),
         Schedule(period_T=4000.0, steps=40000), (0.6, 0.8), _CHUNK - 1),
    ]
    for model, sched, psi0, step in cases:
        with monkeypatch.context() as patch:
            if isinstance(model, _BurstDrive):
                _half_step_kernel(patch, model, sched)
            with pytest.raises(StepTooLarge) as ours:
                evolve(model, sched, psi0)
        with pytest.raises(StepTooLarge) as ref:
            scalar_rk4(model, sched, psi0)
        assert ours.value.step == ref.value.step == step
        assert abs(ours.value.growth - ref.value.growth) < 1e-9 * ref.value.growth
    # turn: |E| h reaches 2.5 rad per step a quarter into the cycle
    model = TwoLevelModel(_tl((10.0, 25.0, 0.0), (0.0, 0.0, 0.0), math.pi / 2))
    sched = Schedule(period_T=100.0, steps=1000)
    system = point_system(model, 0.0)
    with pytest.raises(StepTooLarge) as ours:
        adiabatic_decomposition(model, sched, "plus")
    with pytest.raises(StepTooLarge) as ref:
        scalar_rk4(model, sched, system.right("plus"),
                   project=np.conj(system.left("plus")))
    assert ours.value.growth is None and ref.value.growth is None
    assert ours.value.step == ref.value.step


def test_band_leakage_matches_the_oracle():
    model = _chain(2.0, 0.3)
    sched = Schedule(period_T=1.0, steps=1000)
    system = point_system(model, 0.0)
    psi, _, _ = scalar_rk4(model, sched, system.right("plus"),
                           project=np.conj(system.left("plus")))
    leak = abs(np.conj(system.left("minus")) @ psi) / abs(
        np.conj(system.left("plus")) @ psi)
    with pytest.raises(BandLeakage) as info:
        adiabatic_decomposition(model, sched, "plus")
    assert leak > 0.1
    assert abs(info.value.ratio - leak) < 1e-11 * leak


def _report_bits(r):
    # repr keeps every float's bits, the sign of zero included
    return repr((r.total_phase, r.gamma_d, r.xi_d, r.gamma_g, r.xi_g, r.defect,
                 r.strong_regime, r.leak_ratio, r.log_norm,
                 r.psi_final.tobytes(), r.psi_unit.tobytes()))


def _cached_and_fresh(model, sched, band=None, dual=False):
    """A cached call and the same call on a model the caches do not know, as bits."""
    def call(m):
        if band is not None:
            return _report_bits(adiabatic_decomposition(m, sched, band))
        return evolve(m, sched, np.array([0.6, 0.8j]), dual=dual).tobytes()

    return call(model), call(_Recorder(model))


def test_a_cached_cycle_gives_the_fresh_cycles_bits():
    # two passes over two schedules on one model of each family: the
    # first fills the caches, the second reads them, and each call
    # equals the same call built afresh
    schedules = [Schedule(period_T=64.0, steps=1536),
                 Schedule(period_T=100.0, steps=1000)]
    models = [_chain(2.0, 0.3), TwoLevelModel(_COVARIANT["gain-loss"])]
    for _ in range(2):
        for model in models:
            for sched in schedules:
                for band in ("plus", "minus"):
                    cached, fresh = _cached_and_fresh(model, sched, band=band)
                    assert cached == fresh
                for dual in (False, True):
                    cached, fresh = _cached_and_fresh(model, sched, dual=dual)
                    assert cached == fresh
    # one entry per model; of the eight cycles, four are kept, so each
    # pass fits every cycle once, and on a schedule both bands'
    # decompositions and plain evolve share one fit
    assert evolution._loop_constants.cache_info().currsize == 2
    assert evolution._band_samples.cache_info().currsize == 2
    cycles = evolution._cycle_constants.cache_info()
    assert (cycles.currsize, cycles.misses, cycles.hits) == (4, 16, 16)


def test_signed_zero_params_key_their_own_constants():
    # d_z = -0.0 (with h_z < 0) and eps_a = -0.0 compare equal to 0.0
    # but give their generators other bits: each keeps its own entry
    sched = Schedule(period_T=64.0, steps=1536)
    p = _COVARIANT["hermitian"]
    pairs = [(TwoLevelModel(p), TwoLevelModel(_tl((p.h_x, p.h_y, p.h_z),
                                                  (p.d_x, p.d_y, -0.0), p.theta))),
             (BipartiteModel(BipartiteParams(1.0, 2.0, 0.3, 0.0)),
              BipartiteModel(BipartiteParams(1.0, 2.0, 0.3, -0.0)))]
    for plus_zero, minus_zero in pairs:
        assert plus_zero == minus_zero
        for model in (plus_zero, minus_zero):
            for band in ("plus", "minus"):
                cached, fresh = _cached_and_fresh(model, sched, band=band)
                assert cached == fresh
            cached, fresh = _cached_and_fresh(model, sched)
            assert cached == fresh
        kept = [evolution._kept(evolution._cycle_constants, m, sched, False)[0]
                for m in (plus_zero, minus_zero)]
        assert kept[0].tobytes() != kept[1].tobytes()
        assert kept[1].tobytes() == _generator(minus_zero, False).tobytes()
    assert evolution._loop_constants.cache_info().currsize == 4
    assert evolution._cycle_constants.cache_info().currsize == 4


def test_a_refusal_is_computed_again_on_every_call(monkeypatch):
    # the gapless chain's SingularLoop is never kept: the second call
    # reads the loop phase again and still refuses before any step
    reads = []

    def counted(loop, model):
        reads.append(model)
        return global_berry_phase(loop, model)

    def propagate(*args, **kwargs):
        raise AssertionError("the cycle was stepped")

    global_berry_phase = evolution.global_berry_phase
    monkeypatch.setattr(evolution, "global_berry_phase", counted)
    monkeypatch.setattr(evolution, "_propagate", propagate)
    model = _chain(1.2, 0.25)
    for call in range(2):
        with pytest.raises(SingularLoop):
            adiabatic_decomposition(model, Schedule(period_T=64.0, steps=1536),
                                    "plus")
        assert len(reads) == call + 1
    assert evolution._loop_constants.cache_info().currsize == 0


def test_the_cached_arrays_are_read_only():
    model, sched = _chain(2.0, 0.3), Schedule(period_T=64.0, steps=1536)
    adiabatic_decomposition(model, sched, "plus")
    generator, poly, _, series = evolution._kept(
        evolution._cycle_constants, model, sched, False)
    _, kets = evolution._kept(evolution._loop_constants, model)
    _, e, a = evolution._kept(evolution._band_samples, model)[0]
    for array in (generator, poly, series.rows, series.coarse, series.fine,
                  series.power, kets[0][0], kets[1][1], e, a):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


@pytest.mark.xfail(strict=True, reason="a two-level loop that leaves its band "
                   "mid-cycle returns a defect of 180 with leak_ratio 0.0014, "
                   "ROADMAP.md item 2")
def test_a_loop_that_leaves_its_band_mid_cycle_is_refused_or_accounted():
    model = TwoLevelModel(TwoLevelParams(
        2.5058386303566493, 1.0752654062276619, -0.3921500176967687,
        0.5694331293508605, 1.9595377005705847, 0.5213818356968012,
        1.2006898052072428))
    try:
        r = adiabatic_decomposition(model, Schedule(period_T=156.797, steps=5891),
                                    "plus")
    except BerrylineError:
        return
    assert r.defect < 1.0

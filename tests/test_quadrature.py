"""Shared kernels: Fourier derivatives, periodic sums, refinement, DE quadrature."""

import numpy as np
import pytest

from berryline import berry
from berryline.berry import apply_gauge
from berryline.errors import NotConverged, PathTooCoarse
from berryline.models import (TWO_LEVEL, TwoLevelModel, TwoLevelParams,
                              loop_grid, standard_loop)
from berryline.quadrature import (
    MAX_PHASE_STEP,
    halved_verdicts,
    pearson_line,
    refine_dyadically,
    spectral_derivative,
    tanh_sinh,
    trapezoid_periodic,
    unwrap_checked,
    unwrap_rows,
)


def _closed_grid(n, period=2.0 * np.pi):
    # n samples over one period and the closure point
    return np.linspace(0.0, period, n + 1)


def test_trapezoid_periodic_sine_squared():
    n = 64
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    assert abs(trapezoid_periodic(np.sin(x) ** 2, 2.0 * np.pi) - np.pi) < 1e-13


def test_trapezoid_periodic_spectral_accuracy():
    from scipy.special import i0

    # exp(cos x) integrates to 2 pi I0(1); an analytic periodic integrand
    # should hit machine precision already at 32 samples.
    x = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    got = trapezoid_periodic(np.exp(np.cos(x)), 2.0 * np.pi)
    assert abs(got - 2.0 * np.pi * i0(1.0)) < 1e-13


def test_trapezoid_periodic_batched():
    x = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    rows = np.stack([np.cos(x), np.cos(2 * x) + 1.0])
    got = trapezoid_periodic(rows, 2.0 * np.pi)
    assert got.shape == (2,)
    assert abs(got[0]) < 1e-14
    assert abs(got[1] - 2.0 * np.pi) < 1e-13


def test_spectral_derivative_analytic_periodic():
    x = _closed_grid(64)
    got = spectral_derivative(np.exp(np.sin(x)), 2.0 * np.pi)
    want = np.cos(x[:64]) * np.exp(np.sin(x[:64]))
    assert got.shape == (64,)
    assert np.max(np.abs(got - want)) < 1e-12


def test_spectral_derivative_complex_batched_period():
    period = 4.0
    x = _closed_grid(48, period)
    w = 2.0 * np.pi / period
    rows = np.stack([np.exp(3j * w * x), np.cos(2.0 * w * x) + 1j * np.sin(w * x)])
    got = spectral_derivative(rows, period)
    x = x[:48]
    want = np.stack([3j * w * np.exp(3j * w * x),
                     -2.0 * w * np.sin(2.0 * w * x) + 1j * w * np.cos(w * x)])
    assert got.shape == (2, 48)
    assert np.max(np.abs(got - want)) < 1e-12


def test_spectral_derivative_drops_nyquist():
    # On an even grid the highest mode aliases between +-n/2 and carries no
    # sign information for a derivative, so it must be zeroed, not guessed.
    n = 16
    x = _closed_grid(n)
    got = spectral_derivative(np.cos((n // 2) * x), 2.0 * np.pi)
    assert np.max(np.abs(got)) < 1e-12


def test_spectral_derivative_anti_periodic():
    # a slice whose closure sample is minus its first one is differentiated
    # on half-integer wavenumbers, next to a periodic slice in one stack
    x = _closed_grid(64)
    g = np.exp(np.cos(x)) + 0.5j * np.sin(2.0 * x)
    dg = -np.sin(x) * np.exp(np.cos(x)) + 1j * np.cos(2.0 * x)
    half = np.exp(0.5j * x)
    rows = np.stack([np.cos(0.5 * x), half * g, g])
    want = np.stack([-0.5 * np.sin(0.5 * x), half * (0.5j * g + dg), dg])
    got = spectral_derivative(rows, 2.0 * np.pi)
    assert got.shape == (3, 64)
    assert np.max(np.abs(got - want[:, :64])) < 1e-12


def test_a_frame_closing_on_minus_itself_keeps_gauge_law_a():
    # the ket's mixing angle and phase turn by an odd multiple of pi along
    # this sweep, so the frame comes back as minus itself; its Fourier
    # connection is the closed-form one, and law (a) holds on the gauge
    # check's first rung, twice the strip rung of its node map
    p = TwoLevelParams(h_x=2.1289621798653426, h_y=2.308069923072421,
                       h_z=0.030332767262147398, d_x=1.6809384525208386,
                       d_y=1.1383944952666627, d_z=-0.37614756542581174,
                       theta=0.26672057693975126)
    model = TwoLevelModel(p)
    loop = standard_loop(TWO_LEVEL, 2048)
    path = model.eigen_path(loop_grid(loop, loop.n))
    right = path.right
    assert np.abs(right[..., -1] + right[..., 0]).max() < 1e-12
    dpsi = spectral_derivative(right, loop.period)
    connection = 1j * np.einsum("cbm,cbm->bm", np.conj(path.left[..., :-1]),
                                dpsi)
    assert np.abs(connection - path.connection[:, :-1]).max() < 1e-9
    check = apply_gauge(loop, model, lambda a, band: 2.0 * a + 0.3 * np.sin(a),
                        {"plus": 2, "minus": 2})
    rung = berry._node_grid(berry._two_level_singularities(p), 2)[0]
    assert check.resolution == 2 * rung < loop.n
    assert check.residual_a <= 1e-9


def test_unwrap_checked_smooth_ramp():
    true = np.linspace(0.0, 7.0, 40)
    wrapped = np.angle(np.exp(1j * true))
    out = unwrap_checked(wrapped)
    assert np.max(np.abs(out - true)) < 1e-12


def test_unwrap_checked_rejects_wide_step():
    angles = [0.0, 0.1, 0.2, 2.2, 2.3]
    with pytest.raises(PathTooCoarse) as info:
        unwrap_checked(angles)
    assert info.value.index == 2


def test_unwrap_checked_step_just_below_limit():
    step = MAX_PHASE_STEP - 1e-3
    out = unwrap_checked(np.arange(5) * step % (2 * np.pi))
    assert out.size == 5


def test_unwrap_rows_adds_whole_turns_to_the_raw_angles():
    # random walks of every step size, steps of exactly +-pi, and one- and
    # two-sample rows: each sample is its raw angle plus whole turns, the
    # first sample is left alone, and the rows flagged are np.unwrap's
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 64, 1028):
        walks = np.cumsum(rng.uniform(-3.0, 3.0, (6, n)), axis=-1)
        walks[1, n // 2:] += np.pi
        walks[2, n // 2:] -= np.pi
        walks[3] = np.pi * (np.arange(n) % 2)
        for raw in (np.angle(np.exp(1j * walks)), walks):
            out, errors = unwrap_rows(raw)
            assert out[:, 0].tobytes() == raw[:, 0].tobytes(), n
            # out - raw itself rounds where the angles are large
            turns = np.rint((out - raw) / (2.0 * np.pi))
            assert out.tobytes() == (raw + 2.0 * np.pi * turns).tobytes(), n
            _, numpys = unwrap_rows(np.unwrap(raw))
            assert [e is None for e in errors] == [e is None for e in numpys]
            for r in range(len(raw)):
                try:
                    alone = unwrap_checked(raw[r])
                except PathTooCoarse as exc:
                    assert (errors[r].index, str(errors[r])) == (
                        exc.index, str(exc))
                    continue
                assert errors[r] is None
                assert alone.tobytes() == out[r].tobytes()


def test_halved_verdicts_are_those_of_the_even_samples_unwrapped_alone():
    # walks whose every step stays below pi/2, so the full unwrap passes
    # and the steps over two samples spread on both sides of pi/2
    rng = np.random.default_rng(11)
    seen = set()
    for n in (3, 4, 17, 65, 1025):
        walks = np.cumsum(rng.uniform(-1.0, 1.0, (400, n))
                          * rng.uniform(0.0, 0.999 * MAX_PHASE_STEP, (400, 1)),
                          axis=-1) + rng.uniform(-9.0, 9.0, (400, 1))
        raw = np.angle(np.exp(1j * walks))
        out, errors = unwrap_rows(raw)
        assert errors == [None] * len(raw)
        even, alone = unwrap_rows(raw[..., ::2])
        assert out[:, ::2].tobytes() == even.tobytes(), n
        for ours, theirs in zip(halved_verdicts(out), alone):
            seen.add(theirs is None)
            if theirs is None:
                assert ours is None
            else:
                assert (ours.index, str(ours)) == (theirs.index, str(theirs))
    assert seen == {True, False}


def test_refine_dyadically_settles():
    value, n, history = refine_dyadically(lambda n: 1.0 + 1.0 / n, 4, 1e-3, 1 << 20)
    assert n == 1024
    assert abs(value - (1.0 + 1.0 / 1024)) < 1e-15
    assert history[0] == (4, 1.25)
    assert history[-1][0] == 1024
    assert len(history) == 9


def test_refine_dyadically_raises_at_cap():
    flip = lambda n: 1.0 if n.bit_length() % 2 else -1.0
    with pytest.raises(NotConverged) as info:
        refine_dyadically(flip, 8, 1e-9, 64, context="flip test")
    assert [n for n, _ in info.value.history] == [8, 16, 32, 64]
    assert "flip test" in str(info.value)


def test_refine_dyadically_coarse_rungs_discarded():
    def evaluate(n):
        if n < 32:
            raise PathTooCoarse("too few", index=0)
        return 7.0

    value, n, history = refine_dyadically(evaluate, 4, 1e-6, 1 << 10)
    assert value == 7.0
    assert n == 64
    assert history == [(32, 7.0), (64, 7.0)]


def test_refine_dyadically_reset_forgets_previous():
    # A coarse failure must invalidate the value before it: convergence
    # here can only be declared from the pair (64, 128), not (16, 64).
    def evaluate(n):
        if n == 32:
            raise PathTooCoarse("hole", index=0)
        return 5.0

    _, n, _ = refine_dyadically(evaluate, 16, 1e-6, 1 << 10)
    assert n == 128


def test_tanh_sinh_smooth():
    got = tanh_sinh(lambda x, da, db: np.exp(x), 0.0, 1.0)
    assert abs(got - (np.e - 1.0)) < 1e-12


def test_tanh_sinh_sine_arch():
    assert abs(tanh_sinh(lambda x, da, db: np.sin(x), 0.0, np.pi) - 2.0) < 1e-12


def test_tanh_sinh_inverse_sqrt_endpoint():
    got = tanh_sinh(lambda x, da, db: 1.0 / np.sqrt(da), 0.0, 1.0)
    assert abs(got - 2.0) < 1e-11


def test_tanh_sinh_two_singular_endpoints():
    # 1/sqrt(x(1-x)) integrates to pi; needs the cancellation-free
    # endpoint distances, plain x*(1-x) would lose digits near 1.
    got = tanh_sinh(lambda x, da, db: 1.0 / np.sqrt(da * db), 0.0, 1.0)
    assert abs(got - np.pi) < 1e-11


def test_tanh_sinh_empty_interval():
    assert tanh_sinh(lambda x, da, db: np.exp(x), 1.0, 1.0) == 0.0


def test_tanh_sinh_non_integrable_divergence():
    with pytest.raises(NotConverged):
        tanh_sinh(lambda x, da, db: 1.0 / da, 0.0, 1.0)


def test_pearson_line_exact():
    x = np.linspace(-2.0, 5.0, 13)
    slope, intercept, corr = pearson_line(x, 3.0 * x - 2.0)
    assert abs(slope - 3.0) < 1e-12
    assert abs(intercept + 2.0) < 1e-12
    assert abs(corr - 1.0) < 1e-12


def test_pearson_line_noisy():
    rng = np.random.default_rng(91)
    x = np.linspace(0.0, 1.0, 200)
    y = -1.5 * x + 0.4 + 0.01 * rng.standard_normal(x.size)
    slope, intercept, corr = pearson_line(x, y)
    assert abs(slope + 1.5) < 0.02
    assert abs(intercept - 0.4) < 0.01
    assert corr < -0.999


def test_pearson_line_guards():
    with pytest.raises(ValueError):
        pearson_line([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

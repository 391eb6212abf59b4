"""Shared numerical kernels.

Fourier differentiation and trapezoid sums on uniform periodic grids, a
dyadic refinement driver, double-exponential quadrature for endpoint
singularities, guarded phase unwrapping, and a plain Pearson line fit.
Everything here is deterministic: no adaptive randomness, fixed node
layouts, so repeated runs give identical bits.

Nothing in the package calls ``refine_dyadically`` or ``tanh_sinh``:
every gapped band phase settles in ``berry._settled_phases``, and the
chain's gapless phases come from their elliptic closed form. The first
stays as the test reference of the band phase's former route, the
second as the quadrature of the test oracle for that closed form, and
the benchmark's tracer binds both by name.
"""

import numpy as np

from .errors import NotConverged, PathTooCoarse

# A phase step this large between neighbouring samples means the unwrap is
# no longer trustworthy and the grid has to be refined.
MAX_PHASE_STEP = 0.5 * np.pi


def spectral_derivative(samples, period):
    """Fourier derivative at the n loop samples of a closed loop's n + 1.

    The last sample is the closure point, one period past the first
    (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 3). A slice
    whose closure lies nearer minus its first sample, as a ket that comes
    back with its sign flipped, is differentiated on half-integer
    wavenumbers; a periodic slice drops the Nyquist mode of an even grid.
    """
    f = np.asarray(samples)
    n = f.shape[-1] - 1
    anti = np.abs(f[..., n:] + f[..., :1]) < np.abs(f[..., n:] - f[..., :1])
    wave = np.fft.fftfreq(n, d=1.0 / n)
    half = np.exp((1j * np.pi / n) * np.arange(n))
    spectrum = np.fft.fft(np.where(anti, f[..., :n] / half, f[..., :n]))
    spectrum *= np.where(anti, wave + 0.5, np.where(wave == -n / 2, 0.0, wave))
    derivative = np.fft.ifft(spectrum * (2j * np.pi / period))
    return np.where(anti, derivative * half, derivative)


def trapezoid_periodic(values, period):
    """Trapezoid sum of uniform samples covering exactly one period.

    On a periodic grid the trapezoid rule degenerates to the plain mean,
    which converges spectrally for analytic integrands.
    """
    v = np.asarray(values)
    return v.sum(axis=-1) * (period / v.shape[-1])


def unwrap_rows(raw_angles):
    """Each row of a 2-D stack unwrapped, with a spacing verdict per row.

    A sample is its raw angle plus the whole number of turns that puts it
    nearest the unwrapped sample before it, added in one rounding, so its
    bits depend on its own raw angle and that count of turns alone.
    Returns the unwrapped stack and per row None or a PathTooCoarse: once
    an unwrapped step reaches pi/2, aliasing by a full turn can no longer
    be ruled out and the grid has to be refined.
    """
    p = np.asarray(raw_angles, dtype=float)
    out = p.copy()
    out[:, 1:] += (2.0 * np.pi) * np.rint(
        (p[:, :-1] - p[:, 1:]) / (2.0 * np.pi)).cumsum(axis=-1)
    return out, _spacing_verdicts(out)


def halved_verdicts(unwrapped):
    """The spacing verdicts of ``unwrap_rows`` on every second sample.

    ``unwrapped`` is a stack ``unwrap_rows`` returned without an error.
    Its steps are below pi/2, so a step over two samples is below pi and
    spans the same whole turns as the two steps within it: unwrapping
    every second raw angle on its own gives exactly these samples, and
    the verdicts are those the grid of the even samples would get,
    without unwrapping it again.
    """
    return _spacing_verdicts(unwrapped[:, ::2])


def _spacing_verdicts(out):
    """Per row of unwrapped angles, None or the PathTooCoarse of its largest step."""
    errors = [None] * len(out)
    if out.shape[-1] > 1:
        steps = np.abs(out[:, 1:] - out[:, :-1])
        for r in np.flatnonzero(steps.max(axis=-1) >= MAX_PHASE_STEP).tolist():
            worst = int(np.argmax(steps[r]))
            errors[r] = PathTooCoarse(
                f"phase step {steps[r, worst]:.3f} rad at sample {worst} "
                "exceeds pi/2; refine the grid",
                index=worst,
            )
    return errors


def unwrap_checked(raw_angles):
    """One path unwrapped, raising its PathTooCoarse (see ``unwrap_rows``)."""
    out, (error,) = unwrap_rows(np.asarray(raw_angles, dtype=float)[None])
    if error is not None:
        raise error
    return out[0]


def refine_dyadically(evaluate, n0, tol, cap, context=""):
    """Run ``evaluate(n)`` over n = n0, 2 n0, ... until values settle.

    Convergence means two successive values differ by less than ``tol``
    (absolute). PathTooCoarse from the evaluator discards the rung and
    continues doubling. Returns ``(value, n, history)`` where history is
    the list of (n, value) pairs actually evaluated; raises NotConverged
    carrying that history when n would exceed ``cap``. No package path
    calls it (see the module docstring).
    """
    history = []
    previous = None
    n = int(n0)
    while n <= cap:
        try:
            value = evaluate(n)
        except PathTooCoarse:
            previous = None
            n *= 2
            continue
        history.append((n, value))
        if previous is not None and abs(value - previous) < tol:
            return value, n, history
        previous = value
        n *= 2
    raise NotConverged(
        f"{context or 'dyadic refinement'} did not settle below {tol:g} "
        f"within N={cap}",
        history=history,
    )


def tanh_sinh(f, a, b, tol=1e-12, max_level=13):
    """Double-exponential quadrature of f over (a, b).

    Handles integrable endpoint singularities such as inverse square
    roots. The integrand is called as ``f(x, da, db)`` with vectorized
    node positions ``x`` and their distances ``da = x - a``, ``db = b - x``
    computed in a cancellation-free way, so f can resolve a singular
    factor right down to the endpoint. Non-integrable divergences show up
    as stalled refinement and raise NotConverged.
    """
    half = 0.5 * (b - a)
    if half <= 0.0:
        return 0.0
    t_max = 3.9
    previous = None
    history = []
    for level in range(2, max_level + 1):
        n = 2 ** level
        t = np.linspace(-t_max, t_max, 2 * n + 1)
        u = 0.5 * np.pi * np.sinh(t)
        au = np.abs(u)
        e2 = np.exp(-2.0 * au)
        near = 2.0 * e2 / (1.0 + e2)        # 1 - |tanh(u)|, accurate for large |u|
        far = 2.0 / (1.0 + e2)              # 1 + |tanh(u)|
        da = half * np.where(u >= 0.0, far, near)
        db = half * np.where(u >= 0.0, near, far)
        x = np.where(u >= 0.0, b - db, a + da)
        sech2 = (2.0 / (np.exp(au) + np.exp(-au))) ** 2
        w = half * 0.5 * np.pi * np.cosh(t) * sech2
        step = t[1] - t[0]
        value = step * np.sum(w * f(x, da, db))
        history.append((level, value))
        if previous is not None and abs(value - previous) <= max(tol, tol * abs(value)):
            return value
        previous = value
    raise NotConverged(
        "double-exponential refinement stalled; the integrand likely has a "
        "non-integrable endpoint divergence",
        history=history,
    )


def pearson_line(x, y):
    """Least-squares line fit. Returns (slope, intercept, correlation)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    mx, my = x.mean(), y.mean()
    dx, dy = x - mx, y - my
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    sxy = float(np.dot(dx, dy))
    if sxx == 0.0:
        raise ValueError("degenerate fit, all x identical")
    slope = sxy / sxx
    intercept = my - slope * mx
    corr = sxy / np.sqrt(sxx * syy) if syy > 0.0 else 1.0
    return slope, intercept, float(corr)

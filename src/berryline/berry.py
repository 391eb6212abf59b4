"""Complex Berry phases of closed parameter loops and the global index Q.

Per band, the loop integral of the diagonal Berry connection gives a
complex phase: its real part is the geometric phase an adiabatically
carried state picks up, its imaginary part an amplitude correction from
the non-Hermitian dynamics. Summing the bands and dividing by 2 pi gives
the global index Q, which is quantized to an integer on loops that avoid
the models' singular sets.

Every quantity here is computed twice, by routes with different failure
modes, and results are only accepted when the routes agree:

  * Q by trapezoid quadrature of the connection trace, and independently
    by a discrete Wilson loop (accumulated argument of per-band overlaps
    between neighbouring frames, Richardson-extrapolated in step count).
  * Per-band phases by dyadically refined quadrature, accepted only when
    doubling the grid no longer moves them.
  * Finite-difference connections cross-checked against the closed-form
    derivative of the frame.

Loops crossing a true spectral degeneracy of the lossy chain (its
gapless parameter region) have no frame continuation; the per-band
phases there come from principal-value split integrals around the
crossing momenta instead, and only the EP-free winding routes feed Q.
"""

import math
from dataclasses import dataclass

import numpy as np

from .biortho import band_index
from .errors import (
    Disagreement,
    GaugeMismatch,
    NotConverged,
    PathTooCoarse,
    SingularLoop,
    UndefinedAtTransition,
)
from .models import (
    _TWO_PI,
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    _at_transition,
    _hopping,
    _zone_grid,
    loop_grid,
    standard_loop,
)
from .quadrature import (PAD, fd4, refine_dyadically, spectral_derivative,
                         tanh_sinh, trapezoid_periodic)
from .spectrum import GAPLESS_TRUE_CROSSING, classify_region

_GAMMA_TOL = 1e-9     # per-band phase change under one grid doubling
_ROUTE_TOL = 1e-6     # quadrature Q vs Wilson Q
_ROUND_TOL = 1e-6     # distance to the nearest integer


@dataclass(frozen=True)
class ConnectionSample:
    """The 2x2 connection coefficient at one loop parameter."""

    alpha: float
    a_matrix: np.ndarray


@dataclass(frozen=True)
class BerryPhaseResult:
    """Converged per-band phases and the dual-route global index.

    ``q_index`` is the unrounded trace-quadrature value; ``q_rounded`` is
    its nearest integer when within 1e-6, else None. ``q_quadrature`` and
    ``q_wilson`` expose both routes separately, and
    ``refinement_history`` records (N, Q) per accepted grid.
    """

    gamma_b_plus: float
    xi_b_plus: float
    gamma_b_minus: float
    xi_b_minus: float
    q_index: float
    q_rounded: object
    resolution: int
    refinement_history: list
    q_quadrature: float
    q_wilson: float


@dataclass(frozen=True)
class GaugeCheckResult:
    """Transformed frame plus all three gauge-law residuals.

    ``right``/``left`` hold the transformed frames on the loop samples,
    ``connection_diag`` the recomputed diagonal connection from them.
    Residuals are the passing slacks: samplewise connection shift (a),
    per-band phase shift against 2 pi n (b), and index shift against the
    winding sum (c).
    """

    alphas: np.ndarray
    right: np.ndarray
    left: np.ndarray
    connection_diag: np.ndarray
    gamma_plus: complex
    gamma_minus: complex
    gamma_plus_new: complex
    gamma_minus_new: complex
    q_original: float
    q_new: float
    residual_a: float
    residual_gamma_plus: float
    residual_gamma_minus: float
    residual_q: float
    winding_plus: int
    winding_minus: int
    resolution: int


@dataclass(frozen=True)
class _Rung:
    n: int
    gamma_plus: complex
    gamma_minus: complex
    q_quad: float
    q_wilson: object


def _wilson_q(right, left, idx):
    """Accumulated overlap argument over a strided closed chain, per 2 pi.

    Returns None when any single step turns by a quarter circle or more,
    which signals aliasing rather than a usable phase.
    """
    total = 0.0
    for b in (0, 1):
        overlaps = np.einsum("cm,cm->m",
                             np.conj(left[:, b, idx[1:]]),
                             right[:, b, idx[:-1]])
        angles = np.angle(overlaps)
        if np.abs(angles).max() >= 0.5 * math.pi:
            return None
        total += angles.sum()
    return total / _TWO_PI


def _wilson_extrapolated(right, left, n):
    """Wilson-loop Q with Richardson extrapolation over strides 8,4,2,1.

    The raw arg-sum error falls off like 1/N, so each extrapolation level
    removes one power. Aliased strides are dropped; with fewer than two
    clean strides the finest raw value (or None) is returned.
    """
    values = []
    for stride in (8, 4, 2, 1):
        idx = PAD + stride * np.arange(n // stride + 1)
        q = _wilson_q(right, left, idx)
        if q is None:
            values = []
            continue
        values.append(q)
    if not values:
        return None
    level = 1
    while len(values) > 1:
        factor = 2.0 ** level
        values = [(factor * values[i + 1] - values[i]) / (factor - 1.0)
                  for i in range(len(values) - 1)]
        level += 1
    return values[0]


def _phase_rung(loop, model, n):
    alphas, _, _ = loop_grid(loop, n // loop.n)
    path = model.eigen_path(alphas)
    interior = slice(PAD, PAD + n)
    gamma_plus = complex(trapezoid_periodic(path.connection[0, 0, interior],
                                            loop.period))
    gamma_minus = complex(trapezoid_periodic(path.connection[1, 1, interior],
                                             loop.period))
    q_quad = complex(trapezoid_periodic(path.trace_connection[interior],
                                        loop.period)).real / _TWO_PI
    q_wilson = _wilson_extrapolated(path.right, path.left, n)
    return _Rung(n=n, gamma_plus=gamma_plus, gamma_minus=gamma_minus,
                 q_quad=q_quad, q_wilson=q_wilson)


def _gapless_loop(model, transition_error):
    """Refuse a loop on a singular set; True when the chain loop is gapless.

    A two-level loop on a singular line raises SingularLoop, a chain loop
    at hopping ratio 1 raises ``transition_error``.
    """
    p = getattr(model, "params", None)
    if isinstance(p, TwoLevelParams) and p.is_singular():
        raise SingularLoop(
            "an off-diagonal amplitude vanishes somewhere on every sweep at "
            "these parameters; the winding index is undefined")
    if not isinstance(p, BipartiteParams):
        return False
    if _at_transition(p.q):
        raise transition_error(
            "at hopping ratio 1 the off-diagonal interferes to zero on the "
            "loop and the winding jumps between 0 and 1")
    return classify_region(p.q, p.eta).region == GAPLESS_TRUE_CROSSING


def global_berry_phase(loop, model, cap=65536):
    """Both per-band phases and the dual-route global index on one loop.

    Doubles the grid until per-band phases stop moving (below 1e-9 per
    doubling) and the two Q routes agree within 1e-6. Grids the frame
    flags as too coarse are discarded and refined further.
    """
    if _gapless_loop(model, SingularLoop):
        raise SingularLoop(
            "the loop crosses a true degeneracy of the complex spectrum; "
            "use the per-band principal-value phases instead")
    n = loop.n
    history = []
    prev = None
    route_conflict = None
    while n <= cap:
        try:
            rung = _phase_rung(loop, model, n)
        except PathTooCoarse:
            prev = None
            n *= 2
            continue
        history.append((n, rung.q_quad))
        if prev is not None:
            settled = (abs(rung.gamma_plus - prev.gamma_plus) < _GAMMA_TOL
                       and abs(rung.gamma_minus - prev.gamma_minus) < _GAMMA_TOL)
            if settled:
                if (rung.q_wilson is not None
                        and abs(rung.q_quad - rung.q_wilson) <= _ROUTE_TOL):
                    return _assemble_result(rung, history)
                route_conflict = (rung.q_quad, rung.q_wilson)
        prev = rung
        n *= 2
    if route_conflict is not None and route_conflict[1] is not None:
        raise Disagreement(
            "trace quadrature and Wilson loop give different indices "
            f"({route_conflict[0]:.9f} vs {route_conflict[1]:.9f})",
            values=route_conflict)
    raise NotConverged(
        f"per-band phases still moving at {cap} samples", history=history)


def _assemble_result(rung, history):
    nearest = round(rung.q_quad)
    q_rounded = int(nearest) if abs(rung.q_quad - nearest) < _ROUND_TOL else None
    return BerryPhaseResult(
        gamma_b_plus=rung.gamma_plus.real, xi_b_plus=rung.gamma_plus.imag,
        gamma_b_minus=rung.gamma_minus.real, xi_b_minus=rung.gamma_minus.imag,
        q_index=rung.q_quad, q_rounded=q_rounded, resolution=rung.n,
        refinement_history=history, q_quadrature=rung.q_quad,
        q_wilson=rung.q_wilson)


def band_berry_phase(loop, model, band, cap=65536):
    """Loop integral of one band's diagonal connection, as gamma + i xi.

    Gapped loops refine a periodic trapezoid until doubling moves the
    value by less than 1e-9. For the lossy chain inside its gapless
    region the integral exists only as a principal value around the
    crossing momenta and is evaluated by the split closed-interval route.
    """
    b = band_index(band)
    if _gapless_loop(model, UndefinedAtTransition):
        rung, _ = _gapless_integrals(model.params.q, model.params.eta, cap)
        return rung.gamma_plus if b == 0 else rung.gamma_minus

    def evaluate(n):
        alphas, _, _ = loop_grid(loop, n // loop.n)
        path = model.eigen_path(alphas)
        return complex(trapezoid_periodic(path.connection[b, b, PAD:PAD + n],
                                          loop.period))

    value, _, _ = refine_dyadically(
        evaluate, loop.n, _GAMMA_TOL, cap,
        context=f"band phase on a {model.kind} loop")
    return complex(value)


def _gapless_integrals(q, eta, cap=65536):
    """Per-band phases and index inside the gapless region, as (rung, history).

    The crossing momenta +-k0 split the half zone: the inner part
    (imaginary gap) and outer part (real gap) each carry an integrable
    inverse-square-root endpoint handled by double-exponential
    quadrature. The winding comes from two EP-free routes that must
    agree: refined quadrature of the closed-form phase rate, and discrete
    unwrapping of the off-diagonal argument.
    """
    params = BipartiteParams.from_ratios(q, eta)
    rate = BipartiteModel(params).winding_rate

    def mean_rate(n):
        return trapezoid_periodic(rate(_zone_grid(n)), _TWO_PI) / _TWO_PI

    q_quad, n_used, history = refine_dyadically(
        mean_rate, 1024, 1e-9, cap, context="winding of the hopping phase")

    n = max(n_used, 4096)
    while True:
        vk = _hopping(params, np.linspace(-math.pi, math.pi, n + 1))
        steps = np.angle(vk[1:] / vk[:-1])
        if np.abs(steps).max() < 0.5 * math.pi:
            break
        if n >= cap:
            raise NotConverged(
                "discrete winding of the hopping phase keeps aliasing",
                history=history)
        n *= 2
    q_wilson = -float(steps.sum()) / _TWO_PI
    if abs(q_quad - q_wilson) > _ROUTE_TOL:
        raise Disagreement(
            "the two winding routes disagree in the gapless region",
            values=(q_quad, q_wilson))

    cos_k0 = (eta * eta - 1.0 - q * q) / (2.0 * q)
    k0 = math.acos(min(1.0, max(-1.0, cos_k0)))
    # radicand factorization 2q(cos k - cos k0) = 4q sin((k+k0)/2) sin((k0-k)/2)
    # written in endpoint offsets so the square root stays accurate there
    if k0 > 1e-12:
        def inner(x, da, db):
            root = 4.0 * q * np.sin(k0 - 0.5 * db) * np.sin(0.5 * db)
            return rate(x) / np.sqrt(root)
        p_inner = float(tanh_sinh(inner, 0.0, k0, tol=1e-10))
    else:
        p_inner = 0.0
    if math.pi - k0 > 1e-12:
        def outer(x, da, db):
            root = 4.0 * q * np.sin(k0 + 0.5 * da) * np.sin(0.5 * da)
            return rate(x) / np.sqrt(root)
        m_outer = float(tanh_sinh(outer, k0, math.pi, tol=1e-10))
    else:
        m_outer = 0.0
    q_quad = float(q_quad)
    return _Rung(n=n_used, q_quad=q_quad, q_wilson=q_wilson,
                 gamma_plus=complex(math.pi * q_quad + eta * m_outer, eta * p_inner),
                 gamma_minus=complex(math.pi * q_quad - eta * m_outer,
                                     -eta * p_inner)), history


def analytic_q(params):
    """Magnitude of the global index from the sign conditions alone.

    Returns 0 or 1, or None on the singular set where the index is
    undefined. The standard counterclockwise traversal of the loops makes
    the measured index nonnegative for nonnegative amplitudes; reversing
    orientation flips its sign, not its magnitude.
    """
    if isinstance(params, (TwoLevelModel, BipartiteModel)):
        params = params.params
    if isinstance(params, TwoLevelParams):
        if params.is_singular():
            return None
        product = ((params.d_x ** 2 - params.h_x ** 2)
                   * (params.d_y ** 2 - params.h_y ** 2))
        return 1 if product > 0.0 else 0
    if isinstance(params, BipartiteParams):
        if _at_transition(params.q):
            return None
        return 1 if params.q > 1.0 else 0
    raise ValueError(f"unsupported parameter object {type(params).__name__}")


def two_level_phase_point(params, n0=1024, cap=65536):
    """Global phase result of the standard azimuthal sweep at these parameters."""
    loop = standard_loop(TWO_LEVEL, n0)
    return global_berry_phase(loop, TwoLevelModel(params), cap=cap)


def bipartite_phase_point(q, eta, eps_a=0.0, v=1.0, n0=1024, cap=65536):
    """Global phase result of the lossy chain at ratios (q, eta).

    Gapped regions run the generic dual-route evaluator; the gapless
    region runs the principal-value split. Exactly at q = 1 no value
    exists on either side of the transition.
    """
    if _at_transition(q):
        raise UndefinedAtTransition(
            "the topological index jumps at hopping ratio 1; no phase is "
            "defined on the transition itself")
    if classify_region(q, eta).region == GAPLESS_TRUE_CROSSING:
        return _assemble_result(*_gapless_integrals(q, eta, cap))
    params = BipartiteParams.from_ratios(q, eta, v=v, eps_a=eps_a)
    loop = standard_loop(BIPARTITE, n0)
    return global_berry_phase(loop, BipartiteModel(params), cap=cap)


def connection_samples(loop, model, derivative="fd"):
    """Connection matrices on the loop samples, one ConnectionSample each.

    The default route differentiates the frame by 4th-order central
    finite differences and must agree with the closed-form derivative
    within 1e-8 (refining up to 4x if the first grid falls short);
    derivative="analytic" returns the closed form directly.
    """
    if derivative == "analytic":
        alphas, _, _ = loop_grid(loop)
        path = model.eigen_path(alphas)
        return [ConnectionSample(float(alpha),
                                 path.connection[:, :, PAD + j].copy())
                for j, alpha in enumerate(loop.samples)]
    if derivative != "fd":
        raise ValueError(f"unknown derivative route {derivative!r}")
    last_err = None
    for refine in (1, 2, 4):
        alphas, h, n = loop_grid(loop, refine)
        path = model.eigen_path(alphas)
        dpsi = fd4(path.right, h)
        left_interior = path.left[:, :, PAD:PAD + n]
        a_fd = 1j * np.einsum("cim,cjm->ijm", np.conj(left_interior), dpsi)
        a_ref = path.connection[:, :, PAD:PAD + n]
        last_err = float(np.abs(a_fd - a_ref).max())
        if last_err <= 1e-8 * max(1.0, float(np.abs(a_ref).max())):
            picks = a_fd[:, :, ::refine]
            return [ConnectionSample(float(alpha), picks[:, :, j].copy())
                    for j, alpha in enumerate(loop.samples)]
    raise Disagreement(
        "finite-difference and closed-form connections still disagree at "
        f"4x refinement (worst {last_err:.3e})", values=(last_err,))


def _fd_diag(left, right, h, interior):
    dpsi = fd4(right, h)
    li = left[:, :, interior]
    return np.stack([
        1j * np.einsum("cm,cm->m", np.conj(li[:, 0, :]), dpsi[:, 0, :]),
        1j * np.einsum("cm,cm->m", np.conj(li[:, 1, :]), dpsi[:, 1, :]),
    ])


def apply_gauge(loop, model, f, band_windings):
    """Apply a per-band phase gauge and verify all three shift laws.

    ``f(alphas, band)`` must be smooth, vectorized, real, and advance by
    2 pi times the declared integer winding over one period; the declared
    and measured windings are compared and a mismatch is refused. The
    laws checked: (a) the diagonal connection shifts samplewise by the
    derivative of f within 1e-9, (b) each band phase shifts by 2 pi n
    within 1e-8, (c) the index shifts by the winding sum within 1e-6.
    """
    windings = {"plus": int(band_windings.get("plus", 0)),
                "minus": int(band_windings.get("minus", 0))}
    n = max(loop.n, 8192)
    while True:
        alphas, h, _ = loop_grid(loop, n // loop.n)
        f_vals = np.stack([np.asarray(f(alphas, "plus"), dtype=float),
                           np.asarray(f(alphas, "minus"), dtype=float)])
        for b, name in enumerate(("plus", "minus")):
            measured = (f_vals[b, PAD + n] - f_vals[b, PAD]) / _TWO_PI
            if abs(measured - windings[name]) > 1e-6:
                raise GaugeMismatch(
                    f"declared winding {windings[name]} on the {name} band "
                    f"but the gauge function advances {measured:.9f} turns")
        path = model.eigen_path(alphas)
        phase = np.exp(-1j * f_vals)
        right_t = path.right * phase[None, :, :]
        left_t = path.left * phase[None, :, :]
        interior = slice(PAD, PAD + n)
        a_orig = _fd_diag(path.left, path.right, h, interior)
        a_new = _fd_diag(left_t, right_t, h, interior)
        df = np.stack([fd4(f_vals[0], h), fd4(f_vals[1], h)])
        residual_a = float(np.abs(a_new - (a_orig + df)).max())
        if residual_a <= 1e-9 or n >= 16384:
            break
        n *= 2
    if residual_a > 1e-9:
        raise Disagreement(
            f"gauge shift of the connection misses samplewise ({residual_a:.3e})",
            values=(residual_a,))

    gamma_orig = trapezoid_periodic(a_orig, loop.period)
    gamma_new = trapezoid_periodic(a_new, loop.period)
    q_orig = float(trapezoid_periodic(a_orig[0] + a_orig[1], loop.period).real
                   / _TWO_PI)
    q_new = float(trapezoid_periodic(a_new[0] + a_new[1], loop.period).real
                  / _TWO_PI)
    q_new_wilson = _wilson_extrapolated(right_t, left_t, n)
    if q_new_wilson is None or abs(q_new - q_new_wilson) > _ROUTE_TOL:
        raise Disagreement(
            "transformed index routes disagree",
            values=(q_new, q_new_wilson))
    residual_gp = abs(gamma_new[0] - gamma_orig[0] - _TWO_PI * windings["plus"])
    residual_gm = abs(gamma_new[1] - gamma_orig[1] - _TWO_PI * windings["minus"])
    if max(residual_gp, residual_gm) > 1e-8:
        raise Disagreement(
            "per-band phase shift misses its 2 pi n target",
            values=(residual_gp, residual_gm))
    residual_q = abs(q_new - q_orig - (windings["plus"] + windings["minus"]))
    if residual_q > _ROUTE_TOL:
        raise Disagreement(
            "index shift misses the declared winding sum",
            values=(residual_q,))
    return GaugeCheckResult(
        alphas=alphas[interior].copy(),
        right=right_t[:, :, interior].copy(),
        left=left_t[:, :, interior].copy(),
        connection_diag=a_new,
        gamma_plus=complex(gamma_orig[0]), gamma_minus=complex(gamma_orig[1]),
        gamma_plus_new=complex(gamma_new[0]), gamma_minus_new=complex(gamma_new[1]),
        q_original=q_orig, q_new=q_new,
        residual_a=residual_a,
        residual_gamma_plus=float(residual_gp),
        residual_gamma_minus=float(residual_gm),
        residual_q=float(residual_q),
        winding_plus=windings["plus"], winding_minus=windings["minus"],
        resolution=n)


def _correction_max(loop, model, n):
    alphas = loop.samples[0] + np.arange(n) * (loop.period / n)
    path = model.eigen_path(alphas)
    dpsi = spectral_derivative(path.right, loop.period)
    dlam = spectral_derivative(path.left, loop.period)
    t1 = np.einsum("cm,cm->m", np.conj(dlam[:, 0, :]), path.right[:, 1, :])
    t2 = np.einsum("cm,cm->m", np.conj(path.left[:, 1, :]), dpsi[:, 0, :])
    t3 = np.einsum("cm,cm->m", np.conj(dlam[:, 1, :]), path.right[:, 0, :])
    t4 = np.einsum("cm,cm->m", np.conj(path.left[:, 0, :]), dpsi[:, 1, :])
    trace_first_order = (1j * (t1 * t2 - t3 * t4)
                         / (path.values[0] - path.values[1]))
    return float(np.abs(trace_first_order).max())


def first_order_correction_trace(loop, model):
    """Largest modulus along the loop of the first-order connection trace.

    The two cross terms cancel identically for biorthonormal frames, so
    this measures numerical consistency of independently differentiated
    left and right frames. Fourier differentiation of the periodic paths
    converges spectrally; the grid doubles from 4096 samples while the
    probe still improves and sits above 1e-9, so sharply localised frame
    features get resolved instead of polluting the estimate.
    """
    n = max(loop.n, 4096)
    value = _correction_max(loop, model, n)
    while value > 1e-9 and n < 65536:
        n *= 2
        probe = _correction_max(loop, model, n)
        if not probe < value:
            break
        value = probe
    return value

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

Loops crossing a true spectral degeneracy of the lossy chain (its
gapless parameter region) have no frame continuation. The per-band
phases there are the split integrals around the crossing momenta, read
from their elliptic closed form (``elliptic.closed_form_gamma``), and Q
comes from the two EP-free winding routes of the hopping phase.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import closed_form_gamma
from .errors import (
    BerrylineError,
    Disagreement,
    GaugeMismatch,
    NotConverged,
    PathTooCoarse,
    SingularLoop,
    UndefinedAtTransition,
)
from .models import (
    _MAX_SAMPLES,
    _TWO_PI,
    _HoppingHalf,
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    _at_transition,
    _bipartite_frame,
    _check_integer,
    _hopping,
    _zone_grid,
    band_index,
    loop_grid,
    standard_loop,
)
from .quadrature import (MAX_PHASE_STEP, PAD, fd4, refine_dyadically,
                         trapezoid_periodic)
from .spectrum import GAPLESS_TRUE_CROSSING, classify_region

_GAMMA_TOL = 1e-9     # per-band phase change under one grid doubling
_ROUTE_TOL = 1e-6     # quadrature Q vs Wilson Q
_ROUND_TOL = 1e-6     # distance to the nearest integer


@dataclass(frozen=True)
class BerryPhaseResult:
    """Converged per-band phases and the dual-route global index.

    ``q_index`` is the unrounded trace-quadrature value; ``q_rounded`` is
    its nearest integer when within 1e-6, else None. ``q_wilson`` is the
    Wilson-loop route's value, within 1e-6 of ``q_index``, and
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
    q_wilson: float


@dataclass(frozen=True)
class GaugeCheckResult:
    """Band phases and index before and after a gauge, with the law residuals.

    The residuals are the passing slacks of the three shift laws:
    samplewise connection shift (a), per-band phase shift against 2 pi n
    (b), and index shift against the winding sum (c). ``resolution`` is
    the loop sample count at which law (a) held.
    """

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
    q_wilson: object = None

    def band(self, b):
        return self.gamma_plus if b == 0 else self.gamma_minus


def _wilson_q(right, left, n, stride):
    """Accumulated overlap argument over a strided closed chain, per 2 pi.

    The chain visits every ``stride``-th of the n loop samples and closes
    on the sample one period past the anchor. Returns None when any
    single step turns by a quarter circle or more, which signals aliasing
    rather than a usable phase.
    """
    later = slice(PAD + stride, PAD + n + 1, stride)
    earlier = slice(PAD, PAD + n, stride)
    total = 0.0
    for b in (0, 1):
        overlaps = np.einsum("cm,cm->m", np.conj(left[:, b, later]),
                             right[:, b, earlier])
        angles = np.angle(overlaps)
        if np.abs(angles).max() >= MAX_PHASE_STEP:
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
        q = _wilson_q(right, left, n, stride)
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


def _phase_rung(loop, eigen_path, n):
    """The frame at n samples and its trapezoid phases, as (path, rung)."""
    alphas, _ = loop_grid(loop, n)
    path = eigen_path(alphas)
    interior = slice(PAD, PAD + n)
    gamma_plus = complex(trapezoid_periodic(path.connection[0, interior],
                                            loop.period))
    gamma_minus = complex(trapezoid_periodic(path.connection[1, interior],
                                             loop.period))
    q_quad = complex(trapezoid_periodic(path.trace_connection[interior],
                                        loop.period)).real / _TWO_PI
    return path, _Rung(n=n, gamma_plus=gamma_plus, gamma_minus=gamma_minus,
                       q_quad=q_quad)


def _gapless_loop(model, transition_error):
    """Refuse a loop on a singular set; whether it is a gapless chain loop.

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


def global_berry_phase(loop, model):
    """Both per-band phases and the dual-route global index on one loop.

    Doubles the grid until per-band phases stop moving (below 1e-9 per
    doubling) and the two Q routes agree within 1e-6. Grids the frame
    flags as too coarse are discarded and refined further.
    """
    if _gapless_loop(model, SingularLoop):
        raise SingularLoop(
            "the loop crosses a true degeneracy of the complex spectrum; "
            "use the per-band principal-value phases instead")
    return _settled_phases(loop, model.eigen_path)


def _settled_phases(loop, eigen_path):
    """The refinement of ``global_berry_phase`` on a loop known to be gapped."""
    n = loop.n
    history = []
    prev = None
    route_conflict = None
    while n <= _MAX_SAMPLES:
        try:
            path, rung = _phase_rung(loop, eigen_path, n)
        except PathTooCoarse:
            prev = None
            n *= 2
            continue
        history.append((n, rung.q_quad))
        if prev is not None:
            settled = (abs(rung.gamma_plus - prev.gamma_plus) < _GAMMA_TOL
                       and abs(rung.gamma_minus - prev.gamma_minus) < _GAMMA_TOL)
            if settled:
                rung = replace(rung, q_wilson=_wilson_extrapolated(
                    path.right, path.left, n))
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
        f"per-band phases still moving at {_MAX_SAMPLES} samples",
        history=history)


def _assemble_result(rung, history):
    nearest = round(rung.q_quad)
    q_rounded = int(nearest) if abs(rung.q_quad - nearest) < _ROUND_TOL else None
    return BerryPhaseResult(
        gamma_b_plus=rung.gamma_plus.real, xi_b_plus=rung.gamma_plus.imag,
        gamma_b_minus=rung.gamma_minus.real, xi_b_minus=rung.gamma_minus.imag,
        q_index=rung.q_quad, q_rounded=q_rounded, resolution=rung.n,
        refinement_history=history, q_wilson=rung.q_wilson)


def band_berry_phase(loop, model, band):
    """Loop integral of one band's diagonal connection, as gamma + i xi.

    Gapped loops refine a periodic trapezoid until doubling moves the
    value by less than 1e-9. For the lossy chain inside its gapless
    region the integral exists only as a principal value around the
    crossing momenta and is read from its elliptic closed form.
    """
    b = band_index(band)
    if _gapless_loop(model, UndefinedAtTransition):
        return closed_form_gamma(model.params.q, model.params.eta, band)
    value, _, _ = refine_dyadically(
        lambda n: _phase_rung(loop, model.eigen_path, n)[1].band(b), loop.n,
        _GAMMA_TOL, _MAX_SAMPLES, context=f"band phase on a {model.kind} loop")
    return complex(value)


class _ChainColumn:
    """What a lossy-chain point at hopping ratio q computes from q alone.

    The gamma-free half of the frame on each grid of ``loop`` and the
    gapless winding pair (or its typed error) are built on first use and
    then shared by every eta. A phase-diagram column keeps one instance
    for all its cells; ``bipartite_phase_point`` builds a fresh one per
    call, so nothing outlives one column.
    """

    def __init__(self, q, loop):
        self.q = q
        self.loop = loop
        self._halves = {}        # grid size -> _HoppingHalf
        self._winding = None

    def frames(self, eta):
        """The chain's ``eigen_path`` at loss ratio eta, for grids of the loop."""
        p = BipartiteParams.from_ratios(self.q, eta)

        def eigen_path(alphas):
            half = self._halves.get(len(alphas))
            if half is None:
                half = self._halves[len(alphas)] = _HoppingHalf(p, alphas)
            return _bipartite_frame(p, half)
        return eigen_path

    def winding(self):
        """(q_quad, q_wilson, n, history) of the hopping phase's winding."""
        if self._winding is None:
            try:
                self._winding = _gapless_winding(self.q)
            except BerrylineError as exc:
                self._winding = exc
        if isinstance(self._winding, BerrylineError):
            raise self._winding.with_traceback(None)
        return self._winding


def _gapless_winding(q):
    """The winding of the hopping phase by two EP-free routes that must agree.

    Refined quadrature of the closed-form phase rate, and discrete
    unwrapping of the off-diagonal argument checked against aliasing.
    Neither depends on the loss ratio.
    """
    params = BipartiteParams.from_ratios(q, 0.0)
    rate = BipartiteModel(params).winding_rate

    def mean_rate(n):
        return trapezoid_periodic(rate(_zone_grid(n)), _TWO_PI) / _TWO_PI

    q_quad, n_used, history = refine_dyadically(
        mean_rate, 1024, 1e-9, _MAX_SAMPLES,
        context="winding of the hopping phase")

    n = max(n_used, 4096)
    while True:
        vk = _hopping(params, np.linspace(-math.pi, math.pi, n + 1))
        steps = np.angle(vk[1:] / vk[:-1])
        if np.abs(steps).max() < MAX_PHASE_STEP:
            break
        if n >= _MAX_SAMPLES:
            raise NotConverged(
                "discrete winding of the hopping phase keeps aliasing",
                history=history)
        n *= 2
    q_wilson = -float(steps.sum()) / _TWO_PI
    if abs(q_quad - q_wilson) > _ROUTE_TOL:
        raise Disagreement(
            "the two winding routes disagree in the gapless region",
            values=(q_quad, q_wilson))
    return float(q_quad), q_wilson, n_used, history


def _chain_point(column, eta, report=None):
    """The lossy chain's global phase result at (column.q, eta).

    ``report`` is the crossing report of the point when the caller has
    it already. Gapped regions run the dual-route refinement on the
    column's frames; in the gapless region the band phases are the
    elliptic closed form and the index is the column's winding.
    """
    if _at_transition(column.q):
        raise UndefinedAtTransition(
            "the topological index jumps at hopping ratio 1; no phase is "
            "defined on the transition itself")
    if report is None:
        report = classify_region(column.q, eta)
    if report.region == GAPLESS_TRUE_CROSSING:
        q_quad, q_wilson, n_used, history = column.winding()
        rung = _Rung(n=n_used, q_quad=q_quad, q_wilson=q_wilson,
                     gamma_plus=closed_form_gamma(column.q, eta, "plus"),
                     gamma_minus=closed_form_gamma(column.q, eta, "minus"))
        return _assemble_result(rung, list(history))
    return _settled_phases(column.loop, column.frames(eta))


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


def two_level_phase_point(params, n0=1024):
    """Global phase result of the standard azimuthal sweep at these parameters."""
    return global_berry_phase(standard_loop(TWO_LEVEL, n0), TwoLevelModel(params))


def bipartite_phase_point(q, eta, n0=1024):
    """Global phase result of the lossy chain at ratios (q, eta).

    Gapped regions run the generic dual-route evaluator; the gapless
    region reads the elliptic closed form of the split integrals. Exactly
    at q = 1 no value exists on either side of the transition. The
    resolution ``n0`` is checked before either route runs.
    """
    loop = standard_loop(BIPARTITE, n0)
    return _chain_point(_ChainColumn(q, loop), eta)


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
    A declared winding that is not an integer raises ValueError.
    """
    windings = {name: _check_integer(band_windings.get(name, 0),
                                     f"declared winding on the {name} band")
                for name in ("plus", "minus")}
    n = max(loop.n, 8192)
    while True:
        alphas, h = loop_grid(loop, n)
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
        gamma_plus=complex(gamma_orig[0]), gamma_minus=complex(gamma_orig[1]),
        gamma_plus_new=complex(gamma_new[0]), gamma_minus_new=complex(gamma_new[1]),
        q_original=q_orig, q_new=q_new,
        residual_a=residual_a,
        residual_gamma_plus=float(residual_gp),
        residual_gamma_minus=float(residual_gm),
        residual_q=float(residual_q),
        winding_plus=windings["plus"], winding_minus=windings["minus"],
        resolution=n)

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
    by a discrete Wilson loop (the accumulated argument of per-band
    overlaps between neighbouring frames, taken both ways round, which is
    the winding of the right frame's determinant and so an exact integer).
  * Per-band phases by dyadically refined quadrature, accepted only when
    doubling the grid no longer moves them. The point evaluators start at
    the rung the integrand's analytic strip asks for, on loop nodes
    clustered at its nearest singularity. The first two rungs come from
    one frame: the first rung's grid is every second sample of the
    second's, and the frame of the second gives the first its phases and
    its spacing verdict.

The loop evaluators ``global_berry_phase`` and ``band_berry_phase`` are
the point evaluator of their family at the loop's sample count, so every
gapped phase settles on the node map in one refinement loop.

Loops crossing a true spectral degeneracy of the lossy chain (its
gapless parameter region) have no frame continuation. The per-band
phases there are the split integrals around the crossing momenta, read
from their elliptic closed form (``elliptic.closed_form_gamma``). Q
depends on the hopping winding alone, so it is the dual-route index of
the lossless chain at the same hopping ratio.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import _closed_form_pair, closed_form_gamma
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
    _ChainRows,
    BIPARTITE,
    TWO_LEVEL,
    BipartiteModel,
    BipartiteParams,
    TwoLevelModel,
    TwoLevelParams,
    _at_transition,
    _check_integer,
    _radicand_extremes,
    _two_level_axes,
    band_index,
    loop_grid,
    standard_loop,
)
from .quadrature import MAX_PHASE_STEP, spectral_derivative, trapezoid_periodic
from .spectrum import GAPLESS_TRUE_CROSSING, TYPE_I, classify_region

_GAMMA_TOL = 1e-9     # per-band phase change under one grid doubling
_ROUTE_TOL = 1e-6     # quadrature Q vs Wilson Q
_ROUND_TOL = 1e-6     # distance to the nearest integer
_PASS_SAMPLES = 1 << 18   # rows times samples of one array pass, for memory
_STRIP_DECAY = -math.log(_GAMMA_TOL)   # strip width times start rung


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
    the first rung, from twice the loop's strip rung or ``loop.n`` if that
    is smaller, at which the frame, law (a) and the transformed Wilson
    route all held.
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


def _wilson_q(right, left, n):
    """Two-sided overlap argument over the closed chain of n steps, per 4 pi.

    ``right`` and ``left`` are ket stacks shaped (2, 2, ..., M) whose
    sample n closes the loop one period past the anchor; the result has
    one value per row, the sum over bands b and steps m of
    arg<lambda_b,m+1|psi_b,m> - arg<lambda_b,m|psi_b,m+1>, over 4 pi.
    For a biorthonormal 2x2 frame L_m^H R_m+1 is the inverse of L_m+1^H
    R_m, so each step's four angles add, modulo 2 pi, to 2 arg(det R_m /
    det R_m+1): the value is the winding of det R over the loop, an
    integer without discretisation error (Fukui, Hatsugai & Suzuki, J.
    Phys. Soc. Jpn. 74, 1674 (2005)). The duals count only up to a phase
    per sample: turning one at an inner sample moves an angle ahead and
    one behind alike, which cancel; a turn at the anchor or closure moves
    the value. A row is NaN when any overlap angle, ahead or behind,
    reaches a quarter circle, which signals aliasing, not a usable phase.
    """
    ahead, behind = (
        np.angle(np.einsum("cb...m,cb...m->b...m", np.conj(bra), ket))
        for bra, ket in ((left[..., 1:n + 1], right[..., :n]),
                         (left[..., :n], right[..., 1:n + 1])))
    aliased = ((np.abs(ahead) >= MAX_PHASE_STEP)
               | (np.abs(behind) >= MAX_PHASE_STEP)).any(axis=(0, -1))
    sums = (ahead - behind).sum(axis=-1)
    # accumulated from 0.0, so a sum of zeros reads +0.0
    return np.where(aliased, math.nan,
                    (0.0 + sums[0] + sums[1]) / (2.0 * _TWO_PI))


def _phase_sums(loop, stack, n, stride=1):
    """A frame stack's trapezoid phases and trace indices on n of its samples.

    The samples are every ``stride``-th from the first. Returns (phases,
    q_quad): ``phases[b, r]`` is band b's phase on row r and ``q_quad[r]``
    the index of row r's connection trace; both are None when no row has
    a frame. Strided samples are summed from contiguous copies, the
    layout of a stack built on them alone, so the sums keep its bits.
    """
    if stack.connection is None:
        return None, None
    connection, trace = (a[..., :stride * n:stride]
                         for a in (stack.connection, stack.trace))
    if stride > 1:
        connection, trace = map(np.ascontiguousarray, (connection, trace))
    return (trapezoid_periodic(connection, loop.period),
            (trapezoid_periodic(trace, loop.period).real / _TWO_PI).tolist())


def _closed_form_region(q, eta):
    """The region of a chain point that reads the closed form, else None.

    Hopping ratio 1 raises UndefinedAtTransition. A gapless point has no
    frame to refine, but one that is gapless only by its tie to eta = q +
    1 from above, where r(0) < 0, is TYPE_II and refines its frame. A
    TYPE_I point whose radicand minimum lies within 1e-8 max(1, (1 +
    q)^2, eta^2) of zero, as the whole strip does next to q = 1, has
    exceptional points so near the real zone that only the closed form
    keeps its digits there.
    """
    if _at_transition(q):
        raise UndefinedAtTransition(
            "the topological index jumps at hopping ratio 1; no phase is "
            "defined on the transition itself")
    region = classify_region(q, eta).region
    lo, hi = _radicand_extremes(q, eta)
    if region == TYPE_I:
        reads = lo <= 1e-8 * max(1.0, (1.0 + q) * (1.0 + q), eta * eta)
    else:
        reads = region == GAPLESS_TRUE_CROSSING and hi >= 0.0
    return region if reads else None


def global_berry_phase(loop, model):
    """Both per-band phases and the dual-route global index on one loop.

    The point evaluator of the loop's family at ``n0 = loop.n``:
    ``two_level_phase_point(model.params, loop.n)``, or
    ``bipartite_phase_point(q, eta, loop.n)`` at the chain's ratios: its
    result bit for bit, or its refusal. A chain loop whose spectrum
    crosses raises SingularLoop, naming the crossing momenta, instead of
    reading the closed form, and one at hopping ratio 1
    UndefinedAtTransition.
    """
    p = model.params
    if model.kind == TWO_LEVEL:
        return two_level_phase_point(p, loop.n)
    if _closed_form_region(p.q, p.eta) == GAPLESS_TRUE_CROSSING:
        at = " and ".join(f"{k:.5g}" for k in classify_region(p.q, p.eta).witnesses)
        raise SingularLoop(
            f"the loop crosses a true degeneracy of the complex spectrum at k = {at}")
    return bipartite_phase_point(p.q, p.eta, loop.n)


def _raised(outcomes):
    """The one row's result, or the BerrylineError it ended with, raised."""
    (outcome,) = outcomes
    if isinstance(outcome, BerrylineError):
        raise outcome
    return outcome


def _settled_phases(loop, frames, starts):
    """The refinement of gapped rows on one loop, level by level.

    ``frames(alphas, rows)`` is the frame stack of the listed rows on one
    grid of the loop parameter, a ``_ChainRows`` or a model's one-row
    ``_rows``, and row r starts at rung ``starts[r]``. Each row doubles its grid until its per-band phases
    move by less than 1e-9 and its two Q routes agree within 1e-6; a rung
    its frame flags too coarse is discarded. The rows at the same rung go
    through one array pass (in passes of at most 2^18 samples, which
    bounds the memory), and only the rows that settle there build kets,
    for the Wilson route. Every rung, any below ``loop.n`` included, is
    anchored at ``loop.samples[0]``.

    A row without an accepted rung builds one frame at 2n, within the
    cap, for rungs n and 2n: rung n's grid is the even samples of rung
    2n's, so it takes its phases from them and its spacing verdict from
    the frame's ``halved()``. Its other checks hold on a subset of a grid
    that passed them, and a frame's unwrapped angles at the even samples
    are those of the even samples unwrapped alone, so it gets the verdict,
    trace index and band phases of a frame of its own, bit for bit. A row
    whose 2n frame flags any error builds rung n on its own. Returns per
    row its BerryPhaseResult or the BerrylineError it ended with.
    """
    outcomes = [None] * len(starts)
    rung_of = dict(enumerate(starts))      # unfinished row -> next rung
    history = {row: [] for row in rung_of}
    prev = {}          # row -> its band phases on the last accepted rung
    conflict = {}

    def passes(rows, n):
        size = max(1, _PASS_SAMPLES // n)
        return (rows[k:k + size] for k in range(0, len(rows), size))

    def accept(stack, n, entries, phases, q_quad):
        """Book rung n of (stack index, row, verdict) entries; settle rows."""
        settling = []
        for i, row, error in entries:
            rung_of[row] = 2 * n
            if isinstance(error, PathTooCoarse):
                prev.pop(row, None)
                continue
            if error is not None:
                outcomes[row] = error
                del rung_of[row]
                continue
            bands = phases[:, i].tolist()
            history[row].append((n, q_quad[i]))
            last = prev.get(row)
            if last is not None and all(
                    abs(g - old) < _GAMMA_TOL for g, old in zip(bands, last)):
                settling.append((i, row, bands))
            prev[row] = bands
        if not settling:
            return
        right, left = stack.kets([i for i, _, _ in settling])
        q_wilson = _wilson_q(right, left, n).tolist()
        for (i, row, (plus, minus)), q_w in zip(settling, q_wilson):
            q_q = q_quad[i]
            if not abs(q_q - q_w) <= _ROUTE_TOL:    # NaN: aliased
                conflict[row] = (q_q, q_w)
                continue
            nearest = round(q_q)
            outcomes[row] = BerryPhaseResult(
                gamma_b_plus=plus.real, xi_b_plus=plus.imag,
                gamma_b_minus=minus.real, xi_b_minus=minus.imag,
                q_index=q_q,
                q_rounded=(nearest if abs(q_q - nearest) < _ROUND_TOL
                           else None),
                resolution=n, refinement_history=history[row],
                q_wilson=q_w)
            del rung_of[row]

    while rung_of and min(rung_of.values()) <= _MAX_SAMPLES:
        n = min(rung_of.values())
        at_n = [row for row, m in rung_of.items() if m == n]
        nested = 2 * n <= _MAX_SAMPLES
        alone = [row for row in at_n if row in prev or not nested]
        ahead = [row for row in at_n if row not in prev and nested]
        for rows in passes(ahead, 2 * n):
            stack = frames(loop_grid(loop, 2 * n), rows)
            framed = []
            for i, (row, error) in enumerate(zip(rows, stack.errors)):
                if error is None:
                    framed.append((i, row))
                else:
                    alone.append(row)
            if not framed:
                continue
            halved = stack.halved()
            accept(stack, n, [(i, row, halved[i]) for i, row in framed],
                   *_phase_sums(loop, stack, n, 2))
            accept(stack, 2 * n, [(i, row, None) for i, row in framed],
                   *_phase_sums(loop, stack, 2 * n))
        for rows in passes(alone, n):
            stack = frames(loop_grid(loop, n), rows)
            accept(stack, n, [(i, row, error) for i, (row, error)
                              in enumerate(zip(rows, stack.errors))],
                   *_phase_sums(loop, stack, n))
    for row in rung_of:
        if row in conflict and not math.isnan(conflict[row][1]):
            values = conflict[row]
            outcomes[row] = Disagreement(
                "trace quadrature and Wilson loop give different indices "
                f"({values[0]:.9f} vs {values[1]:.9f})", values=values)
        else:
            outcomes[row] = NotConverged(
                f"per-band phases still moving at {_MAX_SAMPLES} samples",
                history=history[row])
    return outcomes


def band_berry_phase(loop, model, band):
    """Loop integral of one band's diagonal connection, as gamma + i xi.

    A gapped loop returns this band of ``global_berry_phase``, bit for
    bit, so the two Q routes must agree too. It raises Disagreement where
    they do not, and NotConverged "per-band phases still moving at 65536
    samples" where the phases do not settle. For the lossy chain inside
    its gapless region the integral exists only as a principal value
    around the crossing momenta, and on the gapped strip next to q = 1
    the frame's exceptional points nearly touch the loop; both read the
    elliptic closed form, which exists even where, within about 5e-9 of
    q = 1, the point evaluator's lossless index row does not settle.
    """
    b = band_index(band)
    p = model.params
    if model.kind == BIPARTITE and _closed_form_region(p.q, p.eta):
        return closed_form_gamma(p.q, p.eta, band)
    r = global_berry_phase(loop, model)
    return (complex(r.gamma_b_plus, r.xi_b_plus),
            complex(r.gamma_b_minus, r.xi_b_minus))[b]


def _strip_rung(width):
    """The rung a gapped loop's refinement needs to start from.

    The periodic trapezoid error falls like exp(-a n) for strip
    half-width a (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)), so this
    is the smallest power of two n >= 16 with a n >= ln(1 / 1e-9), the
    settle tolerance. A width of 0, a singularity on the loop, has no
    such rung and gives math.inf.
    """
    if width <= 0.0:
        return math.inf
    n = 16
    while width * n < _STRIP_DECAY:
        n *= 2
    return n


def _node_map(t, beta, centre, fold):
    """Loop samples clustered by a periodic node map, and their derivative.

    Returns (alpha, dalpha) at the loop parameters t: alpha(t) = t -
    (beta / m) [sin m (t - c) + sin m c] with m = ``fold`` and c =
    ``centre``, and d alpha / dt = 1 - beta cos m (t - c). This is the
    map of Hale & Trefethen (SIAM J. Numer. Anal. 46, 930 (2008)) in
    m alpha, for an integrand whose singularities repeat every 2 pi / m;
    it clusters the nodes at t = c + 2 pi j / m and keeps alpha(0) = 0.
    Where every ``beta`` is 0 the samples are t themselves, and
    ``dalpha`` is None.
    """
    if not np.any(beta):
        return t, None
    arg = fold * (t - centre)
    return (t - (beta / fold) * (np.sin(arg) + np.sin(fold * centre)),
            1.0 - beta * np.cos(arg))


def _chain_singularities(q, eta):
    """Distances from real k and centres of a chain row's singularities.

    A gapped row returns ((a, k0), (|ln q|, pi)): the exceptional points
    sit at Im k = acosh|c|, where cos k = c = (eta^2 - 1 - q^2) / (2 q),
    with k0 = pi below eta = |q - 1| and k0 = 0 above eta = q + 1, and the
    zero of v_k at k = pi + i |ln q|. |c| - 1 is r(pi) / (2 q) or -r(0) /
    (2 q), from the factorized radicand extremes, and acosh(1 + d) =
    log1p(d + sqrt(d (d + 2))), so the distance keeps its digits next to
    the lines. A row without a gap, at q = 0 (no hopping winding) or on or
    between the lines, where r(pi) <= 0 <= r(0), returns one singularity
    on the loop, ((0.0, 0.0),), which has no strip rung.
    """
    rpi, r0 = _radicand_extremes(q, eta)
    if q == 0.0 or rpi <= 0.0 <= r0:
        return ((0.0, 0.0),)
    delta = (rpi if rpi > 0.0 else -r0) / (2.0 * q)
    return ((math.log1p(delta + math.sqrt(delta * (delta + 2.0))),
             math.pi if rpi > 0.0 else 0.0),
            (abs(math.log(q)), math.pi))


def _two_level_singularities(p):
    """Distances from the real axis and centres of the two-level singularities.

    Returns (a, phi0) for the zero of c1 (its mirror image through |c1|
    shares it), the zero of c2 (likewise) and the two zeros of w = A^2 +
    sin^2(theta) c1 c2, with A = (h_z + i d_z) cos(theta). Each is a root
    z^2 = u in z = exp(i phi): u = -(a+ + b+) / (a+ - b+) and -(a- - b-) /
    (a- + b-) from the axes of ``models._two_level_axes``, and the roots
    of (s/4) P u^2 + ((s/4) Q + A^2) u + (s/4) R, with s = sin^2(theta),
    P = (a+ - b+)(a- + b-), R = (a+ + b+)(a- - b-) and Q = (a+ - b+)(a- -
    b-) + (a+ + b+)(a- + b-). The singularity sits at phi0 and phi0 + pi,
    a = |ln|u|| / 2 off the real axis, with phi0 = arg(u) / 2. A root at
    u = 0 or infinity, which a vanishing coefficient leaves, has a = inf.
    """
    a_p, a_m, b_p, b_m = _two_level_axes(p)
    s = 0.25 * math.sin(p.theta) ** 2
    amp = complex(p.h_z, p.d_z) * math.cos(p.theta)
    lead = s * (a_p - b_p) * (a_m + b_m)
    mid = s * ((a_p - b_p) * (a_m - b_m) + (a_p + b_p) * (a_m + b_m)) + amp * amp
    last = s * (a_p + b_p) * (a_m - b_m)
    root = cmath.sqrt(mid * mid - 4.0 * lead * last)
    # the sign without cancellation; the roots are big / lead and last / big
    big = -0.5 * (mid + root if (mid.conjugate() * root).real >= 0.0
                  else mid - root)
    return tuple(
        (0.5 * abs(math.log(abs(num)) - math.log(abs(den))),
         0.5 * (cmath.phase(num) - cmath.phase(den))) if num and den
        else (math.inf, 0.0)
        for num, den in ((-(a_p + b_p), a_p - b_p), (b_m - a_m, a_m + b_m),
                         (big, lead), (last, big)))


def _kepler(mean, e):
    """The root x of Kepler's equation x - e sin x = mean, for 0 <= e < 1.

    Newton's method from Danby's start mean + 0.85 e sign(sin mean),
    which converges for every mean and e (Danby, Fundamentals of
    Celestial Mechanics, 2nd ed., 1988, ch. 6).
    """
    x = mean + math.copysign(0.85 * e, math.sin(mean))
    for _ in range(50):
        step = (x - e * math.sin(x) - mean) / (1.0 - e * math.cos(x))
        x -= step
        if abs(step) <= 1e-12:
            break
    return x


def _node_grid(found, fold):
    """Start rung and node map of a loop with singularities every 2 pi / m.

    ``found`` lists (a, c) per singularity, its distance from the real
    axis and its real part, and m = ``fold`` (1 for the chain, 2 for the
    two-level loop). Returns (n, beta, t0) for ``_node_map``. With the
    nearest singularity at (a, c), beta = (y - m a) / sinh y with y =
    (m a)^(1/3) puts its preimages at Im t = y / m, and t0, the root of
    m t0 - beta sin m t0 = m c, centres the map on them. The start rung
    is ``_strip_rung`` of y / m, doubled until every other singularity's
    preimage clears the strip of that rung too, and beta = 0 (alpha = t
    exactly) where that is no lower than the rung of a on the uniform
    grid, both uncapped; n is then capped at 32768 to leave a second
    rung below the cap.
    """
    a, c = min(found)
    if not 0.0 < a < _STRIP_DECAY / 16:
        # a singularity on the loop, or none near enough to need 32 samples
        return min(_strip_rung(a), _MAX_SAMPLES // 2), 0.0, 0.0
    uniform = _strip_rung(a)
    y = (fold * a) ** (1.0 / 3.0)
    beta = (y - fold * a) / math.sinh(y)
    n = _strip_rung(y / fold)
    for far, centre in found:
        # in u = m (t - t0), u - beta sin u = m (alpha - c); the line Im u
        # = v maps to the curve x - beta cosh v sin x + i (v - beta sinh v
        # cos x), monotone in x for v <= y, and the singularity at
        # m (centre - c) + i m far lies above it where its preimage does
        while n < uniform and (far, centre) != (a, c):
            v = fold * _STRIP_DECAY / n
            lift = beta * math.sinh(v)
            if fold * far >= v + lift or fold * far >= v - lift * math.cos(
                    _kepler(fold * (centre - c), beta * math.cosh(v))):
                break
            n *= 2
    if n >= uniform:
        return min(uniform, _MAX_SAMPLES // 2), 0.0, 0.0
    return min(n, _MAX_SAMPLES // 2), beta, _kepler(fold * c, beta) / fold


def _chain_rows(loop, ratios):
    """The lossy chain's global phase results at gapped rows (q, eta).

    Returns per row a BerryPhaseResult or the BerrylineError it ended
    with. The rows run the dual-route refinement together, each on the
    node map ``_node_grid`` gives it and starting at its rung or at
    ``loop.n``, whichever is smaller; every rung is anchored at the
    loop's first sample, in the loop parameter t. A row computes from its
    own (q, eta) alone, so every row has the bits of its one-row call.
    """
    grids = [_node_grid(_chain_singularities(q, eta), 1) for q, eta in ratios]

    def frames(t, idx):
        beta, t0 = np.array([grids[r][1:] for r in idx]).T[:, :, None]
        k, dk = _node_map(t, beta, t0, 1)
        return _ChainRows([1.0] * len(idx), [ratios[r][0] for r in idx],
                          [ratios[r][1] for r in idx], k, dk)

    return _settled_phases(loop, frames,
                           [min(loop.n, grid[0]) for grid in grids])


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
    """Global phase result of the standard azimuthal sweep at these parameters.

    Runs the dual-route refinement on uniform nodes t of the loop
    parameter, mapped to angles phi(t) that cluster at the pair of
    singularities of the frame nearest the real axis, and starting at the
    rung the analytic strip width of the mapped integrand asks for, or at
    ``n0`` if that is smaller (see ``_node_grid``, m = 2; where the map
    would not lower the start, phi = t). Every rung is anchored at t = 0,
    where phi = 0 too, so the band labels are those of the uniform grid;
    ``resolution``, a count of samples in t, may lie below ``n0``. A loop
    on the singular lines raises SingularLoop, and ``n0`` is checked
    before any frame is built.
    """
    model = TwoLevelModel(params)
    loop = standard_loop(TWO_LEVEL, n0)
    if params.is_singular():
        raise SingularLoop(
            "an off-diagonal amplitude vanishes somewhere on every sweep at "
            "these parameters; the winding index is undefined")
    n, beta, centre = _node_grid(_two_level_singularities(params), 2)
    return _raised(_settled_phases(
        loop, lambda t, rows: model._rows(*_node_map(t, beta, centre, 2)),
        [min(loop.n, n)]))


def bipartite_phase_point(q, eta, n0=1024):
    """Global phase result of the lossy chain at ratios (q, eta).

    Gapped regions run the dual-route refinement on uniform nodes t of
    the loop parameter, mapped to momenta that cluster where the
    integrand's nearest singularity lies, and starting at the rung the
    analytic strip width of the mapped integrand asks for, or at ``n0``
    if that is smaller (see ``_node_grid``, m = 1; where the map would not
    lower the start, k = t). Every rung is anchored in t at the first
    sample of the ``n0`` loop, so ``resolution``, a count of samples in
    t, may lie below ``n0``. The gapless region and the TYPE_I strip next
    to q = 1 (see ``_closed_form_region``) read their band phases off the
    elliptic closed form, and their index, resolution and history off the
    refined lossless point (q, 0) with the same ``n0``. Exactly at q = 1
    no value exists on either side of the transition. The resolution
    ``n0`` is checked before either route runs.
    """
    loop = standard_loop(BIPARTITE, n0)
    gapless = _closed_form_region(q, eta)
    r = _raised(_chain_rows(loop, [(q, 0.0) if gapless else (q, eta)]))
    if not gapless:
        return r
    plus, minus = _closed_form_pair(q, eta)
    return replace(r, gamma_b_plus=plus.real, xi_b_plus=plus.imag,
                   gamma_b_minus=minus.real, xi_b_minus=minus.imag)


def apply_gauge(loop, model, f, band_windings):
    """Apply a per-band phase gauge and verify all three shift laws.

    ``f(alphas, band)`` must be smooth, vectorized, real, and advance by
    2 pi times the declared integer winding over one period; the declared
    and measured windings are compared and a mismatch is refused. The
    laws checked: (a) the diagonal connection shifts samplewise by the
    derivative of f within 1e-9, by Fourier derivatives of the kets and
    exp(-i f), (b) each band phase shifts by 2 pi n within 1e-8, (c) the
    index shifts by the winding sum within 1e-6. The grid doubles while
    the frame is too coarse, law (a) misses, or the new index's Wilson
    route misses its quadrature by over 1e-6, up to 65536 samples. It
    starts at twice the strip rung, or at ``loop.n`` if that is smaller:
    the trapezoid error falls like exp(-a n), but law (a) compares Fourier
    derivatives sample by sample, whose aliasing error falls only like
    n exp(-a n / 2) (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    Either family samples the node map of ``_node_grid`` (m = 2 for the
    two-level loop, 1 for the chain) at uniform nodes t, whose rung it
    starts from, so the gauge reads f(alpha(t)), still periodic in t, and
    law (a) holds per unit t. A chain row without a gap has no strip rung
    and starts at ``loop.n``, where its frame refuses it. Every rung is
    anchored at ``loop.samples[0]``. A declared winding that is not an
    integer raises ValueError.
    """
    bands = ("plus", "minus")
    windings = [_check_integer(band_windings.get(name, 0),
                               f"declared winding on the {name} band")
                for name in bands]
    p = model.params
    found, fold = ((_two_level_singularities(p), 2) if model.kind == TWO_LEVEL
                   else (_chain_singularities(p.q, p.eta), 1))
    rung, beta, centre = _node_grid(found, fold)
    n = min(loop.n, 2 * rung)
    while True:
        alphas, _ = _node_map(loop_grid(loop, n), beta, centre, fold)
        f_vals = np.stack([np.asarray(f(alphas, name), dtype=float)
                           for name in bands])
        for name, declared, turns in zip(
                bands, windings, (f_vals[:, n] - f_vals[:, 0]) / _TWO_PI):
            if abs(turns - declared) > 1e-6:
                raise GaugeMismatch(
                    f"declared winding {declared} on the {name} band but "
                    f"the gauge function advances {turns:.9f} turns")
        try:
            path = model.eigen_path(alphas)
        except PathTooCoarse:
            if n >= _MAX_SAMPLES:
                raise
            n *= 2
            continue
        phase = np.exp(-1j * f_vals)
        # the frame before and after the gauge, and i<lambda_b|d psi_b>
        right = np.stack([path.right, path.right * phase])
        left = np.stack([path.left, path.left * phase])
        a_orig, a_new = 1j * np.einsum(
            "gcbm,gcbm->gbm", np.conj(left[..., :n]),
            spectral_derivative(right, loop.period))
        # exp(-i f) is periodic for an integer winding, where f is not
        df = (1j * np.conj(phase[:, :n])
              * spectral_derivative(phase, loop.period)).real
        residual_a = float(np.abs(a_new - (a_orig + df)).max())
        q_orig, q_new = (
            float(trapezoid_periodic(a[0] + a[1], loop.period).real / _TWO_PI)
            for a in (a_orig, a_new))
        # an aliased Wilson route is NaN and agrees with nothing
        q_wilson = (float(_wilson_q(right[1], left[1], n))
                    if residual_a <= 1e-9 else math.nan)
        if abs(q_new - q_wilson) <= _ROUTE_TOL or n >= _MAX_SAMPLES:
            break
        n *= 2
    if residual_a > 1e-9:
        raise Disagreement(
            f"gauge shift of the connection misses samplewise ({residual_a:.3e})",
            values=(residual_a,))
    if not abs(q_new - q_wilson) <= _ROUTE_TOL:
        raise Disagreement("transformed index routes disagree",
                           values=(q_new, q_wilson))
    gamma_orig = trapezoid_periodic(a_orig, loop.period)
    gamma_new = trapezoid_periodic(a_new, loop.period)
    residual_gp, residual_gm = (
        float(abs(gamma_new[b] - gamma_orig[b] - _TWO_PI * windings[b]))
        for b in (0, 1))
    if max(residual_gp, residual_gm) > 1e-8:
        raise Disagreement(
            "per-band phase shift misses its 2 pi n target",
            values=(residual_gp, residual_gm))
    residual_q = abs(q_new - q_orig - sum(windings))
    if residual_q > _ROUTE_TOL:
        raise Disagreement(
            "index shift misses the declared winding sum",
            values=(residual_q,))
    return GaugeCheckResult(
        gamma_plus=complex(gamma_orig[0]), gamma_minus=complex(gamma_orig[1]),
        gamma_plus_new=complex(gamma_new[0]), gamma_minus_new=complex(gamma_new[1]),
        q_original=q_orig, q_new=q_new, residual_a=residual_a,
        residual_gamma_plus=residual_gp, residual_gamma_minus=residual_gm,
        residual_q=float(residual_q), winding_plus=windings[0],
        winding_minus=windings[1], resolution=n)

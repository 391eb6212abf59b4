"""Command-line front end.

Six subcommands cover the library's surface: ``two-level-q`` and
``bipartite`` evaluate single parameter points, ``phase-diagram`` writes
the sweep CSV with its JSON sidecar, ``ep-classify`` checks a spectral
region label against the sampled gap, ``evolve`` runs one adiabatic
cycle and splits the acquired phase, and ``gauge-check`` applies a
winding gauge and reports the three shift-law residuals.

Results print as JSON with 17-significant-digit floats so identical
flags give byte-identical output. Exit codes: 0 success, 1 malformed
flags or invalid parameter values, 2 parameters on a singular set where
the quantity is undefined, 3 a computation that refused to converge or
failed an internal cross-check.
"""

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .berry import (analytic_q, apply_gauge, bipartite_phase_point,
                    two_level_phase_point)
from .elliptic import _closed_form_pair
from .errors import (AmplitudeOutOfRange, BadResolution, BandLeakage,
                     ClassificationMismatch, DegenerateSpectrum,
                     Disagreement, DomainError, GaugeMismatch, NotConverged,
                     OutsideValidityDomain, PathTooCoarse, SingularLoop,
                     SingularParameters, StepTooLarge, TrueCrossing,
                     UndefinedAtTransition)
from .evolution import Schedule, adiabatic_decomposition
from .models import (_MAX_SAMPLES, BIPARTITE, TWO_LEVEL, BipartiteModel,
                     BipartiteParams, TwoLevelModel, TwoLevelParams,
                     _check_ratios, standard_loop)
from .spectrum import classify_region, verify_region
from .sweep import phase_diagram, save_phase_diagram

_USAGE_EXIT = 1
_SINGULAR_EXIT = 2
_NUMERIC_EXIT = 3

_SINGULAR_ERRORS = (SingularParameters, SingularLoop, TrueCrossing,
                    UndefinedAtTransition, DegenerateSpectrum,
                    OutsideValidityDomain)
_NUMERIC_ERRORS = (NotConverged, PathTooCoarse, Disagreement, StepTooLarge,
                   BandLeakage, ClassificationMismatch, GaugeMismatch,
                   AmplitudeOutOfRange)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-8.5e-05" or "-inf" for an option name; read it as
        # a value, so the parameter check can say what is wrong with it
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)

    # argparse exits with 2 on usage errors; 2 is reserved here for
    # singular parameters, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


def _dumps(value, indent=0):
    """Small JSON writer: floats at 17 significant digits, non-finite as null."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join(f'{pad}  "{key}": {_dumps(item, indent + 1)}'
                          for key, item in value.items())
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dumps(item, indent) for item in value) + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g") if math.isfinite(value) else "null"
    if isinstance(value, (complex, np.complexfloating)):
        return _dumps({"re": value.real, "im": value.imag}, indent)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _range_arg(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected min:max:count, got {text!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"could not parse {text!r} as min:max:count") from None
    if count < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return lo, hi, count


def _add_two_level_flags(sub, required):
    sub.add_argument("--hx", type=float, required=required, default=None,
                     help="x tunneling field amplitude (dimensionless)")
    sub.add_argument("--hy", type=float, required=required, default=None,
                     help="y tunneling field amplitude (dimensionless)")
    sub.add_argument("--hz", type=float, required=required, default=None,
                     help="z field amplitude (dimensionless)")
    sub.add_argument("--dx", type=float, required=required, default=None,
                     help="x gain/loss amplitude (dimensionless)")
    sub.add_argument("--dy", type=float, required=required, default=None,
                     help="y gain/loss amplitude (dimensionless)")
    sub.add_argument("--dz", type=float, required=required, default=None,
                     help="z gain/loss amplitude (dimensionless)")
    sub.add_argument("--theta", type=float, required=required, default=None,
                     help="polar angle of the sweep axis, radians in [0, pi]")


def _add_bipartite_flags(sub, required):
    sub.add_argument("--q", type=float, required=required, default=None,
                     help="hopping ratio v'/v (dimensionless, positive)")
    sub.add_argument("--eta", type=float, required=required, default=None,
                     help="loss ratio Gamma/v (dimensionless, nonnegative)")


def _add_samples_flag(sub, meaning):
    sub.add_argument("--samples", type=int, default=1024,
                     help=f"{meaning} (power of two from 16 to "
                          f"{_MAX_SAMPLES}, default 1024)")


def _model_from_args(args):
    if args.model == TWO_LEVEL:
        names = ("hx", "hy", "hz", "dx", "dy", "dz", "theta")
        missing = [f"--{n}" for n in names if getattr(args, n) is None]
        if missing:
            raise ValueError(
                f"the two-level model needs {' '.join(missing)}")
        params = TwoLevelParams(h_x=args.hx, h_y=args.hy, h_z=args.hz,
                                d_x=args.dx, d_y=args.dy, d_z=args.dz,
                                theta=args.theta)
        return TwoLevelModel(params)
    missing = [f"--{n}" for n in ("q", "eta") if getattr(args, n) is None]
    if missing:
        raise ValueError(f"the bipartite model needs {' '.join(missing)}")
    _check_ratios(args.q, args.eta)
    return BipartiteModel(BipartiteParams.from_ratios(args.q, args.eta))


def _cmd_two_level_q(args):
    params = _model_from_args(args).params
    result = two_level_phase_point(params, n0=args.samples)
    return {
        "Q_numeric": result.q_index,
        "Q_analytic": analytic_q(params),
        "gamma_plus": complex(result.gamma_b_plus, result.xi_b_plus),
        "gamma_minus": complex(result.gamma_b_minus, result.xi_b_minus),
        "converged": result.q_rounded is not None,
        "resolution": result.resolution,
    }


def _cmd_bipartite(args):
    result = bipartite_phase_point(args.q, args.eta, n0=args.samples)
    payload = {
        "q": args.q,
        "eta": args.eta,
        "region": classify_region(args.q, args.eta).region,
        "gamma_plus": complex(result.gamma_b_plus, result.xi_b_plus),
        "gamma_minus": complex(result.gamma_b_minus, result.xi_b_minus),
        "Q": result.q_index,
        "converged": result.q_rounded is not None,
        "resolution": result.resolution,
    }
    if args.eta < abs(args.q - 1.0):
        plus, minus = _closed_form_pair(args.q, args.eta)
        payload["closed_form"] = {"gamma_plus": plus, "gamma_minus": minus}
    return payload


def _cmd_phase_diagram(args):
    q_lo, q_hi, nq = args.q
    eta_lo, eta_hi, neta = args.eta
    grid = phase_diagram((q_lo, q_hi), (eta_lo, eta_hi), nq, neta,
                         samples_per_loop=args.samples)
    save_phase_diagram(grid, args.out)
    return {
        "out": args.out,
        "sidecar": args.out + ".json",
        "cells": int(nq * neta),
        "converged_cells": int(np.count_nonzero(grid.converged)),
    }


def _cmd_ep_classify(args):
    report = verify_region(args.q, args.eta, k_samples=args.k_samples)
    return {
        "q": args.q,
        "eta": args.eta,
        "region": report.region,
        "all_labels": list(report.all_labels),
        "witnesses": [float(w) for w in report.witnesses],
        "gap_min_re": report.gap_min_re,
        "gap_min_im": report.gap_min_im,
    }


def _cmd_evolve(args):
    model = _model_from_args(args)
    steps = args.steps
    if steps is None:
        # a T whose 10 T overflows has no default step count; Schedule
        # refuses it
        ten_t = 10.0 * args.T
        steps = max(1000, math.ceil(ten_t)) if math.isfinite(ten_t) else 1000
    schedule = Schedule(period_T=args.T, steps=steps)
    report = adiabatic_decomposition(model, schedule, band=args.band)
    return {
        "model": args.model,
        "T": args.T,
        "steps": steps,
        "band": args.band,
        "total_phase": report.total_phase,
        "gamma_d": complex(report.gamma_d, report.xi_d),
        "gamma_g": complex(report.gamma_g, report.xi_g),
        "defect": report.defect,
        "strong_regime": report.strong_regime,
        "leak_ratio": report.leak_ratio,
        "psi_final": list(report.psi_final),
        "psi_unit": list(report.psi_unit),
        "log_norm": report.log_norm,
    }


def _cmd_gauge_check(args):
    model = _model_from_args(args)
    loop = standard_loop(model.kind, args.samples)
    windings = {
        "plus": args.winding if args.band in ("plus", "both") else 0,
        "minus": args.winding if args.band in ("minus", "both") else 0,
    }

    def gauge(alphas, band):
        return windings[band] * np.asarray(alphas, dtype=float)

    check = apply_gauge(loop, model, gauge, windings)
    return {
        "model": args.model,
        "winding": args.winding,
        "band": args.band,
        "gamma_plus": check.gamma_plus,
        "gamma_plus_new": check.gamma_plus_new,
        "gamma_minus": check.gamma_minus,
        "gamma_minus_new": check.gamma_minus_new,
        "Q": check.q_original,
        "Q_new": check.q_new,
        "delta_Q": check.q_new - check.q_original,
        "residual_connection": check.residual_a,
        "residual_gamma_plus": check.residual_gamma_plus,
        "residual_gamma_minus": check.residual_gamma_minus,
        "residual_Q": check.residual_q,
        "resolution": check.resolution,
    }


def build_parser():
    parser = _Parser(
        prog="berryline",
        description="Complex geometric phases and topological indices of "
                    "two non-Hermitian two-band models.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    point_samples = ("loop anchor and the finest rung a gapped point's "
                     "refinement starts from; it starts lower where the "
                     "strip width of the integrand allows")

    s = sub.add_parser(
        "two-level-q",
        help="per-band phases and the global index of the two-level loop")
    _add_two_level_flags(s, required=True)
    _add_samples_flag(s, point_samples)
    s.set_defaults(func=_cmd_two_level_q, model=TWO_LEVEL)

    s = sub.add_parser(
        "bipartite",
        help="per-band phases, index, and region of the lossy chain")
    _add_bipartite_flags(s, required=True)
    _add_samples_flag(s, point_samples)
    s.set_defaults(func=_cmd_bipartite)

    s = sub.add_parser(
        "phase-diagram",
        help="sweep a (q, eta) grid and write CSV plus JSON sidecar")
    s.add_argument("--q", type=_range_arg, required=True,
                   help="hopping-ratio axis as min:max:count")
    s.add_argument("--eta", type=_range_arg, required=True,
                   help="loss-ratio axis as min:max:count")
    s.add_argument("--out", required=True,
                   help="CSV output path; the sidecar lands at <out>.json")
    _add_samples_flag(s, point_samples)
    s.set_defaults(func=_cmd_phase_diagram)

    s = sub.add_parser(
        "ep-classify",
        help="label the spectral region and verify it against sampled gaps")
    _add_bipartite_flags(s, required=True)
    s.add_argument("--k-samples", type=int, default=1024,
                   help="momentum samples for the gap scan, 256 to 65536 "
                   "(default 1024)")
    s.set_defaults(func=_cmd_ep_classify)

    s = sub.add_parser(
        "evolve",
        help="one adiabatic cycle: total phase and its decomposition")
    s.add_argument("--model", required=True, choices=(TWO_LEVEL, BIPARTITE),
                   help="which model family to drive")
    _add_two_level_flags(s, required=False)
    _add_bipartite_flags(s, required=False)
    s.add_argument("--T", type=float, required=True,
                   help="cycle duration in inverse-energy units")
    s.add_argument("--steps", type=int, default=None,
                   help="integrator steps (default max(1000, ceil(10 T)))")
    s.add_argument("--band", choices=("plus", "minus"), default="plus",
                   help="band to prepare and track (default plus)")
    s.set_defaults(func=_cmd_evolve)

    s = sub.add_parser(
        "gauge-check",
        help="apply a winding gauge and verify the three shift laws")
    s.add_argument("--model", required=True, choices=(TWO_LEVEL, BIPARTITE),
                   help="which model family to transform")
    _add_two_level_flags(s, required=False)
    _add_bipartite_flags(s, required=False)
    s.add_argument("--winding", type=int, default=1,
                   help="integer turns of the gauge phase (default 1)")
    s.add_argument("--band", choices=("plus", "minus", "both"),
                   default="plus",
                   help="band(s) the gauge acts on (default plus)")
    _add_samples_flag(s, "finest first rung of the gauge check, which "
                         "starts at twice its strip rung where that is lower")
    s.set_defaults(func=_cmd_gauge_check)

    return parser


@functools.cache
def _shared_parser():
    """The parser every ``main`` call reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE_EXIT
    try:
        print(_dumps(args.func(args)))
    except (ValueError, BadResolution, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except _SINGULAR_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _SINGULAR_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line behavior: flags, JSON payloads, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from berryline import cli, evolution, spectrum
from berryline.cli import build_parser, main
from berryline.errors import AmplitudeOutOfRange

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_two_level_q_wound_point(capsys):
    payload = run_json(capsys, "two-level-q", "--hx", "1", "--hy", "1",
                       "--hz", "0.5", "--dx", "2", "--dy", "2", "--dz", "0",
                       "--theta", "1.0")
    for key in ("Q_numeric", "Q_analytic", "gamma_plus", "gamma_minus",
                "converged"):
        assert key in payload
    assert abs(payload["Q_numeric"] - 1.0) < 1e-6
    assert payload["Q_analytic"] == 1
    assert payload["converged"] is True
    assert payload["resolution"] >= 1024


def test_two_level_q_hermitian_point(capsys):
    payload = run_json(capsys, "two-level-q", "--hx", "1", "--hy", "1",
                       "--hz", "0.5", "--dx", "0", "--dy", "0", "--dz", "0",
                       "--theta", "1.0")
    assert abs(payload["Q_numeric"] - 1.0) < 1e-6
    assert payload["Q_analytic"] == 1
    assert abs(payload["gamma_plus"]["im"]) < 1e-10
    assert abs(payload["gamma_minus"]["im"]) < 1e-10


def test_two_level_q_singular_amplitude_exits_2(capsys):
    code, out, err = run(capsys, "two-level-q", "--hx", "1", "--hy", "1",
                         "--hz", "0.5", "--dx", "1", "--dy", "0.3",
                         "--dz", "0", "--theta", "1.0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bipartite_lossless_point(capsys):
    payload = run_json(capsys, "bipartite", "--q", "2", "--eta", "0")
    assert abs(payload["gamma_plus"]["re"] - math.pi) < 1e-9
    assert payload["gamma_plus"]["im"] == 0.0
    assert abs(payload["Q"] - 1.0) < 1e-6
    assert payload["region"] == "TYPE_I"
    closed = payload["closed_form"]
    assert abs(closed["gamma_plus"]["re"] - math.pi) < 1e-12
    assert closed["gamma_plus"]["im"] == 0.0


def test_bipartite_weak_loss_matches_closed_form(capsys):
    payload = run_json(capsys, "bipartite", "--q", "0.5", "--eta", "0.2")
    assert abs(payload["Q"]) < 1e-6
    closed = payload["closed_form"]
    for band in ("gamma_plus", "gamma_minus"):
        assert abs(payload[band]["re"] - closed[band]["re"]) < 1e-6
        assert abs(payload[band]["im"] - closed[band]["im"]) < 1e-6


def test_closed_form_block_absent_in_gapless_region(capsys):
    payload = run_json(capsys, "bipartite", "--q", "1.5", "--eta", "1.0")
    assert "closed_form" not in payload
    assert payload["region"] == "GAPLESS_TRUE_CROSSING"
    assert abs(payload["Q"] - 1.0) < 1e-6


def test_bipartite_transition_exits_2(capsys):
    code, out, err = run(capsys, "bipartite", "--q", "1", "--eta", "0.5")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("eta", ["0.5", "2.5"])
def test_bipartite_on_a_divergence_line_exits_2(capsys, eta):
    # eta = |q - 1| and eta = q + 1: the band phases diverge there
    code, out, err = run(capsys, "bipartite", "--q", "1.5", "--eta", eta)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bipartite_near_transition_exits_3(capsys):
    code, out, err = run(capsys, "bipartite", "--q", "0.9995", "--eta", "0.5")
    assert code == 3
    assert err.startswith("error:")


def test_ep_classify_example(capsys):
    payload = run_json(capsys, "ep-classify", "--q", "1", "--eta", "1")
    assert payload["region"] == "GAPLESS_TRUE_CROSSING"
    assert payload["all_labels"][0] == "GAPLESS_TRUE_CROSSING"
    witnesses = sorted(payload["witnesses"])
    assert len(witnesses) == 2
    assert abs(witnesses[0] + TWO_PI / 3.0) < 1e-6
    assert abs(witnesses[1] - TWO_PI / 3.0) < 1e-6


def test_gauge_check_bipartite_example(capsys):
    payload = run_json(capsys, "gauge-check", "--winding", "1", "--band",
                       "plus", "--model", "bipartite", "--q", "2",
                       "--eta", "0.5")
    assert abs(payload["delta_Q"] - 1.0) < 1e-6
    assert abs(payload["Q_new"] - 2.0) < 1e-6
    shift = payload["gamma_plus_new"]["re"] - payload["gamma_plus"]["re"]
    assert abs(shift - TWO_PI) < 1e-8
    assert payload["residual_connection"] < 1e-9
    assert payload["residual_gamma_plus"] < 1e-8
    assert payload["residual_gamma_minus"] < 1e-8
    assert payload["residual_Q"] < 1e-6


def test_gauge_check_two_level_model(capsys):
    payload = run_json(capsys, "gauge-check", "--winding", "1", "--band",
                       "plus", "--model", "two-level", "--hx", "1",
                       "--hy", "1", "--hz", "0.5", "--dx", "2", "--dy", "2",
                       "--dz", "0", "--theta", "1.0")
    assert abs(payload["delta_Q"] - 1.0) < 1e-6
    assert payload["residual_Q"] < 1e-6


def test_evolve_bipartite_cycle(capsys):
    payload = run_json(capsys, "evolve", "--model", "bipartite", "--q", "2",
                       "--eta", "0.3", "--T", "400")
    assert payload["steps"] == 4000
    assert payload["band"] == "plus"
    assert abs(payload["gamma_g"]["re"] - math.pi) < 1e-6
    assert payload["defect"] < 0.1
    assert payload["leak_ratio"] < 0.01
    assert payload["strong_regime"] is False
    assert len(payload["psi_final"]) == 2


def test_evolve_rejects_thin_stepping(capsys):
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "2",
                         "--eta", "0.3", "--T", "200", "--steps", "1500")
    assert code == 1
    assert err.startswith("error:")


def test_evolve_leakage_exits_3(capsys):
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "2",
                         "--eta", "0.3", "--T", "1")
    assert code == 3
    assert err.startswith("error:")


def test_evolve_state_out_of_float_range_exits_3(capsys, monkeypatch):
    def out_of_range(*args, **kwargs):
        raise AmplitudeOutOfRange("norm exp(800)", log_scale=800.0)

    monkeypatch.setattr(cli, "adiabatic_decomposition", out_of_range)
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "2",
                         "--eta", "0.3", "--T", "100")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["-8.5e-05", "-1e-3", "-2E+01"])
def test_float_flags_take_negative_values_in_exponent_notation(capsys, value):
    parser = build_parser()
    for flag in ("--hx", "--hy", "--hz", "--dx", "--dy", "--dz", "--theta",
                 "--q", "--eta", "--T"):
        args = parser.parse_args(["evolve", "--model", "bipartite",
                                  "--T", "1", flag, value])
        assert getattr(args, flag[2:]) == float(value)
    payload = run_json(capsys, "two-level-q", "--hx", "1", "--hy", "1",
                       "--hz", value, "--dx", "0", "--dy", "0", "--dz", "0",
                       "--theta", "1.0")
    assert payload["converged"] is True


def test_evolve_missing_model_flags_exit_1(capsys):
    code, out, err = run(capsys, "evolve", "--model", "bipartite",
                         "--T", "100")
    assert code == 1
    assert err.startswith("error:")


def test_phase_diagram_writes_grid(capsys, tmp_path):
    out_path = str(tmp_path / "patch.csv")
    payload = run_json(capsys, "phase-diagram", "--q", "1.5:2.5:3",
                       "--eta", "0:0.1:2", "--out", out_path)
    assert payload["cells"] == 6
    assert payload["converged_cells"] == 6
    assert payload["out"] == out_path
    assert payload["sidecar"] == out_path + ".json"
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("q,eta,gamma_g_plus,xi_g_plus,gamma_g_minus,"
                        "xi_g_minus,Q,region,converged")
    assert len(lines) == 7
    with open(out_path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["parameters"]["nq"] == 3
    assert meta["parameters"]["neta"] == 2


def test_phase_diagram_shape_contract(capsys, tmp_path):
    # full-window sweep: every cell lands in the file, converged or not
    out_path = str(tmp_path / "pd.csv")
    payload = run_json(capsys, "phase-diagram", "--q", "0.1:3:100",
                       "--eta", "0:3:100", "--out", out_path)
    assert payload["cells"] == 10000
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 10001
    assert lines[0].startswith("q,eta,")
    assert 0 < payload["converged_cells"] <= 10000


def test_missing_flags_are_usage_errors(capsys):
    code, out, err = run(capsys, "two-level-q", "--hx", "1", "--dx", "1")
    assert code == 1
    code, out, err = run(capsys, "bipartite", "--q", "2")
    assert code == 1
    assert "--eta" in err


def test_bad_samples_value_is_a_usage_error(capsys):
    code, out, err = run(capsys, "bipartite", "--q", "2", "--eta", "0",
                         "--samples", "12")
    assert code == 1
    assert err.startswith("error:")
    code, out, err = run(capsys, "bipartite", "--q", "2", "--eta", "0",
                         "--samples", "100")
    assert code == 1


def test_unknown_or_missing_command_is_a_usage_error(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1


def test_help_exits_zero_for_every_command(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "command" in out
    for command in ("two-level-q", "bipartite", "phase-diagram",
                    "ep-classify", "evolve", "gauge-check"):
        code, out, err = run(capsys, command, "--help")
        assert code == 0
        assert "usage" in out.lower()


def test_identical_flags_give_identical_output(capsys):
    first = run(capsys, "bipartite", "--q", "0.7", "--eta", "0.1")
    second = run(capsys, "bipartite", "--q", "0.7", "--eta", "0.1")
    assert first[0] == 0
    assert first == second


@pytest.mark.parametrize("argv", [
    ("bipartite", "--q", "nan", "--eta", "0.3"),
    ("bipartite", "--q", "inf", "--eta", "0.3"),
    ("ep-classify", "--q", "nan", "--eta", "0.3"),
    ("ep-classify", "--q", "2", "--eta", "inf"),
    ("ep-classify", "--q", "inf", "--eta", "0.3"),
    ("phase-diagram", "--q", "0.5:inf:2", "--eta", "0.1:0.2:2",
     "--out", "x.csv"),
])
def test_non_finite_ratios_exit_1(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("ep-classify", "--q", "1e308", "--eta", "0.3"),
     "q must be at most 1e+150, got 1e+308"),
    (("bipartite", "--q", "2", "--eta", "1e151"),
     "eta must be at most 1e+150, got 1e+151"),
    (("phase-diagram", "--q", "0.5:1e200:2", "--eta", "0.1:0.2:2",
      "--out", "x.csv"), "q must be at most 1e+150, got 1e+200"),
])
def test_ratios_whose_squares_overflow_exit_1(capsys, monkeypatch, tmp_path,
                                              argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("period", ["inf", "nan"])
def test_evolve_non_finite_cycle_time_exits_1(capsys, period):
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "2",
                         "--eta", "0.3", "--T", period)
    assert code == 1
    assert out == ""
    assert err == f"error: cycle time must be positive, got {period}\n"


def test_evolve_cycle_time_without_a_default_step_count_exits_1(capsys):
    # 10 T overflows, so there is no default step count to derive
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "2",
                         "--eta", "0.3", "--T", "1e308")
    assert (code, out) == (1, "")
    assert err == ("error: 1000 steps over T=1e+308 is fewer than 10 per unit "
                   "time\n")


@pytest.mark.parametrize("flags, message", [
    (("--T", "1e12"), "need at most 16777216 steps, got 10000000000000"),
    (("--T", "2", "--steps", "16777217"),
     "need at most 16777216 steps, got 16777217"),
], ids=["long-cycle", "explicit-steps"])
def test_evolve_step_counts_above_the_cap_exit_1(capsys, monkeypatch, flags,
                                                 message):
    # a long cycle time asks for 10 T steps; without the cap it never ends
    def no_cycle(*args, **kwargs):
        raise AssertionError("the cycle started")

    monkeypatch.setattr(evolution, "_propagate", no_cycle)
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "2",
                         "--eta", "0.3", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_non_finite_results_print_as_null(capsys):
    payload = run_json(capsys, "evolve", "--model", "two-level", "--hx", "1",
                       "--hy", "1", "--hz", "0.2", "--dx", "0.5", "--dy", "0.2",
                       "--dz", "1", "--theta", "0.3", "--T", "1000",
                       "--band", "plus")
    parts = [z[key] for z in payload["psi_final"] for key in ("re", "im")]
    assert None in parts
    assert all(x is None or math.isfinite(x) for x in parts)


def test_control_characters_in_strings_stay_valid_json(capsys, tmp_path):
    out_path = str(tmp_path / "a\tb.csv")
    payload = run_json(capsys, "phase-diagram", "--q", "1.5:2.5:2",
                       "--eta", "0:0.1:2", "--out", out_path)
    assert payload["out"] == out_path
    assert payload["sidecar"] == out_path + ".json"


_TWO_LEVEL_FLAGS = ("--hx", "1", "--hy", "1", "--hz", "0.2", "--dx", "0.5",
                    "--dy", "0.5", "--dz", "0", "--theta", "1.0")


@pytest.mark.parametrize("argv", [
    ("bipartite", "--q", "2", "--eta", "0.3", "--samples", "0"),
    ("gauge-check", "--model", "bipartite", "--q", "2", "--eta", "0.3",
     "--samples", "0"),
    ("phase-diagram", "--q", "1.5:2.5:2", "--eta", "0:0.1:2", "--out",
     "x.csv", "--samples", "0"),
    ("two-level-q",) + _TWO_LEVEL_FLAGS + ("--samples", "-16"),
    # gapless region: the principal-value route takes no loop, but the
    # resolution is still refused the same way as in the gapped region
    ("bipartite", "--q", "1.5", "--eta", "1.0", "--samples", "24"),
    ("phase-diagram", "--q", "0.5:2:4", "--eta", "0.1:2.5:4", "--out",
     "x.csv", "--samples", "24"),
])
def test_bad_samples_are_refused_before_any_work(capsys, monkeypatch,
                                                 tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == ("error: loop needs a power-of-two sample count of at "
                   f"least 16, got {argv[-1]}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("bipartite", "--q", "2", "--eta", "0.3", "--samples", "131072"),
    ("bipartite", "--q", "1.5", "--eta", "1.0", "--samples", "131072"),
    ("two-level-q",) + _TWO_LEVEL_FLAGS + ("--samples", "131072"),
    ("gauge-check", "--model", "bipartite", "--q", "2", "--eta", "0.3",
     "--samples", "131072"),
    ("phase-diagram", "--q", "1.5:2.5:2", "--eta", "0:0.1:2", "--out",
     "x.csv", "--samples", "131072"),
    # 2^40 samples: refused before the grid is allocated
    ("bipartite", "--q", "1.5", "--eta", "1.0", "--samples", "1099511627776"),
])
def test_samples_above_the_refinement_cap_are_refused(capsys, monkeypatch,
                                                      tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: loop sample count {argv[-1]} exceeds the "
                   "refinement cap 65536\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("k_samples", ["65537", "1099511627776"])
def test_scan_sizes_above_the_cap_are_refused_before_the_scan(
        capsys, monkeypatch, k_samples):
    def no_grid(n):
        raise AssertionError(f"a {n}-point scan grid was built")

    monkeypatch.setattr(spectrum, "_zone_grid", no_grid)
    code, out, err = run(capsys, "ep-classify", "--q", "1.5", "--eta", "1.0",
                         "--k-samples", k_samples)
    assert (code, out) == (1, "")
    assert err == (f"error: scan needs at most 65536 points, got {k_samples}"
                   "\n")
    assert "Traceback" not in err


def test_scan_at_the_cap_runs(capsys):
    payload = run_json(capsys, "ep-classify", "--q", "1.5", "--eta", "1.0",
                       "--k-samples", "65536")
    assert payload["region"] == "GAPLESS_TRUE_CROSSING"


@pytest.mark.parametrize("axis", ["q", "eta"])
def test_diagram_axis_counts_above_the_cap_are_refused_before_allocation(
        capsys, capped_linspace, tmp_path, axis):
    ranges = {"q": "0.5:2:2", "eta": "0.1:0.2:2"}
    ranges[axis] = ranges[axis][:-1] + "1099511627776"
    code, out, err = run(capsys, "phase-diagram", "--q", ranges["q"],
                         "--eta", ranges["eta"], "--out",
                         str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == (f"error: {axis} axis needs at most 65536 points, got "
                   "1099511627776\n")
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan",
                                   "-NaN"])
def test_negative_non_finite_values_reach_the_parameter_check(capsys, value):
    code, out, err = run(capsys, "bipartite", "--q", "2", "--eta", value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: eta must be nonnegative and finite, got ")


@pytest.mark.parametrize("ratios, message", [
    (("0", "0.3"), "error: q must be positive and finite, got 0.0\n"),
    (("2", "-0.5"), "error: eta must be nonnegative and finite, got -0.5\n"),
], ids=["zero-q", "negative-eta"])
def test_gauge_check_refuses_the_ratios_every_chain_command_refuses(
        capsys, ratios, message):
    q, eta = ratios
    for argv in (("bipartite", "--q", q, "--eta", eta),
                 ("gauge-check", "--model", "bipartite", "--q", q,
                  "--eta", eta)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message)


def test_evolve_refuses_bad_ratios_before_integrating(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the cycle ran before the ratio check")

    monkeypatch.setattr(cli, "adiabatic_decomposition", unreachable)
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "0",
                         "--eta", "0.3", "--T", "100")
    assert (code, out) == (1, "")
    assert err == "error: q must be positive and finite, got 0.0\n"


def _captured(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.floats(0.2, 3.0), st.floats(0.0, 3.0))
def test_repeated_runs_give_identical_bytes(q, eta):
    assume(abs(q - 1.0) > 0.1)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "d.csv")
        diagram = ("phase-diagram", "--q", f"{q!r}:{q + 0.5!r}:2",
                   "--eta", f"{eta!r}:{eta + 0.5!r}:2", "--out", out)
        runs = []
        for _ in range(2):
            runs.append((_captured(("bipartite", "--q", repr(q),
                                    "--eta", repr(eta))),
                         _captured(diagram),
                         pathlib.Path(out).read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][1][0] == 0


# Property over the parser's own argv surface: each case draws a command,
# its flags, and for every value either a token the flag accepts or an
# adversarial one (zero, negatives, infinities, nan, exponent notation,
# powers of two up to 2^62, non-integers for integer flags, cycle times
# and step counts past the step cap). Accepted values stay small so each
# case runs in well under a second: sizes at most 1024, axis counts at
# most 3, short cycles.
_HOSTILE = ("0", "-1", "-2.5e-3", "inf", "-inf", "nan", "-nan", "1e308",
            "1e400", "-1e400", "0x10", "")
_BIG = tuple(str(2 ** k) for k in range(17, 63, 5)) + (str(2 ** 62),)
_TOKENS = {   # flag kind: (accepted tokens, adversarial tokens)
    "float": (("0.3", "0.5", "1", "1.5", "2", "3", "1e-1", "2.5e0"),
              _HOSTILE + tuple(str(2 ** k) for k in range(0, 63, 3))),
    "--T": (("0.5", "2", "1e1", "64", "1e-300"), _HOSTILE + ("1e12", "1e300")),
    "--steps": (("1000", "1024"),
                ("0", "-1000", "999", "1000.5", "1e3", "", "16777217")),
    "--winding": (("0", "1", "-3"), ("2.5", "nan", "16", str(2 ** 62))),
    "size": (("256", "512", "1024"), ("0", "-16", "24", "16.5", "1e3", "nan")
             + _BIG),
    "count": (("1", "2", "3"), ("0", "-1", "1.5", "nan", "1e3") + _BIG),
}


def _token(draw, kind, hostile):
    return draw(st.sampled_from(_TOKENS[kind][1 if hostile else 0]))


def _flag_value(draw, action, hostile):
    name = action.option_strings[0]
    if action.choices is not None:
        return "other" if hostile else draw(st.sampled_from(action.choices))
    if action.type is cli._range_arg:
        # a hostile range spoils one of its three parts, or its shape
        spoil = draw(st.integers(0, 3)) if hostile else None
        if spoil == 3:
            return draw(st.sampled_from(("1:2", "a:b:c", "1:2:3:4")))
        return ":".join([_token(draw, "float", spoil == 0),
                         _token(draw, "float", spoil == 1),
                         _token(draw, "count", spoil == 2)])
    kind = ("size" if name in ("--samples", "--k-samples")
            else name if name in _TOKENS else "float")
    return _token(draw, kind, hostile)


_COMMANDS = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices


@st.composite
def _argvs(draw, out_path):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    every_flag = draw(st.booleans())
    actions = [a for a in _COMMANDS[command]._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)
               and (a.required or every_flag or draw(st.integers(0, 3)) > 0)]
    hostile = draw(st.sets(st.integers(0, len(actions) - 1)))
    argv = [command]
    for i, action in enumerate(actions):
        argv.append(action.option_strings[0])
        argv.append(out_path if action.dest == "out"
                    else _flag_value(draw, action, i in hostile))
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_every_argv_exits_with_a_documented_code_and_no_partial_file(data):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"BERRYLINE_THREADS": "1"}):
        argv = data.draw(_argvs(os.path.join(tmp, "d.csv")), label="argv")
        code, out, err = _captured(argv)
        written = sorted(os.listdir(tmp))
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code != 0:
        assert (out, written) == ("", [])
    elif argv[0] == "phase-diagram":
        assert written == ["d.csv", "d.csv.json"]
    else:
        assert written == []

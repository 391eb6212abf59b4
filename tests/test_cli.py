"""End-to-end command-line behavior: flags, JSON payloads, exit codes."""

import json
import math

import pytest

from berryline import cli
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


@pytest.mark.parametrize("period", ["inf", "nan"])
def test_evolve_non_finite_cycle_time_exits_1(capsys, period):
    code, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "2",
                         "--eta", "0.3", "--T", period)
    assert code == 1
    assert out == ""
    assert err == f"error: cycle time must be positive, got {period}\n"


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

"""End-to-end command-line behavior: flags, JSON payloads, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from berryline import (TwoLevelParams, cli, evolution, spectrum,
                       two_level_phase_point)
from berryline.cli import build_parser, main
from berryline.errors import AmplitudeOutOfRange

from oracles import closed_form_mp

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
    # at h_x = h_y and d_x = d_y the product c1 c2 is constant, so the
    # frame has no singularity: the refinement starts at 16 samples of t
    # and settles on the next rung, below --samples
    assert payload["resolution"] == 32


def test_two_level_q_settles_next_to_an_exceptional_point(capsys):
    # the gap dips to 0.034 at phi = 3.28, with a singularity 5.1e-4 off
    # the real axis: the uniform grid was still moving at 65536 samples,
    # the clustered one settles at 1024
    values = (2.4619798884207325, 2.330319178968498, 0.13251552530117428,
              2.3191840780926776, 1.1330371030812918, -0.33381887109522435,
              2.8001497453191635)
    names = ("--hx", "--hy", "--hz", "--dx", "--dy", "--dz", "--theta")
    payload = run_json(capsys, "two-level-q",
                       *[x for pair in zip(names, map(repr, values))
                         for x in pair])
    assert payload["converged"] is True and payload["Q_analytic"] == 1
    assert abs(payload["Q_numeric"] - 1.0) < 1e-6
    assert payload["resolution"] <= 1024


def test_two_level_q_settles_where_the_coarse_wilson_strides_lag(capsys):
    # Wilson chains over every 8th and 4th sample lag the quadrature here;
    # the stride-1 two-sided route is the winding of det R, exact at any n
    values = (2.4861593476389867, 1.7291616806604981, -0.870617648948008,
              5.276805187410267, 0.47488934414198636, -0.8525002331389908,
              2.6471595184258714)
    names = ("--hx", "--hy", "--hz", "--dx", "--dy", "--dz", "--theta")
    payload = run_json(capsys, "two-level-q",
                       *[x for pair in zip(names, map(repr, values))
                         for x in pair])
    assert abs(payload["Q_numeric"]) < 1e-6
    assert abs(two_level_phase_point(TwoLevelParams(*values)).q_wilson) < 1e-6


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


@pytest.mark.parametrize("q, eta", [("0.5", "2.0"), ("2", "4")])
def test_closed_form_block_absent_in_type_ii(capsys, q, eta):
    # the closed form has a value beyond eta = q + 1 too, but a point
    # query prints its block only below eta = |q - 1|
    payload = run_json(capsys, "bipartite", "--q", q, "--eta", eta)
    assert payload["region"] == "TYPE_II"
    assert "closed_form" not in payload


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


def test_bipartite_next_to_the_transition_keeps_its_digits(capsys):
    # 60-digit mpmath value; forming 1 - n in floating point printed
    # 0.54959202024239673
    payload = run_json(capsys, "bipartite", "--q", "1.0001", "--eta", "5e-5")
    assert abs(payload["gamma_plus"]["im"] - 0.5495919786995336) <= 1e-13


@pytest.mark.parametrize("q, eta", [
    ("1.000002", "0.5"), ("1.000001", "5e-7"), ("0.999999", "5e-7")])
def test_lossless_rows_next_to_the_transition_are_not_crossings(capsys, q, eta):
    # the energies +-|v_k| of a lossless row stay 2 |1 - q| apart; an
    # absolute radicand tolerance above (1 - q)^2 once called them a crossing
    payload = run_json(capsys, "bipartite", "--q", q, "--eta", eta)
    assert abs(payload["Q"] - (float(q) > 1.0)) < 1e-9
    _, want_y = closed_form_mp(float(q), float(eta))
    assert abs(payload["gamma_plus"]["im"] - want_y) <= 1e-13


def test_the_type_i_strip_next_to_the_transition_is_type_i(capsys):
    # eta < |q - 1|: a boundary tie in radicand units once called it gapless
    report = run_json(capsys, "ep-classify", "--q", "1.0001", "--eta", "5e-5")
    assert report["region"] == "TYPE_I"
    assert report["all_labels"] == ["TYPE_I"]
    assert report["witnesses"] == []
    payload = run_json(capsys, "bipartite", "--q", "1.0001", "--eta", "5e-5")
    assert payload["region"] == "TYPE_I"
    assert "closed_form" in payload


def test_a_point_tied_to_the_outer_line_from_above_refines_as_type_ii(capsys):
    # 1e-8 above eta = q + 1 the region keeps its tie to the line, but the
    # loop is TYPE_II and its frame refines, where the closed form once
    # refused it
    tied = run_json(capsys, "bipartite", "--q", "2", "--eta", "3.00000001")
    assert tied["region"] == "GAPLESS_TRUE_CROSSING"
    assert tied["converged"] is True and abs(tied["Q"] - 1.0) < 1e-9
    assert "closed_form" not in tied
    # one decade nearer the line, gamma_+ grows by the log divergence
    # (sqrt(q) / 2) ln 10
    apart = run_json(capsys, "bipartite", "--q", "2", "--eta", "3.0000001")
    assert apart["region"] == "TYPE_II"
    step = tied["gamma_plus"]["re"] - apart["gamma_plus"]["re"]
    assert abs(step - math.sqrt(0.5) * math.log(10.0)) < 1e-6


def test_bipartite_near_transition_exits_3(capsys):
    # 1e-9 above q = 1 the hopping zero lies too close to the real axis for
    # any rung below the cap
    code, out, err = run(capsys, "bipartite", "--q", "1.000000001", "--eta", "3")
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


@pytest.mark.parametrize("q, eta, message", [
    ("1.5", "1.0", "energies meet"),
    ("2", "1", "energies meet"),
    ("0.5", "0.5", "energies meet"),
    ("2", "3", "energies meet"),
    ("0.5", "1.5", "energies meet"),
    ("1", "0.3", "energies meet"),
    ("1", "0", "hoppings cancel"),
])
def test_gauge_check_in_the_gapless_region_exits_2(capsys, q, eta, message):
    # the energies cross between samples, or at a line or at q = 1 on one:
    # no frame to gauge, at any grid, and the frame says so itself
    code, out, err = run(capsys, "gauge-check", "--model", "bipartite",
                         "--q", q, "--eta", eta)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_chain_gauge_checks_next_to_a_divergence_line_exit_0(capsys):
    # gapped points 1e-8 to 1e-2 from a line, below eta = |1 - q| or above
    # eta = 1 + q, on both sides of q = 1: on uniform momenta law (a)
    # missed samplewise at some of them even at 65536 samples; the node map
    # clustered at the exceptional points settles each one
    rng = np.random.default_rng(2008)
    for i in range(48):
        q = rng.uniform(0.2, 0.9) if i % 2 else rng.uniform(1.1, 3.0)
        gap = 10.0 ** rng.uniform(-8.0, -2.0)
        eta = abs(1.0 - q) - gap if i // 2 % 2 else 1.0 + q + gap
        winding = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        payload = run_json(capsys, "gauge-check", "--model", "bipartite",
                           "--q", repr(q), "--eta", repr(eta),
                           "--winding", str(winding),
                           "--band", ("plus", "minus", "both")[i % 3])
        assert payload["residual_connection"] <= 1e-9, (q, eta)


def test_a_chain_gauge_check_just_above_the_outer_line_exits_0(capsys):
    # 1.1e-6 above eta = 1 + q: with the radicand expanded, rounding noise
    # in the kets grew law (a)'s residual with the grid, to 1.3e-8 at 65536
    payload = run_json(capsys, "gauge-check", "--model", "bipartite",
                       "--q", "0.8954770461372799",
                       "--eta", "1.8954781477497917",
                       "--winding", "-2", "--band", "minus")
    assert payload["residual_connection"] <= 1e-9


@pytest.mark.parametrize("q, eta", [("1.000001", "5e-7"),
                                    ("0.999999", "5e-7")])
def test_a_chain_gauge_check_on_the_strip_next_to_q_1_exits_0(capsys, q, eta):
    # r(pi) = 7.5e-13 there, below the absolute crossing tolerance the
    # expanded radicand needed, so the frame reported the energies meeting
    # though they stay 1.7e-6 apart
    payload = run_json(capsys, "gauge-check", "--model", "bipartite",
                       "--q", q, "--eta", eta)
    assert payload["residual_connection"] <= 1e-9


@pytest.mark.parametrize("eta", ["3.0000001", "0.9999999"])
def test_a_chain_gauge_check_1e_7_from_a_line_exits_0(capsys, eta):
    # law (a) missed by 4.4e-7 and 2.0e-7 here with the radicand expanded
    payload = run_json(capsys, "gauge-check", "--model", "bipartite",
                       "--q", "2", "--eta", eta)
    assert payload["residual_connection"] <= 1e-9


def test_gauge_check_two_level_model(capsys):
    payload = run_json(capsys, "gauge-check", "--winding", "1", "--band",
                       "plus", "--model", "two-level", "--hx", "1",
                       "--hy", "1", "--hz", "0.5", "--dx", "2", "--dy", "2",
                       "--dz", "0", "--theta", "1.0")
    assert abs(payload["delta_Q"] - 1.0) < 1e-6
    assert payload["residual_Q"] < 1e-6


@pytest.mark.parametrize("argv", [
    "--model two-level --hx 2.327888941111846 --hy 2.357824299305748 "
    "--hz 0.8223018952005992 --dx 1.059301366681343 --dy 3.1264720536629764 "
    "--dz 0.7686109712617415 --theta 0.4729759152266675 --winding 3",
    "--model two-level --hx 1.2261331949868297 --hy 2.7863109224293017 "
    "--hz 0.9491071565869256 --dx 0.5461286027538825 --dy 3.1439149987588664 "
    "--dz -0.5728360849621252 --theta 0.6090952999985743 --winding 2",
    "--model bipartite --q 1.016939434614687 --eta 3.115604892391529 "
    "--winding 1",
], ids=["two-level-w3", "two-level-w2", "bipartite-w1"])
def test_gauge_check_holds_law_a_where_finite_differences_missed(capsys, argv):
    # a fourth-order difference of the kets missed 1e-9 samplewise here up
    # to 16384 samples; the Fourier derivative meets it on the doubling
    # from --samples
    payload = run_json(capsys, "gauge-check", *argv.split(), "--band", "both")
    assert payload["residual_connection"] <= 1e-9
    assert payload["residual_gamma_plus"] <= 1e-8
    assert payload["residual_gamma_minus"] <= 1e-8
    assert payload["residual_Q"] <= 1e-6


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
    # the printed state is the unit state times exp(log_norm)
    final, unit = ([complex(z["re"], z["im"]) for z in payload[key]]
                   for key in ("psi_final", "psi_unit"))
    scale = math.exp(payload["log_norm"])
    assert all(abs(f - u * scale) <= 1e-12 * abs(f) for f, u in zip(final, unit))


@pytest.mark.parametrize("band", ["plus", "minus"])
def test_evolve_prints_the_norm_of_an_underflowed_state(capsys, band):
    # the state decays as about exp(-0.3 T): psi_final underflows to
    # zeros, and the unit state and its log norm keep it
    payload = run_json(capsys, "evolve", "--model", "bipartite", "--q", "2",
                       "--eta", "0.3", "--T", "10000", "--band", band)
    assert all(z == {"re": 0, "im": 0} for z in payload["psi_final"])
    unit = [complex(z["re"], z["im"]) for z in payload["psi_unit"]]
    assert all(math.isfinite(abs(z)) for z in unit)
    assert abs(math.hypot(*map(abs, unit)) - 1.0) <= 1e-15
    assert abs(payload["log_norm"] + 3000.0) < 3.0


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


@pytest.mark.parametrize("eta, T, code, says", [
    # the loop phase is refused before any step, on a slow cycle as on a
    # fast one
    ("0.3", "200", 2, "hopping ratio 1"),
    ("0.0", "0.25", 2, "hopping ratio 1"),
])
def test_evolve_at_unit_hopping_ratio_exits_with_a_typed_error(
        capsys, eta, T, code, says):
    got, out, err = run(capsys, "evolve", "--model", "bipartite", "--q", "1",
                        "--eta", eta, "--T", T)
    assert (got, out) == (code, "")
    assert err.startswith("error:") and says in err


def test_evolve_on_a_gapless_chain_exits_2_before_any_step(capsys,
                                                          monkeypatch):
    # 7e-5 above eta = |q - 1|: exceptional points at k = +-3.13 sit on
    # the loop, so no band can be followed around it
    def no_cycle(*args, **kwargs):
        raise AssertionError("the cycle started")

    monkeypatch.setattr(evolution, "_propagate", no_cycle)
    code, out, err = run(capsys, "evolve", "--model", "bipartite",
                         "--q", "45.22586443909728",
                         "--eta", "44.225934078386665",
                         "--T", "231.10581413099905", "--band", "minus")
    assert (code, out) == (2, "")
    assert err == ("error: the loop crosses a true degeneracy of the complex "
                   "spectrum at k = -3.1299 and 3.1299\n")


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


def test_both_point_commands_share_one_samples_help(capsys):
    # --samples means the same on both: the loop anchor and the finest
    # start rung, from 16 to the 65536 cap
    helps = []
    for command in ("two-level-q", "bipartite"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        helps.append(" ".join(out.split("--samples SAMPLES")[-1].split()))
    assert helps[0] == helps[1]
    assert "power of two from 16 to 65536, default 1024" in helps[0]


def test_the_reused_parser_answers_like_a_first_call(capsys):
    # main builds its parser once per process; a usage error, a query and
    # the help text each read exactly as they do from a fresh parser
    queries = [("bipartite", "--q", "2"),
               ("bipartite", "--q", "2", "--eta", "0.3"),
               ("--help",)]
    first = []
    for argv in queries:
        cli._shared_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert [code for code, _, _ in first] == [1, 0, 0]
    parser = cli._shared_parser()
    assert [run(capsys, *argv) for argv in queries] == first
    assert cli._shared_parser() is parser


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



def _huge_fields(size):
    half = repr(float(size) / 2.0)
    return ("--hx", size, "--hy", size, "--hz", "0.2", "--dx", half,
            "--dy", half, "--dz", "0", "--theta", "1")


@pytest.mark.parametrize("command", [
    ("two-level-q",),
    ("gauge-check", "--model", "two-level", "--winding", "1", "--band", "plus"),
    ("evolve", "--model", "two-level", "--T", "10"),
])
def test_two_level_fields_whose_squares_overflow_exit_1(capsys, command):
    # above 1e152 the frame's amplitude overflowed to NaN and the CLI
    # exited 1 with "cannot convert float NaN to integer"
    assert run(capsys, *command, *_huge_fields("1e155")) == (
        1, "", "error: h_x must be at most 1e+150 in magnitude, got 1e+155\n")
    with pytest.raises(ValueError, match="d_z must be at most 1e"):
        TwoLevelParams(h_x=1.0, h_y=1.0, h_z=0.2, d_x=0.5, d_y=0.5,
                       d_z=-2e150, theta=1.0)


def test_two_level_fields_at_the_bound_still_run(capsys):
    payload = run_json(capsys, "two-level-q", *_huge_fields("1e150"))
    assert payload["Q_numeric"] == payload["Q_analytic"] == 1


@pytest.mark.parametrize("field, amplitude, message", [
    ("1e20", "5e19", "norm grew "),
    ("1e100", "5e99", "the state is no longer finite in step 0"),
])
def test_evolve_whose_state_overflows_exits_3(capsys, field, amplitude,
                                              message):
    # at 1e100 the first step's norm is NaN, which a plain "grew more than
    # a hundredfold" comparison let through: the CLI exited 0 with null
    # phases and a null final state
    code, out, err = run(capsys, "evolve", "--model", "two-level", "--T", "10",
                         "--hx", field, "--hy", field, "--hz", "0.2",
                         "--dx", amplitude, "--dy", amplitude, "--dz", "0",
                         "--theta", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error: " + message)


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


def test_a_start_at_the_cap_settles_or_is_refused(capsys):
    # one rung at the cap could never settle, and none starts there: both
    # point commands start at their node rung, at most 32768, and the
    # two-level loop, anchored at phi = 0 for every --samples, prints the
    # bits of --samples 32768; the gauge check, which needs no second
    # rung, starts at twice its strip rung (64 here) and settles one
    # doubling on, as from the default 1024
    payload = run_json(capsys, "bipartite", "--q", "2", "--eta", "0.3",
                       "--samples", "65536")
    assert payload["converged"] is True
    assert payload["resolution"] < 65536
    at_cap = run(capsys, "two-level-q", *_TWO_LEVEL_FLAGS,
                 "--samples", "65536")
    assert at_cap[0] == 0 and json.loads(at_cap[1])["resolution"] < 65536
    assert at_cap == run(capsys, "two-level-q", *_TWO_LEVEL_FLAGS,
                         "--samples", "32768")
    payload = run_json(capsys, "gauge-check", "--model", "bipartite", "--q",
                       "2", "--eta", "0.3", "--samples", "65536")
    assert payload["resolution"] == 128


@pytest.mark.parametrize("threads", ["abc", "1.5", "2"])
def test_the_sweep_ignores_the_old_thread_variable(capsys, monkeypatch,
                                                   tmp_path, threads):
    # BERRYLINE_THREADS once chose a worker pool; the sweep now runs in one
    # process, so no value of it changes a byte or an exit code. Three of
    # the six cells are gapless, two of them in one q column
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.delenv("BERRYLINE_THREADS", raising=False)
    argv = ("phase-diagram", "--q", "1.6:2.4:2", "--eta", "0.05:1.5:3",
            "--out", "d.csv")
    unset = run(capsys, *argv)
    assert unset[0] == 0
    want = (tmp_path / "d.csv").read_bytes()
    assert want.count(b"GAPLESS_TRUE_CROSSING") == 3
    (tmp_path / "d.csv").unlink()
    monkeypatch.setenv("BERRYLINE_THREADS", threads)
    assert run(capsys, *argv) == unset
    assert (tmp_path / "d.csv").read_bytes() == want


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
    with tempfile.TemporaryDirectory() as tmp:
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

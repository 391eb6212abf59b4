"""Phase-diagram grids, divergence-line scans, and file persistence."""

import json
import math
import re

import numpy as np
import pytest

from berryline import sweep
from berryline.berry import bipartite_phase_point
from berryline.errors import BadResolution, BerrylineError
from berryline.spectrum import GAPLESS_TRUE_CROSSING, TYPE_I, TYPE_II
from berryline.sweep import (
    divergence_scan,
    phase_diagram,
    save_phase_diagram,
    two_level_q_map,
)

CSV_HEADER = ("q,eta,gamma_g_plus,xi_g_plus,gamma_g_minus,xi_g_minus,"
              "Q,region,converged")


@pytest.fixture(scope="module")
def weak_grid():
    return phase_diagram((0.4, 0.6), (0.0, 0.1), 3, 3)


@pytest.fixture(scope="module")
def strong_grid():
    return phase_diagram((1.5, 2.5), (0.0, 0.1), 3, 3)


@pytest.fixture(scope="module")
def mixed_grid():
    # all three regions, and a column by q = 1 that cannot converge
    return phase_diagram((0.9995, 2.0005), (0.05, 3.25), 3, 5)


def test_weak_hopping_patch_is_trivial(weak_grid):
    assert weak_grid.q_axis.shape == (3,)
    assert weak_grid.eta_axis.shape == (3,)
    assert weak_grid.converged.all()
    assert (weak_grid.region == TYPE_I).all()
    assert np.abs(weak_grid.q_index).max() < 1e-6


def test_strong_hopping_patch_is_wound(strong_grid):
    assert strong_grid.converged.all()
    assert (strong_grid.region == TYPE_I).all()
    assert np.abs(strong_grid.q_index - 1.0).max() < 1e-6
    assert np.abs(strong_grid.gamma_g_plus - math.pi).max() < 1e-6


def test_cells_match_the_direct_point_evaluator(mixed_grid):
    # a column shares only what depends on q, so every cell is bit for bit
    # the direct evaluator's value, or NaN exactly where it refuses
    grid = mixed_grid
    assert set(grid.region.ravel()) == {TYPE_I, TYPE_II, GAPLESS_TRUE_CROSSING}
    gapless = (grid.region == GAPLESS_TRUE_CROSSING) & np.isfinite(grid.q_index)
    assert gapless.sum(axis=0).max() >= 3
    assert np.isnan(grid.q_index[:, 0]).all()
    finite = 0
    for i, j in np.ndindex(grid.q_index.shape):
        q, eta = float(grid.q_axis[j]), float(grid.eta_axis[i])
        cell = [float(v[i, j]) for v in (
            grid.gamma_g_plus, grid.xi_g_plus, grid.gamma_g_minus,
            grid.xi_g_minus, grid.q_index)]
        try:
            direct = bipartite_phase_point(q, eta, n0=grid.samples_per_loop)
        except BerrylineError:
            assert all(math.isnan(v) for v in cell), (q, eta)
            assert not grid.converged[i, j]
            continue
        finite += 1
        assert cell == [direct.gamma_b_plus, direct.xi_b_plus,
                        direct.gamma_b_minus, direct.xi_b_minus,
                        direct.q_index], (q, eta)
    assert finite == 10


def test_exact_transition_gridpoints_are_nudged():
    grid = phase_diagram((0.5, 1.5), (0.2, 0.2), 3, 1)
    assert np.array_equal(grid.q_axis, [0.5, 1.25, 1.5])
    single = phase_diagram((1.0, 1.0), (0.2, 0.2), 1, 1)
    assert np.array_equal(single.q_axis, [1.001])
    assert not single.converged[0, 0]


def test_cells_near_critical_lines_are_flagged_unconverged():
    # cells this close to q = 1 exhaust the contour budget and come back
    # as NaN rows instead of aborting the grid
    grid = phase_diagram((0.9995, 1.0005), (0.5, 0.5), 2, 1)
    assert not grid.converged.any()
    assert np.all(np.isnan(grid.q_index))
    # a clean evaluation within 1e-3 of a divergence line is demoted too
    near_d1 = phase_diagram((0.5, 0.5), (1.4995, 1.4995), 1, 1)
    assert np.all(np.isfinite(near_d1.q_index))
    assert not near_d1.converged[0, 0]


def test_grid_input_guards():
    with pytest.raises(ValueError):
        phase_diagram((0.5, 0.4), (0.0, 0.1), 3, 3)
    with pytest.raises(ValueError):
        phase_diagram((0.5, 1.5), (0.0, 0.1), 0, 3)
    with pytest.raises(ValueError):
        phase_diagram((-0.5, 1.5), (0.0, 0.1), 3, 3)
    with pytest.raises(ValueError):
        phase_diagram((0.5, 1.5), (-0.2, 0.1), 3, 3)
    # the resolution is checked before anything truncates it
    for samples in (1024.9, 1024.0, "1024"):
        with pytest.raises(BadResolution, match=re.escape(
                f"must be an integer, got {samples!r}")):
            phase_diagram((2.0, 2.0), (0.3, 0.3), 1, 1,
                          samples_per_loop=samples)
    grid = phase_diagram((2.0, 2.0), (0.3, 0.3), 1, 1,
                         samples_per_loop=np.int64(64))
    assert grid.samples_per_loop == 64


def test_axis_counts_above_the_cap_are_refused_before_allocation(
        capped_linspace):
    assert sweep._axis((0.0, 1.0), 65536, "q").size == 65536
    with pytest.raises(BadResolution,
                       match="^q axis needs at most 65536 points, got 65537$"):
        phase_diagram((0.5, 2.0), (0.1, 0.2), 65537, 2)
    with pytest.raises(BadResolution, match="^eta axis needs at most 65536 "
                                            "points, got 1099511627776$"):
        phase_diagram((0.5, 2.0), (0.1, 0.2), 2, 2 ** 40)
    with pytest.raises(BadResolution, match="^d_x axis needs at most 65536 "
                                            "points, got 1099511627776$"):
        two_level_q_map((1.0, 1.0), (0.1, 2.9), (0.1, 2.9), 2 ** 40)
    with pytest.raises(BadResolution,
                       match="^q axis count must be an integer, got 2.7$"):
        phase_diagram((1.5, 2.5), (0.1, 0.2), 2.7, 1)


def test_worker_rows_match_serial_rows(monkeypatch, tmp_path):
    # three of the six cells are gapless, two of them in one q column
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    saved = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BERRYLINE_THREADS", threads)
        grid = phase_diagram((1.6, 2.4), (0.05, 1.5), 2, 3)
        assert np.count_nonzero(grid.region == GAPLESS_TRUE_CROSSING) == 3
        path = str(tmp_path / f"threads{threads}.csv")
        save_phase_diagram(grid, path)
        with open(path, "rb") as fh:
            saved.append(fh.read())
    assert saved[0] == saved[1]


def test_worker_count_is_clamped_to_cores_and_rows(monkeypatch):
    started = []

    class RecordingPool:
        # stands in for the process pool: records its size, maps serially
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("BERRYLINE_THREADS", "100000")
    # one task per q column: 3 columns cap the pool at 3, 6 at the 4 cores
    pooled = phase_diagram((1.6, 2.4), (0.05, 0.1), 3, 2)
    phase_diagram((1.6, 2.4), (0.05, 0.1), 6, 2)
    phase_diagram((1.6, 2.4), (0.05, 0.1), 1, 6)
    assert started == [3, 4]
    monkeypatch.setenv("BERRYLINE_THREADS", "1")
    serial = phase_diagram((1.6, 2.4), (0.05, 0.1), 3, 2)
    assert started == [3, 4]
    assert np.array_equal(serial.q_index, pooled.q_index)


def test_csv_layout_and_roundtrip(strong_grid, mixed_grid, tmp_path):
    # the mixed grid pins the nan/false rows of refused cells too
    assert np.isnan(mixed_grid.q_index).any()
    for name, grid in (("strong", strong_grid), ("mixed", mixed_grid)):
        path = str(tmp_path / f"{name}.csv")
        save_phase_diagram(grid, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [len(f) for f in rows] == [9] * grid.q_index.size
        # row order is eta outer, q inner
        eta, q = np.meshgrid(grid.eta_axis, grid.q_axis, indexing="ij")
        floats = (q, eta, grid.gamma_g_plus, grid.xi_g_plus,
                  grid.gamma_g_minus, grid.xi_g_minus, grid.q_index)
        for k, expected in enumerate(floats):
            # 17 significant digits means parsing back is bit-exact
            parsed = np.array([float(f[k]) for f in rows])
            assert np.array_equal(parsed.view(np.uint64),
                                  expected.ravel().view(np.uint64)), (name, k)
        assert [f[7] for f in rows] == list(grid.region.ravel())
        assert [f[8] for f in rows] == ["true" if c else "false"
                                        for c in grid.converged.ravel()]
    assert not list(tmp_path.glob("*.tmp"))


def test_sidecar_records_axes_and_run_parameters(strong_grid, tmp_path):
    path = str(tmp_path / "patch.csv")
    save_phase_diagram(strong_grid, path)
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["q_axis"] == [float(q) for q in strong_grid.q_axis]
    assert meta["eta_axis"] == [float(e) for e in strong_grid.eta_axis]
    assert meta["parameters"] == {"nq": 3, "neta": 3, "samples_per_loop": 1024}
    assert meta["tool"]["name"] == "berryline"
    assert meta["tool"]["version"]
    assert "timestamp" in meta


def test_pinned_epoch_makes_saves_byte_identical(weak_grid, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    save_phase_diagram(weak_grid, a)
    save_phase_diagram(weak_grid, b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    with open(a + ".json", "rb") as fa, open(b + ".json", "rb") as fb:
        assert fa.read() == fb.read()
    with open(a + ".json", encoding="utf-8") as fh:
        assert json.load(fh)["timestamp"] == "2023-11-14T22:13:20+00:00"


def test_divergence_scan_input_guards():
    with pytest.raises(ValueError):
        divergence_scan(0.0, "d1")
    with pytest.raises(ValueError):
        divergence_scan(1.0, "d2")
    with pytest.raises(ValueError):
        divergence_scan(0.5, "d3")
    for decades in (7.9, "8", 8.0):
        with pytest.raises(ValueError, match="must be an integer"):
            divergence_scan(0.5, "d1", decades=decades)
    # fewer than 6 points cannot fit; from j = 16 on a point is within an
    # ulp of the line
    for decades in (5, 16, 18):
        for line in ("d1", "d2"):
            with pytest.raises(ValueError, match="from 6 to 15"):
                divergence_scan(0.5, line, decades=decades)


def test_real_part_grows_toward_the_outer_line():
    fit = divergence_scan(0.5, "d1", decades=6)
    assert fit.line == "d1"
    assert fit.q_fixed == 0.5
    assert len(fit.etas) >= 6
    assert all(b > a for a, b in zip(fit.values, fit.values[1:]))
    assert fit.slope > 0.0
    assert fit.correlation > 0.98


def test_imaginary_part_grows_toward_the_inner_line():
    fit = divergence_scan(0.5, "d2")
    # every approach point has a closed-form value
    assert len(fit.etas) == len(fit.values) == len(fit.gammas) == 8
    assert all(b > a for a, b in zip(fit.values, fit.values[1:]))
    assert fit.slope > 0.0
    assert fit.correlation > 0.99
    # the real part stays pinned at zero on the weak-loss side of q < 1
    assert max(abs(g.real) for g in fit.gammas) < 1e-8


def test_inner_line_scan_matches_the_frame_route():
    # the scan reads the closed form; the numeric frame route is the other
    fit = divergence_scan(0.5, "d2")
    for eta, gamma in zip(fit.etas[:6], fit.gammas[:6]):
        r = bipartite_phase_point(0.5, eta)
        assert abs(complex(r.gamma_b_plus, r.xi_b_plus) - gamma) <= 1e-9, eta


def test_amplitude_map_matches_the_sign_condition():
    qmap = two_level_q_map((1.0, 1.0), (0.1, 2.9), (0.1, 2.9), 21)
    assert qmap.undefined_count == 0
    assert qmap.mismatch_cells == ()
    assert np.all(np.isfinite(qmap.numeric))
    assert np.max(np.abs(qmap.numeric - np.round(qmap.numeric))) < 1e-6
    assert np.array_equal(np.abs(np.round(qmap.numeric)), qmap.analytic)
    # both the trivial and the wound phase show up on this window
    assert qmap.analytic.min() == 0.0
    assert qmap.analytic.max() == 1.0


def test_amplitude_map_marks_singular_cells_undefined():
    qmap = two_level_q_map((1.0, 1.0), (0.5, 1.5), (0.5, 1.5), 3)
    assert qmap.undefined_count == 5
    assert qmap.mismatch_cells == ()
    mask = np.array([[False, True, False],
                     [True, True, True],
                     [False, True, False]])
    assert np.array_equal(np.isnan(qmap.numeric), mask)
    assert np.array_equal(np.isnan(qmap.analytic), mask)
    # the index is 1 when both amplitudes clear their fields or neither does
    assert qmap.analytic[0, 0] == 1.0
    assert qmap.analytic[0, 2] == 0.0
    assert qmap.analytic[2, 0] == 0.0
    assert qmap.analytic[2, 2] == 1.0

"""Phase-diagram grids, divergence-line scans, file persistence, and the
two-level index over a window of amplitudes."""

import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berryline import berry, sweep
from berryline.berry import (analytic_q, bipartite_phase_point,
                             two_level_phase_point)
from berryline.elliptic import _closed_form_pair
from berryline.errors import BadResolution, BerrylineError, SingularLoop
from berryline.models import BIPARTITE, TwoLevelParams, standard_loop
from berryline.spectrum import (GAPLESS_TRUE_CROSSING, TYPE_I, TYPE_II,
                                classify_region)
from berryline.sweep import (
    divergence_scan,
    phase_diagram,
    save_phase_diagram,
)

from oracles import refined_chain_rows

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
    # all three regions, and a column 2e-9 from q = 1 that cannot converge
    return phase_diagram((1.0 - 2e-9, 2.0005), (0.05, 3.25), 3, 5)


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


def _bits(values):
    return [float(v).hex() for v in values]


def _check_cells(grid):
    """Hold every cell to its points; return the (q, eta) of finite cells.

    A cell's band phases are the closed form's bits and its Q those of
    the lossless point (q, 0), NaN exactly where either refuses; off the
    1e-3 margin its phases are the direct evaluator's within 1e-12.
    """
    finite = []
    for j, q in enumerate(grid.q_axis.tolist()):
        try:
            row = bipartite_phase_point(q, 0.0, n0=grid.samples_per_loop)
        except BerrylineError:
            row = None
        for i, eta in enumerate(grid.eta_axis.tolist()):
            cell = [float(v[i, j]) for v in (
                grid.gamma_g_plus, grid.xi_g_plus, grid.gamma_g_minus,
                grid.xi_g_minus, grid.q_index)]
            assert grid.region[i, j] == classify_region(q, eta).region
            try:
                plus, minus = _closed_form_pair(q, eta)
            except BerrylineError:
                plus = minus = None
            if row is None or plus is None:
                assert all(math.isnan(v) for v in cell), (q, eta)
                assert not grid.converged[i, j]
                continue
            finite.append((q, eta))
            assert _bits(cell) == _bits([plus.real, plus.imag, minus.real,
                                         minus.imag, row.q_index]), (q, eta)
            assert grid.converged[i, j] == (
                row.q_rounded is not None and not sweep._near_critical(q, eta))
            if sweep._near_critical(q, eta):
                continue
            direct = bipartite_phase_point(q, eta, n0=grid.samples_per_loop)
            assert max(abs(a - b) for a, b in zip(cell, [
                direct.gamma_b_plus, direct.xi_b_plus, direct.gamma_b_minus,
                direct.xi_b_minus])) <= 1e-12, (q, eta)
    return finite


def test_cells_match_the_direct_point_evaluator(mixed_grid):
    grid = mixed_grid
    assert set(grid.region.ravel()) == {TYPE_I, TYPE_II, GAPLESS_TRUE_CROSSING}
    gapless = (grid.region == GAPLESS_TRUE_CROSSING) & np.isfinite(grid.q_index)
    assert gapless.sum(axis=0).max() >= 3
    assert np.isnan(grid.q_index[:, 0]).all()
    finite = _check_cells(grid)
    assert len(finite) == 10
    assert not any(sweep._near_critical(q, eta) for q, eta in finite)


def _seeded_grid(kind):
    rng = np.random.default_rng(1051)
    if kind == "tie":
        # the corner cell lies an ulp past eta = q + 1 and ties to it, and
        # the grid runs on past that line on the weak-hopping side
        return phase_diagram((0.58061224489795926, 0.9),
                             (1.5806122448979594, 3.5), 3, 4)
    if kind == "beyond":
        # every column has a cell exactly on eta = q + 1, NaN, and cells
        # past it, whose minus band has imaginary part -0.0
        return phase_diagram((4.0, 44.0), (0.0, 45.0), 5, 10)
    # q within the distance of 1 on both sides, eta across both lines
    distance = float(kind)
    low, high = 1.0 - distance * rng.uniform(0.2, 1.0, 2) * [1.0, -1.0]
    return phase_diagram((low, high), (0.0, 2.5), 4, 6)


@pytest.mark.parametrize("kind", ["1e-3", "1e-7", "1e-13", "tie", "beyond"])
def test_seeded_grids_give_every_cell_its_point_bits(kind):
    # together these take every branch of the grid closed form and of the
    # region inequalities, and the NaN cells on the lines and next to q = 1
    grid = _seeded_grid(kind)
    # a column within 1e-12 of q = 1 has no row
    assert bool(_check_cells(grid)) == (kind != "1e-13")
    if kind == "beyond":
        beyond = grid.eta_axis[:, None] > grid.q_axis[None, :] + 1.0
        assert np.isnan(grid.q_index[~beyond]).any()
        assert (np.signbit(grid.xi_g_minus[beyond])).all()
        assert (grid.xi_g_minus[beyond] == 0.0).all()
    if kind == "tie":
        # gapless by its tie, while r(0) < 0 puts its phases past the line
        assert grid.region[0, 0] == GAPLESS_TRUE_CROSSING
        assert grid.xi_g_plus[0, 0] == 0.0


def test_a_sweep_refines_only_the_lossless_rows_of_its_q_axis(monkeypatch):
    # all three regions are on the grid, yet the sweep's one refinement
    # sees one row (q, 0) per q and no other
    calls, rows = [], []
    settled, chain_rows = berry._settled_phases, berry._ChainRows

    def counted(loop, frames, starts):
        calls.append(len(starts))
        return settled(loop, frames, starts)

    def recorded(v, v_prime, gamma, k, dk=None):
        rows.extend(zip(v_prime, gamma))
        return chain_rows(v, v_prime, gamma, k, dk)

    monkeypatch.setattr(berry, "_settled_phases", counted)
    monkeypatch.setattr(berry, "_ChainRows", recorded)
    grid = phase_diagram((0.3, 2.7), (0.0, 4.5), 4, 6)
    assert set(grid.region.ravel()) == {TYPE_I, TYPE_II, GAPLESS_TRUE_CROSSING}
    assert calls == [4]
    assert set(rows) == {(float(q), 0.0) for q in grid.q_axis}


@st.composite
def _stacks(draw):
    # the cells of up to three hopping ratios in one stack, in any order
    cells = []
    for q in draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3)):
        low, high = abs(q - 1.0), q + 1.0
        if draw(st.booleans()):
            # every cell gapless
            etas = draw(st.lists(st.floats(low + 1e-3, high - 1e-3),
                                 min_size=1, max_size=3))
        else:
            etas = draw(st.lists(st.floats(0.0, high + 3.0), max_size=4))
            # the lossless cell and the gapped sides of both lines, whose
            # start rungs take a node map
            etas += [0.0, low - 1e-6, high + 1e-6]
        cells += [(q, eta) for eta in etas if eta >= 0.0]
    n0 = draw(st.sampled_from([16, 64, 1024]))
    return draw(st.permutations(cells)), n0


@settings(derandomize=True, deadline=None, max_examples=12)
@given(_stacks())
# rows with and without a map, of four hopping ratios; at 16 samples the
# rows at q = 1.1 and 1.2 clustered at k = 0 alias the hopping zero at pi
# and discard their first rungs
@example(([(2.0, 0.3), (1.05, 0.02), (1.2, 2.2001), (0.5, 2.0), (1.05, 0.0),
           (1.1, 2.1001), (2.0, 1.0 - 1e-6), (0.5, 1.0), (1.05, 1.5)], 16))
@example(([(2.0, 0.3), (1.05, 0.02), (1.2, 2.2001), (0.5, 2.0), (1.05, 0.0),
           (1.1, 2.1001), (2.0, 1.0 - 1e-6), (0.5, 1.0), (1.05, 1.5)], 1024))
def test_a_column_gives_every_cell_its_point_bits(stack):
    cells, n0 = stack
    loop = standard_loop(BIPARTITE, n0)
    # the rows these cells refine, as one stack
    rows = refined_chain_rows(cells)
    results = dict(zip(rows, berry._chain_rows(loop, rows)))

    def from_rows(q, eta):
        # the point's row, with the closed form's band phases where the
        # point reads the closed form
        gapless = berry._closed_form_region(q, eta)
        row = results[(q, 0.0) if gapless else (q, eta)]
        if not gapless or isinstance(row, BerrylineError):
            return row
        plus, minus = _closed_form_pair(q, eta)
        return dataclasses.replace(
            row, gamma_b_plus=plus.real, xi_b_plus=plus.imag,
            gamma_b_minus=minus.real, xi_b_minus=minus.imag)

    # every row and every cell is its point call, rungs and routes included
    for q, eta in sorted(set(cells) | set(rows)):
        outcomes = []
        for route in (from_rows, functools.partial(bipartite_phase_point,
                                                   n0=n0)):
            try:
                outcomes.append(route(q, eta))
            except BerrylineError as exc:
                outcomes.append(exc)
        ours, direct = outcomes
        if isinstance(direct, BerrylineError):
            assert (type(ours), str(ours)) == (type(direct), str(direct))
        else:
            assert ours == direct, (q, eta)
    # the sweep over the hull of these ratios: every cell has the closed
    # form's band phases and the index of its lossless point (q, 0), bit
    # for bit, and off the 1e-3 margin its point's phases within 1e-12
    qs = sorted({q for q, _ in cells})
    etas = sorted({eta for _, eta in cells})
    _check_cells(phase_diagram((qs[0], qs[-1]), (etas[0], etas[-1]), len(qs),
                               len(etas), samples_per_loop=n0))


def test_a_column_splits_large_passes_without_moving_a_bit(monkeypatch):
    loop = standard_loop(BIPARTITE, 1024)
    cells = [(q, 0.1 * k + 0.05) for q in (2.0, 0.5, 1.05) for k in range(10)]
    cells += [(2.0, 0.999999), (1.5, 1.0)]
    rows = refined_chain_rows(cells)
    whole = berry._chain_rows(loop, rows)
    passes = []
    chain_rows = berry._ChainRows

    def recorded(v, v_prime, gamma, k, dk=None):
        passes.append((len(gamma), k.shape[-1] - 1, len(set(v_prime)),
                       dk is not None))
        return chain_rows(v, v_prime, gamma, k, dk)

    monkeypatch.setattr(berry, "_ChainRows", recorded)
    monkeypatch.setattr(berry, "_PASS_SAMPLES", 256)
    assert berry._chain_rows(loop, rows) == whole
    # a pass holds at most 256 samples, or one row when a rung is longer
    assert all(rows * n <= 256 or rows == 1 for rows, n, _, _ in passes)
    assert max(rows for rows, _, _, _ in passes) > 1
    assert max(n for _, n, _, _ in passes) > 256
    # passes mix hopping ratios, and rows with and without a node map
    assert any(ratios > 1 and mapped for _, _, ratios, mapped in passes)
    assert not all(mapped for _, _, _, mapped in passes)


def test_cells_hugging_the_lines_settle_within_a_thousand_samples():
    # a guard on the sample count of a sweep, not on its time: gapped
    # rows 1e-6 to 1e-3 from both divergence lines settle at 1024 samples
    # or fewer, and lossless rows 1e-5 or more from q = 1 at 2048 or fewer
    loop = standard_loop(BIPARTITE, 1024)
    gapped = [(q, eta) for q in (0.3, 0.5, 2.0, 3.0)
              for distance in (1e-6, 1e-5, 1e-4, 1e-3)
              for eta in (abs(q - 1.0) - distance, q + 1.0 + distance)]
    lossless = [(1.0 + s * distance, 0.0) for s in (1.0, -1.0)
                for distance in (1e-5, 1e-4, 1e-3, 1e-2)]
    outcomes = berry._chain_rows(loop, gapped + lossless)
    for (q, eta), r in zip(gapped + lossless, outcomes):
        assert not isinstance(r, BerrylineError), (q, eta, r)
        assert r.resolution <= (1024 if eta else 2048), (q, eta)
    # the first rows lie on the gapped sides of both lines
    assert {classify_region(q, eta).region for q, eta in gapped} == {
        TYPE_I, TYPE_II}


@pytest.mark.parametrize("q", [0.991, 0.995, 1.0035, 1.008])
def test_gapless_cells_next_to_the_transition_keep_an_integer_index(q):
    # the lossless row's trace quadrature keeps Q on its integer where the
    # hopping winding rate peaks like q / |q - 1|
    grid = phase_diagram((q, q), (1.01 * abs(q - 1.0), 0.99 * (q + 1.0)), 1, 7)
    assert (grid.region == GAPLESS_TRUE_CROSSING).all()
    assert np.abs(grid.q_index - np.round(grid.q_index)).max() <= 1e-14, q


def test_the_discarded_rung_example_discards_a_rung():
    r = bipartite_phase_point(1.2, 2.2001, n0=16)
    assert r.refinement_history[0][0] == 32


def test_exact_transition_gridpoints_are_nudged():
    grid = phase_diagram((0.5, 1.5), (0.2, 0.2), 3, 1)
    assert np.array_equal(grid.q_axis, [0.5, 1.25, 1.5])
    single = phase_diagram((1.0, 1.0), (0.2, 0.2), 1, 1)
    assert np.array_equal(single.q_axis, [1.001])
    assert not single.converged[0, 0]


def test_a_q_axis_finer_than_the_transition_tolerance_has_no_rows():
    # the half-cell shift leaves every column within 1e-12 of q = 1, where
    # no lossless row exists
    grid = phase_diagram((1.0 - 1e-13, 1.0 + 1e-13), (0.2, 0.3), 3, 2)
    assert np.abs(grid.q_axis - 1.0).max() <= 1e-12
    for values in (grid.gamma_g_plus, grid.xi_g_plus, grid.gamma_g_minus,
                   grid.xi_g_minus, grid.q_index):
        assert np.isnan(values).all()
    assert not grid.converged.any()
    assert (grid.region == GAPLESS_TRUE_CROSSING).all()


def test_cells_near_critical_lines_are_flagged_unconverged():
    # cells this close to q = 1 exhaust the refinement budget and come
    # back as NaN rows instead of aborting the grid
    grid = phase_diagram((1.0 - 2e-9, 1.0 + 2e-9), (3.0, 3.0), 2, 1)
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
    with pytest.raises(BadResolution,
                       match="^q axis count must be an integer, got 2.7$"):
        phase_diagram((1.5, 2.5), (0.1, 0.2), 2.7, 1)


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


def test_csv_rows_are_the_per_value_format_of_every_float(tmp_path):
    # the writer formats each row with one %-format; the reference joins
    # format(x, ".17g") value by value, over NaN rows, signed zeros,
    # infinities and subnormals
    specials = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -1e-310,
                2.2250738585072014e-308, math.pi, -1.0 / 3.0, 1e300, 2.0 ** 60]
    rng = np.random.default_rng(5)
    shape = (4, 3)
    values = [rng.choice(specials, size=shape) for _ in range(5)]
    for v in values:
        v[1] = math.nan
    grid = sweep.PhaseDiagramGrid(
        q_axis=np.array([5e-324, 0.1, 1.0000000000000002]),
        eta_axis=np.array([-0.0, 0.0, 1e-310, 2.55]),
        gamma_g_plus=values[0], xi_g_plus=values[1], gamma_g_minus=values[2],
        xi_g_minus=values[3], q_index=values[4],
        region=rng.choice([TYPE_I, TYPE_II, GAPLESS_TRUE_CROSSING],
                          size=shape).astype(object),
        converged=rng.integers(2, size=shape).astype(bool),
        samples_per_loop=1024)
    lines = [CSV_HEADER]
    for i, eta in enumerate(grid.eta_axis):
        for j, q in enumerate(grid.q_axis):
            lines.append(",".join(
                [format(float(x), ".17g") for x in (q, eta, *(
                    v[i, j] for v in values))]
                + [str(grid.region[i, j]),
                   "true" if grid.converged[i, j] else "false"]))
    path = str(tmp_path / "specials.csv")
    save_phase_diagram(grid, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "\n".join(lines) + "\n"


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


def _amplitude_window(lo, hi, n):
    # the two-level fields h = (1, 1, 0.2), d_z = 0, theta = 1, over an
    # n x n window of amplitudes (d_x, d_y), d_x outer
    axis = np.linspace(lo, hi, n)
    return [TwoLevelParams(h_x=1.0, h_y=1.0, h_z=0.2, d_x=float(dx),
                           d_y=float(dy), d_z=0.0, theta=1.0)
            for dx in axis for dy in axis]


def test_amplitude_map_matches_the_sign_condition():
    window = _amplitude_window(0.1, 2.9, 21)
    analytic = [analytic_q(params) for params in window]
    assert None not in analytic
    numeric = np.array([two_level_phase_point(params, 512).q_index
                        for params in window])
    assert np.all(np.isfinite(numeric))
    assert np.max(np.abs(numeric - np.round(numeric))) < 1e-6
    assert np.array_equal(np.abs(np.round(numeric)), analytic)
    # both the trivial and the wound phase show up on this window
    assert min(analytic) == 0
    assert max(analytic) == 1


def test_amplitude_map_takes_a_loop_at_the_cap():
    # every point starts at its node rung, at most 32768, and the two-level
    # loop is anchored at phi = 0 for every sample count, so a point at the
    # cap is the point one rung below it
    for params in _amplitude_window(0.3, 1.7, 2):
        below, at_cap = (two_level_phase_point(params, n)
                         for n in (32768, 65536))
        assert abs(below.q_rounded) == analytic_q(params), params
        assert below.q_index.hex() == at_cap.q_index.hex(), params


def test_amplitude_map_marks_singular_cells_undefined():
    window = _amplitude_window(0.5, 1.5, 3)
    analytic = np.array([analytic_q(params) for params in window],
                        dtype=float).reshape(3, 3)
    mask = np.array([[False, True, False],
                     [True, True, True],
                     [False, True, False]])
    assert np.array_equal(np.isnan(analytic), mask)
    # the evaluator refuses a singular loop and settles every other cell
    # on the sign-condition value
    for params, expected in zip(window, analytic.ravel()):
        if math.isnan(expected):
            with pytest.raises(SingularLoop):
                two_level_phase_point(params, 512)
        else:
            assert abs(two_level_phase_point(params, 512).q_rounded) == \
                expected, params
    # the index is 1 when both amplitudes clear their fields or neither does
    assert analytic[0, 0] == 1.0
    assert analytic[0, 2] == 0.0
    assert analytic[2, 0] == 0.0
    assert analytic[2, 2] == 1.0

"""Sweep harness: scoring, aggregation, CSV output, determinism."""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import pytest

from relabel import harness
from relabel.costs import default_weights, score_arrays
from relabel.harness import (
    CSV_COLUMNS,
    StopRecord,
    SweepConfig,
    SweepResult,
    aggregate,
    default_t_list,
    run_noise_sweep,
    run_threshold_sweep,
    score_stop,
    write_rows_csv,
    write_summary_csv,
)
from relabel.noise import NoiseModel, ZERO_NOISE, perturb_layout
from relabel.scene import CameraState, SceneValidationError, layout_arrays
from relabel.scenegen import generate_scene, patrol_route
from relabel.solver import plan_stop


@pytest.fixture(scope="module")
def l1_setup():
    layout = generate_scene("L1", 0)
    return layout, patrol_route(layout)


class TestDefaults:
    def test_t_list_fine_then_whole_meters(self):
        got = default_t_list(49.0)
        assert got[:10] == tuple(round(0.1 * i, 1) for i in range(1, 11))
        assert got[10:] == (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)

    def test_t_list_appends_fractional_root(self):
        got = default_t_list(20.0)
        assert got[-1] == pytest.approx(math.sqrt(20.0))
        assert got[-2] == 4.0

    def test_t_list_rejects_empty_area(self):
        with pytest.raises(SceneValidationError):
            default_t_list(0.0)

    def test_config_validation(self):
        with pytest.raises(SceneValidationError):
            SweepConfig(seeds=0)
        with pytest.raises(SceneValidationError):
            SweepConfig(r_list=())
        with pytest.raises(Exception):
            SweepConfig(threshold=1.5)


def record(**kw) -> StopRecord:
    base = dict(
        scene="s", a=0.1, b=0.0, stop=0, n=4, m=8, correct=4, accuracy=1.0,
        solve_ms=0.5, threshold=1.0, effective_threshold=1.0, rep=0,
    )
    base.update(kw)
    return StopRecord(**base)


class TestSweepResult:
    def test_rows_are_sorted_on_construction(self):
        rows = (record(stop=2), record(stop=0), record(a=0.05, stop=9))
        result = SweepResult(rows=rows)
        assert [(r.a, r.stop) for r in result.rows] == [(0.05, 9), (0.1, 0), (0.1, 2)]

    def test_scored_drops_empty_stops(self):
        rows = (record(stop=0), record(stop=1, n=0, correct=0, accuracy=None))
        assert [r.stop for r in SweepResult(rows=rows).scored()] == [0]


def unperturbed_table(layout):
    """The cost table of a cell without noise: the layout against itself."""
    view = layout_arrays(layout)
    return score_arrays(view, view, layout.bounds, default_weights(layout.bounds))


class TestScoreStop:
    def test_zero_noise_scores_perfectly(self, l1_setup):
        layout, route = l1_setup
        # a step south of the room, so every object sits inside the cone
        camera = CameraState(position=(layout.bounds.width / 2, -5.0), yaw=0.0, fov=179.0, range=50.0)
        table = unperturbed_table(layout)
        rec = score_stop(plan_stop(layout, camera, 1.0), layout, 0, 0.0, 0.0, 0, table, False)
        assert rec.n == len(layout.objects)
        assert rec.accuracy == 1.0 and rec.correct == rec.n

    def test_empty_stop_has_no_accuracy(self, l1_setup):
        layout, _ = l1_setup
        camera = CameraState(position=(0.0, 0.0), yaw=180.0, fov=10.0, range=0.5)
        table = unperturbed_table(layout)
        rec = score_stop(plan_stop(layout, camera, 1.0), layout, 3, 0.2, 5.0, 1, table, False)
        assert rec.n == 0 and rec.accuracy is None
        assert rec.stop == 3 and rec.rep == 1


class TestNoiseSweep:
    def test_grid_covers_all_cells(self, l1_setup):
        layout, route = l1_setup
        config = SweepConfig(t_list=(0.1, 0.3), r_list=(0.0, 10.0), seeds=2)
        result = run_noise_sweep(layout, route, config)
        cells = {(r.a, r.b, r.rep) for r in result.rows}
        assert cells == {
            (a, b, rep) for a in (0.1, 0.3) for b in (0.0, 10.0) for rep in (0, 1)
        }
        stops = {r.stop for r in result.rows}
        assert len(result.rows) == len(cells) * len(stops)

    def test_default_t_list_used_when_unset(self, l1_setup):
        layout, route = l1_setup
        config = SweepConfig(r_list=(0.0,))
        result = run_noise_sweep(layout, route, config)
        assert {r.a for r in result.rows} == set(default_t_list(layout.bounds.area()))

    def test_rerun_is_identical_except_timing(self, l1_setup):
        layout, route = l1_setup
        config = SweepConfig(t_list=(0.2,), r_list=(5.0,), seeds=2, master_seed=9)
        a = run_noise_sweep(layout, route, config)
        b = run_noise_sweep(layout, route, config)
        strip = lambda r: (r.scene, r.a, r.b, r.stop, r.n, r.m, r.correct, r.accuracy,
                           r.threshold, r.effective_threshold, r.rep)
        assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]


class TestThresholdSweep:
    def test_same_perturbation_all_thresholds(self, l1_setup):
        layout, route = l1_setup
        result = run_threshold_sweep(
            layout, route, SweepConfig(t_list=(0.1,), r_list=(15.0,)), thresholds=(0.0, 1.0)
        )
        by_threshold = {}
        for r in result.rows:
            by_threshold.setdefault(r.threshold, []).append(r)
        assert set(by_threshold) == {0.0, 1.0}
        # same stops, and the pool can only grow with the threshold
        for lo, hi in zip(by_threshold[0.0], by_threshold[1.0]):
            assert lo.stop == hi.stop and lo.n == hi.n
            assert lo.m <= hi.m

    def test_one_threshold_is_the_noise_sweep(self, l1_setup):
        layout, route = l1_setup
        config = SweepConfig(t_list=(0.1, 0.5), r_list=(15.0,), seeds=2, master_seed=4)
        untimed = lambda result: [replace(r, solve_ms=None) for r in result.rows]
        for t in (0.25, 1.0):
            swept = run_threshold_sweep(layout, route, config, (t,))
            noise = run_noise_sweep(layout, route, replace(config, threshold=t))
            assert untimed(swept) == untimed(noise)

    def test_each_cell_perturbed_once(self, l1_setup, monkeypatch):
        layout, route = l1_setup
        calls = []

        def counting(*args):
            calls.append(args)
            return perturb_layout(*args)

        monkeypatch.setattr(harness, "perturb_layout", counting)
        config = SweepConfig(t_list=(0.1, 0.5), r_list=(0.0, 15.0))
        result = run_threshold_sweep(layout, route, config, (0.25, 0.5, 1.0))
        assert len(calls) == 4
        assert {(r.a, r.b, r.threshold) for r in result.rows} == {
            (a, b, t) for a in (0.1, 0.5) for b in (0.0, 15.0) for t in (0.25, 0.5, 1.0)
        }

    def test_rejects_empty_thresholds(self, l1_setup):
        layout, route = l1_setup
        with pytest.raises(SceneValidationError):
            run_threshold_sweep(
                layout, route, SweepConfig(t_list=(0.1,), r_list=(15.0,)), thresholds=()
            )


class TestAggregate:
    def test_translation_mean_is_two_stage(self):
        # one cell with stops at 1.0 and 0.0, another cell with a single 1.0:
        # cell means are 0.5 and 1.0, so the group mean is 0.75 (a flat mean
        # over the three rows would be 2/3)
        rows = (
            record(rep=0, stop=0, accuracy=1.0),
            record(rep=0, stop=1, accuracy=0.0, correct=0),
            record(rep=1, stop=0, accuracy=1.0),
        )
        summary = aggregate(SweepResult(rows=rows), "translation")
        assert len(summary) == 1
        assert summary[0].mean_accuracy == pytest.approx(0.75)
        assert summary[0].cells == 2

    def test_rotation_bands_overlap_at_one_meter(self):
        rows = (
            record(a=0.5, b=10.0),
            record(a=1.0, b=10.0),
            record(a=3.0, b=10.0),
        )
        summary = aggregate(SweepResult(rows=rows), "rotation")
        bands = {(s.band, s.cells) for s in summary}
        assert bands == {("low", 2), ("high", 2)}

    def test_threshold_summary_counts_candidates(self):
        rows = (
            record(threshold=0.0, m=4, solve_ms=1.0),
            record(threshold=0.0, stop=1, m=6, solve_ms=3.0),
            record(threshold=1.0, m=16, solve_ms=5.0),
            record(threshold=1.0, stop=1, m=16, solve_ms=7.0),
        )
        summary = aggregate(SweepResult(rows=rows), "threshold")
        assert [s.threshold for s in summary] == [0.0, 1.0]
        assert summary[0].mean_candidates == 5.0
        assert summary[0].mean_solve_ms == pytest.approx(2.0)
        assert summary[1].mean_candidates == 16.0

    def test_unscored_rows_never_aggregate(self):
        rows = (
            record(),
            record(stop=1, n=0, correct=0, accuracy=None),
        )
        summary = aggregate(SweepResult(rows=rows), "translation")
        assert summary[0].mean_accuracy == 1.0

    def test_unknown_grouping(self):
        with pytest.raises(SceneValidationError):
            aggregate(SweepResult(rows=()), "banana")


class TestCsv:
    def test_header_pinned(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(SweepResult(rows=(record(),)), path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert rows[1][0] == "s"

    def test_empty_fields_for_unscored_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        empty = record(n=0, correct=0, accuracy=None)
        write_rows_csv(SweepResult(rows=(empty,)), path)
        with path.open(newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["accuracy"] == "" and row["correct"] == "0"

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "rows.csv"
        rec = record(a=0.30000000000000004, accuracy=2.0 / 3.0, correct=2, n=3)
        write_rows_csv(SweepResult(rows=(rec,)), path)
        with path.open(newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["a"]) == 0.30000000000000004
        assert float(row["accuracy"]) == 2.0 / 3.0

    def test_summary_csv(self, tmp_path):
        rows = (record(threshold=0.5, m=4),)
        summary = aggregate(SweepResult(rows=rows), "threshold")
        path = tmp_path / "summary.csv"
        write_summary_csv(summary, path)
        with path.open(newline="") as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["threshold"] == "0.5"
        assert got[0]["mean_candidates"] == "4.0"

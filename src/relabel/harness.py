"""Simulation experiments over synthetic scenes.

One sweep loop serves both experiments.  For every (repetition, a, b) cell
of a `SweepConfig` it perturbs the layout once, with translation sd a and
rotation sd b, and then scores every camera stop along the route at every
pruning threshold:

* noise sweep: a grid of noise cells, each scored at `config.threshold`;
* threshold sweep: usually one mild noise cell (0.1 m, 15 degrees), scored
  at a grid of thresholds, recording accuracy, candidate-pool size, and
  solve time.

Each cell scores its perturbed objects against the initial objects once,
as one cost table (`costs.score_arrays`, both in label order), and every
threshold and stop of the cell slices its detections' rows and its
candidates' columns out of that table (`StopPlan.prepare_rows`).

Every (cell, threshold, stop) produces one row.  Rows are keyed and sorted,
and are deterministic for a given (layout, path, config) except for the
wall-clock solve_ms field, the time of one solve.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costs import CostMatrix, CostWeights, default_weights, score_arrays
from .noise import NoiseModel, derive_seed, perturb_layout
from .partition import _left_sum, validate_threshold
from .path import CameraPath, camera_stops
from .scene import (
    SceneLayout,
    SceneValidationError,
    layout_arrays,
    synthesize_observation,
    visible_objects,
)
from .solver import StopPlan, plan_stop, solve

CSV_COLUMNS = (
    "scene",
    "a",
    "b",
    "stop",
    "n",
    "m",
    "correct",
    "accuracy",
    "solve_ms",
    "threshold",
    "effective_threshold",
)
TIMING_COLUMNS = ("solve_ms", "mean_solve_ms")

# translation noise is swept in meters of sd, rotation in degrees of sd
DEFAULT_R_LIST = tuple(float(b) for b in range(0, 125, 5))
DEFAULT_THRESHOLDS = tuple(round(0.05 * i, 2) for i in range(21))


def default_t_list(area: float) -> tuple[float, ...]:
    """Translation sd grid for a scene of the given floor area: a fine sweep
    up to 1 m, then whole meters up to (and including) the square root of
    the area."""
    if area <= 0.0:
        raise SceneValidationError(f"scene area must be > 0, got {area}")
    root = math.sqrt(area)
    values = [round(0.1 * i, 1) for i in range(1, 11)]
    values += [float(v) for v in range(2, int(math.floor(root + 1e-9)) + 1)]
    if root - values[-1] > 1e-9:
        values.append(root)
    return tuple(values)


@dataclass(frozen=True, slots=True)
class StopRecord:
    """Outcome of resolving one camera stop under one noise condition.

    accuracy is None when the stop had no detections to score.  rep
    identifies the repetition in memory only; it is not a CSV column.
    """

    scene: str
    a: float
    b: float
    stop: int
    n: int
    m: int
    correct: int
    accuracy: float | None
    solve_ms: float
    threshold: float
    effective_threshold: float
    rep: int = 0


@dataclass(frozen=True, slots=True)
class SweepResult:
    """All rows of one sweep, keyed and sorted deterministically."""

    rows: tuple[StopRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=_row_key)))

    def scored(self) -> tuple[StopRecord, ...]:
        return tuple(r for r in self.rows if r.accuracy is not None)


def _row_key(r: StopRecord) -> tuple:
    return (r.scene, r.a, r.b, r.rep, r.threshold, r.stop)


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """Noise grid and solver settings for a sweep.

    t_list None means the per-scene default grid.  Every (a, b) cell runs
    `seeds` times, with independently derived perturbation streams.  A
    threshold sweep scores each cell at its own threshold grid in place of
    `threshold`.
    """

    t_list: tuple[float, ...] | None = None
    r_list: tuple[float, ...] = DEFAULT_R_LIST
    seeds: int = 1
    master_seed: int = 0
    threshold: float = 1.0
    weights: CostWeights | None = None
    category_separated: bool = False
    frame_rate: float = 60.0
    fov: float = 60.0
    camera_range: float = 10.0

    def __post_init__(self) -> None:
        if self.t_list is not None:
            object.__setattr__(self, "t_list", tuple(float(a) for a in self.t_list))
        object.__setattr__(self, "r_list", tuple(float(b) for b in self.r_list))
        if not self.r_list:
            raise SceneValidationError("r_list must not be empty")
        if self.t_list is not None and not self.t_list:
            raise SceneValidationError("t_list must not be empty")
        if self.seeds < 1:
            raise SceneValidationError(f"seeds must be >= 1, got {self.seeds}")
        validate_threshold(self.threshold)


def score_stop(
    plan: StopPlan,
    perturbed: SceneLayout,
    stop: int,
    a: float,
    b: float,
    rep: int,
    table: CostMatrix,
    category_separated: bool,
) -> StopRecord:
    """Observe the perturbed layout from the plan's stop, resolve against
    the plan's initial layout, and score against the known identities.

    `table` scores every perturbed object (rows) against every object of
    the plan's layout (columns), both in label order.  A perturbation keeps
    every label, so the row of a visible object is its label's position
    among the column labels, and the stop's costs are a slice of the table.

    Ground truth is carried through the simulation: detections are emitted
    in label-sorted order of the perturbed objects, so detection i is
    correct iff it receives the label at position i of that order.

    The stop is always feasible: the plan re-admits sites up to every site
    of the layout, and a perturbation keeps every label and type.
    """
    camera, name, threshold = plan.camera, plan.layout.name, plan.threshold
    observation = synthesize_observation(perturbed, camera)
    truth = tuple(o.label for o in visible_objects(perturbed, camera))
    n = len(observation.detections)
    labels = table.candidates
    rows = np.array([bisect.bisect_left(labels, label) for label in truth], dtype=np.intp)
    prepared = plan.prepare_rows(table, rows, category_separated)
    m = len(prepared.candidates)
    start = time.perf_counter()
    result = solve(prepared.problem)
    solve_ms = (time.perf_counter() - start) * 1000.0
    mapping = result.mapping
    correct = sum(1 for i, label in enumerate(truth) if mapping.get(i) == label)
    accuracy = correct / n if n else None
    return StopRecord(
        name, a, b, stop, n, m, correct, accuracy, solve_ms, threshold,
        prepared.plan.effective_threshold, rep,
    )


def _sweep(
    layout: SceneLayout, path: CameraPath, config: SweepConfig, thresholds: tuple[float, ...]
) -> SweepResult:
    """Score every (repetition, a, b) cell at every threshold and stop.

    Each cell perturbs the initial layout once, with its own derived seed,
    and scores it once into the cell's cost table; every threshold reuses
    both, so rows of one cell differ across thresholds only through
    pruning.  What a stop needs of the initial layout is planned once per
    (threshold, stop), before any cell.
    """
    stops = camera_stops(
        path, fov=config.fov, range=config.camera_range, frame_rate=config.frame_rate
    )
    plans = [[plan_stop(layout, camera, threshold) for camera in stops] for threshold in thresholds]
    t_list = config.t_list if config.t_list is not None else default_t_list(layout.bounds.area())
    weights = config.weights if config.weights is not None else default_weights(layout.bounds)
    initial = layout_arrays(layout)
    rows: list[StopRecord] = []
    for rep in range(config.seeds):
        for a_idx, a in enumerate(t_list):
            for b_idx, b in enumerate(config.r_list):
                noise = NoiseModel(t_sd=a, r_sd=b)
                perturbed = perturb_layout(
                    layout, noise, derive_seed(config.master_seed, rep, a_idx, b_idx)
                )
                table = score_arrays(layout_arrays(perturbed), initial, layout.bounds, weights)
                for threshold_plans in plans:
                    for stop_idx, plan in enumerate(threshold_plans):
                        rows.append(
                            score_stop(
                                plan, perturbed, stop_idx, a, b, rep, table,
                                config.category_separated,
                            )
                        )
    return SweepResult(rows=tuple(rows))


def run_noise_sweep(layout: SceneLayout, path: CameraPath, config: SweepConfig) -> SweepResult:
    """Score every (noise cell, repetition, stop) combination on one layout
    at `config.threshold`; the camera travels the whole route once per cell."""
    return _sweep(layout, path, config, (config.threshold,))


def run_threshold_sweep(
    layout: SceneLayout,
    path: CameraPath,
    config: SweepConfig,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
) -> SweepResult:
    """Score the noise cells of `config` at every pruning threshold in place
    of `config.threshold`.

    The paper's trade-off is one mild cell:
    `SweepConfig(t_list=(0.1,), r_list=(15.0,), master_seed=seed)`.
    """
    thresholds = tuple(validate_threshold(t) for t in thresholds)
    if not thresholds:
        raise SceneValidationError("at least one threshold is required")
    return _sweep(layout, path, config, thresholds)


# ---------------------------------------------------------------------------
# Aggregation
#
# Accuracy means are two-stage: first the mean over the stops of one
# (scene, a, b, rep, threshold) cell, then the mean over cells, so a cell
# with many stops or detections does not outweigh a sparse one.  Stops with
# no detections never enter accuracy aggregation; groups with no scored rows
# are omitted.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TranslationSummary:
    scene: str
    a: float
    mean_accuracy: float
    cells: int


@dataclass(frozen=True, slots=True)
class RotationSummary:
    scene: str
    band: str
    b: float
    mean_accuracy: float
    cells: int


@dataclass(frozen=True, slots=True)
class ThresholdSummary:
    threshold: float
    mean_accuracy: float
    mean_candidates: float
    mean_solve_ms: float
    stops: int


_CellKey = tuple[str, float, float, int, float]


def _mean(values: list[float]) -> float:
    return _left_sum(values) / len(values)


def _cell_groups(result: SweepResult, summary: type, keys) -> tuple:
    """One `summary` row per group of cells, in key order: each cell's mean
    accuracy joins every group that `keys(scene, a, b)` names for it, and a
    row holds its group key, the mean of its cell means and their count."""
    cells: dict[_CellKey, list[float]] = {}
    for r in result.scored():
        cells.setdefault((r.scene, r.a, r.b, r.rep, r.threshold), []).append(r.accuracy)
    groups: dict[tuple, list[float]] = {}
    for (scene, a, b, _rep, _t), values in sorted(cells.items()):
        for key in keys(scene, a, b):
            groups.setdefault(key, []).append(_mean(values))
    return tuple(summary(*key, _mean(v), len(v)) for key, v in sorted(groups.items()))


def _bands(scene: str, a: float, b: float) -> list[tuple[str, str, float]]:
    # translation sd <= 1 m counts as the low band, >= 1 m as high;
    # sd exactly 1 m belongs to both
    held = (("low", a <= 1.0 + 1e-9), ("high", a >= 1.0 - 1e-9))
    return [(scene, band, b) for band, inside in held if inside]


def _threshold_rows(result: SweepResult) -> tuple[ThresholdSummary, ...]:
    groups: dict[float, list[StopRecord]] = {}
    for r in result.rows:
        groups.setdefault(r.threshold, []).append(r)
    rows = []
    for threshold, group in sorted(groups.items()):
        scored = [r for r in group if r.accuracy is not None]
        if scored:
            rows.append(
                ThresholdSummary(
                    threshold=threshold,
                    mean_accuracy=_mean([r.accuracy for r in scored]),
                    mean_candidates=_mean([float(r.m) for r in group]),
                    mean_solve_ms=_mean([r.solve_ms for r in scored]),
                    stops=len(scored),
                )
            )
    return tuple(rows)


def aggregate(result: SweepResult, grouping: str):
    """Summary rows for one grouping: 'translation' (mean accuracy per
    scene and translation sd), 'rotation' (per scene, translation band, and
    rotation sd), or 'threshold' (per pruning threshold)."""
    if grouping == "translation":
        return _cell_groups(result, TranslationSummary, lambda scene, a, b: [(scene, a)])
    if grouping == "rotation":
        return _cell_groups(result, RotationSummary, _bands)
    if grouping == "threshold":
        return _threshold_rows(result)
    raise SceneValidationError(
        f"unknown grouping '{grouping}'; expected translation, rotation, or threshold"
    )


# ---------------------------------------------------------------------------
# CSV output, columns pinned by CSV_COLUMNS.  Identical configs and seeds
# reproduce every byte except the timing columns.
# ---------------------------------------------------------------------------


def _cell(name: str, value) -> str:
    """One CSV cell: '' for None, six decimals in a timing column, repr for
    any other float ('nan' for NaN), str for the rest."""
    if value is None:
        return ""
    if name in TIMING_COLUMNS or (isinstance(value, float) and math.isnan(value)):
        return f"{value:.6f}"
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str | Path, names: tuple[str, ...] | list[str], rows: tuple) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_cell(n, getattr(row, n)) for n in names])


def write_rows_csv(result: SweepResult, path: str | Path) -> None:
    _write_csv(path, CSV_COLUMNS, result.rows)


def write_summary_csv(rows: tuple, path: str | Path) -> None:
    """Write aggregate rows (any of the summary dataclasses) as CSV."""
    if not rows:
        Path(path).write_text("", encoding="utf-8")
        return
    _write_csv(path, [f.name for f in dataclasses.fields(rows[0])], rows)

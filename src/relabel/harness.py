"""Simulation experiments over synthetic scenes.

One sweep loop serves both experiments.  For every (repetition, a, b) cell
of a `SweepConfig` it perturbs the layout once, with translation sd a and
rotation sd b, and then scores every camera stop along the route at every
pruning threshold:

* noise sweep: a grid of noise cells, each scored at `config.threshold`;
* threshold sweep: usually one mild noise cell (0.1 m, 15 degrees), scored
  at a grid of thresholds, recording accuracy, candidate-pool size, and
  solve time.

Every (cell, threshold, stop) produces one row.  Rows are keyed and sorted,
and are deterministic for a given (layout, path, config) except for the
wall-clock solve_ms field, the time of one solve.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .costs import CostWeights
from .noise import NoiseModel, derive_seed, perturb_layout
from .partition import validate_threshold
from .path import CameraPath, camera_stops
from .scene import (
    CameraState,
    SceneLayout,
    SceneValidationError,
    synthesize_observation,
    visible_objects,
)
from .solver import InfeasibleAssignmentError, prepare_problem, solve

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

    accuracy is None when the stop had no detections to score; correct,
    accuracy, and solve_ms are all None when the instance could not be
    solved.  rep identifies the repetition in memory only; it is not a CSV
    column.
    """

    scene: str
    a: float
    b: float
    stop: int
    n: int
    m: int
    correct: int | None
    accuracy: float | None
    solve_ms: float | None
    threshold: float
    effective_threshold: float | None
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
    t_mean: float = 0.0
    r_mean: float = 0.0
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
    initial: SceneLayout,
    perturbed: SceneLayout,
    camera: CameraState,
    stop: int,
    a: float,
    b: float,
    rep: int,
    threshold: float,
    weights: CostWeights | None,
    category_separated: bool,
) -> StopRecord:
    """Observe the perturbed layout from one stop, resolve against the
    initial layout, and score against the known identities.

    Ground truth is carried through the simulation: detections are emitted
    in label-sorted order of the perturbed objects, so detection i is
    correct iff it receives the label at position i of that order.
    """
    observation = synthesize_observation(perturbed, camera)
    truth = tuple(o.label for o in visible_objects(perturbed, camera))
    n = len(observation.detections)
    prepared = prepare_problem(
        initial,
        observation,
        threshold=threshold,
        weights=weights,
        category_separated=category_separated,
    )
    m = len(prepared.candidates)
    try:
        start = time.perf_counter()
        result = solve(prepared.problem)
        solve_ms = (time.perf_counter() - start) * 1000.0
    except InfeasibleAssignmentError:
        return StopRecord(
            initial.name, a, b, stop, n, m, None, None, None, threshold,
            prepared.effective_threshold, rep,
        )
    mapping = result.mapping
    correct = sum(1 for i, label in enumerate(truth) if mapping.get(i) == label)
    accuracy = correct / n if n else None
    return StopRecord(
        initial.name, a, b, stop, n, m, correct, accuracy, solve_ms, threshold,
        prepared.effective_threshold, rep,
    )


def _sweep(
    layout: SceneLayout, path: CameraPath, config: SweepConfig, thresholds: tuple[float, ...]
) -> SweepResult:
    """Score every (repetition, a, b) cell at every threshold and stop.

    Each cell perturbs the initial layout once, with its own derived seed,
    and every threshold reuses that perturbation, so rows of one cell differ
    across thresholds only through pruning.
    """
    stops = camera_stops(
        path, fov=config.fov, range=config.camera_range, frame_rate=config.frame_rate
    )
    t_list = config.t_list if config.t_list is not None else default_t_list(layout.bounds.area())
    rows: list[StopRecord] = []
    for rep in range(config.seeds):
        for a_idx, a in enumerate(t_list):
            for b_idx, b in enumerate(config.r_list):
                noise = NoiseModel(t_mean=config.t_mean, t_sd=a, r_mean=config.r_mean, r_sd=b)
                perturbed = perturb_layout(
                    layout, noise, derive_seed(config.master_seed, rep, a_idx, b_idx)
                )
                for threshold in thresholds:
                    for stop_idx, camera in enumerate(stops):
                        rows.append(
                            score_stop(
                                layout, perturbed, camera, stop_idx, a, b, rep, threshold,
                                config.weights, config.category_separated,
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
# no detections and unsolved stops never enter accuracy aggregation; groups
# with no scored rows are omitted.
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


def _cell_means(result: SweepResult) -> dict[_CellKey, float]:
    sums: dict[_CellKey, list[float]] = {}
    for r in result.scored():
        sums.setdefault((r.scene, r.a, r.b, r.rep, r.threshold), []).append(r.accuracy)
    return {key: sum(v) / len(v) for key, v in sums.items()}


def _translation_rows(result: SweepResult) -> tuple[TranslationSummary, ...]:
    groups: dict[tuple[str, float], list[float]] = {}
    for (scene, a, _b, _rep, _t), value in sorted(_cell_means(result).items()):
        groups.setdefault((scene, a), []).append(value)
    return tuple(
        TranslationSummary(scene=scene, a=a, mean_accuracy=sum(v) / len(v), cells=len(v))
        for (scene, a), v in sorted(groups.items())
    )


def _rotation_rows(result: SweepResult) -> tuple[RotationSummary, ...]:
    # translation sd <= 1 m counts as the low band, >= 1 m as high;
    # sd exactly 1 m belongs to both
    groups: dict[tuple[str, str, float], list[float]] = {}
    for (scene, a, b, _rep, _t), value in sorted(_cell_means(result).items()):
        if a <= 1.0 + 1e-9:
            groups.setdefault((scene, "low", b), []).append(value)
        if a >= 1.0 - 1e-9:
            groups.setdefault((scene, "high", b), []).append(value)
    return tuple(
        RotationSummary(scene=scene, band=band, b=b, mean_accuracy=sum(v) / len(v), cells=len(v))
        for (scene, band, b), v in sorted(groups.items())
    )


def _threshold_rows(result: SweepResult) -> tuple[ThresholdSummary, ...]:
    accuracy: dict[float, list[float]] = {}
    candidates: dict[float, list[float]] = {}
    timing: dict[float, list[float]] = {}
    for r in result.rows:
        candidates.setdefault(r.threshold, []).append(float(r.m))
        if r.accuracy is not None:
            accuracy.setdefault(r.threshold, []).append(r.accuracy)
        if r.solve_ms is not None and r.n > 0:
            timing.setdefault(r.threshold, []).append(r.solve_ms)
    rows = []
    for threshold in sorted(accuracy):
        acc = accuracy[threshold]
        ms = timing.get(threshold, [])
        cand = candidates[threshold]
        rows.append(
            ThresholdSummary(
                threshold=threshold,
                mean_accuracy=sum(acc) / len(acc),
                mean_candidates=sum(cand) / len(cand),
                mean_solve_ms=sum(ms) / len(ms) if ms else math.nan,
                stops=len(acc),
            )
        )
    return tuple(rows)


def aggregate(result: SweepResult, grouping: str):
    """Summary rows for one grouping: 'translation' (mean accuracy per
    scene and translation sd), 'rotation' (per scene, translation band, and
    rotation sd), or 'threshold' (per pruning threshold)."""
    if grouping == "translation":
        return _translation_rows(result)
    if grouping == "rotation":
        return _rotation_rows(result)
    if grouping == "threshold":
        return _threshold_rows(result)
    raise SceneValidationError(
        f"unknown grouping '{grouping}'; expected translation, rotation, or threshold"
    )


# ---------------------------------------------------------------------------
# CSV output, columns pinned by CSV_COLUMNS.  Identical configs and seeds
# reproduce every byte except the timing columns.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}" if math.isnan(value) else repr(value)
    return str(value)


def write_rows_csv(result: SweepResult, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in result.rows:
            writer.writerow(
                [
                    r.scene,
                    _fmt(r.a),
                    _fmt(r.b),
                    r.stop,
                    r.n,
                    r.m,
                    "" if r.correct is None else r.correct,
                    "" if r.accuracy is None else _fmt(r.accuracy),
                    "" if r.solve_ms is None else f"{r.solve_ms:.6f}",
                    _fmt(r.threshold),
                    "" if r.effective_threshold is None else _fmt(r.effective_threshold),
                ]
            )


def write_summary_csv(rows: tuple, path: str | Path) -> None:
    """Write aggregate rows (any of the summary dataclasses) as CSV."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not rows:
            return
        names = [f.name for f in dataclasses.fields(rows[0])]
        writer.writerow(names)
        for row in rows:
            writer.writerow(
                [
                    f"{getattr(row, n):.6f}"
                    if n in TIMING_COLUMNS
                    else _fmt(getattr(row, n))
                    for n in names
                ]
            )

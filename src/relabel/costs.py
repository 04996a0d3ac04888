"""Match costs between detections and candidate labels.

A detection/candidate pair is scored by how far the object would have had to
move (translation, normalized by the scene diagonal), how much it would have
had to turn (rotation), and how badly its bounding box fits (dimension
ratio).  The three terms combine as

    total = c_d * (w_t * c_t + w_r * c_r)

so a box mismatch scales up whatever motion cost the pair already carries.

Both sides of a build are array views (`scene.ObjectArrays`).  `cost_terms`
computes the three terms of a detection view against a candidate view, and
`score_arrays` combines them into a `CostMatrix`, which holds only `total`:
a report that shows the terms recomputes them with `cost_terms`.  c_d is
scored once per distinct pair of boxes, not once per cell: identical objects
share one box.  Boxes are told apart by value, never by object type, and
every cell gets the same float operations as a 1 x 1 build of its own pair.
A stop's candidate pool is rows of its layout's view (`ObjectArrays.take`),
taken once per plan; `build_cost_matrix` scores views of the two tuples it
is given.  A sweep calls the kernel once per noise cell, on every perturbed
object against every initial object, and slices each stop's costs out of
that table (`solver.StopPlan.prepare_rows`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .scene import (
    BoxDims,
    Detection,
    ObjectArrays,
    ObjectInstance,
    PlanarPose,
    SceneBounds,
    SceneValidationError,
    object_arrays,
)

_DIM_PERMUTATIONS = tuple(itertools.permutations(range(3)))
_PERM_INDEX = np.array(_DIM_PERMUTATIONS, dtype=np.intp)
# (detection box, candidate box) pairs scored per broadcast: bounds the
# ratio table, 144 bytes a pair, when measured boxes are all distinct
_FIT_CHUNK_PAIRS = 2**16


@dataclass(frozen=True, slots=True)
class CostWeights:
    """Relative weight of the translation (w_t) and rotation (w_r) terms."""

    w_t: float
    w_r: float

    def __post_init__(self) -> None:
        for name in ("w_t", "w_r"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise SceneValidationError(f"weight {name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.w_t + self.w_r <= 0.0:
            raise SceneValidationError("at least one cost weight must be positive")


def default_weights(bounds: SceneBounds) -> CostWeights:
    """Default weights scaled to the scene: w_t = 0.36 * sqrt(area), w_r = 1."""
    return CostWeights(w_t=0.36 * math.sqrt(bounds.area()), w_r=1.0)


def translation_cost(possible: PlanarPose, detected: PlanarPose, bounds: SceneBounds) -> float:
    """Distance between the two positions as a fraction of the scene diagonal.

    May exceed 1 when a detection lies outside the original bounds; no clamp.
    """
    return math.hypot(possible.x - detected.x, possible.z - detected.z) / bounds.diagonal()


def rotation_cost(yaw_possible: float, yaw_detected: float) -> float:
    """sin of half the absolute yaw difference; peaks at 1 for a 180 degree turn.

    Yaws are normalized to [0, 360) and the raw absolute difference is used
    with no shortest-arc folding: the sine is already symmetric about 180,
    so 90 and 270 degree differences score the same.
    """
    delta = abs(yaw_possible % 360.0 - yaw_detected % 360.0)
    return math.sin(delta * math.pi / 360.0)


def dimension_cost(possible: BoxDims, detected: BoxDims) -> float:
    """Best axis-ratio product over all ways of pairing the two boxes' axes.

    Each axis pair contributes max(a, b) / min(a, b) >= 1, so the product is
    1 exactly when some permutation of the detected box matches the other.
    """
    fixed = (possible.w, possible.h, possible.d)
    moved = (detected.w, detected.h, detected.d)
    best = math.inf
    for perm in _DIM_PERMUTATIONS:
        prod = 1.0
        for axis in range(3):
            a, b = moved[perm[axis]], fixed[axis]
            prod *= a / b if a >= b else b / a
        if prod < best:
            best = prod
    return best


def total_cost(c_t: float, c_r: float, c_d: float, weights: CostWeights) -> float:
    """Combine the three terms: c_d * (w_t * c_t + w_r * c_r)."""
    return c_d * (weights.w_t * c_t + weights.w_r * c_r)


def pair_cost(
    detection: Detection, candidate: ObjectInstance, bounds: SceneBounds, weights: CostWeights
) -> float:
    """Total cost of assigning `candidate`'s label to `detection`."""
    return total_cost(
        translation_cost(candidate.pose, detection.pose, bounds),
        rotation_cost(candidate.pose.yaw, detection.pose.yaw),
        dimension_cost(candidate.dims, detection.dims),
        weights,
    )


@dataclass(frozen=True, slots=True, eq=False)
class CostMatrix:
    """Dense N x M table of total costs from N detections to M candidate
    labels; the terms behind each cell come from `cost_terms`.

    Rows follow the detection order of the observation; columns follow
    `candidates`.  `total` is read-only float64.
    """

    candidates: tuple[str, ...]
    candidate_types: tuple[str, ...]
    detection_types: tuple[str | None, ...]
    total: np.ndarray

    def __post_init__(self) -> None:
        n, m = len(self.detection_types), len(self.candidates)
        # float64 whatever the input, uncopied when it already is: the
        # solver runs on float64 cells and groups twin columns by their bytes
        total = np.asarray(self.total, dtype=np.float64)
        object.__setattr__(self, "total", total)
        if total.shape != (n, m):
            raise SceneValidationError(
                f"cost array 'total' has shape {total.shape}, expected {(n, m)}"
            )
        if total.size and not np.isfinite(total).all():
            raise SceneValidationError("cost array 'total' contains non-finite cells")
        total.flags.writeable = False
        # the solver sums up to one cell per row, and its tie window and
        # margins add a little more: twice every row at the largest |cell|
        if not math.isfinite(float(np.abs(total).max(initial=0.0)) * 2.0 * n):
            raise SceneValidationError("cost array 'total' has cells whose sums overflow")

    @property
    def shape(self) -> tuple[int, int]:
        return self.total.shape


def _box_fit(det_boxes: np.ndarray, cand_boxes: np.ndarray) -> np.ndarray:
    """c_d for every (detection box, candidate box) pair, scored in chunks of
    detection boxes of at most _FIT_CHUNK_PAIRS pairs (one detection box at
    least).  Every chunk is the same broadcast, so a cell's bytes do not
    depend on the chunking: ratio is (detection box, candidate box, axis
    permutation, axis)."""
    fit = np.empty((len(det_boxes), len(cand_boxes)))
    step = max(1, _FIT_CHUNK_PAIRS // max(1, len(cand_boxes)))
    for start in range(0, len(det_boxes), step):
        ratio = det_boxes[start : start + step, None, _PERM_INDEX] / cand_boxes[None, :, None, :]
        fit[start : start + step] = np.prod(np.maximum(ratio, 1.0 / ratio), axis=3).min(axis=2)
    return fit


def cost_terms(
    detections: ObjectArrays, candidates: ObjectArrays, bounds: SceneBounds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c_t, c_r and c_d of every detection of one array view against every
    candidate object of another, in the order of each view."""
    c_t = np.hypot(
        detections.x[:, None] - candidates.x, detections.z[:, None] - candidates.z
    ) / bounds.diagonal()
    c_r = np.sin(np.abs(detections.yaw[:, None] - candidates.yaw) * (np.pi / 360.0))

    # identical objects share one box, so c_d is scored per distinct pair
    fit = _box_fit(detections.boxes, candidates.boxes)
    c_d = fit.take(detections.box_row, 0).take(candidates.box_row, 1)
    return c_t, c_r, c_d


def score_arrays(
    detections: ObjectArrays, candidates: ObjectArrays, bounds: SceneBounds, weights: CostWeights
) -> CostMatrix:
    """Total cost of every detection of one array view against every
    candidate object of another, in the order of each view; the
    candidates' labels name the columns."""
    c_t, c_r, c_d = cost_terms(detections, candidates, bounds)
    with np.errstate(over="ignore"):
        total = c_d * (weights.w_t * c_t + weights.w_r * c_r)
    # the solver sums up to one cell per row, and its tie window and margins
    # add a little more: twice every row at the largest cell must be finite
    if not math.isfinite(float(total.max(initial=0.0)) * 2.0 * len(total)):
        raise SceneValidationError(
            f"weights w_t={weights.w_t!r}, w_r={weights.w_r!r} make the costs overflow"
        )
    return CostMatrix(
        candidates=tuple([c.label for c in candidates.objects]),
        candidate_types=candidates.types,
        detection_types=detections.types,
        total=total,
    )


def build_cost_matrix(
    detections: tuple[Detection, ...],
    candidates: tuple[ObjectInstance, ...],
    bounds: SceneBounds,
    weights: CostWeights,
) -> CostMatrix:
    """Score every detection against every candidate label.

    Candidate label order is preserved as given; duplicate labels are
    rejected.  Works for empty detection or candidate sets (0-sized axes).
    """
    if len({c.label for c in candidates}) != len(candidates):
        raise SceneValidationError("candidate labels must be unique")
    return score_arrays(object_arrays(detections), object_arrays(candidates), bounds, weights)

"""Exact cost-minimizing label assignment over pruned candidate sets.

Every detection must receive exactly one label and every label may be used
at most once, so a feasible instance needs at least as many candidates as
detections.  `solve` finds a minimum-total-cost assignment; the independent
`brute_force_solve` enumerates all assignments and exists as a cross-check,
never as a fast path.

Canonical tie rule (shared by both routes): among all assignments whose
total cost lies within a relative window of 1e-9 of the optimum, return the
one with the lexicographically smallest pair sequence in detection order.
Totals are recomputed as a single numpy sum over the chosen cells in
detection order so that both routes report bit-identical costs when they
agree on the pairs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .costs import (
    CandidateSide,
    CostMatrix,
    CostWeights,
    candidate_side,
    default_weights,
    score_detections,
)
from .partition import SiteProbabilities, candidate_labels, prune_sites, site_probabilities
from .scene import (
    CameraState,
    Detection,
    ObjectInstance,
    Observation,
    SceneLayout,
    SceneValidationError,
)

_REL_TOL = 1e-9
_BRUTE_FORCE_MAX_N = 8
_BRUTE_FORCE_MAX_M = 10


class AssignmentError(RuntimeError):
    """Base class for assignment failures."""


class InfeasibleAssignmentError(AssignmentError):
    """More detections than available candidate labels (globally or per type)."""

    def __init__(self, n: int, m: int, category: str | None = None) -> None:
        self.n = n
        self.m = m
        self.category = category
        scope = f" of type '{category}'" if category is not None else ""
        super().__init__(f"cannot assign {n} detections{scope} to {m} candidate labels")


class BruteForceBoundError(AssignmentError):
    """The instance is too large to enumerate exhaustively."""


@dataclass(frozen=True, slots=True, eq=False)
class AssignmentProblem:
    """A costed instance plus the per-type decomposition flag."""

    matrix: CostMatrix
    category_separated: bool = False


@dataclass(frozen=True, slots=True)
class AssignmentResult:
    """Chosen (detection index, label) pairs, sorted by detection index.

    pruned_site_count and effective_threshold describe the site pruning that
    shaped the candidate pool; they stay 0 / None when the problem was built
    directly from a cost matrix.
    """

    pairs: tuple[tuple[int, str], ...]
    total_cost: float
    pruned_site_count: int = 0
    candidate_count: int = 0
    effective_threshold: float | None = None

    @property
    def mapping(self) -> dict[int, str]:
        return dict(self.pairs)


def _tol(value: float) -> float:
    return _REL_TOL * max(1.0, abs(value))


def _gather_total(costs: np.ndarray, cols: np.ndarray) -> float:
    # single np.sum over cells in detection order: the canonical total
    n = len(cols)
    if n == 0:
        return 0.0
    return float(np.sum(costs[np.arange(n), cols]))


def _unique_within_window(
    costs: np.ndarray, rows: np.ndarray, sigma: np.ndarray, base: np.ndarray, budget: float
) -> bool:
    """True when sigma (row i takes column sigma_i, at cost base_i) is
    provably the only assignment within `budget` of its total.

    In rest space, rest[i, j] = costs[i, j] - base_i, any other assignment
    T costs val(T) - val(sigma).  A row screen settles most stops: when
    every row's other cells cost more than the budget, so does every T.

    Otherwise one more solve decides, with sigma's cells set to 2 * budget.
    A T that keeps k of sigma's n cells costs k * 2 * budget + val(T) -
    val(sigma) there, against n * 2 * budget for sigma.  If no assignment
    beats sigma, every such T costs at least (n - k) * 2 * budget more than
    sigma, past the budget.  The test is sufficient only; when it declines,
    the row scan decides exactly.
    """
    rest = costs - base[:, None]
    rest[rows, sigma] = np.inf
    if rest.min() > budget:
        return True
    rest[rows, sigma] = 2 * budget
    ri, ci = linear_sum_assignment(rest)
    return bool(rest[ri, ci].sum() >= rest[rows, sigma].sum())


def _canonical_cols(costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Columns of the canonical optimal assignment for a dense cost block,
    and their canonical total.

    One solve gives an optimum; the certificate either shows that no
    other assignment lies within the tie window (the common case, in
    which that optimum is trivially canonical) or the lexicographically
    smallest in-window column tuple is rebuilt row by row.
    """
    n, m = costs.shape
    if n > m:
        raise InfeasibleAssignmentError(n, m)
    rows, sigma = linear_sum_assignment(costs)
    base = costs[rows, sigma]
    best_value = float(base.sum())
    window = best_value + _tol(best_value)
    # the certificate is asked about twice the window: an assignment on the
    # window's edge may be in it by one summation order and out of it by
    # another, so it goes to the scan, which judges the canonical sum
    if _unique_within_window(costs, rows, sigma, base, 2 * (window - best_value)):
        return sigma, best_value
    cols = _scan_cols(costs, window)
    return cols, _gather_total(costs, cols)


def _scan_cols(costs: np.ndarray, window: float) -> np.ndarray:
    """Lexicographically smallest in-window column tuple, row by row.

    The smallest available column whose best completion still reaches the
    window is fixed for each row in turn.  One solve of the remaining rows
    over every available column screens all columns at once; only a
    screened column that solve uses pays for an exact confirming solve.
    A completion is judged by the canonical total of its whole column
    tuple, the same sum the window was taken from: `cells` holds the
    fixed rows' cells, then the candidate's, then the rest's, in row order.
    """
    n, m = costs.shape
    available = np.ones(m, dtype=bool)
    chosen = np.empty(n, dtype=np.intp)
    cells = np.empty(n)
    prefix = 0.0
    for r in range(n):
        avail_idx = np.flatnonzero(available)
        row = costs[r, avail_idx]
        if r + 1 < n:
            sub_all = costs[r + 1 :, avail_idx]
            ri, ci = linear_sum_assignment(sub_all)
            rest_cells = sub_all[ri, ci]
            rest_value = float(rest_cells.sum())
            user = np.full(avail_idx.size, -1, dtype=np.intp)
            user[ci] = ri
        else:
            user = None
            rest_cells = cells[n:]
            rest_value = 0.0
        # exact for columns the rest solution leaves unused (dropping an
        # unused column cannot change the sub-problem optimum), a lower
        # bound for the rest
        bound = prefix + row + rest_value
        cand = np.flatnonzero(bound <= window)

        def exact_completion(pos: int) -> float:
            if user is None or user[pos] < 0:
                cells[r + 1 :] = rest_cells
            else:
                sub = np.delete(sub_all, pos, axis=1)
                si, sj = linear_sum_assignment(sub)
                cells[r + 1 :] = sub[si, sj]
            cells[r] = row[pos]
            return float(cells.sum())

        pick_pos = -1
        fallback_pos = -1
        fallback_value = math.inf
        for pos in cand:
            completion = exact_completion(pos)
            if completion <= window:
                pick_pos = pos
                break
            if completion < fallback_value:
                fallback_pos = pos
                fallback_value = completion
        if pick_pos < 0:
            if fallback_pos < 0:
                # float dust pushed every column past the screen; fall back
                # to exact completions so a column is always chosen
                for pos in range(avail_idx.size):
                    completion = exact_completion(pos)
                    if completion < fallback_value:
                        fallback_pos = pos
                        fallback_value = completion
            pick_pos = fallback_pos
        pick = int(avail_idx[pick_pos])
        chosen[r] = pick
        available[pick] = False
        cells[r] = costs[r, pick]
        prefix += cells[r]
    return chosen


def _require_typed(detection_types: tuple[str | None, ...]) -> tuple[str, ...]:
    if any(t is None for t in detection_types):
        raise SceneValidationError("per-type assignment requires every detection to carry a type")
    return detection_types  # type: ignore[return-value]


def _typed_cols(matrix: CostMatrix) -> np.ndarray:
    """Solve one block per object type, then merge back in detection order."""
    det_types = _require_typed(matrix.detection_types)
    n = len(det_types)
    chosen = np.full(n, -1, dtype=np.intp)
    for object_type in sorted(set(det_types)):
        rows = [i for i, t in enumerate(det_types) if t == object_type]
        cols = [j for j, t in enumerate(matrix.candidate_types) if t == object_type]
        if len(rows) > len(cols):
            raise InfeasibleAssignmentError(len(rows), len(cols), category=object_type)
        sub_cols, _ = _canonical_cols(matrix.total[np.ix_(rows, cols)])
        for row, sub_col in zip(rows, sub_cols):
            chosen[row] = cols[sub_col]
    return chosen


def _as_result(
    matrix: CostMatrix, cols: np.ndarray, total: float | None = None
) -> AssignmentResult:
    if total is None:
        total = _gather_total(matrix.total, cols)
    labels = matrix.candidates
    pairs = tuple(zip(range(len(cols)), [labels[c] for c in cols.tolist()]))
    return AssignmentResult(pairs=pairs, total_cost=total, candidate_count=matrix.shape[1])


def solve(problem: AssignmentProblem) -> AssignmentResult:
    """Minimum-cost assignment of candidate labels to detections.

    With category separation, detections may only take labels of objects of
    the same type and the instance decomposes into one block per type.
    """
    matrix = problem.matrix
    n, m = matrix.shape
    if n == 0:
        return AssignmentResult(pairs=(), total_cost=0.0, candidate_count=m)
    if problem.category_separated:
        return _as_result(matrix, _typed_cols(matrix))
    return _as_result(matrix, *_canonical_cols(matrix.total))


def brute_force_solve(problem: AssignmentProblem) -> AssignmentResult:
    """Exhaustive oracle: enumerate every injective assignment and keep the
    canonical one.  Only usable on small instances (N <= 8, M <= 10); exists
    to validate `solve` and must never be replaced by a call to it.
    """
    matrix = problem.matrix
    n, m = matrix.shape
    if n == 0:
        return AssignmentResult(pairs=(), total_cost=0.0, candidate_count=m)
    if n > m:
        raise InfeasibleAssignmentError(n, m)
    if n > _BRUTE_FORCE_MAX_N or m > _BRUTE_FORCE_MAX_M:
        raise BruteForceBoundError(
            f"{n}x{m} exceeds the enumeration bound "
            f"{_BRUTE_FORCE_MAX_N}x{_BRUTE_FORCE_MAX_M}"
        )
    costs = matrix.total
    if problem.category_separated:
        det_types = _require_typed(matrix.detection_types)
        mismatch = np.array(
            [[dt != ct for ct in matrix.candidate_types] for dt in det_types], dtype=bool
        )
        costs = np.where(mismatch, np.inf, costs)

    perms = np.array(list(itertools.permutations(range(m), n)), dtype=np.intp)
    totals = costs[np.arange(n)[None, :], perms].sum(axis=1)
    finite = np.isfinite(totals)
    if not finite.any():
        raise InfeasibleAssignmentError(n, m)
    best = float(totals[finite].min())
    in_window = totals <= best + _tol(best)
    first = int(np.argmax(in_window))
    return _as_result(matrix, perms[first])


# ---------------------------------------------------------------------------
# Pipeline: prune sites around the camera, collect candidates, build costs.
# ---------------------------------------------------------------------------


def _is_feasible(
    detections: tuple[Detection, ...],
    candidates: tuple[ObjectInstance, ...],
    category_separated: bool,
) -> bool:
    if len(detections) > len(candidates):
        return False
    if category_separated:
        need = Counter(d.object_type for d in detections)
        have = Counter(c.object_type for c in candidates)
        return all(have.get(t, 0) >= k for t, k in need.items())
    return True


@dataclass(frozen=True, slots=True, eq=False)
class PreparedProblem:
    """A pruned, costed assignment instance ready to solve."""

    problem: AssignmentProblem
    candidates: tuple[ObjectInstance, ...]
    kept_site_ids: frozenset[str]
    requested_threshold: float
    effective_threshold: float


@dataclass(frozen=True, slots=True, eq=False)
class StopPlan:
    """The part of a stop's preparation that depends only on the remembered
    layout, the camera and the threshold: the site ranking, the sites the
    threshold keeps, and the candidate half of the cost build.  Build it
    once with `plan_stop` and `prepare` each observation from that stop."""

    layout: SceneLayout
    camera: CameraState
    threshold: float
    probabilities: SiteProbabilities
    kept_site_ids: frozenset[str]
    effective_threshold: float
    candidates: tuple[ObjectInstance, ...]
    side: CandidateSide

    def prepare(
        self,
        observation: Observation,
        weights: CostWeights | None = None,
        category_separated: bool = False,
    ) -> PreparedProblem:
        """Cost the observation against the plan's candidates.

        If the pool is too small for the detections, sites are re-admitted
        one at a time in probability order until the instance becomes
        feasible; the effective threshold reported is the cumulative
        probability actually covered.  The plan itself never changes.
        The observation must come from the plan's camera.
        """
        if observation.camera != self.camera:
            raise SceneValidationError("the observation is from another camera than the plan's")
        layout = self.layout
        if weights is None:
            weights = default_weights(layout.bounds)
        detections = observation.detections
        if category_separated:
            _require_typed(tuple(d.object_type for d in detections))
        kept, effective = self.kept_site_ids, self.effective_threshold
        candidates, side = self.candidates, self.side
        entries = self.probabilities.entries
        start = depth = len(kept) - 1  # how many ranked entries are included
        readmitted = set(kept)
        while (
            not _is_feasible(detections, candidates, category_separated)
            and depth < len(entries)
        ):
            entry = entries[depth]
            depth += 1
            readmitted.add(entry.site_id)
            effective = entry.cumulative
            candidates = candidate_labels(layout, readmitted)
        if depth > start:
            kept = frozenset(readmitted)
            side = candidate_side(candidates)
        matrix = score_detections(detections, side, layout.bounds, weights)
        return PreparedProblem(
            problem=AssignmentProblem(matrix=matrix, category_separated=category_separated),
            candidates=candidates,
            kept_site_ids=kept,
            requested_threshold=self.threshold,
            effective_threshold=effective,
        )


def plan_stop(layout: SceneLayout, camera: CameraState, threshold: float = 1.0) -> StopPlan:
    """Rank the layout's sites around the camera, prune them at the
    threshold, and build the candidate half of the cost build."""
    probabilities = site_probabilities(camera, layout.sites)
    kept = prune_sites(probabilities, threshold)
    depth = len(kept) - 1  # how many ranked entries are included
    candidates = candidate_labels(layout, kept)
    return StopPlan(
        layout=layout,
        camera=camera,
        threshold=float(threshold),
        probabilities=probabilities,
        kept_site_ids=frozenset(kept),
        effective_threshold=probabilities.entries[depth - 1].cumulative if depth else 0.0,
        candidates=candidates,
        side=candidate_side(candidates),
    )


def prepare_problem(
    layout: SceneLayout,
    observation: Observation,
    threshold: float = 1.0,
    weights: CostWeights | None = None,
    category_separated: bool = False,
) -> PreparedProblem:
    """Prune sites around the camera and build the cost matrix: a stop plan
    for the observation's camera, prepared once (see `StopPlan.prepare`).
    A pool that stays too small even with every site kept is returned
    as-is and `solve` raises.
    """
    plan = plan_stop(layout, observation.camera, threshold)
    return plan.prepare(observation, weights, category_separated)


def resolve_identities(
    layout: SceneLayout,
    observation: Observation,
    threshold: float = 1.0,
    weights: CostWeights | None = None,
    category_separated: bool = False,
) -> AssignmentResult:
    """End-to-end identity resolution for one observation of a changed scene."""
    prepared = prepare_problem(
        layout,
        observation,
        threshold=threshold,
        weights=weights,
        category_separated=category_separated,
    )
    result = solve(prepared.problem)
    return dataclasses.replace(
        result,
        pruned_site_count=len(prepared.kept_site_ids),
        candidate_count=len(prepared.candidates),
        effective_threshold=prepared.effective_threshold,
    )

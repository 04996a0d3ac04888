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

Category separation forbids the cells that pair a detection with a label of
another type (they cost infinity); the instance is still solved as one
table, so the tie window is the whole instance's.

`solve` runs one LSA for an optimum, sigma, then a tie certificate that
holds each row to sigma's column and that column's byte-equal twins
(identical objects stacked on one pose): a row screen, then one re-solve
with the held cells raised.  If it holds, each row takes the smallest free
held column, sigma's own when it has no twins.  Anything else goes to the
row scan.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .costs import CostMatrix, CostWeights, default_weights, score_arrays
from .partition import SiteProbabilities, candidate_rows, prune_sites, site_probabilities
from .scene import (
    CameraState,
    ObjectArrays,
    ObjectInstance,
    Observation,
    SceneLayout,
    SceneValidationError,
    layout_arrays,
    object_arrays,
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
    """A costed instance, and whether a detection may take only labels of
    its own type (category separation)."""

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
    return float(np.sum(costs[np.arange(len(cols)), cols]))


def _twins(costs: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Mask of the cells whose column is byte-equal to their row's sigma
    column, sigma's own included: -0.0 and 0.0 stay apart.  One sort of
    the columns' bytes groups them, so an all-twin table costs the work of
    its size (comparing each cell's column with its row's sigma column
    would cost n times the table)."""
    columns = np.ascontiguousarray(costs.T).view(f"V{costs.itemsize * len(costs)}").ravel()
    group = np.unique(columns, return_inverse=True)[1]
    return group[sigma][:, None] == group


def _group_cols(held: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Row by row, the smallest held column (`_twins`) that no earlier row
    takes.  Rows whose sigma columns are twins hold the same columns, so
    the k-th of them in row order takes the k-th of those columns."""
    rank = held[:, sigma].cumsum(axis=1).diagonal()
    return (held.cumsum(axis=1) < rank[:, None]).sum(axis=1)


def _certified_cols(
    costs: np.ndarray, sigma: np.ndarray, base: np.ndarray, budget: float
) -> np.ndarray | None:
    """The canonical columns when a certificate shows that every assignment
    within `budget` of sigma's total (row i takes column sigma_i, at cost
    base_i) keeps each row in its held cells: sigma_i's and those of
    sigma_i's byte-equal twins (`_twins`).  None when it declines.

    Such an assignment then has sigma's cells row by row, so the canonical
    one gives each row the smallest held column that no earlier row takes
    (`_group_cols`), at sigma's total: sigma itself when it has no twins.

    In rest space, rest[i, j] = costs[i, j] - base_i, any assignment T
    costs val(T) - val(sigma).  A row screen settles most stops: the held
    cells are 0.0 in rest and the budget is positive, so when they are the
    only cells within the budget, every T that leaves them costs more than
    the budget.  It runs first with sigma's cells alone, then with every
    held cell.  A twin's cell is 0.0 in rest, so the twin test runs only
    when some cell off sigma is.

    Otherwise one more solve decides, with the held cells set to 2 *
    budget.  A T that keeps k rows in held cells costs k * 2 * budget +
    val(T) - val(sigma) there, against n * 2 * budget for sigma.  If no
    assignment beats sigma, every such T costs at least (n - k) * 2 *
    budget more than sigma, past the budget; a re-solve that returns sigma
    itself holds with no sum.  The test is sufficient only; when it
    declines, the row scan decides exactly.
    """
    n = len(sigma)
    rest = costs - base[:, None]
    within = np.count_nonzero(rest <= budget)
    if within == n:
        return sigma
    held = rest == 0.0
    count = np.count_nonzero(held)
    if count > n:
        held = _twins(costs, sigma)
        count = np.count_nonzero(held)
    if within > count:
        rest[held] = 2 * budget
        rows, cols = linear_sum_assignment(rest)
        if not (cols == sigma).all() and rest[rows, cols].sum() < rest[rows, sigma].sum():
            return None
    return sigma if count == n else _group_cols(held, sigma)


def _canonical_cols(costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Columns of the canonical optimal assignment for a dense cost block,
    and their canonical total.

    One solve gives an optimum, sigma; the certificate either shows that
    every other assignment within the tie window only moves rows between
    byte-equal twin columns (`_certified_cols`; in the common case there is
    no other, and sigma is trivially canonical) or the row scan, started
    from sigma, rebuilds the lexicographically smallest in-window column
    tuple.
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
    cols = _certified_cols(costs, sigma, base, 2 * (window - best_value))
    if cols is not None:
        return cols, best_value
    cols = _scan_cols(costs, window, sigma)
    return cols, _gather_total(costs, cols)


def _row_entry(
    costs: np.ndarray,
    window: float,
    cols: np.ndarray,
    r: int,
    avail_idx: np.ndarray,
    prefix: float,
    margin: float,
) -> np.ndarray | None:
    """`cols` with row r moved to the smallest of the available columns
    `avail_idx` below cols[r] that has a completion within the window, and
    that completion; None when no such column has one.

    A held solve is one LSA of rows r.. over the available columns with row
    r held to a range of them (its other cells set to inf): its optimum is
    the best completion over every column in the range at once, as in the
    partition step of Murty's ranking of assignments (Murty 1968).  The
    range starts as every column below cols[r] and, while prefix + the held
    optimum is within the window plus `margin`, shrinks to the columns
    below the one the solve chose.  So a row none of whose smaller columns
    completes within the window costs one held solve, and the last row's
    held solves are one-row solves of its own cells.  The lowest column
    reached is taken with the held solution as its completion when the
    canonical total of the whole column tuple is within the window; when
    rounding at the window's edge puts it past, the held solves run again
    over the columns above it.  Forbidden cells come in type blocks, so a
    finite cell in the range always leaves a feasible solve.
    """
    below = int(np.count_nonzero(avail_idx < cols[r]))
    if below == 0:
        return None
    block = costs[r:, avail_idx]
    cells = block[0].copy()
    low, high, reached = 0, below, None
    while True:
        if np.isfinite(cells[low:high]).any():
            block[0] = np.inf
            block[0, low:high] = cells[low:high]
            held = linear_sum_assignment(block)[1]
            if prefix + _gather_total(block, held) <= window + margin:
                high, reached = int(held[0]), held
                continue
        if reached is None:
            return None
        trial = np.concatenate([cols[:r], avail_idx[reached]])
        if _gather_total(costs, trial) <= window:
            return trial
        low, high, reached = high + 1, below, None


def _scan_cols(costs: np.ndarray, window: float, cols: np.ndarray) -> np.ndarray:
    """Lexicographically smallest in-window column tuple, row by row,
    starting from `cols`, an assignment within the window.

    Row r keeps cols[r] unless a smaller available column has a completion
    within the window; the first such completion becomes `cols`
    (`_row_entry`), so `cols` never leaves the window.  Held solves decide
    every row that has a smaller available column; a row without one, or
    whose smaller available cells are all forbidden, costs no solve.  Their
    margin is 4e-12 of the sum of every row's largest finite |cell|, which
    bounds the magnitude of every sum a held solve is judged by: it covers
    rounding only, so a column the held solves skip has no completion
    within the window, and the one they reach is judged by its canonical
    total.
    """
    margin = 4e-12 * float(np.where(np.isfinite(costs), np.abs(costs), 0.0).max(axis=1).sum())
    available = np.ones(costs.shape[1], dtype=bool)
    prefix = 0.0
    for r in range(len(cols)):
        trial = _row_entry(costs, window, cols, r, np.flatnonzero(available), prefix, margin)
        if trial is not None:
            cols = trial
        available[cols[r]] = False
        prefix += costs[r, cols[r]]
    return cols


def _require_typed(detection_types: tuple[str | None, ...]) -> tuple[str, ...]:
    for i, object_type in enumerate(detection_types):
        if object_type is None:
            raise SceneValidationError(
                f"detections[{i}] has no type; per-type assignment requires every "
                "detection to carry one"
            )
    return detection_types  # type: ignore[return-value]


def _type_shortfall(
    detection_types: tuple[str, ...], candidate_types: tuple[str, ...]
) -> tuple[str, int, int] | None:
    """The first type, in sorted order, with more detections than candidate
    labels, as (type, detections, candidates); None when every type fits."""
    need = Counter(detection_types)
    have = Counter(candidate_types)
    for object_type in sorted(need):
        if need[object_type] > have[object_type]:
            return object_type, need[object_type], have[object_type]
    return None


def _as_result(matrix: CostMatrix, cols: np.ndarray, total: float) -> AssignmentResult:
    labels = matrix.candidates
    pairs = tuple(enumerate([labels[c] for c in cols.tolist()]))
    return AssignmentResult(pairs=pairs, total_cost=total, candidate_count=matrix.shape[1])


def solve(problem: AssignmentProblem) -> AssignmentResult:
    """Minimum-cost assignment of candidate labels to detections.

    With category separation, detections may only take labels of objects of
    the same type: the other cells are forbidden (infinite), and the same
    solve runs with the whole instance's tie window.
    """
    matrix = problem.matrix
    n, m = matrix.shape
    if n == 0:
        return AssignmentResult(pairs=(), total_cost=0.0, candidate_count=m)
    costs = matrix.total
    if problem.category_separated:
        det_types = _require_typed(matrix.detection_types)
        short = _type_shortfall(det_types, matrix.candidate_types)
        if short is not None:
            object_type, need, have = short
            raise InfeasibleAssignmentError(need, have, category=object_type)
        cross = np.array(det_types)[:, None] != np.array(matrix.candidate_types)[None, :]
        costs = np.where(cross, np.inf, costs)
    return _as_result(matrix, *_canonical_cols(costs))


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
    cols = perms[int(np.argmax(in_window))]
    return _as_result(matrix, cols, _gather_total(matrix.total, cols))


# ---------------------------------------------------------------------------
# Pipeline: prune sites around the camera, collect candidates, build costs.
# ---------------------------------------------------------------------------


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
    threshold keeps, and the candidate pool of the kept sites, both as rows
    of the layout's array view (`rows`, label order) and as the view of
    those rows (`pool`).  Build it once with `plan_stop`, then `prepare`
    each observation from that stop, or `prepare_rows` each detection set
    whose costs are already rows of a table (see `prepare_rows`).  Every
    plan, re-admitting ones included, comes from `_plan_at`."""

    layout: SceneLayout
    camera: CameraState
    threshold: float
    probabilities: SiteProbabilities
    kept_site_ids: frozenset[str]
    effective_threshold: float
    rows: np.ndarray
    pool: ObjectArrays

    @property
    def candidates(self) -> tuple[ObjectInstance, ...]:
        return self.pool.objects

    def _admit(
        self, detection_types: tuple[str | None, ...], category_separated: bool
    ) -> StopPlan:
        """This plan when its pool can take the detections; otherwise the
        plan that re-admits sites one at a time in probability order until
        the instance becomes feasible or every site is kept.  Its effective
        threshold is the cumulative probability actually covered.  The plan
        itself never changes."""
        if category_separated:
            _require_typed(detection_types)
        plan, depth = self, len(self.kept_site_ids) - 1
        while depth < len(self.probabilities.entries) and (
            _type_shortfall(detection_types, plan.pool.types) is not None
            if category_separated
            else len(detection_types) > len(plan.pool.types)
        ):
            depth += 1
            plan = _plan_at(self.layout, self.camera, self.threshold, self.probabilities, depth)
        return plan

    def _prepared(self, matrix: CostMatrix, category_separated: bool) -> PreparedProblem:
        return PreparedProblem(
            problem=AssignmentProblem(matrix=matrix, category_separated=category_separated),
            candidates=self.pool.objects,
            kept_site_ids=self.kept_site_ids,
            requested_threshold=self.threshold,
            effective_threshold=self.effective_threshold,
        )

    def prepare(
        self,
        observation: Observation,
        weights: CostWeights | None = None,
        category_separated: bool = False,
    ) -> PreparedProblem:
        """Cost the observation against the plan's candidates, re-admitting
        sites if the pool is too small for the detections.  The observation
        must come from the plan's camera.
        """
        if observation.camera != self.camera:
            raise SceneValidationError("the observation is from another camera than the plan's")
        if weights is None:
            weights = default_weights(self.layout.bounds)
        detections = object_arrays(observation.detections)
        plan = self._admit(detections.types, category_separated)
        matrix = score_arrays(detections, plan.pool, plan.layout.bounds, weights)
        return plan._prepared(matrix, category_separated)

    def prepare_rows(
        self, table: CostMatrix, rows: np.ndarray, category_separated: bool = False
    ) -> PreparedProblem:
        """Slice the costs of the detections at `rows` of `table`, in that
        order, against the plan's candidates, re-admitting sites as
        `prepare` does.

        `table` scores detections against every object of the plan's layout,
        its columns in label order (`score_arrays(..., layout_arrays(layout),
        ...)`), so each cell has the bytes `prepare` would score for the same
        detection, candidate and weights.
        """
        if table.shape[1] != len(self.layout.objects):
            raise SceneValidationError(
                f"cost table has {table.shape[1]} columns, expected one per object of "
                f"'{self.layout.name}' ({len(self.layout.objects)})"
            )
        detection_types = tuple([table.detection_types[i] for i in rows.tolist()])
        plan = self._admit(detection_types, category_separated)
        cols = plan.rows
        matrix = CostMatrix(
            candidates=tuple([table.candidates[j] for j in cols.tolist()]),
            candidate_types=plan.pool.types,
            detection_types=detection_types,
            total=table.total.take(rows, axis=0).take(cols, axis=1),  # [np.ix_(rows, cols)]
        )
        return plan._prepared(matrix, category_separated)


def _plan_at(
    layout: SceneLayout,
    camera: CameraState,
    threshold: float,
    probabilities: SiteProbabilities,
    depth: int,
) -> StopPlan:
    """The plan that keeps the containing site and the first `depth`
    ranked sites; its effective threshold is the last kept entry's
    cumulative probability, 0.0 when it keeps the containing site alone."""
    entries = probabilities.entries[:depth]
    kept = frozenset([probabilities.containing_site, *[e.site_id for e in entries]])
    rows = candidate_rows(layout, kept)
    return StopPlan(
        layout=layout,
        camera=camera,
        threshold=threshold,
        probabilities=probabilities,
        kept_site_ids=kept,
        effective_threshold=entries[-1].cumulative if entries else 0.0,
        rows=rows,
        pool=layout_arrays(layout).take(rows),
    )


def plan_stop(layout: SceneLayout, camera: CameraState, threshold: float = 1.0) -> StopPlan:
    """Rank the layout's sites around the camera, prune them at the
    threshold, and take the candidate pool of the kept sites."""
    probabilities = site_probabilities(camera, layout.sites)
    depth = len(prune_sites(probabilities, threshold)) - 1  # ranked entries kept
    return _plan_at(layout, camera, float(threshold), probabilities, depth)


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

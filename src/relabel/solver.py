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

from .costs import CostMatrix, CostWeights, build_cost_matrix, default_weights
from .partition import candidate_labels, prune_sites, site_probabilities
from .scene import Detection, ObjectInstance, Observation, SceneLayout, SceneValidationError

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


def _dual_potentials(costs: np.ndarray, sigma: np.ndarray) -> np.ndarray | None:
    """Greatest column potentials certifying the optimality of sigma.

    Fixpoint of v[j] <- min(v[j], min_i(costs[i, j] - costs[i, sigma_i]
    + v[sigma_i])) from v = 0.  At the fixpoint v <= 0, v = 0 on columns
    sigma leaves unused, and u[i] = costs[i, sigma_i] - v[sigma_i] makes
    every reduced cost nonnegative and every matched one exactly zero.
    Returns None if the iteration fails to settle (never seen in practice;
    the bound exists so the caller can fall back to the scan).
    """
    n, m = costs.shape
    rows = np.arange(n)
    base = costs[rows, sigma]
    v = np.zeros(m)
    for _ in range(m + 4):
        s = v[sigma] - base
        v_new = np.minimum(v, (costs + s[:, None]).min(axis=0))
        if np.array_equal(v_new, v):
            return v
        v = v_new
    return None


def _unique_within_window(costs: np.ndarray, sigma: np.ndarray, budget: float) -> bool:
    """True when sigma is provably the only assignment within the window.

    With potentials v and reduced costs rc, any other assignment T obeys
    val(T) - val(sigma) = sum rc(new edges) + sum over abandoned columns
    of -v, all terms nonnegative.  T decomposes against sigma into
    alternating cycles and abandoned-to-unused paths, which appear in the
    column digraph (edges sigma_i -> j per light cell (i, j)) as directed
    cycles and paths.  No light cycle and no light path from an abandoned
    column with -v within budget to an unused column means no such T.
    """
    n, m = costs.shape
    rows = np.arange(n)
    v = _dual_potentials(costs, sigma)
    if v is None:
        return False
    u = costs[rows, sigma] - v[sigma]
    rc = costs - u[:, None] - v[None, :]
    rc[rows, sigma] = np.inf
    light = rc <= budget
    if not light.any():
        return True
    li, heads = np.nonzero(light)
    tails = sigma[li]
    used = np.zeros(m, dtype=bool)
    used[sigma] = True

    # backward reachability from unused columns along light edges; a tie
    # path must additionally start at a matched column with -v in budget
    reach = ~used
    while True:
        grow = reach[heads] & ~reach[tails]
        if not grow.any():
            break
        reach[tails[grow]] = True
    if (used & reach & (-v <= budget)).any():
        return False

    # cycle test: repeatedly discard edges whose tail no other active
    # edge feeds; edges on or behind a cycle never become discardable
    active = np.ones(len(li), dtype=bool)
    while active.any():
        indeg = np.bincount(heads[active], minlength=m)
        removable = active & (indeg[tails] == 0)
        if not removable.any():
            return False
        active &= ~removable
    return True


def _canonical_cols(costs: np.ndarray) -> np.ndarray:
    """Columns of the canonical optimal assignment for a dense cost block.

    One solve gives an optimum; dual potentials then either certify that
    no other assignment lies within the tie window (the common case, in
    which that optimum is trivially canonical) or the lexicographically
    smallest in-window column tuple is rebuilt row by row.
    """
    n, m = costs.shape
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if n > m:
        raise InfeasibleAssignmentError(n, m)
    _, col_ind = linear_sum_assignment(costs)
    best_value = _gather_total(costs, col_ind)
    window = best_value + _tol(best_value)
    if _unique_within_window(costs, col_ind, window - best_value):
        return col_ind
    return _scan_cols(costs, window)


def _scan_cols(costs: np.ndarray, window: float) -> np.ndarray:
    """Lexicographically smallest in-window column tuple, row by row.

    The smallest available column whose best completion still reaches the
    window is fixed for each row in turn.  One solve of the remaining rows
    over every available column screens all columns at once; only a
    screened column that solve uses pays for an exact confirming solve.
    """
    n, m = costs.shape
    available = np.ones(m, dtype=bool)
    chosen = np.empty(n, dtype=np.intp)
    prefix = 0.0
    for r in range(n):
        avail_idx = np.flatnonzero(available)
        row = costs[r, avail_idx]
        if r + 1 < n:
            sub_all = costs[r + 1 :, avail_idx]
            ri, ci = linear_sum_assignment(sub_all)
            rest_value = float(sub_all[ri, ci].sum())
            user = np.full(avail_idx.size, -1, dtype=np.intp)
            user[ci] = ri
        else:
            sub_all = user = None
            rest_value = 0.0
        # exact for columns the rest solution leaves unused (dropping an
        # unused column cannot change the sub-problem optimum), a lower
        # bound for the rest
        bound = prefix + row + rest_value
        cand = np.flatnonzero(bound <= window)

        def exact_completion(pos: int) -> float:
            if user is None or user[pos] < 0:
                return prefix + row[pos] + rest_value
            sub = np.delete(sub_all, pos, axis=1)
            si, sj = linear_sum_assignment(sub)
            return prefix + row[pos] + float(sub[si, sj].sum())

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
        prefix += costs[r, pick]
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
        sub_cols = _canonical_cols(matrix.total[np.ix_(rows, cols)])
        for row, sub_col in zip(rows, sub_cols):
            chosen[row] = cols[sub_col]
    return chosen


def _as_result(matrix: CostMatrix, cols: np.ndarray) -> AssignmentResult:
    total = _gather_total(matrix.total, cols)
    pairs = tuple((i, matrix.candidates[int(c)]) for i, c in enumerate(cols))
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
        cols = _typed_cols(matrix)
    else:
        cols = _canonical_cols(matrix.total)
    return _as_result(matrix, cols)


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


def prepare_problem(
    layout: SceneLayout,
    observation: Observation,
    threshold: float = 1.0,
    weights: CostWeights | None = None,
    category_separated: bool = False,
) -> PreparedProblem:
    """Prune sites around the camera and build the cost matrix.

    If the pruned candidate pool is too small for the detections, sites are
    re-admitted one at a time in probability order until the instance
    becomes feasible; the effective threshold reported is the cumulative
    probability actually covered.  A pool that stays too small even with
    every site kept is returned as-is and `solve` raises.
    """
    if weights is None:
        weights = default_weights(layout.bounds)
    if category_separated:
        _require_typed(tuple(d.object_type for d in observation.detections))
    probabilities = site_probabilities(observation.camera, layout.sites)
    kept = prune_sites(probabilities, threshold)
    depth = len(kept) - 1  # how many ranked entries are included
    effective = probabilities.entries[depth - 1].cumulative if depth else 0.0
    candidates = candidate_labels(layout, kept)
    while (
        not _is_feasible(observation.detections, candidates, category_separated)
        and depth < len(probabilities.entries)
    ):
        entry = probabilities.entries[depth]
        depth += 1
        kept.add(entry.site_id)
        effective = entry.cumulative
        candidates = candidate_labels(layout, kept)
    matrix = build_cost_matrix(observation.detections, candidates, layout.bounds, weights)
    return PreparedProblem(
        problem=AssignmentProblem(matrix=matrix, category_separated=category_separated),
        candidates=candidates,
        kept_site_ids=frozenset(kept),
        requested_threshold=float(threshold),
        effective_threshold=effective,
    )


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

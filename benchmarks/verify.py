"""Output checks, run outside the timed sections.

Each solved stop is checked independently of the solver under test:

* the pairs are one-to-one: detections 0..n-1 once each, distinct labels,
  every label from the stop's candidate pool;
* the cost of the chosen cells equals the reported `total_cost`, and both
  equal scipy's assignment optimum within the solver's 1e-9 relative
  window;
* on instances within the oracle's bounds (N <= 8, M <= 10) the pairs
  equal `brute_force_solve`'s canonical pairs exactly.

The workloads also hash their outputs on the default seed's inputs and
compare them with the hashes pinned here, which holds a change to the
same rows and the same canonical pairs as the code the baseline measured.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment

REL_TOL = 1e-9
ORACLE_MAX_N = 8
ORACLE_MAX_M = 10

# sha256 of the default seed's outputs on the baseline code
PINNED_HASHES = {
    "noise-sweep": "43989f963fde236bd786594d09dcb122a78feec13ebe09788af95c57bd820060",
    "solve-replay": "7684eb84be3f71270f765aa59267fd421bd2e3a9fef3a818444348bf91ddbfea",
}


def check_result(matrix, result, brute_force_solve, problem_type) -> str | None:
    """The first failed check's name, or None when the result passes."""
    n, m = matrix.shape
    pairs = result.pairs
    if [i for i, _ in pairs] != list(range(n)):
        return "detections not covered once each"
    labels = [label for _, label in pairs]
    if len(set(labels)) != n:
        return "label used twice"
    column = {label: j for j, label in enumerate(matrix.candidates)}
    if any(label not in column for label in labels):
        return "label outside the candidate pool"
    if n == 0:
        return None
    costs = matrix.total
    chosen = float(costs[np.arange(n), [column[label] for label in labels]].sum())
    rows, cols = linear_sum_assignment(costs)
    best = float(costs[rows, cols].sum())
    tol = REL_TOL * max(1.0, abs(best))
    if abs(chosen - result.total_cost) > tol:
        return "total_cost differs from the chosen cells"
    if abs(chosen - best) > tol:
        return "total_cost is not the optimum"
    if n <= ORACLE_MAX_N and m <= ORACLE_MAX_M:
        if brute_force_solve(problem_type(matrix=matrix)).pairs != pairs:
            return "pairs differ from the brute-force oracle"
    return None


class Checker:
    """Counts checked and failed stops, with the reasons for failures."""

    def __init__(self, solver_module) -> None:
        self._oracle = solver_module.brute_force_solve
        self._problem = solver_module.AssignmentProblem
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def check(self, matrix, result) -> None:
        self.attempted += 1
        reason = check_result(matrix, result, self._oracle, self._problem)
        if reason is not None:
            self.fail(reason)

    def check_same(self, result, reference) -> None:
        """Check a repeated solve against the checked result of its first solve."""
        self.attempted += 1
        if (result.pairs, result.total_cost) != (reference.pairs, reference.total_cost):
            self.fail("a repeated solve changed its result")

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1

    def expect_hash(self, workload: str, digest: str) -> None:
        """Count a mismatch with the pinned hash as one failed check."""
        if digest != PINNED_HASHES[workload]:
            self.fail(f"{workload} output hash {digest} differs from the pinned hash")


def csv_digest(texts: list[str], timing_columns: tuple[str, ...]) -> str:
    """sha256 of CSV documents with the wall-clock columns removed."""
    h = hashlib.sha256()
    for text in texts:
        rows = list(csv.reader(io.StringIO(text)))
        keep = [i for i, name in enumerate(rows[0]) if name not in timing_columns]
        for row in rows:
            h.update((",".join(row[i] for i in keep) + "\n").encode())
    return h.hexdigest()


def pairs_digest(results) -> str:
    """sha256 of every result's canonical pairs, in instance order."""
    doc = [[[i, label] for i, label in r.pairs] for r in results]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()

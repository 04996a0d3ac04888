"""Known defects, kept as code: each must still fail the tests named for it.

Every mutant names a file under `src/relabel/`, a snippet that occurs
exactly once in it, the snippet's replacement, and the test nodes that
must catch it.  The runner first runs every named node on an unmutated
copy of `src/`, which must pass.  Then, per mutant, it copies `src/` to a
temporary directory, applies the mutant, and runs its nodes there; every
node must fail (a test file, by one of its tests).  A snippet that no
longer occurs exactly once fails the runner by name, so the list cannot
rot silently.  Pytest does not collect this file; run it from the
repository root:

    python -m tests.mutants

A mutant that survives means a test is missing: add the test, not an
exception here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "tests/test_solver.py"
PROBE = f"{SOLVER}::TestLexicographicProbe::test_no_permuted_optimum_is_smaller"
FEASIBILITY = f"{SOLVER}::TestFeasibilityRule"
NOISE = "tests/test_noise.py"
DIGESTS = "tests/test_sweep_digests.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/relabel/
    snippet: str
    replacement: str
    nodes: tuple[str, ...]


MUTANTS = (
    Mutant(
        "twins compared by value, so -0.0 joins 0.0",
        "solver.py",
        "np.ascontiguousarray(costs.T)",
        "np.ascontiguousarray(costs.T + 0.0)",
        (
            f"{SOLVER}::TestDuplicateGroups::test_column_groups_are_byte_equal",
            f"{SOLVER}::TestDuplicateGroups::test_twins_match_column_groups",
        ),
    ),
    Mutant(
        "each 0.0 cell's column compared with its row's sigma column",
        "solver.py",
        "    group = np.unique(columns, return_inverse=True)[1]\n"
        "    return group[sigma][:, None] == group\n",
        "    bits, rows = costs.view(np.uint64), np.arange(len(sigma))\n"
        "    ri, cj = np.nonzero(costs == costs[rows, sigma][:, None])\n"
        "    held = np.zeros(costs.shape, dtype=bool)\n"
        "    held[ri, cj] = (bits[:, cj] == bits[:, sigma[ri]]).all(axis=0)\n"
        "    return held\n",
        (f"{SOLVER}::TestDuplicateGroups::test_all_twin_table_stays_near_its_size",),
    ),
    Mutant(
        "a certified twin stop keeps sigma's columns",
        "solver.py",
        "return (held.cumsum(axis=1) < rank[:, None]).sum(axis=1)",
        "return sigma",
        (
            f"{SOLVER}::TestDuplicateGroups::test_column_groups_are_byte_equal",
            f"{SOLVER}::TestDuplicateGroups::test_matches_oracle",
        ),
    ),
    Mutant(
        "the certificate ignores its re-solve",
        "solver.py",
        "if not (cols == sigma).all() and rest[rows, cols].sum() < rest[rows, sigma].sum():",
        "if False:",
        (
            f"{SOLVER}::TestNearWindow::test_swap_in_decline_band_goes_to_scan",
            f"{SOLVER}::TestCertificates::test_certificate_is_sound",
            f"{SOLVER}::TestTieHeavy::test_integer_costs",
        ),
    ),
    Mutant(
        "the row scan takes the first column its held solves reach",
        "solver.py",
        "high, reached = int(held[0]), held\n                continue\n",
        "high, reached = int(held[0]), held\n",
        (
            "tests/test_murty_oracle.py",
            f"{SOLVER}::TestRowScan::test_result_is_independent_of_the_start",
            PROBE,
        ),
    ),
    Mutant(
        "sigma taken as canonical without the certificate",
        "solver.py",
        "cols = _certified_cols(costs, sigma, base, 2 * (window - best_value))",
        "cols = sigma",
        (PROBE, f"{SOLVER}::TestTieHeavy::test_integer_costs"),
    ),
    Mutant(
        "the untyped rule admits one detection too many",
        "solver.py",
        "return InfeasibleAssignmentError(n, m) if n > m else None",
        "return InfeasibleAssignmentError(n, m) if n > m + 1 else None",
        (f"{SOLVER}::TestSolveBasics::test_more_detections_than_candidates", FEASIBILITY),
    ),
    Mutant(
        "a plan re-admits sites by the untyped rule under category separation",
        "solver.py",
        "_shortfall(detection_types, plan.pool.types, category_separated) is not None",
        "_shortfall(detection_types, plan.pool.types, False) is not None",
        (FEASIBILITY,),
    ),
    Mutant(
        "float sums compensated, as the built-in sum is from Python 3.12",
        "partition.py",
        "return functools.reduce(operator.add, values, 0.0)",
        "return math.fsum(values)",
        ("tests/test_partition.py::TestProbabilities::test_normalising_total_sums_left_to_right",),
    ),
    Mutant(
        "sites of equal probability ranked in descending id order",
        "partition.py",
        "key=lambda t: (-t[2], t[0].id))",
        "key=lambda t: (t[2], t[0].id), reverse=True)",
        ("tests/test_partition.py::TestProbabilities::test_probability_invariants",),
    ),
    Mutant(
        "each entry's cumulative lags one entry behind",
        "partition.py",
        "cumulative += prob",
        "cumulative += ranked[-1].probability if ranked else 0.0",
        ("tests/test_partition.py::TestProbabilities::test_probability_invariants",),
    ),
    Mutant(
        "the bearing mirrored about the camera's axis",
        "scene.py",
        "bearing = math.degrees(math.atan2(dx, dz))",
        "bearing = math.degrees(math.atan2(-dx, dz))",
        ("tests/test_scene.py::TestVisibility::test_bearing_convention",),
    ),
    Mutant(
        "a cost table whose sums overflow is accepted",
        "costs.py",
        "if not math.isfinite(float(np.abs(total).max(initial=0.0)) * 2.0 * n):",
        "if False:",
        ("tests/test_costs.py::TestCostMatrix::test_overflowing_sums_rejected_by_name",),
    ),
    Mutant(
        "the report reads c_t at [j, i]",
        "cli.py",
        "cells = [float(term[i, column[label]]) for term in (*terms, matrix.total)]",
        "cells = [float(term[i, column[label]]) for term in (*terms, matrix.total)]\n"
        "        cells[0] = float(terms[0][column[label], i])",
        ("tests/test_cli.py::TestAssign::test_report_cells_match_scalar_costs",),
    ),
    Mutant(
        "perturbation draws taken in file order, not label order",
        "noise.py",
        "view = layout_arrays(layout)",
        "from .scene import object_arrays\n    view = object_arrays(layout.objects)",
        (f"{NOISE}::TestMatchesThePerObjectLoop::test_archetypes", DIGESTS),
    ),
    Mutant(
        "grid rows and columns swapped",
        "scenegen.py",
        "row, col = np.divmod(",
        "col, row = np.divmod(",
        ("tests/test_scenegen.py::TestPositionsMatchTheLoops", DIGESTS),
    ),
    Mutant(
        "the yaw offset clamp removed",
        "noise.py",
        "yaw = view.yaw + np.clip(dr, -360.0, 360.0)",
        "yaw = view.yaw + dr",
        (f"{NOISE}::TestPerturb::test_yaw_offset_beyond_a_turn_saturates",),
    ),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, nodes: tuple[str, ...]) -> tuple[int, list[str]]:
    """Exit status of pytest on `nodes`, importing the package from `src`,
    and the ids it reports failed or in error."""
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = [sys.executable, "-c", "import relabel; print(relabel.__file__)"]
    imported = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(imported.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"the tests import relabel from {imported.stdout.strip()}, not {src}")
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *nodes]
    run = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    failed = [line.split(" ")[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, failed


def _caught(node: str, failed: list[str]) -> bool:
    """Whether a failed id is `node`, a test or case under it, or the file
    of `node` when it failed to import."""
    return any(
        f == node or f.startswith((f"{node}::", f"{node}[")) or node.startswith(f"{f}::")
        for f in failed
    )


def main() -> int:
    problems = []
    for mutant in MUTANTS:
        count = (ROOT / "src" / "relabel" / mutant.file).read_text().count(mutant.snippet)
        if count != 1:
            problems.append(f"{mutant.name}: its snippet occurs {count} times in {mutant.file}")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        nodes = tuple(dict.fromkeys(node for mutant in MUTANTS for node in mutant.nodes))
        if _pytest(_copy_src(Path(tmp)), nodes)[0] != 0:
            print("the mutants' tests fail on the unmutated source")
            return 1
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            target = src / "relabel" / mutant.file
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
            failed = _pytest(src, mutant.nodes)[1]
        missed = [node for node in mutant.nodes if not _caught(node, failed)]
        print(f"{'SURVIVED' if missed else 'caught'}: {mutant.name}")
        for node in missed:
            print(f"    passed: {node}")
        if missed:
            problems.append(mutant.name)
    if problems:
        print(f"{len(problems)} mutant(s) passed a test named for them; add a test that fails")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

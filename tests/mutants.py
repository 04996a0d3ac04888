"""Known defects, kept as code: each must still fail the tests named for it.

Every mutant names a file under `src/relabel/`, a snippet that occurs
exactly once in it, the snippet's replacement, and the test nodes that
must catch it.  The runner first runs every named node on an unmutated
copy of `src/`, which must pass.  Then, per mutant, it copies `src/` to a
temporary directory, applies the mutant, and runs its nodes there; pytest
must exit nonzero.  A snippet that no longer occurs exactly once fails the
runner by name, so the list cannot rot silently.  Pytest does not collect
this file; run it from the repository root:

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
        ),
    ),
    Mutant(
        "float sums compensated, as the built-in sum is from Python 3.12",
        "partition.py",
        "return functools.reduce(operator.add, values, 0.0)",
        "return math.fsum(values)",
        ("tests/test_partition.py::TestProbabilities::test_normalising_total_sums_left_to_right",),
    ),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, nodes: tuple[str, ...]) -> int:
    """Exit status of pytest on `nodes`, importing the package from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = [sys.executable, "-c", "import relabel; print(relabel.__file__)"]
    imported = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(imported.stdout.strip()).is_relative_to(src):
        raise SystemExit(f"the tests import relabel from {imported.stdout.strip()}, not {src}")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL).returncode


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
        if _pytest(_copy_src(Path(tmp)), nodes) != 0:
            print("the mutants' tests fail on the unmutated source")
            return 1
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            target = src / "relabel" / mutant.file
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
            caught = _pytest(src, mutant.nodes) != 0
        print(f"{'caught' if caught else 'SURVIVED'}: {mutant.name}")
        if not caught:
            problems.append(mutant.name)
    if problems:
        print(f"{len(problems)} mutant(s) survived; add a test that catches each")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.locate_package()

import verify  # noqa: E402
import workloads  # noqa: E402
from relabel import solver  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "0", "--seconds", "0.05"]


def tiny_run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    assert run.main(["--workload", workload, *TINY, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def swapped(result):
    """The result with the labels of detections 0 and 1 exchanged."""
    pairs = list(result.pairs)
    (i, a), (j, b) = pairs[0], pairs[1]
    pairs[0], pairs[1] = (i, b), (j, a)
    return dataclasses.replace(result, pairs=tuple(pairs))


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    report, out = tiny_run(capsys, workload, trace)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in report["metrics"].items()
    }
    table = out.splitlines()
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in table)
    assert any(line.startswith("failed_frac") for line in table)
    if not trace:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_swapped_labels_fail_the_checks():
    layout = workloads.scenegen.generate_scene("H1", 0)
    camera = workloads.path.camera_stops(workloads.scenegen.patrol_route(layout))[0]
    observation = workloads.scene.synthesize_observation(layout, camera)
    problem = solver.prepare_problem(layout, observation).problem
    result = solver.solve(problem)
    checker = verify.Checker(solver)
    checker.check(problem.matrix, result)
    assert checker.failed == 0
    checker.check(problem.matrix, swapped(result))
    assert checker.failed == 1


def test_swapped_tie_fails_against_the_oracle():
    # two identical candidates: the swap costs the same, so only the
    # brute-force oracle's canonical pairs can catch it
    layout = workloads.twin_layout(workloads.scenegen.generate_scene("L1", 0), pairing=0)
    cameras = workloads.path.camera_stops(workloads.scenegen.patrol_route(layout))
    for camera in cameras:
        observation = workloads.scene.synthesize_observation(layout, camera)
        problem = solver.prepare_problem(layout, observation, threshold=0.0).problem
        n, m = problem.matrix.shape
        if 2 <= n <= verify.ORACLE_MAX_N and m <= verify.ORACLE_MAX_M:
            break
    else:
        pytest.fail("no stop within the oracle's bounds")
    result = solver.solve(problem)
    checker = verify.Checker(solver)
    checker.check(problem.matrix, swapped(result))
    assert checker.failed == 1


def test_swapping_in_a_run_drives_failed_frac_above_zero(capsys, monkeypatch):
    real_solve = solver.solve

    def solve_and_swap(problem):
        result = real_solve(problem)
        return swapped(result) if len(result.pairs) >= 2 else result

    monkeypatch.setattr(solver, "solve", solve_and_swap)
    report, out = tiny_run(capsys, "solve-replay", 0)
    assert not report["correct"]
    assert report["failed"] > 0
    failed_frac = next(line for line in out.splitlines() if line.startswith("failed_frac"))
    assert float(failed_frac.split()[1]) > 0


def test_children_plus_self_reproduce_each_stop_span(capsys):
    report, _ = tiny_run(capsys, "noise-sweep", 1)
    lines = (run.OUT_DIR / "spans-noise-sweep-seed0.jsonl").read_text().splitlines()
    spans = {s[0]: s for s in map(json.loads, lines)}
    children: dict[int, list] = {}
    for s in spans.values():
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    stops = [s for s in spans.values() if s[1] == workloads.NoiseSweep.stop_span]
    assert stops
    for sid, _, start, end, _, stop, own, _ in stops:
        kids = children.get(sid, [])
        assert kids
        assert own + sum(k[3] - k[2] for k in kids) == end - start
        assert all(k[5] == stop for k in kids)


def test_layer_expectations(capsys):
    replay, _ = tiny_run(capsys, "solve-replay", 1)
    metric = {name: m["value"] for name, m in replay["metrics"].items()}
    assert metric["partition.gather_ms"] == 0 and metric["costs.build_ms"] == 0
    assert 0 < metric["solver.certified_share"] < 1
    sweep, _ = tiny_run(capsys, "noise-sweep", 1)
    metric = {name: m["value"] for name, m in sweep["metrics"].items()}
    assert metric["solver.solve_ms"] < 0.25 * metric["harness.stop_ms"]
    assert metric["scene.visibility_passes_per_stop"] == 2.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks")
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "noise-sweep", *TINY, "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

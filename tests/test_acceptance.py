"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Each test pins its tolerance and asserts its runtime budget.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time

import numpy as np
import pytest

from relabel.cli import main as cli_main
from relabel.costs import (
    CostMatrix,
    CostWeights,
    build_cost_matrix,
    default_weights,
    dimension_cost,
    rotation_cost,
    translation_cost,
)
from relabel.harness import (
    DEFAULT_THRESHOLDS,
    SweepConfig,
    aggregate,
    run_noise_sweep,
    run_threshold_sweep,
)
from relabel.partition import VoronoiSite, prune_sites, site_probabilities
from relabel.scene import BoxDims, CameraState, PlanarPose, SceneBounds
from relabel.scenegen import ARCHETYPES, generate_scene, patrol_route
from relabel.solver import AssignmentProblem, brute_force_solve, solve

from .conftest import make_detection, make_object


@contextlib.contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_reference_pruning_sets():
    """Nine ranked sites with known probabilities prune to exact id sets."""
    with criterion(1, "reference pruning sets", budget_s=1.0):
        probabilities = {
            "S6": 0.214, "S3": 0.150, "S10": 0.129, "S9": 0.110, "S2": 0.109,
            "S4": 0.080, "S7": 0.076, "S1": 0.067, "S8": 0.065,
        }
        # reciprocal-distance weighting: distance 1/p reproduces probability p
        sites = [VoronoiSite(id="S5", center=(0.0, 0.0))]
        angle = 0.0
        for sid, p in probabilities.items():
            d = 1.0 / p
            sites.append(VoronoiSite(id=sid, center=(d * math.cos(angle), d * math.sin(angle))))
            angle += 0.61
        ranked = site_probabilities((0.0, 0.0), tuple(sites))
        assert ranked.containing_site == "S5"
        for entry in ranked.entries:
            assert entry.probability == pytest.approx(probabilities[entry.site_id], abs=5e-4)
        assert prune_sites(ranked, 0.0) == {"S5"}
        for t in (0.50, 0.55, 0.60):
            assert prune_sites(ranked, t) == {"S5", "S6", "S3", "S10", "S9"}


def test_criterion_2_cost_formula_units():
    """Pinned values of the three cost components and the default weights."""
    with criterion(2, "cost formula units", budget_s=1.0):
        tol = 1e-9
        assert abs(rotation_cost(0.0, 180.0) - 1.0) < tol
        assert abs(rotation_cost(0.0, 90.0) - rotation_cost(0.0, 270.0)) < tol
        assert abs(rotation_cost(45.0, 45.0)) < tol

        b = SceneBounds(width=5.0, depth=5.0)
        assert abs(translation_cost(PlanarPose(0, 0, 0), PlanarPose(5, 5, 0), b) - 1.0) < tol

        rng = np.random.default_rng(0)
        for _ in range(200):
            d1 = BoxDims(*rng.uniform(0.2, 3.0, size=3))
            d2 = BoxDims(*rng.uniform(0.2, 3.0, size=3))
            assert dimension_cost(d1, d2) >= 1.0 - tol
        assert abs(dimension_cost(BoxDims(1, 2, 3), BoxDims(3, 2, 1)) - 1.0) < tol
        assert abs(dimension_cost(BoxDims(0.4, 1.0, 2.5), BoxDims(1.0, 2.5, 0.4)) - 1.0) < tol

        assert abs(default_weights(SceneBounds(width=7.0, depth=7.0)).w_t - 2.52) < tol
        assert default_weights(SceneBounds(width=7.0, depth=7.0)).w_r == 1.0


def test_criterion_3_solver_matches_oracle():
    """solve and brute_force_solve agree exactly on 1000 random instances."""
    with criterion(3, "solver oracle equivalence", budget_s=30.0):
        rng = np.random.default_rng(2024)
        bounds = SceneBounds(width=10.0, depth=10.0)
        weights = CostWeights(w_t=2.52, w_r=1.0)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 8))   # N <= 7
            m = int(rng.integers(n, 10))  # M <= 9
            if rng.random() < 0.5:
                # raw random costs, with occasional exact duplicates to
                # force tie handling through the canonical rule
                totals = rng.uniform(0.0, 10.0, size=(n, m))
                if n >= 2 and rng.random() < 0.3:
                    totals[rng.integers(0, n)] = totals[0]
                matrix = CostMatrix(
                    candidates=tuple(f"o-{j:02d}" for j in range(m)),
                    candidate_types=("chair",) * m,
                    detection_types=(None,) * n,
                    total=totals,
                )
            else:
                # geometric instances through the real cost pipeline
                detections = tuple(
                    make_detection(
                        float(rng.uniform(0, 10)), float(rng.uniform(0, 10)),
                        float(rng.uniform(0, 360)),
                        dims=tuple(rng.uniform(0.3, 2.0, size=3)),
                    )
                    for _ in range(n)
                )
                candidates = tuple(
                    make_object(
                        f"o-{j:02d}", float(rng.uniform(0, 10)), float(rng.uniform(0, 10)),
                        float(rng.uniform(0, 360)),
                        dims=tuple(rng.uniform(0.3, 2.0, size=3)),
                    )
                    for j in range(m)
                )
                matrix = build_cost_matrix(detections, candidates, bounds, weights)
            problem = AssignmentProblem(matrix)
            fast = solve(problem)
            slow = brute_force_solve(problem)
            assert fast.total_cost == slow.total_cost  # exact, not approximate
            assert fast.pairs == slow.pairs
            for result in (fast, slow):
                assert [i for i, _ in result.pairs] == list(range(n))
                labels = [lab for _, lab in result.pairs]
                assert len(set(labels)) == len(labels)
            checked += 1


def test_criterion_4_zero_noise_is_exact():
    """With no perturbation, every scored stop of every archetype is 1.0."""
    with criterion(4, "zero-noise correctness", budget_s=60.0):
        config = SweepConfig(t_list=(0.0,), r_list=(0.0,), seeds=1, master_seed=0)
        for name in sorted(ARCHETYPES):
            layout = generate_scene(name, seed=0)
            result = run_noise_sweep(layout, patrol_route(layout), config)
            scored = result.scored()
            assert scored, f"{name}: no stop saw any object"
            for row in scored:
                assert row.accuracy == 1.0, f"{name} stop {row.stop}: {row.accuracy}"


def test_criterion_5_noise_monotonicity_and_plateau():
    """Accuracy drops by >= 0.2 from light to room-scale noise, then levels."""
    with criterion(5, "noise monotonicity and plateau", budget_s=600.0):
        for name in sorted(ARCHETYPES):
            arch = ARCHETYPES[name]
            root = math.sqrt(arch.area)
            config = SweepConfig(
                t_list=(0.1, root - 1.0, root), r_list=(0.0,), seeds=300,
                master_seed=11,
            )
            layout = generate_scene(name, seed=0)
            result = run_noise_sweep(layout, patrol_route(layout), config)
            by_a = {row.a: row.mean_accuracy for row in aggregate(result, "translation")}
            drop = by_a[0.1] - by_a[root]
            assert drop >= 0.2, f"{name}: drop {drop:.3f} < 0.2"
            diff = abs(by_a[root - 1.0] - by_a[root])
            assert diff <= 0.05, f"{name}: plateau step moved {diff:.3f}"


def test_criterion_6_sparse_beats_clustered():
    """The sparse-grid archetype outscores the clustered one under matched noise."""
    with criterion(6, "sparse beats clustered", budget_s=300.0):
        config = SweepConfig(t_list=(0.3,), r_list=(15.0,), seeds=30, master_seed=23)
        means = {}
        for name in ("L1", "L2"):
            layout = generate_scene(name, seed=0)
            result = run_noise_sweep(layout, patrol_route(layout), config)
            rows = aggregate(result, "translation")
            assert len(rows) == 1
            means[name] = rows[0].mean_accuracy
        assert means["L2"] >= means["L1"], f"L2 {means['L2']:.3f} < L1 {means['L1']:.3f}"


def test_criterion_7_threshold_tradeoff():
    """Looser pruning: more candidates, a larger assignment, no worse accuracy."""
    with criterion(7, "threshold trade-off", budget_s=300.0):
        layout = generate_scene("H1", seed=0)
        result = run_threshold_sweep(
            layout,
            patrol_route(layout),
            SweepConfig(
                t_list=(0.1,), r_list=(15.0,), master_seed=0,
                weights=CostWeights(w_t=2.52, w_r=1.0),
            ),
            DEFAULT_THRESHOLDS,
        )
        by_stop: dict[int, list] = {}
        for row in result.rows:
            by_stop.setdefault(row.stop, []).append(row)
        for stop, rows in by_stop.items():
            rows.sort(key=lambda r: r.threshold)
            for prev, cur in zip(rows, rows[1:]):
                assert cur.m >= prev.m, f"stop {stop}: pool shrank {prev.m}->{cur.m}"
        summary = {s.threshold: s for s in aggregate(result, "threshold")}
        # Pruning shrinks the assignment (n x m variables), not solve time:
        # at H1 sizes LSA is under 10 % of a solve, and the certificate's
        # fixpoint passes (7-9 on contested stops at 0.25, 1-3 at 1.0) set it.
        cells: dict[float, list[int]] = {}
        for row in result.scored():
            cells.setdefault(row.threshold, []).append(row.n * row.m)
        mean_cells = {t: sum(v) / len(v) for t, v in cells.items()}
        assert mean_cells[1.0] > mean_cells[0.25], mean_cells
        for s in summary.values():
            assert math.isfinite(s.mean_solve_ms) and s.mean_solve_ms > 0, s
        assert summary[1.0].mean_accuracy >= summary[0.05].mean_accuracy


def test_criterion_8_sweep_determinism(tmp_path):
    """Re-running a sweep reproduces every CSV byte outside timing columns."""
    with criterion(8, "byte determinism", budget_s=120.0):
        def strip_timing(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            header = rows[0]
            keep = [i for i, c in enumerate(header) if c not in ("solve_ms", "mean_solve_ms")]
            return "\n".join(",".join(r[i] for i in keep) for r in rows)

        outputs = {}
        for run_id in ("a", "b"):
            noise_dir = tmp_path / f"noise-{run_id}"
            code = cli_main(
                [
                    "sweep", "--archetype", "M2", "--seed", "5", "--mode", "noise",
                    "--t-list", "0.1,0.5,2", "--r-list", "0,30", "--seeds", "3",
                    "--out-dir", str(noise_dir),
                ]
            )
            assert code == 0
            threshold_dir = tmp_path / f"threshold-{run_id}"
            code = cli_main(
                [
                    "sweep", "--archetype", "M2", "--seed", "5", "--mode", "threshold",
                    "--thresholds", "0,0.5,1",
                    "--out-dir", str(threshold_dir),
                ]
            )
            assert code == 0
            outputs[run_id] = [
                strip_timing(noise_dir / "rows.csv"),
                (noise_dir / "translation_summary.csv").read_bytes(),
                (noise_dir / "rotation_summary.csv").read_bytes(),
                strip_timing(threshold_dir / "rows.csv"),
                strip_timing(threshold_dir / "threshold_summary.csv"),
            ]
        assert outputs["a"] == outputs["b"]

"""Pinned digests of the solver's outputs and of the cost kernel's tables.

The sweep digests (test_sweep_digests.py) read no cost and hold no exact
tie that one ulp could flip, so two kinds of change pass them unseen:

- a solver change that moves a pair or a total's last bit on a tie-heavy
  or near-window table: pinned here as the sha256 of `solve`'s pairs and
  `repr(total_cost)` over three seeded sets, with the count of
  near-window tables on which `solve` and `brute_force_solve` disagree;
- a cost-kernel change that moves a cell by one ulp: pinned here as the
  sha256 of `score_arrays`' `total` and then `cost_terms`' `c_t`, `c_r` and
  `c_d` bytes for one perturbed-against-initial table per archetype.

Only a change that means to change these outputs regenerates them, and
says why:

    PYTHONPATH=src python -m tests.test_output_pins

A libm difference in `sin`/`hypot` across platforms would also move the
kernel and twin digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from relabel.costs import cost_terms, default_weights, score_arrays
from relabel.noise import NoiseModel, derive_seed, perturb_layout
from relabel.path import camera_stops
from relabel.scene import SceneLayout, layout_arrays, synthesize_observation
from relabel.scenegen import ARCHETYPES, generate_scene, patrol_route
from relabel.solver import AssignmentProblem, brute_force_solve, prepare_problem, solve

from .test_solver import matrix_from

PINS = Path(__file__).with_name("output_pins.json")
NEAR_WINDOW_TABLES = 5000
KERNEL_NOISE = NoiseModel(t_sd=0.3, r_sd=30.0)


def near_window_problems() -> Iterator[AssignmentProblem]:
    """The first tables of the seed-2026 near-window set: n 2-4, m n..n+1,
    cells {0, 3, 100, 200} + {0, 3e-9, 2e-8}, where a second assignment
    often sits on the tie window's edge."""
    rng = np.random.default_rng(2026)
    for _ in range(NEAR_WINDOW_TABLES):
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(0, 2))
        totals = rng.choice([0.0, 3.0, 100.0, 200.0], size=(n, m)) + rng.choice(
            [0.0, 3e-9, 2e-8], size=(n, m)
        )
        yield AssignmentProblem(matrix_from(totals))


def typed_tie_problems() -> Iterator[AssignmentProblem]:
    """Integer cells in {0..3} under category separation: exact ties within
    each type, forbidden blocks across types; a third with duplicated
    columns, as identical objects give."""
    rng = np.random.default_rng(2027)
    for trial in range(2000):
        n = int(rng.integers(1, 8))
        m = n + int(rng.integers(0, 3))
        totals = rng.integers(0, 4, size=(n, m)).astype(float)
        if trial % 3 == 0:
            totals = totals[:, rng.integers(0, m, size=m)]
        kinds = ("chair", "table", "box")[: int(rng.integers(2, 4))]
        detections = rng.choice(kinds, size=n)
        candidates = rng.choice(kinds, size=m)
        candidates[rng.permutation(m)[:n]] = detections
        yield AssignmentProblem(
            matrix_from(totals, tuple(detections.tolist()), tuple(candidates.tolist())),
            category_separated=True,
        )


def twin_layout(layout: SceneLayout) -> SceneLayout:
    """The layout with same-type objects paired onto identical poses, in
    label order: every pair is an exact tie."""
    objects = list(layout.objects)
    by_type: dict[str, list[int]] = {}
    for i in sorted(range(len(objects)), key=lambda i: objects[i].label):
        by_type.setdefault(objects[i].object_type, []).append(i)
    for members in by_type.values():
        for a, b in zip(members[0::2], members[1::2]):
            objects[b] = dataclasses.replace(objects[b], pose=objects[a].pose)
    return dataclasses.replace(layout, objects=tuple(objects))


def twin_problems() -> Iterator[AssignmentProblem]:
    """Every patrol stop of each archetype's twin layout, observed without
    noise, at thresholds 0.25 and 1, untyped and category-separated."""
    for name in sorted(ARCHETYPES):
        twins = twin_layout(generate_scene(name, 0))
        for camera in camera_stops(patrol_route(twins)):
            observation = synthesize_observation(twins, camera)
            if not observation.detections:
                continue
            for threshold in (0.25, 1.0):
                for typed in (False, True):
                    yield prepare_problem(
                        twins, observation, threshold=threshold, category_separated=typed
                    ).problem


SOLVE_SETS = {
    "near-window": near_window_problems,
    "typed-ties": typed_tie_problems,
    "twins": twin_problems,
}


PIN_KEYS = (
    *(f"solve-{key}" for key in SOLVE_SETS),
    "near-window-disagreements",
    *(f"score-arrays-{name}" for name in ARCHETYPES),
)


def solve_digest(problems: Iterator[AssignmentProblem]) -> str:
    h = hashlib.sha256()
    for problem in problems:
        result = solve(problem)
        h.update(f"{result.pairs!r} {result.total_cost!r}\n".encode())
    return h.hexdigest()


def near_window_disagreements() -> int:
    return sum(
        solve(problem).pairs != brute_force_solve(problem).pairs
        for problem in near_window_problems()
    )


def kernel_digest(name: str) -> str:
    """sha256 of the cost table of one noise cell of the archetype's scene:
    every perturbed object scored against every initial one, as a sweep
    scores it."""
    layout = generate_scene(name, 0)
    perturbed = perturb_layout(layout, KERNEL_NOISE, derive_seed(0, 0))
    weights = default_weights(layout.bounds)
    detections, candidates = layout_arrays(perturbed), layout_arrays(layout)
    table = score_arrays(detections, candidates, layout.bounds, weights)
    h = hashlib.sha256()
    for array in (table.total, *cost_terms(detections, candidates, layout.bounds)):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(SOLVE_SETS))
def test_solve_outputs_match_pinned_digest(key):
    assert solve_digest(SOLVE_SETS[key]()) == pins()[f"solve-{key}"]


def test_near_window_disagreements_match_pinned_count():
    assert near_window_disagreements() == pins()["near-window-disagreements"]


@pytest.mark.parametrize("name", sorted(ARCHETYPES))
def test_cost_kernel_matches_pinned_digest(name):
    assert kernel_digest(name) == pins()[f"score-arrays-{name}"]


def test_every_output_is_pinned():
    assert set(pins()) == set(PIN_KEYS)


if __name__ == "__main__":
    digests: dict = {f"solve-{key}": solve_digest(make()) for key, make in SOLVE_SETS.items()}
    digests["near-window-disagreements"] = near_window_disagreements()
    digests.update({f"score-arrays-{name}": kernel_digest(name) for name in ARCHETYPES})
    PINS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")

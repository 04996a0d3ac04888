"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (`build`), warms up
on the default seed's inputs while checking them against the pinned output
hashes (`warm_up`), and then runs timed windows (`window`) that it repeats
for as long as the run lasts.  A window returns the seconds it spent in
timed code and the stops it completed; it checks its outputs after its
timed code has finished.

All calls into the package go through module attributes, so that the
traced run can wrap them by name (see spans.py).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from relabel import costs, harness, noise, path, scene, scenegen, solver

import verify

DEFAULT_SEED = 0
SCENE_SEED = 0  # every workload runs on fixed scenes; the workload seed drives the noise


def _capture(store: list):
    """Wrap a solve so that its (cost matrix, result) pairs can be checked."""

    def make(fn):
        def captured(problem, *args, **kwargs):
            result = fn(problem, *args, **kwargs)
            store.append((problem.matrix, result))
            return result

        return captured

    return make


class NoiseSweep:
    """The paper's experiment: `run_noise_sweep` over all six archetypes on a
    coarse subset of each default (t, r) grid, then `write_rows_csv`.  A stop
    is one `score_stop` call; a window is one pass over the six archetypes."""

    name = "noise-sweep"
    stop_span = "harness.score_stop"
    R_LIST = (0.0, 30.0, 90.0)

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.latencies_ns: list[int] = []
        self.captured: list = []

    def install(self, patches) -> None:
        patches.replace(harness, "solve", _capture(self.captured))
        patches.replace(harness, "score_stop", self._timed_stop)

    def _timed_stop(self, fn):
        clock, latencies = time.perf_counter_ns, self.latencies_ns

        def timed(*args, **kwargs):
            start = clock()
            record = fn(*args, **kwargs)
            latencies.append(clock() - start)
            return record

        return timed

    def build(self, seed: int) -> list:
        sweeps = []
        for name in sorted(scenegen.ARCHETYPES):
            layout = scenegen.generate_scene(name, SCENE_SEED)
            route = scenegen.patrol_route(layout)
            # every fourth step of the default grid, from light noise up to
            # room-scale noise: larger rooms keep more cells, as in the full
            # sweep, so the stop latency median falls inside the heavy rooms'
            # mode rather than in the gap between the light and heavy rooms
            t_grid = harness.default_t_list(layout.bounds.area())
            t_list = t_grid[::4] + ((t_grid[-1],) if (len(t_grid) - 1) % 4 else ())
            config = harness.SweepConfig(
                t_list=t_list,
                r_list=self.R_LIST,
                seeds=1,
                master_seed=seed,
                threshold=1.0,
            )
            sweeps.append((name, layout, route, config))
        return sweeps

    def reset(self) -> None:
        pass

    def window(self, sweeps: list, checker: verify.Checker) -> tuple[float, int]:
        spent, stops = 0.0, 0
        for name, layout, route, config in sweeps:
            self.captured.clear()
            start = time.perf_counter()
            result = harness.run_noise_sweep(layout, route, config)
            harness.write_rows_csv(result, self.out_dir / f"noise-sweep-{name}.csv")
            spent += time.perf_counter() - start
            stops += len(result.rows)
            for matrix, solved in self.captured:
                checker.check(matrix, solved)
            for _ in range(len(result.rows) - len(self.captured)):
                checker.fail("stop without a solve")
        self.captured.clear()
        return spent, stops

    def warm_up(self, sweeps: list, seed: int, checker: verify.Checker) -> None:
        default = sweeps if seed == DEFAULT_SEED else self.build(DEFAULT_SEED)
        self.window(default, checker)
        texts = [
            (self.out_dir / f"noise-sweep-{name}.csv").read_text(encoding="utf-8")
            for name, *_ in default
        ]
        checker.expect_hash(self.name, verify.csv_digest(texts, harness.TIMING_COLUMNS))


class ScaledScene:
    """One clustered scene of 2000 objects on 50 sites, about one object per
    square meter, perturbed once and resolved along its 245-stop patrol at
    threshold 0.25.  A stop is `synthesize_observation` plus
    `resolve_identities`.  Window k takes every STRIDE-th stop from stop k,
    so that every window samples the whole route alike."""

    name = "scaled-scene"
    stop_span = "bench.stop"
    ARCHETYPE = scenegen.SceneArchetype(
        "S2000", sites=50, object_types=5, objects=2000, area=2000.0, placement=scenegen.CLUSTERED
    )
    NOISE = noise.NoiseModel(t_mean=0.0, t_sd=0.3, r_mean=0.0, r_sd=15.0)
    THRESHOLD = 0.25
    STRIDE = 7

    def __init__(self, out_dir: Path) -> None:
        self.latencies_ns: list[int] = []
        self.captured: list = []
        self.next_window = 0

    def install(self, patches) -> None:
        patches.replace(solver, "solve", _capture(self.captured))

    def build(self, seed: int):
        layout = scenegen.generate_scene(self.ARCHETYPE, SCENE_SEED)
        cameras = path.camera_stops(scenegen.patrol_route(layout))
        perturbed = noise.perturb_layout(layout, self.NOISE, noise.derive_seed(seed, 0))
        return layout, perturbed, cameras

    def stop(self, layout, perturbed, camera):
        observation = scene.synthesize_observation(perturbed, camera)
        return solver.resolve_identities(layout, observation, threshold=self.THRESHOLD)

    def reset(self) -> None:
        self.next_window = 0

    def window(self, inputs, checker: verify.Checker) -> tuple[float, int]:
        layout, perturbed, cameras = inputs
        chosen = cameras[self.next_window % self.STRIDE :: self.STRIDE]
        self.next_window += 1
        return self._resolve(layout, perturbed, chosen, checker), len(chosen)

    def _resolve(self, layout, perturbed, cameras, checker: verify.Checker) -> float:
        clock = time.perf_counter_ns
        spent = 0
        self.captured.clear()
        for camera in cameras:
            start = clock()
            self.stop(layout, perturbed, camera)
            elapsed = clock() - start
            self.latencies_ns.append(elapsed)
            spent += elapsed
        for matrix, solved in self.captured:
            checker.check(matrix, solved)
        for _ in range(len(cameras) - len(self.captured)):
            checker.fail("stop without a solve")
        self.captured.clear()
        return spent / 1e9

    def warm_up(self, inputs, seed: int, checker: verify.Checker) -> None:
        layout, perturbed, cameras = inputs
        self._resolve(layout, perturbed, cameras[:4], checker)


def twin_layout(layout, pairing: int):
    """The layout with same-type objects paired onto identical poses: every
    pair is an exact tie for the solver.  `pairing` picks who pairs with whom."""
    rng = np.random.default_rng([pairing, 1])
    objects = list(layout.objects)
    by_type: dict[str, list[int]] = {}
    for i in sorted(range(len(objects)), key=lambda i: objects[i].label):
        by_type.setdefault(objects[i].object_type, []).append(i)
    for object_type in sorted(by_type):
        members = [by_type[object_type][k] for k in rng.permutation(len(by_type[object_type]))]
        for a, b in zip(members[0::2], members[1::2]):
            objects[b] = dataclasses.replace(objects[b], pose=objects[a].pose)
    return dataclasses.replace(layout, objects=tuple(objects))


class SolveReplay:
    """`solve` alone on instances prepared during set-up, cycled in a fixed
    order.  Three quarters are H1 stops under T(0, 0.1) R(0, 15) noise and
    weights (2.52, 1) at thresholds 0.25 and 1.0, which the tie certificate
    settles; one quarter are tie-heavy stops of `twin_layout` at zero noise,
    which fall through to the row scan.  A stop is one `solve`; a window is
    one cycle over the instances."""

    name = "solve-replay"
    stop_span = "solver.solve"
    NOISE = noise.NoiseModel(t_mean=0.0, t_sd=0.1, r_mean=0.0, r_sd=15.0)
    WEIGHTS = costs.CostWeights(w_t=2.52, w_r=1.0)
    THRESHOLDS = (0.25, 1.0)
    PERTURBATIONS = 12
    PAIRINGS = 4

    def __init__(self, out_dir: Path) -> None:
        self.latencies_ns: list[int] = []
        self.checked: dict = {}  # problem -> its first, fully checked result

    def install(self, patches) -> None:
        pass

    def _prepare(self, scenes, cameras) -> list:
        """Prepared problems for every (observed, remembered) layout pair."""
        problems = []
        for observed, remembered in scenes:
            for threshold in self.THRESHOLDS:
                for camera in cameras:
                    observation = scene.synthesize_observation(observed, camera)
                    if not observation.detections:
                        continue
                    prepared = solver.prepare_problem(
                        remembered, observation, threshold=threshold, weights=self.WEIGHTS
                    )
                    problems.append(prepared.problem)
        return problems

    def build(self, seed: int) -> list:
        layout = scenegen.generate_scene("H1", SCENE_SEED)
        cameras = path.camera_stops(scenegen.patrol_route(layout))
        perturbed = [
            (noise.perturb_layout(layout, self.NOISE, noise.derive_seed(seed, p)), layout)
            for p in range(self.PERTURBATIONS)
        ]
        # the tie-heavy quarter is the same for every seed: it sets p90
        twins = [twin_layout(layout, k) for k in range(self.PAIRINGS)]
        return self._prepare(perturbed, cameras) + self._prepare([(t, t) for t in twins], cameras)

    def reset(self) -> None:
        pass

    def window(self, problems: list, checker: verify.Checker) -> tuple[float, int]:
        clock, latencies = time.perf_counter_ns, self.latencies_ns
        results = []
        spent = 0
        for problem in problems:
            start = clock()
            results.append(solver.solve(problem))
            elapsed = clock() - start
            latencies.append(elapsed)
            spent += elapsed
        self.last_results = results
        for problem, result in zip(problems, results):
            # an instance's first result is checked in full; every later
            # result of the same instance must repeat it exactly
            if problem in self.checked:
                checker.check_same(result, self.checked[problem])
            else:
                failed = checker.failed
                checker.check(problem.matrix, result)
                if checker.failed == failed:
                    self.checked[problem] = result
        return spent / 1e9, len(problems)

    def warm_up(self, problems: list, seed: int, checker: verify.Checker) -> None:
        default = problems if seed == DEFAULT_SEED else self.build(DEFAULT_SEED)
        self.window(default, checker)
        checker.expect_hash(self.name, verify.pairs_digest(self.last_results))
        if default is not problems:
            self.window(problems, checker)


def measure(workload, inputs, seconds: float, checker) -> dict:
    """Repeat timed windows until `seconds` of timed work have accrued.

    Returns the timed seconds, the stops, and per window its stops, its
    seconds and its stop latencies in nanoseconds."""
    workload.reset()
    windows = []
    spent = 0.0
    while spent < seconds:
        workload.latencies_ns.clear()
        elapsed, stops = workload.window(inputs, checker)
        windows.append((stops, elapsed, list(workload.latencies_ns)))
        spent += elapsed
    return {"seconds": spent, "stops": sum(w[0] for w in windows), "windows": windows}


WORKLOADS = {w.name: w for w in (NoiseSweep, ScaledScene, SolveReplay)}

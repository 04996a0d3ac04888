"""The traced run and the per-layer metrics it yields.

Layers are the package's modules.  The traced run wraps, by name, the
callees of the consumer modules (`relabel.harness` and `relabel.solver`)
plus the calls the benchmark itself makes into each layer.  Unless a
metric says otherwise it is a mean per stop of the traced timed section.
"""

from __future__ import annotations

from relabel import harness, noise, path, scene, scenegen, solver

import spans as sp
from workloads import measure

GENERATE = "scenegen.generate_scene"
CAMERA_STOPS = "path.camera_stops"
PERTURB = "noise.perturb_layout"
OBSERVE = "scene.synthesize_observation"
VISIBLE = "scene.visible_objects"
RANK = ("partition.site_probabilities", "partition.prune_sites")
GATHER = "partition.candidate_labels"
BUILD = "costs.build_cost_matrix"
PREPARE = "solver.prepare_problem"
SOLVE = "solver.solve"
LSA = "solver.linear_sum_assignment"
STOP = "harness.score_stop"
CSV = "harness.write_rows_csv"


def _detections(observation) -> int:
    return len(observation.detections)


def _candidates(prepared) -> int:
    return len(prepared.candidates)


def targets(workload) -> list[tuple]:
    """(module, attribute, span name, work count) for every wrapped call."""
    return [
        (harness, "score_stop", STOP, None),
        (harness, "perturb_layout", PERTURB, None),
        (harness, "synthesize_observation", OBSERVE, _detections),
        (harness, "visible_objects", VISIBLE, None),
        (harness, "prepare_problem", PREPARE, _candidates),
        (harness, "solve", SOLVE, None),
        (harness, "camera_stops", CAMERA_STOPS, None),
        (harness, "write_rows_csv", CSV, None),
        (solver, "site_probabilities", RANK[0], None),
        (solver, "prune_sites", RANK[1], None),
        (solver, "candidate_labels", GATHER, len),
        (solver, "build_cost_matrix", BUILD, lambda m: m.total.size),
        (solver, "linear_sum_assignment", LSA, None),
        (solver, "prepare_problem", PREPARE, _candidates),
        (solver, "solve", SOLVE, None),
        (scenegen, "generate_scene", GENERATE, None),
        (path, "camera_stops", CAMERA_STOPS, None),
        (noise, "perturb_layout", PERTURB, None),
        (scene, "synthesize_observation", OBSERVE, _detections),
        (workload, "stop", "bench.stop", None),
    ]


def traced_run(workload, inputs, seed: int, seconds: float, checker, patches):
    """Set up once and measure for `seconds` with every target wrapped.

    Returns the timed section, all spans, and the index of the first span
    of the timed section (earlier spans belong to the traced set-up)."""
    tracer = sp.Tracer(workload.stop_span)
    sp.install(tracer, patches, targets(workload))
    workload.build(seed)
    timed_from = len(tracer.spans)
    section = measure(workload, inputs, seconds, checker)
    return section, tracer.spans, timed_from


def per_layer(spans: list[sp.Span], timed_from: int, traced: dict, untraced: dict) -> list[tuple]:
    """(name, value, unit, samples) for every per-layer metric."""
    selfs = sp.self_times(spans)
    timed = spans[timed_from:]
    stops = traced["stops"]

    def pick(names, pool=timed):
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in pool if s.name in names]

    def ms(chosen, own=False) -> float:
        return sum(selfs[s.id] if own else s.duration_ns for s in chosen) / 1e6

    def per_stop(value: float) -> float:
        return value / stops if stops else 0.0

    def per_call(name: str, pool=spans) -> tuple[float, int]:
        chosen = pick(name, pool)
        return (ms(chosen) / len(chosen) if chosen else 0.0), len(chosen)

    observe = pick((OBSERVE, VISIBLE))
    rank, gather, build = pick(RANK), pick(GATHER), pick(BUILD)
    prepare, solve, lsa, stop = pick(PREPARE), pick(SOLVE), pick(LSA), pick(STOP)
    cells = sum(s.count for s in build)
    lsa_per_solve: dict[int, int] = {s.id: 0 for s in solve}
    for s in lsa:
        if s.parent in lsa_per_solve:
            lsa_per_solve[s.parent] += 1
    solved = [k for k in lsa_per_solve.values() if k > 0]
    generate_ms, generate_n = per_call(GENERATE)
    stops_ms, stops_n = per_call(CAMERA_STOPS)
    perturb_ms, perturb_n = per_call(PERTURB)
    csv_ms, csv_n = per_call(CSV, timed)
    overhead = (traced["seconds"] / traced["stops"]) / (untraced["seconds"] / untraced["stops"]) - 1
    return [
        ("scenegen.generate_ms", generate_ms, "ms", generate_n),
        ("path.stops_ms", stops_ms, "ms", stops_n),
        ("noise.perturb_ms", perturb_ms, "ms", perturb_n),
        ("noise.perturb_calls", per_stop(len(pick(PERTURB))), "count", stops),
        ("scene.observe_ms", per_stop(ms(observe)), "ms", stops),
        ("scene.visibility_passes_per_stop", per_stop(len(observe)), "count", stops),
        ("scene.detections_per_stop", per_stop(sum(s.count for s in pick(OBSERVE))), "count", stops),
        ("partition.rank_ms", per_stop(ms(rank)), "ms", stops),
        ("partition.gather_ms", per_stop(ms(gather)), "ms", stops),
        ("partition.gather_calls_per_stop", per_stop(len(gather)), "count", stops),
        ("partition.candidates_per_stop", per_stop(sum(s.count for s in prepare)), "count", stops),
        ("costs.build_ms", per_stop(ms(build)), "ms", stops),
        ("costs.cells_per_stop", per_stop(cells), "count", stops),
        ("costs.ns_per_cell", ms(build) * 1e6 / cells if cells else 0.0, "ns", len(build)),
        ("solver.prepare_ms", per_stop(ms(prepare)), "ms", stops),
        ("solver.prepare_self_ms", per_stop(ms(prepare, own=True)), "ms", stops),
        ("solver.solve_ms", per_stop(ms(solve)), "ms", stops),
        ("solver.solve_self_ms", per_stop(ms(solve, own=True)), "ms", stops),
        ("solver.lsa_ms", per_stop(ms(lsa)), "ms", stops),
        ("solver.lsa_calls_per_solve", len(lsa) / len(solve) if solve else 0.0, "count", len(solve)),
        ("solver.certified_share", solved.count(1) / len(solved) if solved else 0.0, "frac", len(solved)),
        ("harness.stop_ms", per_stop(ms(stop)), "ms", stops),
        ("harness.self_ms", per_stop(ms(stop, own=True)), "ms", stops),
        ("harness.csv_ms", csv_ms, "ms", csv_n),
        ("trace_overhead_frac", overhead, "frac", traced["stops"] + untraced["stops"]),
    ]


"""Command-line surface: scene generation, one-shot assignment, sweeps.

Every command writes a run manifest next to its outputs; re-invoking the
tool with the manifest's recorded arguments reproduces every non-timing
output byte for byte.  Exit codes: 0 success, 2 usage, 3 invalid input,
4 infeasible assignment.

The default output directory is the RELABEL_OUT_DIR environment variable,
falling back to the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .costs import CostWeights, cost_terms
from .harness import (
    DEFAULT_R_LIST,
    DEFAULT_THRESHOLDS,
    SweepConfig,
    SweepResult,
    aggregate,
    run_noise_sweep,
    run_threshold_sweep,
    write_rows_csv,
    write_summary_csv,
)
from .partition import PartitionError
from .path import CameraPath, load_path
from .scene import (
    SceneLayout,
    SceneParseError,
    SceneValidationError,
    load_observation,
    load_scene,
    object_arrays,
    save_scene,
)
from .scenegen import ARCHETYPES, generate_scene, patrol_route
from .solver import InfeasibleAssignmentError, prepare_problem, solve
from .svgplot import Series, write_line_chart

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4

ENV_OUT_DIR = "RELABEL_OUT_DIR"


def _out_dir(value: str | None) -> Path:
    return Path(value if value is not None else os.environ.get(ENV_OUT_DIR, "."))


def _parse_weights(text: str) -> CostWeights:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("weights must be of the form wt,wr (e.g. 2.52,1)")
    try:
        return CostWeights(w_t=float(parts[0]), w_r=float(parts[1]))
    except (ValueError, SceneValidationError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


def _write_manifest(
    manifest_path: Path,
    command: str,
    argv: list[str],
    inputs: list[str],
    seed: int | None,
    config: dict,
    outputs: list[str],
) -> None:
    doc = {
        "command": command,
        "argv": argv,
        "inputs": inputs,
        "seed": seed,
        "config": config,
        "tool_version": __version__,
        "outputs": outputs,
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace, argv: list[str]) -> int:
    out_path = (
        Path(args.out)
        if args.out is not None
        else _out_dir(args.out_dir) / f"{args.archetype}-seed{args.seed}.scene.json"
    )
    layout = generate_scene(args.archetype, args.seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_scene(layout, out_path)
    manifest = out_path.with_name(out_path.name + ".manifest.json")
    _write_manifest(
        manifest,
        "generate",
        argv,
        inputs=[],
        seed=args.seed,
        config={"archetype": args.archetype},
        outputs=[str(out_path)],
    )
    print(
        f"wrote scene '{layout.name}' ({len(layout.objects)} objects, "
        f"{len(layout.sites)} sites) to {out_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# assign
# ---------------------------------------------------------------------------


def _assign_report(args: argparse.Namespace) -> str:
    layout = load_scene(args.scene)
    observation = load_observation(args.observation)
    prepared = prepare_problem(
        layout,
        observation,
        threshold=args.threshold,
        weights=args.weights,
        category_separated=args.category_separated,
    )
    result = solve(prepared.problem)
    matrix, plan = prepared.problem.matrix, prepared.plan
    column = {label: j for j, label in enumerate(matrix.candidates)}
    # a cost table holds only its total, so the report rebuilds the terms
    terms = cost_terms(object_arrays(observation.detections), plan.pool, layout.bounds)
    names = ("c_t", "c_r", "c_d", "total")

    lines = [f"{'detection':>9}  {'label':<16} " + " ".join(f"{name:>10}" for name in names)]
    pair_docs = []
    for i, label in result.pairs:
        cells = [float(term[i, column[label]]) for term in (*terms, matrix.total)]
        lines.append(f"{i:>9}  {label:<16} " + " ".join(f"{cell:>10.6f}" for cell in cells))
        pair_docs.append({"detection": i, "label": label, **dict(zip(names, cells))})
    lines.append(
        f"total_cost={result.total_cost!r} n={matrix.shape[0]} m={matrix.shape[1]} "
        f"effective_threshold={plan.effective_threshold!r}"
    )
    doc = {
        "pairs": pair_docs,
        "total_cost": result.total_cost,
        "n": matrix.shape[0],
        "m": matrix.shape[1],
        "pruned_site_count": len(plan.kept_site_ids),
        "requested_threshold": plan.threshold,
        "effective_threshold": plan.effective_threshold,
    }
    return json.dumps(doc, indent=2) + "\n" if args.json else "\n".join(lines) + "\n"


def _cmd_assign(args: argparse.Namespace, argv: list[str]) -> int:
    text = _assign_report(args)
    outputs = []
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
        outputs.append(str(out_path))
        manifest = out_path.with_name(out_path.name + ".manifest.json")
    else:
        sys.stdout.write(text)
        manifest = _out_dir(args.out_dir) / "assign.manifest.json"
    _write_manifest(
        manifest,
        "assign",
        argv,
        inputs=[str(args.scene), str(args.observation)],
        seed=None,
        config={
            "threshold": args.threshold,
            "weights": None if args.weights is None else [args.weights.w_t, args.weights.w_r],
            "category_separated": args.category_separated,
            "json": args.json,
        },
        outputs=outputs,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_layout(args: argparse.Namespace) -> SceneLayout:
    if args.scene is not None:
        return load_scene(args.scene)
    return generate_scene(args.archetype, args.seed)


def _sweep_route(args: argparse.Namespace, layout: SceneLayout) -> CameraPath:
    if args.path is not None:
        return load_path(args.path)
    speed = 1.0 if args.speed is None else args.speed
    stop_interval = 100.0 if args.stop_interval is None else args.stop_interval
    return patrol_route(layout, speed=speed, stop_interval=stop_interval)


def _noise_plots(result: SweepResult, out_dir: Path) -> list[str]:
    outputs = []
    # summary rows are sorted by their series' fields first, so each series
    # is one run of rows and the series come in that order
    for grouping, name, x, title, x_label in (
        ("translation", "{0.scene}", "a", "Accuracy vs translation noise", "translation sd (m)"),
        ("rotation", "{0.scene} ({0.band})", "b", "Accuracy vs rotation noise", "rotation sd (deg)"),
    ):
        lines: dict[str, list[tuple[float, float]]] = {}
        for row in aggregate(result, grouping):
            lines.setdefault(name.format(row), []).append((getattr(row, x), row.mean_accuracy))
        series = tuple(Series(name=n, points=tuple(points)) for n, points in lines.items())
        path = out_dir / f"accuracy_vs_{grouping}.svg"
        write_line_chart(path, title, x_label, "mean accuracy", series)
        outputs.append(str(path))
    return outputs


def _threshold_plots(result: SweepResult, out_dir: Path) -> list[str]:
    rows = aggregate(result, "threshold")
    acc = Series(name="accuracy", points=tuple((r.threshold, r.mean_accuracy) for r in rows))
    top = max((r.mean_solve_ms for r in rows), default=1.0) or 1.0
    ms = Series(
        name="time (fraction of max)",
        points=tuple((r.threshold, r.mean_solve_ms / top) for r in rows),
    )
    path = out_dir / "threshold_tradeoff.svg"
    write_line_chart(
        path, "Accuracy and solve time vs pruning threshold", "threshold", "accuracy / relative time",
        (acc, ms),
    )
    return [str(path)]


# per sweep mode: the default (t_list, r_list) grid, the rotation sd that
# `--noise A` implies, and the summaries and charts written
_SWEEP_MODES = {
    "noise": (None, DEFAULT_R_LIST, 0.0, ("translation", "rotation"), _noise_plots),
    "threshold": ((0.1,), (15.0,), 15.0, ("threshold",), _threshold_plots),
}


def _sweep_usage_error(args: argparse.Namespace) -> str | None:
    """Why the sweep flags contradict each other, or None: a flag the run
    would ignore is an error, not a silent no-op."""
    # each threshold flag applies to one mode; the other would ignore it
    for flag, value, mode in (
        ("--threshold", args.threshold, "noise"),
        ("--thresholds", args.thresholds, "threshold"),
    ):
        if value is not None and args.mode != mode:
            return f"{flag} applies to --mode {mode} only"
    # a route file carries its own speed and stop interval
    for flag, value in (("--speed", args.speed), ("--stop-interval", args.stop_interval)):
        if value is not None and args.path is not None:
            return f"{flag} applies to the default route only, not to --path"
    if args.noise is not None:
        if len(args.noise) > 2:
            return f"--noise takes A or A,B, got {len(args.noise)} values"
        for flag, value in (("--t-list", args.t_list), ("--r-list", args.r_list)):
            if value is not None:
                return f"--noise cannot be combined with {flag}"
    return None


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    usage_error = _sweep_usage_error(args)
    if usage_error is not None:
        print(f"error: {usage_error}", file=sys.stderr)
        return EXIT_USAGE
    layout = _sweep_layout(args)
    route = _sweep_route(args, layout)
    out_dir = _out_dir(args.out_dir)

    t_default, r_default, b_default, groupings, plots = _SWEEP_MODES[args.mode]
    t_list = args.t_list if args.t_list is not None else t_default
    r_list = args.r_list if args.r_list is not None else r_default
    if args.noise is not None:
        t_list = (args.noise[0],)
        r_list = (args.noise[1] if len(args.noise) > 1 else b_default,)
    config = SweepConfig(
        t_list=t_list,
        r_list=r_list,
        seeds=args.seeds,
        master_seed=args.seed,
        threshold=1.0 if args.threshold is None else args.threshold,
        weights=args.weights,
        category_separated=args.category_separated,
        fov=args.fov,
        camera_range=args.range,
        frame_rate=args.frame_rate,
    )
    if args.mode == "noise":
        result = run_noise_sweep(layout, route, config)
        mode_echo = {"threshold": config.threshold}
    else:
        thresholds = args.thresholds if args.thresholds is not None else DEFAULT_THRESHOLDS
        result = run_threshold_sweep(layout, route, config, thresholds)
        mode_echo = {"thresholds": list(thresholds)}

    # made only now, so a sweep that exits early leaves no empty directory
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / "rows.csv"
    write_rows_csv(result, rows_path)
    outputs = [str(rows_path)]
    for grouping in groupings:
        summary_path = out_dir / f"{grouping}_summary.csv"
        write_summary_csv(aggregate(result, grouping), summary_path)
        outputs.append(str(summary_path))
    if args.plots:
        outputs.extend(plots(result, out_dir))

    config_echo = {
        "mode": args.mode,
        "t_list": None if config.t_list is None else list(config.t_list),
        "r_list": list(config.r_list),
        "seeds": config.seeds,
        **mode_echo,
        "weights": None if args.weights is None else [args.weights.w_t, args.weights.w_r],
        "category_separated": args.category_separated,
        "fov": args.fov,
        "range": args.range,
        "frame_rate": args.frame_rate,
        "speed": route.speed,
        "stop_interval": route.stop_interval,
        "scene": args.scene,
        "archetype": None if args.scene is not None else args.archetype,
    }
    _write_manifest(
        out_dir / "manifest.json",
        "sweep",
        argv,
        inputs=[p for p in (args.scene, args.path) if p is not None],
        seed=args.seed,
        config=config_echo,
        outputs=outputs,
    )
    solved = sum(1 for r in result.rows if r.accuracy is not None)
    print(f"wrote {len(result.rows)} rows ({solved} scored) to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relabel",
        description="Resolve identities of look-alike objects after a scene layout changes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic scene file")
    gen.add_argument("archetype", choices=sorted(ARCHETYPES))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output scene file path")
    gen.add_argument("--out-dir", default=None, help=f"output directory (default ${ENV_OUT_DIR} or .)")
    gen.set_defaults(func=_cmd_generate)

    asg = sub.add_parser("assign", help="resolve identities for one observation")
    asg.add_argument("scene", help="scene file (initial layout)")
    asg.add_argument("observation", help="observation file")
    asg.add_argument("--threshold", type=float, default=1.0)
    asg.add_argument("--weights", type=_parse_weights, default=None, metavar="WT,WR")
    asg.add_argument("--category-separated", action="store_true")
    asg.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    asg.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    asg.add_argument("--out-dir", default=None, help=f"manifest directory (default ${ENV_OUT_DIR} or .)")
    asg.set_defaults(func=_cmd_assign)

    swp = sub.add_parser("sweep", help="run a noise or threshold sweep")
    source = swp.add_mutually_exclusive_group(required=True)
    source.add_argument("--archetype", choices=sorted(ARCHETYPES))
    source.add_argument("--scene", default=None, help="scene file to sweep instead of an archetype")
    swp.add_argument("--path", default=None, help="camera route file (default: loop through sites)")
    swp.add_argument("--mode", choices=("noise", "threshold"), default="noise")
    swp.add_argument("--seed", type=int, default=0, help="master seed")
    swp.add_argument("--seeds", type=int, default=1, help="repetitions per noise cell")
    swp.add_argument("--t-list", type=_parse_float_list, default=None, metavar="A1,A2,...")
    swp.add_argument("--r-list", type=_parse_float_list, default=None, metavar="B1,B2,...")
    swp.add_argument(
        "--noise", type=_parse_float_list, default=None, metavar="A[,B]",
        help="single noise cell: translation sd and optional rotation sd",
    )
    swp.add_argument(
        "--threshold", type=float, default=None, help="pruning threshold (noise mode; default 1.0)"
    )
    swp.add_argument(
        "--thresholds", type=_parse_float_list, default=None, metavar="T1,T2,...",
        help="threshold grid (threshold mode; default 0..1 step 0.05)",
    )
    swp.add_argument("--weights", type=_parse_weights, default=None, metavar="WT,WR")
    swp.add_argument("--category-separated", action="store_true")
    swp.add_argument("--fov", type=float, default=60.0)
    swp.add_argument("--range", type=float, default=10.0)
    swp.add_argument("--frame-rate", type=float, default=60.0)
    swp.add_argument("--speed", type=float, help="camera speed of the default route (default 1.0)")
    swp.add_argument("--stop-interval", type=float, help="frames between default-route stops (100)")
    swp.add_argument("--plots", action="store_true", help="also write SVG charts")
    swp.add_argument("--out-dir", default=None, help=f"output directory (default ${ENV_OUT_DIR} or .)")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except InfeasibleAssignmentError as exc:
        print(
            f"error: {exc}\nhint: raise --threshold toward 1.0 or provide a scene "
            "with at least as many candidate objects as detections",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    except (SceneParseError, SceneValidationError, PartitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

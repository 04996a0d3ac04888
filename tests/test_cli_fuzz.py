"""Fuzzed command lines: every numeric flag, drawn from finite, NaN, infinite,
signed-zero, subnormal, near-overflow and negative values, exits 0, 2, 3 or
4 without a traceback, and a failing exit names the flag or its field."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relabel import path as route_module
from relabel.cli import main
from relabel.path import camera_stops
from relabel.scene import save_observation, save_scene, synthesize_observation
from relabel.scenegen import generate_scene, patrol_route

# the route's stops, at most; a slow camera then exits 3 on its stop spacing
# instead of asking for a long sweep
FUZZ_MAX_STOPS = 64

SPECIAL = ("nan", "-nan", "inf", "-inf", "0", "-0", "0.0", "-0.0", "5e-324", "-5e-324",
           "2.2250738585072014e-308", "1e306", "1e307", "1e308", "1e309", "-1e309", "-1")
numbers = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats().map(repr),
    st.floats(min_value=1e306).map(repr),
    st.floats(-1e3, 1e3).map(repr),
    st.integers(-5, 400).map(str),
)
# every accepted count is small, so a valid draw stays a short sweep
counts = st.one_of(st.integers(-3, 2).map(str), st.sampled_from(SPECIAL))
seeds = st.one_of(st.integers().map(str), st.sampled_from(("9" * 5000, "-0", "1e3", "nan")))


def joined(size: int):
    return st.lists(numbers, min_size=1, max_size=size).map(",".join)


# flag -> (its values, what a failing exit may name instead of the flag)
FLAGS = {
    "--threshold": (numbers, ("threshold",)),
    "--thresholds": (joined(2), ("threshold",)),
    "--weights": (joined(3), ("weight",)),
    "--fov": (numbers, ("fov",)),
    "--range": (numbers, ("range",)),
    "--frame-rate": (numbers, ("frame rate", "stop spacing")),
    "--speed": (numbers, ("speed", "stop spacing")),
    "--stop-interval": (numbers, ("stop interval", "stop spacing")),
    "--noise": (joined(3), ("noise",)),
    "--t-list": (joined(2), ("t_sd",)),
    "--r-list": (joined(2), ("r_sd",)),
    "--seed": (seeds, ("seed",)),
    "--seeds": (counts, ("seeds",)),
}
SWEEP_FLAGS = sorted(FLAGS)
ASSIGN_FLAGS = ["--threshold", "--weights"]


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """An L1 scene and one of its observations."""
    root = tmp_path_factory.mktemp("argv")
    layout = generate_scene("L1", 3)
    save_scene(layout, root / "scene.json")
    camera = camera_stops(patrol_route(layout))[1]
    save_observation(synthesize_observation(layout, camera), root / "obs.json")
    return root


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with mock.patch.object(route_module, "MAX_STOPS", FUZZ_MAX_STOPS):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage exit
                code = exc.code
    return code, err.getvalue()


def check(base: dict[str, str], drawn: dict[str, str], head: list[str]) -> None:
    if "--noise" in drawn:
        base = {k: v for k, v in base.items() if k not in ("--t-list", "--r-list")}
    options = {**base, **drawn}
    with tempfile.TemporaryDirectory() as out:
        argv = [*head, *(f"{k}={v}" for k, v in options.items()), f"--out-dir={out}"]
        code, err = run(argv)
    assert code in (0, 2, 3, 4), argv
    if code:
        names = [name for flag in drawn for name in (flag, *FLAGS[flag][1])]
        assert any(name in err for name in names), (argv, err)


def draws(flags: list[str]):
    return st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries({flag: FLAGS[flag][0] for flag in chosen})
    )


# one noise cell of the default L1 route
SWEEPS = {
    "noise": {"--t-list": "0.1", "--r-list": "0"},
    "threshold": {"--mode": "threshold", "--thresholds": "0.5", "--t-list": "0.1", "--r-list": "15"},
}


@pytest.mark.parametrize("mode", sorted(SWEEPS))
@settings(max_examples=120, deadline=None)
@given(drawn=draws(SWEEP_FLAGS))
def test_sweep_flags(mode, drawn):
    check(SWEEPS[mode], drawn, ["sweep", "--archetype", "L1"])


@settings(max_examples=120, deadline=None)
@given(drawn=draws(ASSIGN_FLAGS))
def test_assign_flags(fixture_files: Path, drawn):
    head = ["assign", str(fixture_files / "scene.json"), str(fixture_files / "obs.json")]
    check({}, drawn, head)

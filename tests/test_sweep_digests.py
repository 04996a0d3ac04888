"""Pinned digests of 24 sweeps: the sweep rows outside the timing columns.

Six archetypes, untyped and category-separated, each in noise mode on a
coarse grid and in threshold mode on the paper's cell.  A change that
moves any row of these sweeps changes a digest; only a change that means
to change the outputs regenerates them, and says why:

    PYTHONPATH=src python -m tests.test_sweep_digests

A libm difference in `sin`/`hypot` across platforms would also move a
digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from relabel import harness
from relabel.scenegen import ARCHETYPES, generate_scene, patrol_route

DIGESTS = Path(__file__).with_name("sweep_digests.json")
R_LIST = (0.0, 30.0, 90.0)
SWEEPS = tuple(
    (mode, name, typed)
    for mode in ("noise", "threshold")
    for name in sorted(ARCHETYPES)
    for typed in (False, True)
)


def sweep_key(mode: str, name: str, typed: bool) -> str:
    return f"{mode}-{name}-{'typed' if typed else 'untyped'}"


def rows_digest(text: str) -> str:
    """sha256 of a rows CSV with the timing columns removed."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in harness.TIMING_COLUMNS]
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(row[i] for i in keep) + "\n").encode())
    return h.hexdigest()


def run_sweep(mode: str, name: str, typed: bool, out: Path) -> str:
    """The digest of one sweep's rows CSV, written under `out`."""
    layout = generate_scene(name, 0)
    route = patrol_route(layout)
    if mode == "noise":
        # every fourth step of the default grid, plus the room-scale end
        t_grid = harness.default_t_list(layout.bounds.area())
        t_list = t_grid[::4] + ((t_grid[-1],) if (len(t_grid) - 1) % 4 else ())
        config = harness.SweepConfig(t_list=t_list, r_list=R_LIST, category_separated=typed)
        result = harness.run_noise_sweep(layout, route, config)
    else:
        config = harness.SweepConfig(t_list=(0.1,), r_list=(15.0,), category_separated=typed)
        result = harness.run_threshold_sweep(layout, route, config)
    path = out / f"{sweep_key(mode, name, typed)}.csv"
    harness.write_rows_csv(result, path)
    return rows_digest(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "mode,name,typed", SWEEPS, ids=[sweep_key(*sweep) for sweep in SWEEPS]
)
def test_sweep_rows_match_pinned_digest(mode, name, typed, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert run_sweep(mode, name, typed, tmp_path) == pinned[sweep_key(mode, name, typed)]


def test_every_sweep_is_pinned():
    assert set(json.loads(DIGESTS.read_text(encoding="utf-8"))) == {
        sweep_key(*sweep) for sweep in SWEEPS
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {sweep_key(*sweep): run_sweep(*sweep, Path(tmp)) for sweep in SWEEPS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")

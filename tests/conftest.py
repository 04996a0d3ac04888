"""Small hand-made scenes shared by the tests, and a spy on the row scan."""

from __future__ import annotations

import pytest

from relabel import solver
from relabel.partition import VoronoiSite
from relabel.scene import (
    BoxDims,
    CameraState,
    Detection,
    ObjectInstance,
    PlanarPose,
    SceneBounds,
    SceneLayout,
)
from relabel.scenegen import CLUSTERED, SceneArchetype

# the large clustered scene of the benchmark's scaled-scene workload
S2000 = SceneArchetype(
    "S2000", sites=50, object_types=5, objects=2000, area=2000.0, placement=CLUSTERED
)


def make_object(
    label: str,
    x: float,
    z: float,
    yaw: float = 0.0,
    object_type: str = "chair",
    dims: tuple[float, float, float] = (0.5, 0.9, 0.5),
) -> ObjectInstance:
    return ObjectInstance(
        label=label,
        object_type=object_type,
        pose=PlanarPose(x=x, z=z, yaw=yaw),
        dims=BoxDims(w=dims[0], h=dims[1], d=dims[2]),
    )


def make_detection(
    x: float,
    z: float,
    yaw: float = 0.0,
    dims: tuple[float, float, float] = (0.5, 0.9, 0.5),
    object_type: str | None = None,
) -> Detection:
    return Detection(
        pose=PlanarPose(x=x, z=z, yaw=yaw),
        dims=BoxDims(w=dims[0], h=dims[1], d=dims[2]),
        object_type=object_type,
    )


@pytest.fixture
def bounds() -> SceneBounds:
    return SceneBounds(width=10.0, depth=10.0)


@pytest.fixture
def two_site_layout(bounds: SceneBounds) -> SceneLayout:
    """Two sites on opposite sides, two chairs near each."""
    sites = (
        VoronoiSite(id="S01", center=(2.0, 5.0)),
        VoronoiSite(id="S02", center=(8.0, 5.0)),
    )
    objects = (
        make_object("chair-01", 1.5, 4.0),
        make_object("chair-02", 2.5, 6.0),
        make_object("chair-03", 7.5, 4.0),
        make_object("chair-04", 8.5, 6.0),
    )
    return SceneLayout(name="two-site", bounds=bounds, sites=sites, objects=objects)


@pytest.fixture
def wide_camera() -> CameraState:
    """Sees the whole 10 x 10 scene from the south edge."""
    return CameraState(position=(5.0, 0.0), yaw=0.0, fov=170.0, range=30.0)


@pytest.fixture
def scans(monkeypatch) -> list[tuple[int, int]]:
    """Shapes of the tables the row scan (`solver._scan_cols`) runs on."""
    calls = []
    scan = solver._scan_cols

    def counting(costs, window, cols):
        calls.append(costs.shape)
        return scan(costs, window, cols)

    monkeypatch.setattr(solver, "_scan_cols", counting)
    return calls

"""Synthetic scene generation for the simulation experiments.

Six archetypes cover two floor plans at three difficulty tiers.  Restaurant
style floors cluster objects around their sites; office style floors spread
objects over a jittered sparse grid.  Both use rejection-sampled
(blue-noise) site centers so sites never collapse onto each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import make_rng
from .partition import VoronoiSite, _left_sum
from .path import CameraPath, catmull_rom_loop, circle_path
from .scene import (
    BoxDims,
    ObjectInstance,
    PlanarPose,
    SceneBounds,
    SceneLayout,
    SceneValidationError,
)

CLUSTERED = "clustered"
GRID = "grid"


@dataclass(frozen=True, slots=True)
class SceneArchetype:
    """Size and composition recipe for one synthetic scene family."""

    name: str
    sites: int
    object_types: int
    objects: int
    area: float
    placement: str

    @property
    def side(self) -> float:
        return math.sqrt(self.area)


ARCHETYPES: dict[str, SceneArchetype] = {
    a.name: a
    for a in (
        SceneArchetype("L1", sites=2, object_types=1, objects=16, area=25.0, placement=CLUSTERED),
        SceneArchetype("L2", sites=4, object_types=1, objects=8, area=64.0, placement=GRID),
        SceneArchetype("M1", sites=5, object_types=3, objects=35, area=64.0, placement=GRID),
        SceneArchetype("M2", sites=6, object_types=2, objects=30, area=25.0, placement=CLUSTERED),
        SceneArchetype("H1", sites=10, object_types=5, objects=52, area=49.0, placement=CLUSTERED),
        SceneArchetype("H2", sites=14, object_types=11, objects=48, area=225.0, placement=GRID),
    )
}

TYPE_NAMES = (
    "chair", "table", "stool", "bench", "desk", "cabinet",
    "shelf", "sofa", "lamp", "plant", "crate",
)

_TYPE_DIMS: dict[str, BoxDims] = {
    "chair": BoxDims(0.45, 0.90, 0.45),
    "table": BoxDims(1.20, 0.75, 0.80),
    "stool": BoxDims(0.35, 0.45, 0.35),
    "bench": BoxDims(1.40, 0.45, 0.40),
    "desk": BoxDims(1.40, 0.75, 0.70),
    "cabinet": BoxDims(0.80, 1.80, 0.45),
    "shelf": BoxDims(0.90, 1.60, 0.30),
    "sofa": BoxDims(1.90, 0.80, 0.85),
    "lamp": BoxDims(0.30, 1.50, 0.30),
    "plant": BoxDims(0.40, 1.10, 0.40),
    "crate": BoxDims(0.50, 0.50, 0.50),
}


def _sample_sites(rng: np.random.Generator, count: int, side: float) -> tuple[VoronoiSite, ...]:
    """Rejection-sampled site centers with a shrinking minimum spacing."""
    margin = 0.1 * side
    lo, hi = margin, side - margin
    min_dist = 0.75 * (hi - lo) / max(1.0, math.sqrt(count))
    points: list[tuple[float, float]] = []
    rejects = 0
    while len(points) < count:
        p = (float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= min_dist for q in points):
            points.append(p)
            rejects = 0
        else:
            rejects += 1
            if rejects >= 200:
                min_dist *= 0.9
                rejects = 0
    return tuple(VoronoiSite(id=f"S{i + 1:02d}", center=p) for i, p in enumerate(points))


def _clustered_positions(
    rng: np.random.Generator,
    sites: tuple[VoronoiSite, ...],
    count: int,
    types: int,
    side: float,
) -> list[tuple[float, float]]:
    # object k belongs to cluster (k // types) % len(sites), so every
    # cluster collects a mix of types
    spread = 0.12 * side
    offsets = rng.normal(0.0, spread, size=(count, 2))
    lo, hi = 0.05 * side, 0.95 * side
    positions = []
    for k in range(count):
        center = sites[(k // types) % len(sites)].center
        x = min(max(center[0] + float(offsets[k, 0]), lo), hi)
        z = min(max(center[1] + float(offsets[k, 1]), lo), hi)
        positions.append((x, z))
    return positions


def _grid_positions(
    rng: np.random.Generator, count: int, side: float
) -> list[tuple[float, float]]:
    # evenly strided cells of a g x g grid; floor(k * g^2 / count) is
    # strictly increasing because g^2 >= count, so cells never repeat
    g = math.ceil(math.sqrt(count))
    cell = side / g
    jitter = rng.uniform(-0.3, 0.3, size=(count, 2)) * cell
    positions = []
    for k in range(count):
        idx = (k * g * g) // count
        row, col = divmod(idx, g)
        x = (col + 0.5) * cell + float(jitter[k, 0])
        z = (row + 0.5) * cell + float(jitter[k, 1])
        positions.append((x, z))
    return positions


def generate_scene(archetype: str | SceneArchetype, seed: int) -> SceneLayout:
    """Deterministically build one scene instance of the given archetype."""
    if isinstance(archetype, str):
        if archetype not in ARCHETYPES:
            known = ", ".join(sorted(ARCHETYPES))
            raise SceneValidationError(f"unknown archetype '{archetype}'; expected one of {known}")
        arch = ARCHETYPES[archetype]
    else:
        arch = archetype
    rng = make_rng(seed)
    side = arch.side
    sites = _sample_sites(rng, arch.sites, side)
    if arch.placement == CLUSTERED:
        positions = _clustered_positions(rng, sites, arch.objects, arch.object_types, side)
    elif arch.placement == GRID:
        positions = _grid_positions(rng, arch.objects, side)
    else:
        raise ValueError(f"unknown placement style '{arch.placement}'")
    # furniture mostly faces a wall: a random quadrant plus a little slack
    quadrants = rng.integers(0, 4, size=arch.objects)
    yaws = quadrants * 90.0 + rng.normal(0.0, 4.0, size=arch.objects)

    type_names = TYPE_NAMES[: arch.object_types]
    counts = {t: 0 for t in type_names}
    objects = []
    for k, (x, z) in enumerate(positions):
        object_type = type_names[k % arch.object_types]
        counts[object_type] += 1
        objects.append(
            ObjectInstance(
                label=f"{object_type}-{counts[object_type]:02d}",
                object_type=object_type,
                pose=PlanarPose(x=x, z=z, yaw=float(yaws[k])),
                dims=_TYPE_DIMS[object_type],
            )
        )
    return SceneLayout(
        name=f"{arch.name}-seed{seed}",
        bounds=SceneBounds(width=side, depth=side),
        sites=sites,
        objects=tuple(objects),
    )


def patrol_route(
    layout: SceneLayout, speed: float = 1.0, stop_interval: float = 100.0
) -> CameraPath:
    """Closed camera route visiting every site, ordered by angle around the
    scene center so the loop never crosses itself on typical layouts."""
    centers = [s.center for s in layout.sites]
    if len(centers) == 1:
        radius = 0.25 * min(layout.bounds.width, layout.bounds.depth)
        return circle_path(centers[0], radius, speed=speed, stop_interval=stop_interval)
    if len(centers) == 2:
        (x0, z0), (x1, z1) = centers
        mx, mz = (x0 + x1) / 2.0, (z0 + z1) / 2.0
        d = math.hypot(x1 - x0, z1 - z0)
        px, pz = -(z1 - z0) / d * d / 4.0, (x1 - x0) / d * d / 4.0
        waypoints = ((x0, z0), (mx + px, mz + pz), (x1, z1), (mx - px, mz - pz))
        return catmull_rom_loop(waypoints, speed=speed, stop_interval=stop_interval)
    cx = _left_sum(c[0] for c in centers) / len(centers)
    cz = _left_sum(c[1] for c in centers) / len(centers)
    ordered = tuple(sorted(centers, key=lambda c: (math.atan2(c[1] - cz, c[0] - cx), c)))
    return catmull_rom_loop(ordered, speed=speed, stop_interval=stop_interval)

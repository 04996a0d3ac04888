"""Synthetic scene archetypes and the default patrol route."""

from __future__ import annotations

import math

import numpy as np
import pytest

from relabel import scenegen
from relabel.noise import make_rng
from relabel.partition import VoronoiSite
from relabel.path import path_length
from relabel.scene import SceneBounds, SceneLayout, SceneValidationError
from relabel.scenegen import ARCHETYPES, SceneArchetype, generate_scene, patrol_route

from .conftest import S2000, make_object

EXPECTED = {
    # name: (sites, object types, objects, area, placement)
    "L1": (2, 1, 16, 25.0, "clustered"),
    "L2": (4, 1, 8, 64.0, "grid"),
    "M1": (5, 3, 35, 64.0, "grid"),
    "M2": (6, 2, 30, 25.0, "clustered"),
    "H1": (10, 5, 52, 49.0, "clustered"),
    "H2": (14, 11, 48, 225.0, "grid"),
}


class TestArchetypes:
    def test_catalog_matches_expected_difficulty_tiers(self):
        assert set(ARCHETYPES) == set(EXPECTED)
        for name, (sites, types, objects, area, placement) in EXPECTED.items():
            arch = ARCHETYPES[name]
            assert (arch.sites, arch.object_types, arch.objects) == (sites, types, objects)
            assert arch.area == area
            assert arch.placement == placement
            assert arch.side == pytest.approx(math.sqrt(area))

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_generated_scene_honors_archetype(self, name):
        layout = generate_scene(name, seed=0)
        arch = ARCHETYPES[name]
        assert len(layout.sites) == arch.sites
        assert len(layout.objects) == arch.objects
        assert layout.bounds.area() == pytest.approx(arch.area)
        assert len({o.object_type for o in layout.objects}) == arch.object_types
        assert len({o.label for o in layout.objects}) == arch.objects
        for o in layout.objects:
            assert layout.bounds.contains(o.pose.x, o.pose.z)

    def test_same_seed_same_scene(self):
        assert generate_scene("M1", 5) == generate_scene("M1", 5)

    def test_different_seeds_differ(self):
        assert generate_scene("M1", 5) != generate_scene("M1", 6)

    def test_name_embeds_archetype_and_seed(self):
        assert generate_scene("H2", 17).name == "H2-seed17"

    def test_unknown_archetype(self):
        with pytest.raises(SceneValidationError, match="L9"):
            generate_scene("L9", 0)

    def test_sites_keep_minimum_spacing(self):
        layout = generate_scene("H2", 3)
        centers = [s.center for s in layout.sites]
        closest = min(
            math.dist(a, b) for i, a in enumerate(centers) for b in centers[i + 1 :]
        )
        assert closest > 0.5  # blue-noise sampling keeps sites apart

    def test_custom_archetype_accepted(self):
        custom = SceneArchetype(
            name="T1", sites=3, object_types=2, objects=9, area=36.0, placement="grid"
        )
        layout = generate_scene(custom, seed=0)
        assert len(layout.sites) == 3 and len(layout.objects) == 9

    def test_yaws_cluster_near_right_angles(self):
        # objects are wall-aligned with small angular scatter
        layout = generate_scene("H2", 11)
        for o in layout.objects:
            offset = min(abs(((o.pose.yaw - q * 90.0 + 180.0) % 360.0) - 180.0) for q in range(4))
            assert offset < 20.0


class TestPatrolRoute:
    def bounds_layout(self, *sites: VoronoiSite) -> SceneLayout:
        return SceneLayout(
            name="x",
            bounds=SceneBounds(width=20.0, depth=20.0),
            sites=sites,
            objects=(make_object("a-01", 10.0, 10.0),),
        )

    def test_single_site_circles_it(self):
        layout = self.bounds_layout(VoronoiSite(id="S01", center=(10.0, 10.0)))
        route = patrol_route(layout)
        assert len(route.segments) == 4
        assert path_length(route) > 0.0

    @pytest.mark.parametrize("count", [2, 3])
    def test_sites_sharing_one_center_circle_it(self, count):
        # a route through coincident centers would have no length, and its
        # two-site oval would divide by the distance between them
        one = self.bounds_layout(VoronoiSite(id="S01", center=(10.0, 10.0)))
        shared = self.bounds_layout(
            *(VoronoiSite(id=f"S{i:02d}", center=(10.0, 10.0)) for i in range(1, count + 1))
        )
        assert patrol_route(shared) == patrol_route(one)

    def test_two_sites_oval(self):
        layout = self.bounds_layout(
            VoronoiSite(id="S01", center=(5.0, 10.0)), VoronoiSite(id="S02", center=(15.0, 10.0))
        )
        route = patrol_route(layout)
        assert route.segments[0].p0 == route.segments[-1].p3  # closed

    def test_many_sites_loop_visits_each(self):
        layout = generate_scene("H1", 2)
        route = patrol_route(layout)
        starts = {seg.p0 for seg in route.segments}
        assert len(route.segments) == len(layout.sites)
        for site in layout.sites:
            assert site.center in starts

    def test_speed_and_interval_forwarded(self):
        layout = generate_scene("L1", 0)
        route = patrol_route(layout, speed=2.5, stop_interval=30.0)
        assert route.speed == 2.5 and route.stop_interval == 30.0


# The per-object position loops that the array expressions replaced, kept
# as references: the same draws must give the same bytes.


def loop_clustered_positions(rng, sites, count, types, side):
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


def loop_grid_positions(rng, count, side):
    g = math.ceil(math.sqrt(count))
    cell = side / g
    jitter = rng.uniform(-0.3, 0.3, size=(count, 2)) * cell
    positions = []
    for k in range(count):
        row, col = divmod((k * g * g) // count, g)
        x = (col + 0.5) * cell + float(jitter[k, 0])
        z = (row + 0.5) * cell + float(jitter[k, 1])
        positions.append((x, z))
    return positions


# the six archetypes, a 7-object grid (g = 3, so cells are skipped) and the
# 2000-object clustered scene
REFERENCE_ARCHETYPES = (
    *ARCHETYPES.values(),
    SceneArchetype("G7", sites=3, object_types=2, objects=7, area=30.0, placement="grid"),
    S2000,
)


def position_bytes(positions) -> bytes:
    assert all(type(v) is float for point in positions for v in point)
    return np.array(positions, dtype=float).tobytes()


class TestPositionsMatchTheLoops:
    @pytest.mark.parametrize("arch", REFERENCE_ARCHETYPES, ids=lambda a: a.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bytes(self, arch, seed):
        sites = generate_scene(arch, seed).sites
        if arch.placement == "clustered":
            args = (sites, arch.objects, arch.object_types, arch.side)
            ours = scenegen._clustered_positions(make_rng(seed), *args)
            theirs = loop_clustered_positions(make_rng(seed), *args)
        else:
            ours = scenegen._grid_positions(make_rng(seed), arch.objects, arch.side)
            theirs = loop_grid_positions(make_rng(seed), arch.objects, arch.side)
        assert position_bytes(ours) == position_bytes(theirs)

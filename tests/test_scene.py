"""Scene model: validation, visibility trigonometry, serialization."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relabel.partition import VoronoiSite
from relabel.path import camera_stops
from relabel.scene import (
    BoxDims,
    CameraState,
    Observation,
    PlanarPose,
    SceneBounds,
    SceneLayout,
    SceneParseError,
    SceneValidationError,
    bearing_deg,
    is_visible,
    load_scene,
    normalize_yaw,
    observation_from_dict,
    observation_to_dict,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    synthesize_observation,
    visible_objects,
)
from relabel.scenegen import ARCHETYPES, generate_scene, patrol_route

from .conftest import S2000, make_detection, make_object


class TestPose:
    def test_yaw_normalized_to_half_open_range(self):
        assert PlanarPose(0, 0, 360.0).yaw == 0.0
        assert PlanarPose(0, 0, -90.0).yaw == 270.0
        assert PlanarPose(0, 0, 725.0).yaw == 5.0

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_normalize_yaw_range(self, yaw):
        assert 0.0 <= normalize_yaw(yaw) < 360.0

    def test_rejects_non_finite(self):
        with pytest.raises(SceneValidationError):
            PlanarPose(math.nan, 0, 0)
        with pytest.raises(SceneValidationError):
            PlanarPose(0, math.inf, 0)


class TestDims:
    def test_rejects_non_positive(self):
        with pytest.raises(SceneValidationError):
            BoxDims(0.0, 1.0, 1.0)
        with pytest.raises(SceneValidationError):
            BoxDims(1.0, -2.0, 1.0)


class TestBounds:
    def test_diagonal_and_area(self):
        b = SceneBounds(width=3.0, depth=4.0)
        assert b.diagonal() == 5.0
        assert b.area() == 12.0

    def test_contains_is_inclusive(self):
        b = SceneBounds(width=5.0, depth=5.0)
        assert b.contains(0.0, 0.0) and b.contains(5.0, 5.0)
        assert not b.contains(5.0001, 2.0)


class TestLayout:
    def test_duplicate_labels_rejected(self, bounds):
        site = VoronoiSite(id="S01", center=(5.0, 5.0))
        objs = (make_object("a-01", 1, 1), make_object("a-01", 2, 2))
        with pytest.raises(SceneValidationError, match="label"):
            SceneLayout(name="x", bounds=bounds, sites=(site,), objects=objs)

    def test_duplicate_site_ids_rejected(self, bounds):
        sites = (VoronoiSite(id="S01", center=(1, 1)), VoronoiSite(id="S01", center=(2, 2)))
        with pytest.raises(SceneValidationError, match="site"):
            SceneLayout(name="x", bounds=bounds, sites=sites, objects=())

    def test_out_of_bounds_object_rejected(self, bounds):
        site = VoronoiSite(id="S01", center=(5.0, 5.0))
        with pytest.raises(SceneValidationError, match="bounds"):
            SceneLayout(
                name="x", bounds=bounds, sites=(site,),
                objects=(make_object("a-01", 11.0, 5.0),),
            )

    def test_object_by_label(self, two_site_layout):
        assert two_site_layout.object_by_label("chair-03").pose.x == 7.5
        with pytest.raises(KeyError):
            two_site_layout.object_by_label("chair-99")


class TestVisibility:
    def test_bearing_convention(self):
        # yaw 0 faces +z; +x is at 90 degrees
        assert bearing_deg((0, 0), (0, 1)) == 0.0
        assert bearing_deg((0, 0), (1, 0)) == 90.0
        assert bearing_deg((0, 0), (0, -1)) == 180.0
        assert bearing_deg((0, 0), (-1, 0)) == 270.0

    def test_inside_fov_and_range(self):
        cam = CameraState(position=(0.0, 0.0), yaw=0.0, fov=60.0, range=10.0)
        assert is_visible(cam, PlanarPose(0.0, 5.0, 0.0))
        # 29 degrees off axis: inside the half-angle
        assert is_visible(cam, PlanarPose(5.0 * math.tan(math.radians(29)), 5.0, 0.0))

    def test_outside_fov(self):
        cam = CameraState(position=(0.0, 0.0), yaw=0.0, fov=60.0, range=10.0)
        assert not is_visible(cam, PlanarPose(5.0, 0.5, 0.0))  # ~84 degrees off

    def test_outside_range(self):
        cam = CameraState(position=(0.0, 0.0), yaw=0.0, fov=60.0, range=10.0)
        assert not is_visible(cam, PlanarPose(0.0, 10.001, 0.0))
        assert is_visible(cam, PlanarPose(0.0, 10.0, 0.0))

    def test_fov_wraps_across_zero_bearing(self):
        cam = CameraState(position=(0.0, 0.0), yaw=350.0, fov=40.0, range=10.0)
        assert is_visible(cam, PlanarPose(0.0, 5.0, 0.0))  # bearing 0, offset 10

    def test_coincident_point_visible(self):
        cam = CameraState(position=(1.0, 1.0), yaw=123.0, fov=1.0, range=0.5)
        assert is_visible(cam, PlanarPose(1.0, 1.0, 0.0))

    def test_camera_validation(self):
        with pytest.raises(SceneValidationError):
            CameraState(position=(0, 0), yaw=0, fov=0.0)
        with pytest.raises(SceneValidationError):
            CameraState(position=(0, 0), yaw=0, fov=360.0)
        with pytest.raises(SceneValidationError):
            CameraState(position=(0, 0), yaw=0, range=0.0)

    def test_visible_objects_sorted_by_label(self, two_site_layout, wide_camera):
        labels = [o.label for o in visible_objects(two_site_layout, wide_camera)]
        assert labels == sorted(labels) and len(labels) == 4

    def test_synthesized_observation_strips_labels(self, two_site_layout, wide_camera):
        obs = synthesize_observation(two_site_layout, wide_camera)
        assert len(obs.detections) == 4
        assert all(not hasattr(d, "label") for d in obs.detections)
        assert obs.detections[0].object_type == "chair"


def scalar_visible(layout, camera):
    """The scalar rule alone: every object through `is_visible`, label-sorted."""
    seen = [o for o in layout.objects if is_visible(camera, o.pose)]
    return tuple(sorted(seen, key=lambda o: o.label))


def edge_layout(camera):
    """Objects on the range circle and on both FOV edges, one ulp either
    side of each in x and z, and 0, 1e-13 and 1e-12 m from the camera."""
    cx, cz = camera.position
    half = camera.fov / 2.0
    bearings = (camera.yaw - half, camera.yaw + half, camera.yaw, camera.yaw + 180.0)
    radii = (camera.range, camera.range / 2.0, 1e-12, 1e-13)
    spots = [(cx, cz)]
    for bearing in bearings:
        t = math.radians(bearing)
        for radius in radii:
            x, z = cx + radius * math.sin(t), cz + radius * math.cos(t)
            spots += [
                (math.nextafter(x, x + side_x), math.nextafter(z, z + side_z))
                for side_x in (-1.0, 0.0, 1.0)
                for side_z in (-1.0, 0.0, 1.0)
            ]
    objects = [make_object(f"o-{k:04d}", x, z) for k, (x, z) in enumerate(reversed(spots))]
    size = 2.0 * max(cx, cz)
    return SceneLayout(
        name="edges",
        bounds=SceneBounds(width=size, depth=size),
        sites=(VoronoiSite(id="S01", center=(cx, cz)),),
        objects=tuple(objects),
    )


class TestVisibleObjectsMatchScalar:
    """`visible_objects` prefilters with arrays; it must return exactly the
    label-sorted objects that `is_visible` accepts."""

    @pytest.mark.parametrize("fov", (1.0, 60.0, 179.0, 180.0, 181.0, 359.0))
    @pytest.mark.parametrize("yaw", (0.0, 0.25, 359.75, math.nextafter(360.0, 0.0), 123.0))
    @pytest.mark.parametrize("origin", (50.0, 1e6 - 0.3))
    def test_edges(self, fov, yaw, origin):
        camera = CameraState(position=(origin, origin + 0.7), yaw=yaw, fov=fov, range=7.0)
        layout = edge_layout(camera)
        expected = scalar_visible(layout, camera)
        assert visible_objects(layout, camera) == expected
        # the cases sit on the decision's edges: both outcomes occur
        assert 0 < len(expected) < len(layout.objects)

    def test_empty_layout(self, bounds, wide_camera):
        empty = SceneLayout(
            name="empty", bounds=bounds, sites=(VoronoiSite(id="S01", center=(1.0, 1.0)),),
            objects=(),
        )
        assert visible_objects(empty, wide_camera) == ()

    @pytest.mark.parametrize("archetype", sorted(ARCHETYPES))
    def test_patrol_stops(self, archetype):
        layout = generate_scene(archetype, 0)
        for camera in camera_stops(patrol_route(layout)):
            assert visible_objects(layout, camera) == scalar_visible(layout, camera)

    def test_large_scene_stops(self):
        layout = generate_scene(S2000, 0)
        for camera in camera_stops(patrol_route(layout))[::7]:
            assert visible_objects(layout, camera) == scalar_visible(layout, camera)


class TestSerialization:
    def test_scene_round_trip(self, two_site_layout, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(two_site_layout, path)
        assert load_scene(path) == two_site_layout

    def test_scene_file_is_stable_json(self, two_site_layout, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(two_site_layout, p1)
        save_scene(two_site_layout, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_observation_round_trip(self, two_site_layout, wide_camera):
        obs = synthesize_observation(two_site_layout, wide_camera)
        assert observation_from_dict(observation_to_dict(obs)) == obs

    def test_missing_field_reports_context(self):
        doc = scene_to_dict(
            SceneLayout(
                name="x",
                bounds=SceneBounds(width=5, depth=5),
                sites=(VoronoiSite(id="S01", center=(1, 1)),),
                objects=(make_object("a-01", 1, 1),),
            )
        )
        del doc["objects"][0]["pose"]
        with pytest.raises(SceneParseError, match="pose"):
            scene_from_dict(doc)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  broken\n}')
        with pytest.raises(SceneParseError, match="line 2"):
            load_scene(path)

    def test_untyped_detection_round_trips_as_none(self):
        obs = Observation(
            camera=CameraState(position=(0.0, 0.0), yaw=0.0),
            detections=(make_detection(1.0, 1.0, object_type=None),),
        )
        doc = json.loads(json.dumps(observation_to_dict(obs)))
        assert observation_from_dict(doc).detections[0].object_type is None

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=-720.0, max_value=720.0),
    )
    def test_pose_round_trip_exact(self, x, z, yaw):
        layout = SceneLayout(
            name="prop",
            bounds=SceneBounds(width=10.0, depth=10.0),
            sites=(VoronoiSite(id="S01", center=(5.0, 5.0)),),
            objects=(make_object("a-01", x, z, yaw),),
        )
        back = scene_from_dict(json.loads(json.dumps(scene_to_dict(layout))))
        assert back == layout

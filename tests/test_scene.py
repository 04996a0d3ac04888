"""Scene model: validation, visibility trigonometry, serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relabel.partition import VoronoiSite, candidate_labels, candidate_rows
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
    is_visible,
    layout_arrays,
    load_scene,
    normalize_yaw,
    object_arrays,
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
        # yaw 0 faces +z; +x is at 90 degrees: a narrow camera at each yaw
        # sees the object in that direction and none of the other three
        ahead = {0.0: (0.0, 1.0), 90.0: (1.0, 0.0), 180.0: (0.0, -1.0), 270.0: (-1.0, 0.0)}
        for yaw in ahead:
            cam = CameraState(position=(0.0, 0.0), yaw=yaw, fov=2.0, range=10.0)
            seen = [at for at, (x, z) in ahead.items() if is_visible(cam, PlanarPose(x, z, 0.0))]
            assert seen == [yaw]

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


# four boxes, the third a permutation of the first (told apart by value);
# objects 0, 2 and 5 share the first box, 1 and 4 the second
TAKE_BOXES = ((0.5, 0.9, 0.5), (1.4, 0.8, 0.9), (0.9, 0.5, 0.5), (0.4, 0.4, 0.4))
TAKE_OBJECTS = tuple(
    make_object(f"o{i}", float(i), 2.0 * i % 7, 40.0 * i, ("chair", "table")[i % 2], TAKE_BOXES[b])
    for i, b in enumerate((0, 1, 0, 2, 1, 0, 3))
)


def assert_same_view(taken, built):
    """`taken` holds what `built`, a view of the same items, holds: its box
    rows may number the boxes in another order, but every item's box is the
    same, and no box is held twice or left unused."""
    assert taken.objects == built.objects
    assert taken.types == built.types
    for name in ("x", "z", "yaw"):
        assert getattr(taken, name).tobytes() == getattr(built, name).tobytes()
    assert taken.boxes.shape == built.boxes.shape
    assert taken.boxes[taken.box_row].tobytes() == built.boxes[built.box_row].tobytes()
    assert len({tuple(b) for b in taken.boxes.tolist()}) == len(taken.boxes)
    assert sorted(set(taken.box_row.tolist())) == list(range(len(taken.boxes)))
    for array in (taken.x, taken.z, taken.yaw, taken.boxes, taken.box_row):
        assert not array.flags.writeable


class TestObjectArraysTake:
    """A row selection of a view is the view of the selected items."""

    @pytest.mark.parametrize(
        "rows",
        [[5, 1, 3, 0], [], [0, 2, 5], [4, 6], [6, 5, 4, 3, 2, 1, 0], [3]],
        ids=["unsorted", "empty", "one-shared-box", "skips-boxes", "all-reversed", "one"],
    )
    def test_rows_match_a_view_of_the_same_objects(self, rows):
        taken = object_arrays(TAKE_OBJECTS).take(np.array(rows, dtype=np.intp))
        assert_same_view(taken, object_arrays(tuple(TAKE_OBJECTS[i] for i in rows)))

    @given(rows=st.lists(st.integers(0, len(TAKE_OBJECTS) - 1), unique=True))
    def test_any_selection_matches(self, rows):
        taken = object_arrays(TAKE_OBJECTS).take(np.array(rows, dtype=np.intp))
        assert_same_view(taken, object_arrays(tuple(TAKE_OBJECTS[i] for i in rows)))

    def test_selection_keeps_only_the_boxes_it_uses(self):
        view = object_arrays(TAKE_OBJECTS)
        assert len(view.boxes) == 4
        taken = view.take(np.array([4, 6], dtype=np.intp))
        assert taken.boxes.tolist() == [list(TAKE_BOXES[1]), list(TAKE_BOXES[3])]
        assert taken.box_row.tolist() == [0, 1]
        assert view.take(np.array([5, 0, 2], dtype=np.intp)).box_row.tolist() == [0, 0, 0]

    def test_selection_leaves_the_view_unchanged(self):
        view = object_arrays(TAKE_OBJECTS)
        before = [a.tobytes() for a in (view.x, view.z, view.yaw, view.boxes, view.box_row)]
        view.take(np.array([6, 1], dtype=np.intp))
        after = [a.tobytes() for a in (view.x, view.z, view.yaw, view.boxes, view.box_row)]
        assert after == before
        assert_same_view(view, object_arrays(TAKE_OBJECTS))

    @pytest.mark.parametrize("archetype", sorted(ARCHETYPES))
    def test_site_pools_match_their_objects(self, archetype):
        layout = generate_scene(archetype, 2)
        view = layout_arrays(layout)
        for site in layout.sites:
            taken = view.take(candidate_rows(layout, {site.id}))
            assert_same_view(taken, object_arrays(candidate_labels(layout, {site.id})))

    def test_detection_view_holds_their_types(self):
        detections = (
            make_detection(1.0, 2.0, 30.0, object_type="chair"),
            make_detection(3.0, 1.0, 350.0, (1.4, 0.8, 0.9)),
            make_detection(1.0, 2.0, 30.0, object_type="chair"),
        )
        view = object_arrays(detections)
        assert view.types == ("chair", None, "chair")
        assert view.box_row.tolist() == [0, 1, 0]
        taken = view.take(np.array([2, 1], dtype=np.intp))
        assert_same_view(taken, object_arrays(detections[:0:-1]))


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

"""Bezier routes: arc length, stop placement, tangent headings, files."""

from __future__ import annotations

import math

import numpy as np
import pytest

from relabel.path import (
    MAX_STOPS,
    BezierSegment,
    CameraPath,
    camera_stops,
    catmull_rom_loop,
    circle_path,
    load_path,
    path_from_dict,
    path_length,
    path_to_dict,
    pose_at_arc,
    save_path,
    _stop_marks,
)
from relabel.scene import SceneParseError, SceneValidationError


def straight(p0=(0.0, 0.0), p3=(10.0, 0.0)) -> BezierSegment:
    third = ((p3[0] - p0[0]) / 3.0, (p3[1] - p0[1]) / 3.0)
    return BezierSegment(
        p0=p0,
        p1=(p0[0] + third[0], p0[1] + third[1]),
        p2=(p0[0] + 2 * third[0], p0[1] + 2 * third[1]),
        p3=p3,
    )


class TestSegments:
    def test_straight_segment_length(self):
        assert straight().length(0.0, 1.0) == pytest.approx(10.0, abs=1e-9)

    def test_arc_length_matches_fine_polyline(self):
        seg = BezierSegment(p0=(0, 0), p1=(2, 5), p2=(7, -3), p3=(10, 1))
        ts = np.linspace(0.0, 1.0, 20001)
        pts = np.array([seg.point(t) for t in ts])
        poly = float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))
        assert seg.length(0.0, 1.0) == pytest.approx(poly, abs=1e-6)

    def test_endpoints(self):
        seg = BezierSegment(p0=(1, 2), p1=(3, 4), p2=(5, 6), p3=(7, 8))
        assert seg.point(0.0) == (1.0, 2.0)
        assert seg.point(1.0) == (7.0, 8.0)


class TestPathValidation:
    def test_disconnected_segments_rejected(self):
        with pytest.raises(SceneValidationError, match="connect"):
            CameraPath(segments=(straight(), straight((20.0, 0.0), (30.0, 0.0))), speed=1.0)

    def test_speed_and_interval_validated(self):
        with pytest.raises(SceneValidationError):
            CameraPath(segments=(straight(),), speed=0.0)
        with pytest.raises(SceneValidationError):
            CameraPath(segments=(straight(),), speed=1.0, stop_interval=0.5)
        with pytest.raises(SceneValidationError):
            CameraPath(segments=(straight(),), speed=math.inf)
        with pytest.raises(SceneValidationError):
            CameraPath(segments=(straight(),), speed=1.0, stop_interval=math.inf)

    def test_empty_segments_rejected(self):
        with pytest.raises(SceneValidationError):
            CameraPath(segments=(), speed=1.0)


class TestStops:
    def test_ten_meter_reference_route(self):
        # 10 m at 1 m/s, a stop every 100 frames at 60 fps: spacing 5/3 m,
        # giving stops at 0, 5/3, ..., 10 -> 7 stops with both endpoints
        path = CameraPath(segments=(straight(),), speed=1.0, stop_interval=100.0)
        stops = camera_stops(path, frame_rate=60.0)
        assert len(stops) == 7
        xs = [s.position[0] for s in stops]
        assert xs[0] == 0.0
        assert xs[-1] == pytest.approx(10.0, abs=1e-9)
        assert xs == pytest.approx([i * 10.0 / 6.0 for i in range(7)], abs=1e-6)

    def test_uneven_final_gap_still_ends_at_endpoint(self):
        path = CameraPath(segments=(straight(),), speed=1.0, stop_interval=180.0)
        stops = camera_stops(path, frame_rate=60.0)
        xs = [s.position[0] for s in stops]
        assert xs == pytest.approx([0.0, 3.0, 6.0, 9.0, 10.0], abs=1e-9)

    def test_stop_count_bounded(self):
        # a route holds at most MAX_STOPS spacings; the count is checked
        # before any mark is made
        assert len(_stop_marks(float(MAX_STOPS - 1), 1.0)) == MAX_STOPS
        with pytest.raises(SceneValidationError, match=f"more than {MAX_STOPS} stops"):
            _stop_marks(float(MAX_STOPS), 1.0)
        # speed * stop_interval / frame_rate can underflow to zero
        with pytest.raises(SceneValidationError, match="stop spacing 0 m"):
            _stop_marks(10.0, 0.0)

    @pytest.mark.parametrize("frame_rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_frame_rate_rejected_by_name(self, frame_rate):
        path = CameraPath(segments=(straight(),), speed=1.0)
        with pytest.raises(SceneValidationError, match="frame rate must be finite"):
            camera_stops(path, frame_rate=frame_rate)

    def test_overflowing_spacing_rejected_by_name(self):
        # 1e307 * 100 / 60 overflows to inf, and inf spacing makes a NaN
        # first mark (0 * inf) before any stop is placed
        path = CameraPath(segments=(straight(),), speed=1e307)
        with pytest.raises(SceneValidationError, match="stop spacing must be finite, got inf"):
            camera_stops(path)

    def test_heading_follows_tangent(self):
        # +x heading is yaw 90; +z is yaw 0
        east = CameraPath(segments=(straight(),), speed=1.0)
        assert camera_stops(east)[0].yaw == pytest.approx(90.0, abs=1e-6)
        north = CameraPath(segments=(straight((0, 0), (0, 10.0)),), speed=1.0)
        assert camera_stops(north)[0].yaw == pytest.approx(0.0, abs=1e-6)

    def test_fov_and_range_passed_through(self):
        path = CameraPath(segments=(straight(),), speed=1.0)
        cam = camera_stops(path, fov=42.0, range=6.5)[0]
        assert cam.fov == 42.0 and cam.range == 6.5


class TestRoutes:
    def test_circle_length_close_to_circumference(self):
        path = circle_path(center=(3.0, 4.0), radius=2.0, speed=1.0)
        assert path_length(path) == pytest.approx(2 * math.pi * 2.0, rel=1e-3)

    def test_circle_is_closed_and_round(self):
        path = circle_path(center=(0.0, 0.0), radius=1.0, speed=1.0)
        assert path.segments[0].p0 == path.segments[-1].p3
        for s in np.linspace(0.0, path_length(path), 33):
            (x, z), _yaw = pose_at_arc(path, float(s))
            assert math.hypot(x, z) == pytest.approx(1.0, abs=3e-3)

    def test_catmull_rom_passes_through_waypoints(self):
        points = ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0))
        path = catmull_rom_loop(points, speed=1.0)
        assert len(path.segments) == 4
        for seg, p in zip(path.segments, points):
            assert seg.p0 == p
        assert path.segments[-1].p3 == points[0]

    def test_bad_points_named(self):
        with pytest.raises(SceneParseError, match=r"segment\.p0"):
            BezierSegment(("a", 0), (1, 0), (2, 0), (3, 0))
        with pytest.raises(SceneParseError, match=r"points\[1\]"):
            catmull_rom_loop(((0, 0), (1, None), (2, 0)))
        with pytest.raises(SceneValidationError, match=r"points\[2\]\.z must be finite"):
            catmull_rom_loop(((0, 0), (1, 1), (2, math.inf)))
        doc = path_to_dict(CameraPath(segments=(straight(),)))
        doc["segments"][0]["p1"] = [1.0, math.nan]
        with pytest.raises(SceneValidationError, match=r"segments\[0\]\.p1\.z must be finite"):
            path_from_dict(doc)

    def test_catmull_rom_needs_three_points(self):
        with pytest.raises(SceneValidationError):
            catmull_rom_loop(((0.0, 0.0), (1.0, 1.0)), speed=1.0)


class TestPathFiles:
    def test_round_trip(self, tmp_path):
        path = circle_path(center=(1.0, 2.0), radius=3.0, speed=0.5, stop_interval=120.0)
        file = tmp_path / "route.json"
        save_path(path, file)
        loaded = load_path(file)
        assert loaded == path

    def test_dict_round_trip(self):
        path = catmull_rom_loop(((0.0, 0.0), (5.0, 1.0), (2.0, 6.0)), speed=2.0)
        assert path_from_dict(path_to_dict(path)) == path

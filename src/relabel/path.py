"""Camera routes as chained cubic Bezier segments.

A route carries a travel speed (m/s) and a stop interval in frames: the
camera pauses to look around every `stop_interval / frame_rate` seconds,
i.e. at equal arc-length spacing along the curve.  Stops always include both
endpoints of the route.  The camera faces along the local tangent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from scipy.integrate import quad
from scipy.optimize import brentq

from .scene import (
    CameraState,
    SceneParseError,
    SceneValidationError,
    _entries,
    _get,
    _load_json,
    _num,
    _pair,
    _require_finite,
    normalize_yaw,
)

Point = tuple[float, float]

# control-point offset that makes 4 cubic arcs approximate a circle
_CIRCLE_KAPPA = 0.5522847498307936


def _as_point(value, what: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SceneParseError(f"'{what}' must be a pair [x, z]")
    x, z = float(value[0]), float(value[1])
    if not (math.isfinite(x) and math.isfinite(z)):
        raise SceneValidationError(f"'{what}' must be finite, got ({x}, {z})")
    return x, z


@dataclass(frozen=True, slots=True)
class BezierSegment:
    """One cubic Bezier arc with control points p0..p3 on the xz-plane."""

    p0: Point
    p1: Point
    p2: Point
    p3: Point

    def __post_init__(self) -> None:
        for name in ("p0", "p1", "p2", "p3"):
            object.__setattr__(self, name, _as_point(getattr(self, name), f"segment.{name}"))

    def point(self, t: float) -> Point:
        u = 1.0 - t
        a, b, c, d = u * u * u, 3.0 * u * u * t, 3.0 * u * t * t, t * t * t
        return (
            a * self.p0[0] + b * self.p1[0] + c * self.p2[0] + d * self.p3[0],
            a * self.p0[1] + b * self.p1[1] + c * self.p2[1] + d * self.p3[1],
        )

    def derivative(self, t: float) -> Point:
        u = 1.0 - t
        a, b, c = 3.0 * u * u, 6.0 * u * t, 3.0 * t * t
        return (
            a * (self.p1[0] - self.p0[0]) + b * (self.p2[0] - self.p1[0]) + c * (self.p3[0] - self.p2[0]),
            a * (self.p1[1] - self.p0[1]) + b * (self.p2[1] - self.p1[1]) + c * (self.p3[1] - self.p2[1]),
        )

    def length(self, t0: float = 0.0, t1: float = 1.0) -> float:
        if t1 <= t0:
            return 0.0
        value, _ = quad(lambda t: math.hypot(*self.derivative(t)), t0, t1, limit=200)
        return value


@dataclass(frozen=True, slots=True)
class CameraPath:
    """A connected chain of Bezier segments plus travel parameters."""

    segments: tuple[BezierSegment, ...]
    speed: float = 1.0
    stop_interval: float = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise SceneValidationError("path must contain at least one segment")
        for i, (a, b) in enumerate(zip(self.segments, self.segments[1:])):
            gap = math.hypot(a.p3[0] - b.p0[0], a.p3[1] - b.p0[1])
            if gap > 1e-9:
                raise SceneValidationError(
                    f"segments {i} and {i + 1} are disconnected (gap {gap:.3g} m)"
                )
        if _require_finite(self.speed, "path speed") <= 0.0:
            raise SceneValidationError(f"path speed must be > 0, got {self.speed}")
        if _require_finite(self.stop_interval, "stop interval") < 1.0:
            raise SceneValidationError(f"stop interval must be >= 1 frame, got {self.stop_interval}")


def segment_lengths(path: CameraPath) -> tuple[float, ...]:
    return tuple(seg.length() for seg in path.segments)


def path_length(path: CameraPath) -> float:
    return sum(segment_lengths(path))


def _param_at_arc(segment: BezierSegment, target: float, seg_length: float) -> float:
    """Curve parameter t where the arc length from 0 reaches `target`."""
    if target <= 0.0:
        return 0.0
    if target >= seg_length:
        return 1.0
    return brentq(lambda t: segment.length(0.0, t) - target, 0.0, 1.0, xtol=1e-12)


def _locate(path: CameraPath, lengths: tuple[float, ...], s: float) -> tuple[BezierSegment, float]:
    remaining = s
    for segment, seg_len in zip(path.segments, lengths):
        if remaining <= seg_len or segment is path.segments[-1]:
            return segment, _param_at_arc(segment, remaining, seg_len)
        remaining -= seg_len
    return path.segments[-1], 1.0


def _tangent_yaw(segment: BezierSegment, t: float, previous: float) -> float:
    """Facing direction along the curve; falls back near degenerate tangents."""
    for probe in (t, min(t + 1e-6, 1.0), max(t - 1e-6, 0.0)):
        dx, dz = segment.derivative(probe)
        if math.hypot(dx, dz) > 1e-12:
            return normalize_yaw(math.degrees(math.atan2(dx, dz)))
    return previous


def pose_at_arc(path: CameraPath, s: float) -> tuple[Point, float]:
    """(position, yaw) at arc length s from the start of the route."""
    lengths = segment_lengths(path)
    total = sum(lengths)
    segment, t = _locate(path, lengths, min(max(s, 0.0), total))
    return segment.point(t), _tangent_yaw(segment, t, 0.0)


def _stop_marks(total: float, spacing: float) -> list[float]:
    # the epsilon keeps a stop that lands exactly on the endpoint from being
    # lost to float dust in total / spacing
    marks = [k * spacing for k in range(int(total / spacing + 1e-9) + 1)]
    if total - marks[-1] > 1e-9:
        marks.append(total)
    return marks


def camera_stops(
    path: CameraPath,
    fov: float = 60.0,
    range: float = 10.0,
    frame_rate: float = 60.0,
) -> tuple[CameraState, ...]:
    """Camera states at every stop along the route, endpoints included.

    Stop spacing is speed * stop_interval / frame_rate meters.  The final
    endpoint is appended unless a regular stop already lands on it.
    """
    if frame_rate <= 0.0:
        raise SceneValidationError(f"frame rate must be > 0, got {frame_rate}")
    lengths = segment_lengths(path)
    total = sum(lengths)
    if not 0.0 < total < math.inf:
        raise SceneValidationError(f"path length must be finite and > 0, got {total}")
    spacing = path.speed * path.stop_interval / frame_rate
    marks = _stop_marks(total, spacing)
    stops = []
    yaw = 0.0
    for s in marks:
        segment, t = _locate(path, lengths, s)
        yaw = _tangent_yaw(segment, t, yaw)
        stops.append(CameraState(position=segment.point(t), yaw=yaw, fov=fov, range=range))
    return tuple(stops)


# ---------------------------------------------------------------------------
# Route construction
# ---------------------------------------------------------------------------


def circle_path(
    center: Point, radius: float, speed: float = 1.0, stop_interval: float = 100.0
) -> CameraPath:
    """Closed circular route of four arcs, starting east of `center`."""
    if radius <= 0.0:
        raise SceneValidationError(f"circle radius must be > 0, got {radius}")
    cx, cz = center
    k = _CIRCLE_KAPPA * radius
    east, north = (cx + radius, cz), (cx, cz + radius)
    west, south = (cx - radius, cz), (cx, cz - radius)
    segments = (
        BezierSegment(east, (east[0], east[1] + k), (north[0] + k, north[1]), north),
        BezierSegment(north, (north[0] - k, north[1]), (west[0], west[1] + k), west),
        BezierSegment(west, (west[0], west[1] - k), (south[0] - k, south[1]), south),
        BezierSegment(south, (south[0] + k, south[1]), (east[0], east[1] - k), east),
    )
    return CameraPath(segments=segments, speed=speed, stop_interval=stop_interval)


def catmull_rom_loop(
    points: tuple[Point, ...], speed: float = 1.0, stop_interval: float = 100.0
) -> CameraPath:
    """Smooth closed route through `points` in order (uniform Catmull-Rom)."""
    pts = [_as_point(p, f"points[{i}]") for i, p in enumerate(points)]
    if len(pts) < 3:
        raise SceneValidationError("a loop needs at least 3 waypoints")
    n = len(pts)
    segments = []
    for i in range(n):
        prev, a, b, after = pts[i - 1], pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        c1 = (a[0] + (b[0] - prev[0]) / 6.0, a[1] + (b[1] - prev[1]) / 6.0)
        c2 = (b[0] - (after[0] - a[0]) / 6.0, b[1] - (after[1] - a[1]) / 6.0)
        segments.append(BezierSegment(a, c1, c2, b))
    return CameraPath(segments=tuple(segments), speed=speed, stop_interval=stop_interval)


# ---------------------------------------------------------------------------
# JSON serialization: {"segments": [{"p0": [x, z], ... "p3": [x, z]}],
#                      "speed": float, "stop_interval": float}
# ---------------------------------------------------------------------------


def path_to_dict(path: CameraPath) -> dict:
    return {
        "segments": [
            {"p0": list(s.p0), "p1": list(s.p1), "p2": list(s.p2), "p3": list(s.p3)}
            for s in path.segments
        ],
        "speed": path.speed,
        "stop_interval": path.stop_interval,
    }


def path_from_dict(doc: dict) -> CameraPath:
    corners = ("p0", "p1", "p2", "p3")
    segments = [
        BezierSegment(*(_pair(_get(seg_doc, k, ctx), f"{ctx}.{k}") for k in corners))
        for ctx, seg_doc in _entries(doc, "segments")
    ]
    return CameraPath(
        segments=tuple(segments),
        speed=_num(doc, "speed", "") if "speed" in doc else 1.0,
        stop_interval=_num(doc, "stop_interval", "") if "stop_interval" in doc else 100.0,
    )


def load_path(path: str | Path) -> CameraPath:
    return path_from_dict(_load_json(path))


def save_path(route: CameraPath, path: str | Path) -> None:
    Path(path).write_text(json.dumps(path_to_dict(route), indent=2) + "\n", encoding="utf-8")

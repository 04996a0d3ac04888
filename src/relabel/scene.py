"""Geometric and semantic data model for scenes, cameras, and observations.

All geometry is planar on the xz-plane: objects slide and rotate on the
floor, never move vertically.  Angles are degrees, lengths are meters.
Every type here is an immutable value object; operations are pure functions.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .partition import VoronoiSite


class SceneValidationError(ValueError):
    """A scene or observation violates one of its structural invariants."""


class SceneParseError(ValueError):
    """A scene/observation file could not be parsed into a valid document."""


def normalize_yaw(yaw: float) -> float:
    """Map an angle in degrees into [0, 360)."""
    yaw = yaw % 360.0
    # a tiny negative input rounds up to exactly 360.0 under fmod
    return 0.0 if yaw == 360.0 else yaw


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise SceneValidationError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class PlanarPose:
    """Position on the xz-plane plus rotation about the vertical axis.

    yaw is stored normalized to [0, 360).
    """

    x: float
    z: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _require_finite(self.x, "pose.x"))
        object.__setattr__(self, "z", _require_finite(self.z, "pose.z"))
        object.__setattr__(self, "yaw", normalize_yaw(_require_finite(self.yaw, "pose.yaw")))


@dataclass(frozen=True, slots=True)
class BoxDims:
    """Bounding-box dimensions: width, height, depth. All strictly positive."""

    w: float
    h: float
    d: float

    def __post_init__(self) -> None:
        for name in ("w", "h", "d"):
            value = _require_finite(getattr(self, name), f"dims.{name}")
            if value <= 0.0:
                raise SceneValidationError(f"dims.{name} must be > 0, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class ObjectInstance:
    """A labeled object of the initial layout: the source of one candidate label."""

    label: str
    object_type: str
    pose: PlanarPose
    dims: BoxDims

    def __post_init__(self) -> None:
        if not self.label:
            raise SceneValidationError("object label must be a non-empty string")


@dataclass(frozen=True, slots=True)
class SceneBounds:
    """Rectangular floor extent: x in [0, width], z in [0, depth]."""

    width: float
    depth: float

    def __post_init__(self) -> None:
        for name in ("width", "depth"):
            value = _require_finite(getattr(self, name), f"bounds.{name}")
            if value <= 0.0:
                raise SceneValidationError(f"bounds.{name} must be > 0, got {value}")
            object.__setattr__(self, name, value)
        # costs divide by the diagonal and default weights scale with the area
        if not (math.isfinite(self.area()) and math.isfinite(self.diagonal())):
            raise SceneValidationError(
                f"bounds {self.width!r} x {self.depth!r} give a floor whose area or "
                "diagonal overflows"
            )

    def diagonal(self) -> float:
        return math.hypot(self.width, self.depth)

    def area(self) -> float:
        return self.width * self.depth

    def contains(self, x: float, z: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= z <= self.depth


def _pose_planes(items: tuple[Detection, ...] | tuple[ObjectInstance, ...]) -> np.ndarray:
    """x, z and yaw of each item's pose as three contiguous rows."""
    poses = [item.pose for item in items]
    return np.array(
        [[p.x for p in poses], [p.z for p in poses], [p.yaw for p in poses]], dtype=float
    ).reshape(3, len(poses))


def _distinct_boxes(
    items: tuple[Detection, ...] | tuple[ObjectInstance, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct box among `items` once, as a (k, 3) array, and the row
    of every item's box in it.  Boxes are told apart by value, not by type."""
    rows: dict[BoxDims, int] = {}
    index = [rows.setdefault(item.dims, len(rows)) for item in items]
    boxes = np.array([(b.w, b.h, b.d) for b in rows], dtype=float).reshape(len(rows), 3)
    return boxes, np.array(index, dtype=np.intp)


@dataclass(frozen=True, slots=True, eq=False)
class ObjectArrays:
    """Objects or detections in a fixed order, with their types, as
    read-only arrays: the x, z and yaw planes of their poses, and their
    distinct boxes with the row of each item's box in them."""

    objects: tuple[ObjectInstance, ...] | tuple[Detection, ...]
    types: tuple[str | None, ...]
    x: np.ndarray
    z: np.ndarray
    yaw: np.ndarray
    boxes: np.ndarray
    box_row: np.ndarray

    def take(self, rows: np.ndarray) -> ObjectArrays:
        """Rows `rows` of this view, in that order, with only the boxes
        those rows use."""
        used, box_row = np.unique(self.box_row[rows], return_inverse=True)
        arrays = (self.x[rows], self.z[rows], self.yaw[rows], self.boxes[used], box_row)
        for array in arrays:
            array.flags.writeable = False
        picked = rows.tolist()
        objects = tuple([self.objects[i] for i in picked])
        return ObjectArrays(objects, tuple([self.types[i] for i in picked]), *arrays)


def object_arrays(objects: tuple[ObjectInstance, ...] | tuple[Detection, ...]) -> ObjectArrays:
    """The array view of `objects` (or of detections), in the order given."""
    planes = _pose_planes(objects)
    boxes, box_row = _distinct_boxes(objects)
    for array in (planes, boxes, box_row):
        array.flags.writeable = False
    x, z, yaw = planes
    types = tuple([o.object_type for o in objects])
    return ObjectArrays(tuple(objects), types, x, z, yaw, boxes, box_row)


@dataclass(frozen=True, slots=True)
class SceneLayout:
    """The ground-truth scene: bounds, Voronoi sites, and labeled objects.

    Two caches are filled on first use: `arrays`, the array view of the
    objects in label order (`layout_arrays`), and `site_membership`, the
    index into `sites` of each of those objects' containing site (filled
    by `partition.candidate_rows`).  Neither takes part in equality,
    hashing or repr, and a layout built by `dataclasses.replace` starts
    without them.
    """

    name: str
    bounds: SceneBounds
    sites: tuple[VoronoiSite, ...]
    objects: tuple[ObjectInstance, ...]
    arrays: ObjectArrays | None = field(default=None, init=False, repr=False, compare=False)
    site_membership: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "objects", tuple(self.objects))
        if not self.sites:
            raise SceneValidationError("layout must define at least one site")
        site_ids = [s.id for s in self.sites]
        if len(set(site_ids)) != len(site_ids):
            raise SceneValidationError("site ids must be unique within a layout")
        labels = [o.label for o in self.objects]
        if len(set(labels)) != len(labels):
            raise SceneValidationError("object labels must be unique within a layout")
        for site in self.sites:
            if not self.bounds.contains(*site.center):
                raise SceneValidationError(
                    f"site '{site.id}' center {site.center} outside bounds "
                    f"[0, {self.bounds.width}] x [0, {self.bounds.depth}]"
                )
        for obj in self.objects:
            if not self.bounds.contains(obj.pose.x, obj.pose.z):
                raise SceneValidationError(
                    f"object '{obj.label}' at ({obj.pose.x}, {obj.pose.z}) outside bounds "
                    f"[0, {self.bounds.width}] x [0, {self.bounds.depth}]"
                )

    def object_by_label(self, label: str) -> ObjectInstance:
        for obj in self.objects:
            if obj.label == label:
                return obj
        raise KeyError(label)


def layout_arrays(layout: SceneLayout) -> ObjectArrays:
    """The layout's objects in label order as arrays, built on first use and
    kept on the layout."""
    view = layout.arrays
    if view is None:
        view = object_arrays(tuple(sorted(layout.objects, key=lambda o: o.label)))
        object.__setattr__(layout, "arrays", view)
    return view


@dataclass(frozen=True, slots=True)
class CameraState:
    """Planar camera: position, facing direction, FOV wedge, and detection range.

    yaw 0 faces the +z axis; yaw grows toward +x (yaw 90 faces +x).
    fov is the full horizontal field-of-view angle.
    """

    position: tuple[float, float]
    yaw: float
    fov: float = 60.0
    range: float = 10.0

    def __post_init__(self) -> None:
        x, z = self.position
        object.__setattr__(
            self,
            "position",
            (_require_finite(x, "camera.x"), _require_finite(z, "camera.z")),
        )
        object.__setattr__(self, "yaw", normalize_yaw(_require_finite(self.yaw, "camera.yaw")))
        if not 0.0 < self.fov < 360.0:
            raise SceneValidationError(f"camera.fov must be in (0, 360), got {self.fov}")
        if _require_finite(self.range, "camera.range") <= 0.0:
            raise SceneValidationError(f"camera.range must be > 0, got {self.range}")


@dataclass(frozen=True, slots=True)
class Detection:
    """An unlabeled object seen by the camera in the changed layout."""

    pose: PlanarPose
    dims: BoxDims
    object_type: str | None = None


@dataclass(frozen=True, slots=True)
class Observation:
    """One camera state plus whatever it detected. Detections may be empty."""

    camera: CameraState
    detections: tuple[Detection, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))


def is_visible(camera: CameraState, pose: PlanarPose) -> bool:
    """Center-point visibility: within range and within the half-FOV wedge."""
    dx = pose.x - camera.position[0]
    dz = pose.z - camera.position[1]
    dist = math.hypot(dx, dz)
    if dist > camera.range:
        return False
    if dist < 1e-12:
        # coincident with the camera: bearing is undefined, treat as seen
        return True
    bearing = math.degrees(math.atan2(dx, dz))
    offset = abs((bearing - camera.yaw + 180.0) % 360.0 - 180.0)
    return offset <= camera.fov / 2.0


def visible_objects(layout: SceneLayout, camera: CameraState) -> tuple[ObjectInstance, ...]:
    """Objects of `layout` visible from `camera`, sorted by label.

    One array pass over the layout's planes drops the objects that are out
    of range, or out of the FOV wedge (`along < dist * cos(fov / 2)`), by
    more than a slack of 1e-9 * (dist + 1), far above the rounding of
    either route; `is_visible` decides every object that is left.
    """
    view = layout_arrays(layout)
    cam_x, cam_z = camera.position
    dx = view.x - cam_x
    dz = view.z - cam_z
    dist = np.hypot(dx, dz)
    slack = 1e-9 * (dist + 1.0)
    yaw = math.radians(camera.yaw)
    along = dx * math.sin(yaw) + dz * math.cos(yaw)
    dropped = (dist - slack > camera.range) | (
        along < dist * math.cos(math.radians(camera.fov / 2.0)) - slack
    )
    left = [view.objects[i] for i in np.flatnonzero(~dropped).tolist()]
    return tuple(o for o in left if is_visible(camera, o.pose))


def synthesize_observation(layout: SceneLayout, camera: CameraState) -> Observation:
    """Perfect-sensor observation: every visible object becomes one detection.

    Detection order follows label sort order of the source objects so that
    repeated runs are reproducible; labels themselves are stripped.
    """
    detections = tuple(
        Detection(pose=o.pose, dims=o.dims, object_type=o.object_type)
        for o in visible_objects(layout, camera)
    )
    return Observation(camera=camera, detections=detections)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Scene file schema:
#   {name, bounds: {width, depth}, sites: [{id, center: [x, z]}],
#    objects: [{label, type, pose: {x, z, yaw}, dims: {w, h, d}}]}
# Observation file schema:
#   {camera: {position: [x, z], yaw, fov, range},
#    detections: [{type?, pose: {x, z, yaw}, dims: {w, h, d}}]}
# ---------------------------------------------------------------------------


def _get(doc: dict, key: str, ctx: str) -> Any:
    if not isinstance(doc, dict):
        raise SceneParseError(f"expected an object at {ctx or 'top level'}")
    if key not in doc:
        where = f" in {ctx}" if ctx else ""
        raise SceneParseError(f"missing required field '{key}'{where}")
    return doc[key]

def _is_number(value: Any) -> bool:
    # JSON integers are unbounded; one beyond the float range is no number here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max

def _num(doc: dict, key: str, ctx: str) -> float:
    value = _get(doc, key, ctx)
    if not _is_number(value):
        raise SceneParseError(f"field '{key}' in {ctx or 'document'} must be a number")
    return float(value)

def _pair(value: Any, what: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise SceneParseError(f"field '{what}' must be a pair of numbers [x, z]")
    return float(value[0]), float(value[1])

def _entries(doc: dict, key: str) -> list[tuple[str, dict]]:
    """The top-level list `key`, each entry paired with its path; every entry
    must be an object."""
    value = _get(doc, key, "")
    if not isinstance(value, list):
        raise SceneParseError(f"field '{key}' must be a list")
    entries = [(f"{key}[{i}]", entry) for i, entry in enumerate(value)]
    for ctx, entry in entries:
        if not isinstance(entry, dict):
            raise SceneParseError(f"expected an object at {ctx}")
    return entries


def _pose_from_dict(doc: dict, ctx: str) -> PlanarPose:
    return PlanarPose(x=_num(doc, "x", ctx), z=_num(doc, "z", ctx), yaw=_num(doc, "yaw", ctx))

def _dims_from_dict(doc: dict, ctx: str) -> BoxDims:
    return BoxDims(w=_num(doc, "w", ctx), h=_num(doc, "h", ctx), d=_num(doc, "d", ctx))


def scene_to_dict(layout: SceneLayout) -> dict:
    return {
        "name": layout.name,
        "bounds": {"width": layout.bounds.width, "depth": layout.bounds.depth},
        "sites": [{"id": s.id, "center": [s.center[0], s.center[1]]} for s in layout.sites],
        "objects": [
            {
                "label": o.label,
                "type": o.object_type,
                "pose": {"x": o.pose.x, "z": o.pose.z, "yaw": o.pose.yaw},
                "dims": {"w": o.dims.w, "h": o.dims.h, "d": o.dims.d},
            }
            for o in layout.objects
        ],
    }


def scene_from_dict(doc: dict) -> SceneLayout:
    bounds_doc = _get(doc, "bounds", "")
    bounds = SceneBounds(
        width=_num(bounds_doc, "width", "bounds"), depth=_num(bounds_doc, "depth", "bounds")
    )
    sites = []
    for ctx, site_doc in _entries(doc, "sites"):
        sites.append(
            VoronoiSite(
                id=str(_get(site_doc, "id", ctx)),
                center=_pair(_get(site_doc, "center", ctx), f"{ctx}.center"),
            )
        )
    objects = []
    for ctx, obj_doc in _entries(doc, "objects"):
        objects.append(
            ObjectInstance(
                label=str(_get(obj_doc, "label", ctx)),
                object_type=str(_get(obj_doc, "type", ctx)),
                pose=_pose_from_dict(_get(obj_doc, "pose", ctx), f"{ctx}.pose"),
                dims=_dims_from_dict(_get(obj_doc, "dims", ctx), f"{ctx}.dims"),
            )
        )
    return SceneLayout(
        name=str(_get(doc, "name", "")), bounds=bounds, sites=tuple(sites), objects=tuple(objects)
    )


def observation_to_dict(obs: Observation) -> dict:
    doc: dict = {
        "camera": {
            "position": [obs.camera.position[0], obs.camera.position[1]],
            "yaw": obs.camera.yaw,
            "fov": obs.camera.fov,
            "range": obs.camera.range,
        },
        "detections": [],
    }
    for det in obs.detections:
        det_doc: dict = {
            "pose": {"x": det.pose.x, "z": det.pose.z, "yaw": det.pose.yaw},
            "dims": {"w": det.dims.w, "h": det.dims.h, "d": det.dims.d},
        }
        if det.object_type is not None:
            det_doc["type"] = det.object_type
        doc["detections"].append(det_doc)
    return doc


def observation_from_dict(doc: dict) -> Observation:
    cam_doc = _get(doc, "camera", "")
    camera = CameraState(
        position=_pair(_get(cam_doc, "position", "camera"), "camera.position"),
        yaw=_num(cam_doc, "yaw", "camera"),
        fov=_num(cam_doc, "fov", "camera"),
        range=_num(cam_doc, "range", "camera"),
    )
    detections = []
    for ctx, det_doc in _entries(doc, "detections"):
        obj_type = det_doc.get("type")
        detections.append(
            Detection(
                pose=_pose_from_dict(_get(det_doc, "pose", ctx), f"{ctx}.pose"),
                dims=_dims_from_dict(_get(det_doc, "dims", ctx), f"{ctx}.dims"),
                object_type=None if obj_type is None else str(obj_type),
            )
        )
    return Observation(camera=camera, detections=tuple(detections))


def _load_json(path: str | Path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the int conversion limit
        raise SceneParseError(f"{path}: invalid JSON: {exc}") from exc


def load_scene(path: str | Path) -> SceneLayout:
    """Load and validate a scene file; raises SceneParseError / SceneValidationError."""
    return scene_from_dict(_load_json(path))


def save_scene(layout: SceneLayout, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(layout), indent=2) + "\n", encoding="utf-8")


def load_observation(path: str | Path) -> Observation:
    return observation_from_dict(_load_json(path))


def save_observation(obs: Observation, path: str | Path) -> None:
    Path(path).write_text(json.dumps(observation_to_dict(obs), indent=2) + "\n", encoding="utf-8")

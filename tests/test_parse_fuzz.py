"""Fuzzed input files: any JSON-shaped document given to a parser raises
only the package's input errors, which the CLI turns into exit 3."""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relabel.partition import PartitionError, VoronoiSite
from relabel.path import CameraPath, path_from_dict, path_to_dict
from relabel.scene import (
    CameraState,
    Observation,
    SceneBounds,
    SceneLayout,
    SceneParseError,
    SceneValidationError,
    observation_from_dict,
    observation_to_dict,
    scene_from_dict,
    scene_to_dict,
)

from .conftest import make_detection, make_object
from .test_path import straight

INPUT_ERRORS = (SceneParseError, SceneValidationError, PartitionError)

# what json.loads can return: NaN and Infinity included, and integers too
# large for a float
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.sampled_from((10**400, -(10**400)))
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)

VALID = {
    "scene": scene_to_dict(
        SceneLayout(
            name="fuzz",
            bounds=SceneBounds(width=10.0, depth=10.0),
            sites=(VoronoiSite("S01", (2.0, 5.0)), VoronoiSite("S02", (8.0, 5.0))),
            objects=(make_object("chair-01", 1.5, 4.0), make_object("table-01", 8.5, 6.0, 30.0)),
        )
    ),
    "observation": observation_to_dict(
        Observation(
            camera=CameraState(position=(5.0, 0.0), yaw=0.0),
            detections=(
                make_detection(1.5, 4.0),
                make_detection(8.0, 6.0, 90.0, object_type="chair"),
            ),
        )
    ),
    "path": path_to_dict(
        CameraPath(segments=(straight(), straight((10.0, 0.0), (10.0, 10.0))), speed=0.5)
    ),
}
PARSERS = {"scene": scene_from_dict, "observation": observation_from_dict, "path": path_from_dict}


def _locations(doc, prefix=()):
    """Every (container, key) address inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _locations(value, prefix + (key,))


@st.composite
def mutated(draw, valid: dict):
    """A valid document with a few values replaced by arbitrary JSON, or
    a few keys deleted."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        locations = list(_locations(doc))
        if not locations:
            break
        *parents, key = draw(st.sampled_from(locations))
        container = doc
        for step in parents:
            container = container[step]
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(json_values)
    return doc


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_valid_documents_parse(kind):
    PARSERS[kind](copy.deepcopy(VALID[kind]))


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_json_raises_only_input_errors(kind, data):
    doc = data.draw(json_values | mutated(VALID[kind]))
    try:
        PARSERS[kind](doc)
    except INPUT_ERRORS:
        pass

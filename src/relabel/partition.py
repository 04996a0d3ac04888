"""Voronoi site partition and probability-driven site pruning.

The scene is partitioned by a set of point sites: every position belongs to
its nearest site (ties break toward the lexicographically smallest site id).
Given a camera position, each remaining site gets a likelihood-style weight
from the reciprocal of its distance; the containing site always gets
probability 1 and the rest share normalized reciprocal weights.  A threshold
in [0, 1] keeps the containing site plus the most probable others until
their cumulative probability first reaches the threshold.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scene import CameraState, ObjectInstance, SceneLayout

__all__ = [
    "VoronoiSite",
    "SiteEntry",
    "SiteProbabilities",
    "PartitionError",
    "validate_threshold",
    "site_distances",
    "containing_site",
    "site_probabilities",
    "prune_sites",
    "candidate_rows",
    "candidate_labels",
]


def _left_sum(values) -> float:
    """Floats added left to right, as the built-in `sum` added them before
    Python 3.12 made it compensated: a total keeps its bits on every
    supported Python."""
    return functools.reduce(operator.add, values, 0.0)


class PartitionError(ValueError):
    """Invalid partition input: no sites, duplicate ids, bad threshold."""


@dataclass(frozen=True, slots=True)
class VoronoiSite:
    """A named partition site: all positions nearer to it than to any other
    site form its cell."""

    id: str
    center: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.id:
            raise PartitionError("site id must be a non-empty string")
        x, z = self.center
        x, z = float(x), float(z)
        if not (math.isfinite(x) and math.isfinite(z)):
            raise PartitionError(f"site '{self.id}' center must be finite, got ({x}, {z})")
        object.__setattr__(self, "center", (x, z))

    def distance_to(self, position: tuple[float, float]) -> float:
        return math.hypot(position[0] - self.center[0], position[1] - self.center[1])


@dataclass(frozen=True, slots=True)
class SiteEntry:
    """One non-containing site's score for a camera position."""

    site_id: str
    distance: float
    probability: float
    cumulative: float


@dataclass(frozen=True, slots=True)
class SiteProbabilities:
    """All sites ranked for one camera position.

    The containing site carries probability 1 by definition and is kept out
    of `entries`; the non-containing entries are sorted by descending
    probability (ties by ascending site id), sum to 1, and carry running
    cumulative sums.  A single-site scene has no entries at all.
    `site_probabilities` builds it so; one built by hand is not checked.
    """

    containing_site: str
    containing_distance: float
    entries: tuple[SiteEntry, ...]


def validate_threshold(threshold: float) -> float:
    threshold = float(threshold)
    if not math.isfinite(threshold) or not 0.0 <= threshold <= 1.0:
        raise PartitionError(f"prune threshold must lie in [0, 1], got {threshold}")
    return threshold


def _position_of(camera: CameraState | tuple[float, float]) -> tuple[float, float]:
    # accept a camera or a bare (x, z) pair; only the position matters here
    pos = getattr(camera, "position", camera)
    return float(pos[0]), float(pos[1])


def _check_sites(sites: tuple[VoronoiSite, ...]) -> tuple[VoronoiSite, ...]:
    sites = tuple(sites)
    if not sites:
        raise PartitionError("site set must not be empty")
    ids = [s.id for s in sites]
    if len(set(ids)) != len(ids):
        raise PartitionError("site ids must be unique")
    return sites


def site_distances(
    camera: CameraState | tuple[float, float], sites: tuple[VoronoiSite, ...]
) -> tuple[tuple[str, float], ...]:
    """Planar distance from the camera to every site center, in site order."""
    position = _position_of(camera)
    return tuple((s.id, s.distance_to(position)) for s in _check_sites(sites))


def _nearest(
    position: tuple[float, float], sites: tuple[VoronoiSite, ...]
) -> tuple[int, list[float]]:
    """Index of the nearest site, distance ties breaking toward the smallest
    id, and every site's distance, each measured once, in site order."""
    dists = [s.distance_to(position) for s in sites]
    return min(range(len(sites)), key=lambda i: (dists[i], sites[i].id)), dists


def containing_site(
    camera: CameraState | tuple[float, float], sites: tuple[VoronoiSite, ...]
) -> str:
    """Id of the nearest site; distance ties break toward the smallest id."""
    sites = _check_sites(sites)
    return sites[_nearest(_position_of(camera), sites)[0]].id


def site_probabilities(
    camera: CameraState | tuple[float, float], sites: tuple[VoronoiSite, ...]
) -> SiteProbabilities:
    """Rank every site for the camera position by reciprocal-distance weight.

    Each non-containing site k at distance D_k gets (1/D_k) / sum_t (1/D_t),
    normalized over the non-containing sites only.  A non-containing site at
    distance 0 (guarded; the containing tie-break normally consumes it) takes
    the full remaining mass, split equally if several tie at 0.
    """
    sites = _check_sites(sites)
    inside, dists = _nearest(_position_of(camera), sites)
    inside_distance = dists.pop(inside)
    others = sites[:inside] + sites[inside + 1 :]
    ranked: list[SiteEntry] = []
    if others:
        zero = [d < 1e-300 for d in dists]
        if any(zero):
            n_zero = sum(zero)
            probs = [1.0 / n_zero if z else 0.0 for z in zero]
        else:
            inv = [1.0 / d for d in dists]
            total = _left_sum(inv)
            probs = [v / total for v in inv]
        order = sorted(zip(others, dists, probs), key=lambda t: (-t[2], t[0].id))
        cumulative = 0.0
        for site, dist, prob in order:
            cumulative += prob
            ranked.append(
                SiteEntry(site_id=site.id, distance=dist, probability=prob, cumulative=cumulative)
            )
    return SiteProbabilities(
        containing_site=sites[inside].id,
        containing_distance=inside_distance,
        entries=tuple(ranked),
    )


def prune_sites(probabilities: SiteProbabilities, threshold: float) -> set[str]:
    """Site ids to keep: the containing site, plus (for threshold > 0) the
    top-ranked others through the first whose cumulative probability reaches
    the threshold.  Threshold 1 keeps every site."""
    threshold = validate_threshold(threshold)
    kept = {probabilities.containing_site}
    if threshold == 0.0:
        return kept
    if threshold == 1.0:
        # unconditional, so a zero-probability entry cannot be orphaned
        kept.update(e.site_id for e in probabilities.entries)
        return kept
    for entry in probabilities.entries:
        kept.add(entry.site_id)
        if entry.cumulative >= threshold - 1e-12:
            break
    return kept


def _site_membership(layout: SceneLayout) -> np.ndarray:
    """The index into `layout.sites` of the containing site of every object
    of the layout's array view, computed on first use and kept on the
    layout; the view is built on the way."""
    membership = layout.site_membership
    if membership is None:
        from .scene import layout_arrays  # scene imports this module

        sites = layout.sites  # validated by the layout
        membership = np.array(
            [_nearest((o.pose.x, o.pose.z), sites)[0] for o in layout_arrays(layout).objects],
            dtype=np.intp,
        )
        membership.flags.writeable = False
        object.__setattr__(layout, "site_membership", membership)
    return membership


def candidate_rows(layout: SceneLayout, selected_sites: set[str]) -> np.ndarray:
    """Rows of the layout's array view (`scene.layout_arrays`, label order)
    whose object falls in a selected site's cell, read-only.

    Membership always uses the layout's full site set, so pruning never
    reassigns an object to a different cell.
    """
    if not selected_sites:
        raise PartitionError("selected site set must not be empty")
    ids = [s.id for s in layout.sites]
    unknown = set(selected_sites).difference(ids)
    if unknown:
        raise PartitionError(f"unknown site ids: {sorted(unknown)}")
    selected = np.array([site_id in selected_sites for site_id in ids])
    rows = np.flatnonzero(selected[_site_membership(layout)])
    rows.flags.writeable = False
    return rows


def candidate_labels(layout: SceneLayout, selected_sites: set[str]) -> tuple[ObjectInstance, ...]:
    """Initial-layout objects whose position falls in a selected site's cell,
    sorted by label (see `candidate_rows`)."""
    rows = candidate_rows(layout, selected_sites)
    objects = layout.arrays.objects  # built by the membership
    return tuple(objects[i] for i in rows.tolist())

"""Distance-weighted site partition: probabilities, pruning, candidates."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from relabel import partition
from relabel.partition import (
    PartitionError,
    VoronoiSite,
    candidate_labels,
    containing_site,
    prune_sites,
    site_distances,
    site_probabilities,
    validate_threshold,
)
from relabel.scene import CameraState, SceneBounds, SceneLayout, scene_to_dict, visible_objects
from relabel.scenegen import ARCHETYPES, generate_scene

from .conftest import S2000, make_object


def sites_at(*centers: tuple[float, float]) -> tuple[VoronoiSite, ...]:
    return tuple(VoronoiSite(id=f"S{i + 1:02d}", center=c) for i, c in enumerate(centers))


def camera_at(x: float, z: float) -> CameraState:
    return CameraState(position=(x, z), yaw=0.0)


class TestDistances:
    def test_three_four_five(self):
        sites = sites_at((3.0, 0.0), (0.0, 4.0), (3.0, 4.0))
        dists = dict(site_distances(camera_at(0.0, 0.0), sites))
        assert dists == {"S01": 3.0, "S02": 4.0, "S03": 5.0}

    def test_accepts_bare_position(self):
        sites = sites_at((1.0, 0.0),)
        assert site_distances((0.0, 0.0), sites)[0][1] == 1.0

    def test_empty_sites_rejected(self):
        with pytest.raises(PartitionError):
            site_distances(camera_at(0, 0), ())


class TestContainingSite:
    def test_nearest_wins(self):
        sites = sites_at((0.0, 0.0), (10.0, 0.0))
        assert containing_site(camera_at(2.0, 0.0), sites) == "S01"
        assert containing_site(camera_at(8.0, 0.0), sites) == "S02"

    def test_tie_goes_to_smallest_id(self):
        sites = sites_at((0.0, 0.0), (10.0, 0.0))
        assert containing_site(camera_at(5.0, 0.0), sites) == "S01"


class TestProbabilities:
    def test_reciprocal_distance_two_sites(self):
        # distances 1 and 3 from the two non-containing sites:
        # weights 1 and 1/3 normalize to 0.75 and 0.25
        sites = sites_at((0.0, 0.0), (1.0, 0.0), (-3.0, 0.0))
        sp = site_probabilities(camera_at(0.0, 0.0), sites)
        assert sp.containing_site == "S01"
        assert sp.containing_distance == 0.0
        assert [e.site_id for e in sp.entries] == ["S02", "S03"]
        assert sp.entries[0].probability == pytest.approx(0.75, abs=1e-12)
        assert sp.entries[1].probability == pytest.approx(0.25, abs=1e-12)
        assert sp.entries[0].cumulative == pytest.approx(0.75, abs=1e-12)
        assert sp.entries[1].cumulative == pytest.approx(1.0, abs=1e-12)

    def test_containing_site_excluded_from_entries(self):
        sites = sites_at((0.0, 0.0), (2.0, 0.0))
        sp = site_probabilities(camera_at(0.5, 0.0), sites)
        assert sp.containing_site == "S01"
        assert [e.site_id for e in sp.entries] == ["S02"]
        assert sp.entries[0].probability == 1.0

    def test_single_site_has_no_entries(self):
        sp = site_probabilities(camera_at(3.0, 3.0), sites_at((0.0, 0.0)))
        assert sp.containing_site == "S01" and sp.entries == ()

    def test_entries_sorted_descending_probability(self):
        sites = sites_at((0.0, 0.0), (5.0, 0.0), (2.0, 0.0), (9.0, 0.0))
        sp = site_probabilities(camera_at(0.1, 0.0), sites)
        probs = [e.probability for e in sp.entries]
        assert probs == sorted(probs, reverse=True)
        assert sp.entries[0].site_id == "S03"  # nearest non-containing

    def test_equal_probability_ties_order_by_id(self):
        sites = sites_at((0.0, 0.0), (4.0, 0.0), (-4.0, 0.0))
        sp = site_probabilities(camera_at(0.0, 0.0), sites)
        assert [e.site_id for e in sp.entries] == ["S02", "S03"]

    def test_zero_distance_non_containing_takes_all_mass(self):
        # camera exactly on S02's center while S01 contains by id tie-break
        sites = sites_at((0.0, 0.0), (0.0, 0.0), (5.0, 0.0))
        sp = site_probabilities(camera_at(0.0, 0.0), sites)
        assert sp.containing_site == "S01"
        assert sp.entries[0].site_id == "S02"
        assert sp.entries[0].probability == 1.0
        assert sp.entries[1].probability == 0.0

    def test_normalising_total_sums_left_to_right(self):
        # reciprocal weights 1.0 then twenty of 1e-16: added left to right, each
        # 1e-16 is lost against 1.0, as under the built-in sum before Python
        # 3.12; a compensated sum would total 1.000000000000002
        sites = sites_at((0.0, 0.0), (1.0, 0.0), *[(1e16, 0.0)] * 20)
        sp = site_probabilities(camera_at(0.0, 0.0), sites)
        assert sp.entries[0].site_id == "S02"
        assert sp.entries[0].probability == 1.0

    COORD = st.one_of(st.integers(-50, 50).map(float), st.floats(min_value=-50, max_value=50))

    @given(
        st.lists(st.tuples(COORD, COORD), min_size=2, max_size=8, unique=True),
        COORD,
        COORD,
        st.data(),
    )
    def test_probability_invariants(self, centers, x, z, data):
        # tied sites: copies of drawn centres, and centres mirrored about the
        # camera (an exact tie when the coordinates are integers)
        picks = st.lists(st.sampled_from(centers), max_size=3)
        centers = centers + data.draw(picks, label="copies")
        centers += [(2.0 * x - cx, 2.0 * z - cz) for cx, cz in data.draw(picks, label="mirrored")]
        sites = sites_at(*data.draw(st.permutations(centers), label="order"))
        sp = site_probabilities(camera_at(x, z), sites)
        ids = [e.site_id for e in sp.entries]
        assert sp.containing_site not in ids
        assert sorted([sp.containing_site, *ids]) == [s.id for s in sites]
        for prev, e in zip(sp.entries, sp.entries[1:]):
            assert e.probability <= prev.probability
            if e.probability == prev.probability:
                assert e.site_id > prev.site_id
        assert math.isclose(sum(e.probability for e in sp.entries), 1.0, abs_tol=1e-9)
        assert math.isclose(sp.entries[-1].cumulative, 1.0, abs_tol=1e-9)
        running = 0.0
        for e in sp.entries:
            running += e.probability
            assert math.isclose(e.cumulative, running, abs_tol=1e-9)


class TestPruning:
    @pytest.fixture
    def spread(self):
        sites = sites_at((0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (6.0, 0.0))
        return site_probabilities(camera_at(0.0, 0.0), sites)

    def test_zero_keeps_only_containing(self, spread):
        assert prune_sites(spread, 0.0) == {"S01"}

    def test_one_keeps_everything(self, spread):
        assert prune_sites(spread, 1.0) == {"S01", "S02", "S03", "S04"}

    def test_cut_at_first_cumulative_reaching_threshold(self, spread):
        # entry probabilities: 2/3, 2/9, 1/9 -> cumulatives 0.667, 0.889, 1.0
        assert prune_sites(spread, 0.5) == {"S01", "S02"}
        assert prune_sites(spread, 0.7) == {"S01", "S02", "S03"}
        assert prune_sites(spread, 0.95) == {"S01", "S02", "S03", "S04"}

    def test_threshold_exactly_on_cumulative(self, spread):
        assert prune_sites(spread, 2.0 / 3.0) == {"S01", "S02"}

    def test_bad_threshold_rejected(self, spread):
        for t in (-0.1, 1.1, math.nan):
            with pytest.raises(PartitionError):
                prune_sites(spread, t)
        with pytest.raises(PartitionError):
            validate_threshold(2.0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_threshold(self, t1, t2):
        sites = sites_at((0.0, 0.0), (1.0, 1.0), (4.0, 0.0), (0.0, 7.0), (9.0, 9.0))
        sp = site_probabilities(camera_at(2.0, 2.0), sites)
        lo, hi = sorted((t1, t2))
        assert prune_sites(sp, lo) <= prune_sites(sp, hi)


class TestCandidateLabels:
    def test_objects_follow_their_nearest_site(self, two_site_layout):
        west = candidate_labels(two_site_layout, {"S01"})
        east = candidate_labels(two_site_layout, {"S02"})
        assert [o.label for o in west] == ["chair-01", "chair-02"]
        assert [o.label for o in east] == ["chair-03", "chair-04"]

    def test_union_is_label_sorted(self, two_site_layout):
        both = candidate_labels(two_site_layout, {"S02", "S01"})
        assert [o.label for o in both] == ["chair-01", "chair-02", "chair-03", "chair-04"]

    def test_unknown_site_rejected(self, two_site_layout):
        with pytest.raises(PartitionError, match="S99"):
            candidate_labels(two_site_layout, {"S99"})

    def test_empty_selection_rejected(self, two_site_layout):
        with pytest.raises(PartitionError):
            candidate_labels(two_site_layout, set())


def scalar_candidates(layout, selected):
    """The scalar filter: label-ordered objects whose containing site is
    selected, membership recomputed for every object."""
    return tuple(
        o
        for o in sorted(layout.objects, key=lambda o: o.label)
        if containing_site((o.pose.x, o.pose.z), layout.sites) in selected
    )


def assert_gathers_like_scalar(layout):
    all_ids = {s.id for s in layout.sites}
    for selected in [{sid} for sid in sorted(all_ids)] + [all_ids]:
        assert candidate_labels(layout, selected) == scalar_candidates(layout, selected)


class TestMembershipMemo:
    @pytest.mark.parametrize("archetype", sorted(ARCHETYPES))
    @pytest.mark.parametrize("seed", range(5))
    def test_archetypes_gather_like_scalar(self, archetype, seed):
        assert_gathers_like_scalar(generate_scene(archetype, seed))

    def test_large_scene_gathers_like_scalar(self):
        layout = generate_scene(S2000, 0)
        all_ids = {s.id for s in layout.sites}
        # the scalar cells once, then every selection filters by them
        cells = {o.label: containing_site((o.pose.x, o.pose.z), layout.sites) for o in layout.objects}
        by_label = sorted(layout.objects, key=lambda o: o.label)
        for selected in [{sid} for sid in sorted(all_ids)] + [all_ids]:
            expected = tuple(o for o in by_label if cells[o.label] in selected)
            assert candidate_labels(layout, selected) == expected

    @given(
        centre=st.integers(min_value=1, max_value=19),
        half_gap=st.integers(min_value=1, max_value=9),
        site_offset=st.integers(min_value=0, max_value=20),
        mirror_x=st.booleans(),
        smaller_first=st.booleans(),
        along=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=6),
        others=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.0, max_value=20.0)),
            max_size=6,
        ),
        extra_sites=st.lists(
            st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)),
            max_size=3,
            unique=True,
        ),
    )
    def test_bisector_points_go_to_smaller_id(
        self, centre, half_gap, site_offset, mirror_x, smaller_first, along, others, extra_sites
    ):
        # two sites mirrored about the line {x or z} = centre: a point on that
        # line is at exactly the same float distance from both
        lo, hi = centre - half_gap, centre + half_gap
        assume(lo >= 0 and hi <= 20)
        if mirror_x:
            centres = [(float(lo), float(site_offset)), (float(hi), float(site_offset))]
            on_line = [(float(centre), t) for t in along]
        else:
            centres = [(float(site_offset), float(lo)), (float(site_offset), float(hi))]
            on_line = [(t, float(centre)) for t in along]
        ids = ["A", "B"] if smaller_first else ["B", "A"]
        sites = [VoronoiSite(id=i, center=c) for i, c in zip(ids, centres)]
        sites += [
            VoronoiSite(id=f"X{k}", center=(float(x), float(z)))
            for k, (x, z) in enumerate(extra_sites)
            if (float(x), float(z)) not in centres
        ]
        points = on_line + list(others)
        objects = [
            make_object(f"obj-{len(points) - k:02d}", x, z) for k, (x, z) in enumerate(points)
        ]
        layout = SceneLayout(
            name="bisector",
            bounds=SceneBounds(width=20.0, depth=20.0),
            sites=tuple(sites),
            objects=tuple(objects),
        )
        assert_gathers_like_scalar(layout)
        on_line_labels = {o.label for o in objects[: len(on_line)]}
        for o in candidate_labels(layout, {"B"}):
            assert o.label not in on_line_labels
        if len(sites) == 2:
            assert on_line_labels <= {o.label for o in candidate_labels(layout, {"A"})}

    def test_gathering_leaves_value_semantics_unchanged(self, wide_camera):
        layout = generate_scene("H1", 0)
        before = (hash(layout), repr(layout), scene_to_dict(layout))
        fresh = dataclasses.replace(layout)
        visible_objects(layout, wide_camera)
        assert layout.arrays is not None and layout.site_membership is None
        candidate_labels(layout, {layout.sites[0].id})
        assert layout.site_membership is not None
        assert fresh.arrays is None and fresh.site_membership is None
        assert dataclasses.replace(layout).arrays is None
        assert layout == fresh and hash(layout) == hash(fresh)
        assert (hash(layout), repr(layout), scene_to_dict(layout)) == before

    def test_layout_arrays_read_only(self):
        layout = generate_scene("H1", 0)
        candidate_labels(layout, {layout.sites[0].id})
        view = layout.arrays
        assert [o.label for o in view.objects] == sorted(o.label for o in layout.objects)
        for array in (view.x, view.z, view.yaw, view.boxes, view.box_row, layout.site_membership):
            assert not array.flags.writeable

    def test_replaced_layout_gathers_by_its_own_objects(self, two_site_layout):
        assert [o.label for o in candidate_labels(two_site_layout, {"S01"})] == [
            "chair-01",
            "chair-02",
        ]
        # move chair-01 into the east cell and chair-04 into the west cell
        moved = tuple(
            dataclasses.replace(o, pose=dataclasses.replace(o.pose, x=10.0 - o.pose.x))
            if o.label in ("chair-01", "chair-04")
            else o
            for o in two_site_layout.objects
        )
        changed = dataclasses.replace(two_site_layout, objects=moved)
        assert [o.label for o in candidate_labels(changed, {"S01"})] == ["chair-02", "chair-04"]
        assert [o.label for o in candidate_labels(changed, {"S02"})] == ["chair-01", "chair-03"]
        assert_gathers_like_scalar(changed)

    def test_membership_computed_once_per_object(self, two_site_layout, monkeypatch):
        calls = []
        nearest = partition._nearest

        def counting(position, sites):
            calls.append(position)
            return nearest(position, sites)

        monkeypatch.setattr(partition, "_nearest", counting)
        candidate_labels(two_site_layout, {"S01"})
        candidate_labels(two_site_layout, {"S01", "S02"})
        assert len(calls) == len(two_site_layout.objects)

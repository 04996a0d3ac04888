"""Pair-cost components and the vectorized cost matrix."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relabel import costs
from relabel.costs import (
    CostWeights,
    build_cost_matrix,
    cost_terms,
    default_weights,
    dimension_cost,
    pair_cost,
    rotation_cost,
    total_cost,
    translation_cost,
)
from relabel.scene import (
    BoxDims,
    Detection,
    ObjectInstance,
    PlanarPose,
    SceneBounds,
    SceneValidationError,
    object_arrays,
)

from .conftest import make_detection, make_object

B5 = SceneBounds(width=5.0, depth=5.0)


class TestTranslation:
    def test_full_diagonal_costs_one(self):
        assert translation_cost(PlanarPose(0, 0, 0), PlanarPose(5, 5, 0), B5) == 1.0

    def test_three_four_five(self):
        c = translation_cost(PlanarPose(0, 0, 0), PlanarPose(3, 4, 0), B5)
        assert c == pytest.approx(5.0 / math.sqrt(50.0), abs=1e-12)

    def test_no_upper_clamp(self):
        # poses outside the bounds may exceed the diagonal
        c = translation_cost(PlanarPose(0, 0, 0), PlanarPose(10, 10, 0), B5)
        assert c == pytest.approx(2.0, abs=1e-12)

    def test_zero_distance(self):
        p = PlanarPose(2.5, 2.5, 77.0)
        assert translation_cost(p, p, B5) == 0.0


class TestRotation:
    def test_opposite_heading_costs_one(self):
        assert rotation_cost(0.0, 180.0) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turns_equal_either_way(self):
        # the raw difference is not folded to the shorter arc, but the sine
        # makes 90 and 270 land on the same cost
        assert rotation_cost(0.0, 90.0) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert rotation_cost(0.0, 90.0) == pytest.approx(rotation_cost(0.0, 270.0), abs=1e-12)

    def test_inputs_normalized_first(self):
        assert rotation_cost(-90.0, 90.0) == pytest.approx(rotation_cost(270.0, 90.0), abs=1e-12)
        assert rotation_cost(720.0, 0.0) == 0.0

    @given(st.floats(min_value=-720, max_value=720), st.floats(min_value=-720, max_value=720))
    def test_bounded_unit_interval(self, a, b):
        assert 0.0 <= rotation_cost(a, b) <= 1.0


class TestDimensions:
    def test_identical_boxes_cost_one(self):
        assert dimension_cost(BoxDims(1, 2, 3), BoxDims(1, 2, 3)) == 1.0

    def test_permuted_boxes_cost_one(self):
        # a 90-degree re-orientation swaps extents; the min over axis
        # permutations recovers the match exactly
        assert dimension_cost(BoxDims(1, 2, 3), BoxDims(3, 2, 1)) == 1.0

    def test_double_one_axis(self):
        assert dimension_cost(BoxDims(1, 1, 1), BoxDims(2, 1, 1)) == 2.0

    def test_symmetric(self):
        a, b = BoxDims(0.4, 1.1, 0.7), BoxDims(0.9, 0.5, 1.3)
        assert dimension_cost(a, b) == pytest.approx(dimension_cost(b, a), abs=1e-12)

    @given(
        st.tuples(*[st.floats(min_value=0.1, max_value=10)] * 3),
        st.tuples(*[st.floats(min_value=0.1, max_value=10)] * 3),
    )
    def test_at_least_one(self, d1, d2):
        assert dimension_cost(BoxDims(*d1), BoxDims(*d2)) >= 1.0


class TestWeights:
    def test_default_scales_with_square_root_of_area(self):
        assert default_weights(SceneBounds(width=7.0, depth=7.0)).w_t == pytest.approx(2.52, abs=1e-12)
        assert default_weights(B5).w_t == pytest.approx(1.8, abs=1e-12)
        assert default_weights(SceneBounds(width=15.0, depth=15.0)).w_t == pytest.approx(5.4, abs=1e-12)
        assert default_weights(B5).w_r == 1.0

    def test_rejects_negative_or_all_zero(self):
        with pytest.raises(SceneValidationError):
            CostWeights(w_t=-0.1, w_r=1.0)
        with pytest.raises(SceneValidationError):
            CostWeights(w_t=0.0, w_r=0.0)
        assert CostWeights(w_t=0.0, w_r=1.0).w_t == 0.0  # single zero is fine

    def test_total_combines_multiplicatively_over_shape(self):
        w = CostWeights(w_t=2.0, w_r=1.0)
        assert total_cost(0.25, 0.5, 3.0, w) == pytest.approx(3.0 * (2.0 * 0.25 + 0.5), abs=1e-12)

    def test_worked_example(self):
        # doubled extent on one axis, short move, quarter-turn heading change
        w = CostWeights(w_t=2.52, w_r=1.0)
        assert total_cost(0.1, 0.70711, 2.0, w) == pytest.approx(1.91822, abs=1e-5)


class TestCostMatrix:
    def test_matches_scalar_pair_cost(self, bounds):
        detections = (
            make_detection(1.0, 2.0, 30.0, dims=(0.5, 0.9, 0.5)),
            make_detection(7.0, 3.0, 200.0, dims=(0.6, 1.0, 0.4)),
        )
        candidates = (
            make_object("a-01", 1.2, 2.2, 40.0),
            make_object("a-02", 6.5, 3.5, 190.0, dims=(0.4, 1.0, 0.6)),
            make_object("b-01", 9.0, 9.0, 0.0, object_type="table", dims=(1.5, 0.7, 0.9)),
        )
        weights = CostWeights(w_t=2.52, w_r=1.0)
        matrix = build_cost_matrix(detections, candidates, bounds, weights)
        c_t, c_r, c_d = cost_terms(object_arrays(detections), object_arrays(candidates), bounds)
        assert matrix.shape == (2, 3)
        assert matrix.candidates == ("a-01", "a-02", "b-01")
        for i, det in enumerate(detections):
            for j, cand in enumerate(candidates):
                assert matrix.total[i, j] == pytest.approx(
                    pair_cost(det, cand, bounds, weights), abs=1e-12
                )
                assert c_t[i, j] == pytest.approx(
                    translation_cost(cand.pose, det.pose, bounds), abs=1e-12
                )
                assert c_r[i, j] == pytest.approx(
                    rotation_cost(cand.pose.yaw, det.pose.yaw), abs=1e-12
                )
                assert c_d[i, j] == pytest.approx(
                    dimension_cost(cand.dims, det.dims), abs=1e-12
                )

    def test_types_recorded(self, bounds):
        matrix = build_cost_matrix(
            (make_detection(1, 1, object_type="chair"), make_detection(2, 2)),
            (make_object("a-01", 1, 1), make_object("b-01", 2, 2, object_type="table")),
            bounds,
            CostWeights(w_t=1.0, w_r=1.0),
        )
        assert matrix.detection_types == ("chair", None)
        assert matrix.candidate_types == ("chair", "table")

    def test_duplicate_candidate_labels_rejected(self, bounds):
        objs = (make_object("a-01", 1, 1), make_object("a-01", 2, 2))
        with pytest.raises(SceneValidationError):
            build_cost_matrix((make_detection(1, 1),), objs, bounds, CostWeights(1.0, 1.0))

    @pytest.mark.parametrize(
        "w_t, w_r",
        # each weight is finite, but the terms of a cell overflow; or every
        # cell is finite, but two rows' cells sum past the largest float
        [(1.7e308, 1.7e308), (1e308, 0.0)],
        ids=["cell", "sum"],
    )
    def test_overflowing_weights_rejected_by_name(self, bounds, w_t, w_r):
        detections = (make_detection(1.0, 2.0, 30.0), make_detection(1.5, 2.0, 30.0))
        candidates = (make_object("a-01", 6.0, 8.0, 120.0), make_object("a-02", 7.0, 8.0))
        weights = CostWeights(w_t=w_t, w_r=w_r)
        with pytest.raises(SceneValidationError, match=re.escape(f"w_t={w_t!r}, w_r={w_r!r} make")):
            build_cost_matrix(detections, candidates, bounds, weights)

    @pytest.mark.parametrize("cell", [1e308, -1e308])
    def test_overflowing_sums_rejected_by_name(self, cell):
        # every cell is finite, but the solver's sums of two rows are not
        total = np.full((2, 2), cell)
        with pytest.raises(SceneValidationError, match="'total' has cells whose sums overflow"):
            costs.CostMatrix(
                candidates=("a-01", "a-02"),
                candidate_types=("chair", "chair"),
                detection_types=(None, None),
                total=total,
            )

    def test_empty_detections_allowed(self, bounds):
        matrix = build_cost_matrix((), (make_object("a-01", 1, 1),), bounds, CostWeights(1.0, 1.0))
        assert matrix.shape == (0, 1)

    def test_arrays_read_only(self, bounds):
        matrix = build_cost_matrix(
            (make_detection(1, 1),), (make_object("a-01", 1, 1),), bounds, CostWeights(1.0, 1.0)
        )
        with pytest.raises(ValueError):
            matrix.total[0, 0] = 99.0
        assert isinstance(matrix.total, np.ndarray)


# boxes drawn from a small pool repeat, as identical objects do; the pool
# holds one box twice under two orders of its axes, so only a search over
# axis permutations finds their fit of 1
BOX_POOL = ((0.5, 0.9, 0.5), (0.9, 0.5, 0.5), (1.5, 0.7, 0.9), (0.4, 1.0, 0.6))
extents = st.floats(min_value=0.05, max_value=5.0)
pooled_boxes = st.sampled_from(BOX_POOL)
any_boxes = st.tuples(extents, extents, extents)
poses = st.tuples(
    st.floats(min_value=-2.0, max_value=12.0),
    st.floats(min_value=-2.0, max_value=12.0),
    st.floats(min_value=-720.0, max_value=720.0),
)
# object types are drawn apart from boxes: a scene file may give two objects
# of one type different boxes, so the box, not the type, decides c_d
types = st.sampled_from(("chair", "table"))


def _detections(boxes):
    return st.lists(st.tuples(poses, boxes, types | st.none()), max_size=7).map(
        lambda items: tuple(
            Detection(pose=PlanarPose(*pose), dims=BoxDims(*box), object_type=t)
            for pose, box, t in items
        )
    )


def _candidates(boxes):
    return st.lists(st.tuples(poses, boxes, types), max_size=9).map(
        lambda items: tuple(
            ObjectInstance(
                label=f"obj-{j:02d}", object_type=t, pose=PlanarPose(*pose), dims=BoxDims(*box)
            )
            for j, (pose, box, t) in enumerate(items)
        )
    )


class TestCostMatrixCells:
    """Each cell of a matrix equals, byte for byte, the 1 x 1 matrix of its
    own pair, whichever other boxes share the build."""

    WEIGHTS = CostWeights(w_t=2.52, w_r=1.0)
    NAMES = ("c_t", "c_r", "c_d", "total")

    def arrays(self, detections, candidates):
        """The table's terms from `cost_terms` and its total, by name."""
        terms = cost_terms(object_arrays(detections), object_arrays(candidates), B5)
        total = build_cost_matrix(detections, candidates, B5, self.WEIGHTS).total
        return dict(zip(self.NAMES, (*terms, total)))

    def assert_cellwise(self, detections, candidates):
        table = self.arrays(detections, candidates)
        assert table["total"].shape == (len(detections), len(candidates))
        for i, det in enumerate(detections):
            for j, cand in enumerate(candidates):
                alone = self.arrays((det,), (cand,))
                for name in self.NAMES:
                    cell = table[name][i, j]
                    assert cell.tobytes() == alone[name][0, 0].tobytes(), name
                assert table["c_d"][i, j] == pytest.approx(
                    dimension_cost(cand.dims, det.dims), rel=1e-12
                )

    @settings(max_examples=150, deadline=None)
    @given(_detections(pooled_boxes), _candidates(pooled_boxes | any_boxes))
    def test_repeated_boxes(self, detections, candidates):
        self.assert_cellwise(detections, candidates)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(any_boxes, unique=True, max_size=7), st.data())
    def test_all_distinct_boxes(self, det_boxes, data):
        detections = tuple(
            Detection(pose=PlanarPose(*data.draw(poses)), dims=BoxDims(*box)) for box in det_boxes
        )
        cand_boxes = data.draw(st.lists(any_boxes, unique=True, max_size=9))
        candidates = tuple(
            ObjectInstance(f"obj-{j:02d}", "chair", PlanarPose(*data.draw(poses)), BoxDims(*box))
            for j, box in enumerate(cand_boxes)
        )
        self.assert_cellwise(detections, candidates)

    def test_empty_sides(self):
        det, cand = (make_detection(1, 1),), (make_object("a-01", 1, 1),)
        for detections, candidates in (((), cand), (det, ()), ((), ())):
            for array in self.arrays(detections, candidates).values():
                assert array.shape == (len(detections), len(candidates))

    def test_distinct_boxes_bounded_memory(self, monkeypatch):
        # measured boxes are all distinct, so the box-fit table has a pair
        # per cell; unchunked, its ratio table alone is 144 bytes a pair
        rng = np.random.default_rng(5)
        n, m = 300, 1500
        detections = tuple(
            Detection(
                pose=PlanarPose(*rng.uniform(0.0, 5.0, 2), rng.uniform(0.0, 360.0)),
                dims=BoxDims(*rng.uniform(0.2, 2.0, 3)),
            )
            for _ in range(n)
        )
        candidates = tuple(
            ObjectInstance(
                f"obj-{j:04d}",
                "chair",
                PlanarPose(*rng.uniform(0.0, 5.0, 2), rng.uniform(0.0, 360.0)),
                BoxDims(*rng.uniform(0.2, 2.0, 3)),
            )
            for j in range(m)
        )
        tracemalloc.start()
        try:
            matrix = build_cost_matrix(detections, candidates, B5, self.WEIGHTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * m * 8
        # the chunked table is the one-broadcast table, byte for byte
        c_d = self.arrays(detections, candidates)["c_d"]
        monkeypatch.setattr(costs, "_FIT_CHUNK_PAIRS", n * m)
        whole = self.arrays(detections, candidates)
        assert c_d.tobytes() == whole["c_d"].tobytes()
        assert matrix.total.tobytes() == whole["total"].tobytes()

    def test_same_type_different_boxes(self):
        # two chairs with different boxes: scoring c_d per type would give
        # both the first chair's fit
        detections = (make_detection(1, 1, dims=(0.5, 0.9, 0.5), object_type="chair"),)
        candidates = (
            make_object("chair-01", 1, 1, dims=(0.5, 0.9, 0.5)),
            make_object("chair-02", 2, 2, dims=(1.0, 0.9, 0.5)),
        )
        assert self.arrays(detections, candidates)["c_d"].tolist() == [[1.0, 2.0]]

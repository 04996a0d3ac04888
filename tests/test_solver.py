"""Assignment solver vs the exhaustive oracle, plus the pruning pipeline."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relabel import solver
from relabel.costs import CostMatrix, CostWeights, build_cost_matrix, default_weights
from relabel.noise import NoiseModel, derive_seed, perturb_layout
from relabel.partition import VoronoiSite
from relabel.path import camera_stops
from relabel.scene import (
    CameraState,
    Observation,
    SceneBounds,
    SceneLayout,
    SceneValidationError,
    synthesize_observation,
)
from relabel.scenegen import ARCHETYPES, generate_scene, patrol_route
from relabel.solver import (
    AssignmentProblem,
    AssignmentResult,
    BruteForceBoundError,
    InfeasibleAssignmentError,
    _tol,
    brute_force_solve,
    plan_stop,
    prepare_problem,
    resolve_identities,
    solve,
)

from .conftest import make_detection, make_object


def matrix_from(
    totals: np.ndarray,
    detection_types: tuple[str | None, ...] | None = None,
    candidate_types: tuple[str, ...] | None = None,
) -> CostMatrix:
    totals = np.asarray(totals, dtype=float)
    n, m = totals.shape
    zeros = np.zeros_like(totals)
    return CostMatrix(
        candidates=tuple(f"c-{j:02d}" for j in range(m)),
        candidate_types=candidate_types or ("chair",) * m,
        detection_types=detection_types or (None,) * n,
        c_t=zeros,
        c_r=zeros,
        c_d=np.ones_like(totals),
        total=totals,
    )


class TestSolveBasics:
    def test_cheap_off_diagonal_derangement(self):
        # diagonal cells cost 6, the rest cost 1: the optimum is any
        # derangement; the canonical one takes the smallest column tuple
        result = solve(AssignmentProblem(matrix_from(np.eye(3) * 5 + 1)))
        assert result.pairs == ((0, "c-01"), (1, "c-02"), (2, "c-00"))
        assert result.total_cost == 3.0

    def test_rectangular_leaves_extras_unused(self):
        totals = np.array([[9.0, 1.0, 5.0, 7.0]])
        result = solve(AssignmentProblem(matrix_from(totals)))
        assert result.pairs == ((0, "c-01"),)
        assert result.total_cost == 1.0
        assert result.candidate_count == 4

    def test_empty_detections(self):
        result = solve(AssignmentProblem(matrix_from(np.empty((0, 3)))))
        assert result.pairs == () and result.total_cost == 0.0

    def test_more_detections_than_candidates(self):
        with pytest.raises(InfeasibleAssignmentError) as err:
            solve(AssignmentProblem(matrix_from(np.ones((3, 2)))))
        assert err.value.n == 3 and err.value.m == 2

    def test_tie_broken_lexicographically(self):
        # every assignment costs 2: the canonical answer takes the smallest
        # column for each detection in order
        result = solve(AssignmentProblem(matrix_from(np.ones((2, 3)))))
        assert result.pairs == ((0, "c-00"), (1, "c-01"))
        oracle = brute_force_solve(AssignmentProblem(matrix_from(np.ones((2, 3)))))
        assert oracle.pairs == result.pairs

    def test_near_tie_within_relative_window(self):
        # the second assignment is more expensive by far less than the
        # relative tolerance: both routes must treat it as a tie and pick
        # the lexicographically smaller pairing
        totals = np.array([[1.0, 1.0 + 1e-13], [1.0, 1.0]])
        a = solve(AssignmentProblem(matrix_from(totals)))
        b = brute_force_solve(AssignmentProblem(matrix_from(totals)))
        assert a.pairs == b.pairs == ((0, "c-00"), (1, "c-01"))


def assert_matches_oracle(problem: AssignmentProblem) -> AssignmentResult:
    fast, slow = solve(problem), brute_force_solve(problem)
    assert fast.pairs == slow.pairs
    assert fast.total_cost == slow.total_cost  # bitwise, not approx
    return fast


# shapes within the oracle's bound (N <= 8, M <= 10) whose enumeration
# stays small enough to repeat hundreds of times
ORACLE_SHAPES = tuple(
    (n, m) for n in range(1, 9) for m in range(n, 11) if math.perm(m, n) <= 200_000
)


def cost_tables(values):
    return st.sampled_from(ORACLE_SHAPES).flatmap(
        lambda shape: st.lists(values, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        .map(lambda cells: np.array(cells, dtype=float).reshape(shape))
    )


class TestBruteForce:
    def test_bound_enforced(self):
        with pytest.raises(BruteForceBoundError):
            brute_force_solve(AssignmentProblem(matrix_from(np.ones((9, 9)))))
        with pytest.raises(BruteForceBoundError):
            brute_force_solve(AssignmentProblem(matrix_from(np.ones((2, 11)))))

    def test_matches_solve_on_randoms(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(n, 9))
            totals = rng.uniform(0.0, 10.0, size=(n, m))
            # inject exact duplicates to force ties
            if n >= 2 and rng.random() < 0.5:
                totals[1] = totals[0]
            problem = AssignmentProblem(matrix_from(totals))
            fast, slow = solve(problem), brute_force_solve(problem)
            assert fast.pairs == slow.pairs
            assert fast.total_cost == slow.total_cost  # bitwise, not approx


class TestTieHeavy:
    """solve against the exhaustive oracle where exact ties abound."""

    @settings(max_examples=300, deadline=None)
    @given(cost_tables(st.integers(0, 3)))
    def test_integer_costs(self, totals):
        assert_matches_oracle(AssignmentProblem(matrix_from(totals)))

    @settings(max_examples=200, deadline=None)
    @given(cost_tables(st.floats(0.0, 10.0)), st.data())
    def test_duplicated_columns(self, totals, data):
        # identical objects give identical columns
        m = totals.shape[1]
        sources = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        assert_matches_oracle(AssignmentProblem(matrix_from(totals[:, sources])))


class TestNearWindow:
    """solve against the exhaustive oracle when a second assignment sits
    near the edge of the tie window: sigma wins every row by 100, and one
    swap of two rows costs g times the window's budget more than sigma."""

    SHAPES = tuple((n, m) for n, m in ORACLE_SHAPES if n >= 2)

    def table(self, rng, g):
        n, m = self.SHAPES[int(rng.integers(len(self.SHAPES)))]
        totals = rng.uniform(1.0, 10.0, size=(n, m))
        sigma = rng.permutation(m)[:n]
        off = np.ones((n, m), dtype=bool)
        off[np.arange(n), sigma] = False
        totals[off] += 100.0
        i, k = sorted(rng.choice(n, size=2, replace=False))
        half = g * _tol(float(np.sum(totals[np.arange(n), sigma]))) / 2
        totals[i, sigma[k]] = totals[i, sigma[i]] + half
        totals[k, sigma[i]] = totals[k, sigma[k]] + half
        return totals

    @pytest.mark.parametrize("g", (0.0, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0))
    def test_swap_near_window_edge(self, g):
        rng = np.random.default_rng([23, int(g * 10)])
        for _ in range(30):
            assert_matches_oracle(AssignmentProblem(matrix_from(self.table(rng, g))))

    def test_swap_on_window_edge(self):
        # a g = 1 table: the swap (1, 0, 2) totals exactly the window's edge
        # as one numpy sum, which the oracle keeps; summed as row 0 plus the
        # rest's optimum it would round past the edge
        totals = np.array(
            [
                [101.15426175761664, 8.278064099315317, 8.278064091147069],
                [4.552689266584135, 101.83652338390633, 104.96317290573103],
                [109.71963346253514, 3.5057433785532988, 3.505743386721547],
            ]
        )
        assert_matches_oracle(AssignmentProblem(matrix_from(totals)))


class TestCertificates:
    """Every path of the tie certificate against the exhaustive oracle:
    the row screen, then the closure up to _CLOSURE_MAX_N rows and the
    potentials above it.  Forcing the cutoff to 0 or past the oracle's
    bound sends every contested table down one path."""

    @pytest.mark.parametrize("cutoff", (0, 8))
    @settings(max_examples=300, deadline=None)
    @given(cost_tables(st.integers(0, 3)), st.data())
    def test_forced_path_matches_oracle(self, cutoff, totals, data):
        m = totals.shape[1]
        if data.draw(st.booleans()):
            # identical objects give identical columns
            totals = totals[:, data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_CLOSURE_MAX_N", cutoff)
            assert_matches_oracle(AssignmentProblem(matrix_from(totals)))

    def test_closure_and_potentials_agree(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(29)
        contested = 0
        for trial in range(600):
            n = int(rng.integers(1, 9))
            m = n + int(rng.integers(0, 4))
            costs = rng.integers(0, 4, size=(n, m)).astype(float)
            if trial % 3 == 0:
                costs = costs[:, rng.integers(0, m, size=m)]
            _, sigma = linear_sum_assignment(costs)
            base = costs[np.arange(n), sigma]
            best = float(base.sum())
            budget = (best + _tol(best)) - best
            rest = costs - base[:, None]
            rest[np.arange(n), sigma] = np.inf
            if rest.min() > budget:
                continue
            contested += 1
            assert solver._closure_certifies(rest, sigma, budget) == (
                solver._potentials_certify(costs, sigma, budget)
            )
        assert contested > 300


class TestCategorySeparation:
    def test_types_respected(self):
        # the globally cheapest column has the wrong type
        totals = np.array([[0.0, 5.0]])
        problem = AssignmentProblem(
            matrix_from(totals, detection_types=("table",), candidate_types=("chair", "table")),
            category_separated=True,
        )
        assert solve(problem).pairs == ((0, "c-01"),)
        assert brute_force_solve(problem).pairs == ((0, "c-01"),)

    def test_per_type_infeasibility_reports_category(self):
        totals = np.ones((2, 3))
        problem = AssignmentProblem(
            matrix_from(
                totals,
                detection_types=("chair", "chair"),
                candidate_types=("chair", "table", "table"),
            ),
            category_separated=True,
        )
        with pytest.raises(InfeasibleAssignmentError) as err:
            solve(problem)
        assert err.value.category == "chair"
        with pytest.raises(InfeasibleAssignmentError):
            brute_force_solve(problem)

    def test_untyped_detection_rejected(self):
        problem = AssignmentProblem(
            matrix_from(np.ones((1, 1)), detection_types=(None,)),
            category_separated=True,
        )
        with pytest.raises(SceneValidationError):
            solve(problem)

    def test_matches_brute_force_with_types(self):
        rng = np.random.default_rng(7)
        types = ("chair", "table", "lamp")
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 9))
            cand_types = tuple(types[i] for i in rng.integers(0, len(types), size=m))
            det_types = tuple(cand_types[i] for i in rng.integers(0, m, size=n))
            totals = rng.uniform(0.0, 5.0, size=(n, m))
            problem = AssignmentProblem(
                matrix_from(totals, detection_types=det_types, candidate_types=cand_types),
                category_separated=True,
            )
            try:
                fast = solve(problem)
            except InfeasibleAssignmentError:
                with pytest.raises(InfeasibleAssignmentError):
                    brute_force_solve(problem)
                continue
            slow = brute_force_solve(problem)
            assert fast.pairs == slow.pairs
            assert fast.total_cost == slow.total_cost


class TestSolveProperties:
    def test_extra_candidates_never_increase_cost(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 7))
            totals = rng.uniform(0.0, 10.0, size=(n, m + 2))
            small = solve(AssignmentProblem(matrix_from(totals[:, :m])))
            large = solve(AssignmentProblem(matrix_from(totals)))
            assert large.total_cost <= small.total_cost + 1e-9

    def test_positive_scaling_preserves_pairs(self):
        rng = np.random.default_rng(4)
        totals = rng.uniform(0.0, 10.0, size=(4, 6))
        base = solve(AssignmentProblem(matrix_from(totals)))
        scaled = solve(AssignmentProblem(matrix_from(totals * 37.5)))
        assert scaled.pairs == base.pairs

    def test_every_detection_assigned_once(self):
        rng = np.random.default_rng(5)
        totals = rng.uniform(0.0, 1.0, size=(5, 8))
        result = solve(AssignmentProblem(matrix_from(totals)))
        rows = [i for i, _ in result.pairs]
        labels = [lab for _, lab in result.pairs]
        assert rows == list(range(5))
        assert len(set(labels)) == 5


class TestDualPotentials:
    """The uniqueness certificate's footing: feasible tight potentials and
    the decomposition identity they are used through."""

    @staticmethod
    def instances(rng, count, lo=8, hi=26):
        for _ in range(count):
            n = int(rng.integers(1, hi))
            m = n + int(rng.integers(0, lo))
            costs = rng.uniform(0.0, 10.0, size=(n, m))
            for _ in range(int(rng.integers(0, 3))):
                j1, j2 = rng.integers(0, m, size=2)
                costs[:, j2] = costs[:, j1]
            yield costs

    def test_potentials_feasible_tight_and_anchored(self):
        from scipy.optimize import linear_sum_assignment

        from relabel.solver import _dual_potentials

        rng = np.random.default_rng(17)
        for costs in self.instances(rng, 120):
            n, m = costs.shape
            _, sigma = linear_sum_assignment(costs)
            v = _dual_potentials(costs, sigma)
            assert v is not None
            rows = np.arange(n)
            u = costs[rows, sigma] - v[sigma]
            rc = costs - u[:, None] - v[None, :]
            scale = max(1.0, float(np.abs(costs).max()))
            assert rc.min() >= -1e-12 * scale
            assert np.all(np.abs(rc[rows, sigma]) <= 1e-12 * scale)
            assert v.max() <= 0.0
            unused = np.ones(m, dtype=bool)
            unused[sigma] = False
            assert np.all(v[unused] == 0.0)

    def test_decomposition_identity_on_random_alternates(self):
        # val(T) - val(sigma) == sum rc over T's new edges plus -v over
        # the columns T abandons; the certificate prunes through this
        from scipy.optimize import linear_sum_assignment

        from relabel.solver import _dual_potentials

        rng = np.random.default_rng(18)
        for costs in self.instances(rng, 60, hi=10):
            n, m = costs.shape
            rows = np.arange(n)
            _, sigma = linear_sum_assignment(costs)
            v = _dual_potentials(costs, sigma)
            u = costs[rows, sigma] - v[sigma]
            rc = costs - u[:, None] - v[None, :]
            best = float(costs[rows, sigma].sum())
            for _ in range(10):
                alt = rng.permutation(m)[:n]
                new = alt != sigma
                gone = np.setdiff1d(sigma[new], alt[new])
                lhs = float(costs[rows, alt].sum()) - best
                rhs = float(rc[rows[new], alt[new]].sum()) + float(-v[gone].sum())
                assert lhs == pytest.approx(rhs, abs=1e-9)
                assert rhs >= -1e-9

    def test_certificate_path_matches_row_scan(self):
        from scipy.optimize import linear_sum_assignment

        from relabel.solver import _canonical_cols, _gather_total, _scan_cols, _tol

        rng = np.random.default_rng(19)
        pool = np.array([0.0, 1.0, 1.0, 2.0, 2.5, 2.5, 7.0])
        for trial in range(200):
            n = int(rng.integers(1, 10))
            m = n + int(rng.integers(0, 6))
            if trial % 2:
                costs = pool[rng.integers(0, pool.size, size=(n, m))]
            else:
                costs = rng.uniform(0.0, 10.0, size=(n, m))
            fast, _ = _canonical_cols(costs)
            _, ci = linear_sum_assignment(costs)
            best = _gather_total(costs, ci)
            slow = _scan_cols(costs, best + _tol(best))
            assert np.array_equal(fast, slow)


@pytest.fixture
def clustered_layout():
    """Three sites; two chairs at the west site, one chair at each other."""
    bounds = SceneBounds(width=12.0, depth=12.0)
    sites = (
        VoronoiSite(id="S01", center=(2.0, 6.0)),
        VoronoiSite(id="S02", center=(10.0, 2.0)),
        VoronoiSite(id="S03", center=(10.0, 10.0)),
    )
    objects = (
        make_object("chair-01", 1.5, 5.0),
        make_object("chair-02", 2.5, 7.0),
        make_object("chair-03", 10.5, 2.0),
        make_object("chair-04", 10.0, 10.5),
        make_object("table-01", 2.0, 5.5, object_type="table", dims=(1.4, 0.8, 0.9)),
    )
    return SceneLayout(name="three-site", bounds=bounds, sites=sites, objects=objects)


class TestPreparePipeline:
    def observation(self, *detections, x=2.0, z=6.0):
        return Observation(
            camera=CameraState(position=(x, z), yaw=0.0, fov=359.0, range=50.0),
            detections=tuple(detections),
        )

    def test_zero_threshold_keeps_containing_cell_only(self, clustered_layout):
        obs = self.observation(make_detection(1.6, 5.1))
        prepared = prepare_problem(clustered_layout, obs, threshold=0.0)
        assert prepared.kept_site_ids == {"S01"}
        assert [o.label for o in prepared.candidates] == ["chair-01", "chair-02", "table-01"]
        assert prepared.effective_threshold == 0.0
        assert prepared.requested_threshold == 0.0

    def test_full_threshold_keeps_all(self, clustered_layout):
        obs = self.observation(make_detection(1.6, 5.1))
        prepared = prepare_problem(clustered_layout, obs, threshold=1.0)
        assert prepared.kept_site_ids == {"S01", "S02", "S03"}
        assert len(prepared.candidates) == 5

    def test_infeasible_pool_raises_threshold(self, clustered_layout):
        # four chair detections, but the containing cell holds two chairs:
        # sites are re-admitted until the pool is large enough
        obs = self.observation(
            make_detection(1.0, 5.0, object_type="chair"),
            make_detection(2.0, 6.0, object_type="chair"),
            make_detection(3.0, 7.0, object_type="chair"),
            make_detection(4.0, 8.0, object_type="chair"),
            make_detection(2.2, 5.6, object_type="table"),
        )
        prepared = prepare_problem(
            clustered_layout, obs, threshold=0.0, category_separated=True
        )
        assert prepared.kept_site_ids == {"S01", "S02", "S03"}
        assert prepared.requested_threshold == 0.0
        assert prepared.effective_threshold == 1.0
        result = solve(prepared.problem)
        assert len(result.pairs) == 5

    def test_pool_still_short_solver_raises(self, clustered_layout):
        detections = [make_detection(float(i), float(i)) for i in range(1, 7)]
        prepared = prepare_problem(clustered_layout, self.observation(*detections))
        with pytest.raises(InfeasibleAssignmentError):
            solve(prepared.problem)

    def test_resolve_identities_recovers_shuffle(self, clustered_layout):
        # swap the two west chairs; nearby detections still resolve to the
        # nearest original identity
        obs = self.observation(
            make_detection(1.45, 5.05, 2.0),
            make_detection(2.55, 6.95, 358.0),
        )
        result = resolve_identities(clustered_layout, obs, threshold=0.0)
        assert result.mapping == {0: "chair-01", 1: "chair-02"}
        assert result.pruned_site_count == 1
        assert result.candidate_count == 3
        assert result.effective_threshold == 0.0

    def test_weights_default_to_scene_size(self, clustered_layout):
        obs = self.observation(make_detection(1.5, 5.0))
        prepared = prepare_problem(clustered_layout, obs)
        built = build_cost_matrix(
            obs.detections,
            prepared.candidates,
            clustered_layout.bounds,
            CostWeights(w_t=0.36 * np.sqrt(144.0), w_r=1.0),
        )
        assert np.array_equal(prepared.problem.matrix.total, built.total)


def plan_snapshot(plan) -> tuple:
    side = plan.side
    arrays = (side.x, side.z, side.yaw, side.boxes, side.box_col)
    return (
        plan.kept_site_ids,
        plan.effective_threshold,
        plan.candidates,
        side.labels,
        side.types,
        tuple(a.tobytes() for a in arrays),
    )


class TestStopPlan:
    """One plan per (stop, threshold), reused across noise cells, prepares
    what a fresh `prepare_problem` prepares, byte for byte."""

    COSTS = ("c_t", "c_r", "c_d", "total")

    def assert_same(self, reused, fresh, observation, layout):
        for name in self.COSTS:
            a = getattr(reused.problem.matrix, name)
            b = getattr(fresh.problem.matrix, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert reused.problem.matrix.candidates == fresh.problem.matrix.candidates
        assert reused.candidates == fresh.candidates
        assert reused.kept_site_ids == fresh.kept_site_ids
        assert reused.effective_threshold == fresh.effective_threshold
        # the candidate half and the detection half rebuild the one-shot build
        whole = build_cost_matrix(
            observation.detections, fresh.candidates, layout.bounds, default_weights(layout.bounds)
        )
        assert reused.problem.matrix.total.tobytes() == whole.total.tobytes()

    @pytest.mark.parametrize("category_separated", (False, True))
    @pytest.mark.parametrize("archetype", sorted(ARCHETYPES))
    def test_reused_plan_matches_fresh_prepare(self, archetype, category_separated):
        layout = generate_scene(archetype, 3)
        cameras = camera_stops(patrol_route(layout))
        cells = [
            perturb_layout(layout, NoiseModel(t_sd=a, r_sd=b), derive_seed(3, k))
            for k, (a, b) in enumerate(((0.1, 15.0), (1.0, 60.0), (3.0, 120.0)))
        ]
        for threshold in (0.0, 0.25, 1.0):
            for camera in cameras:
                plan = plan_stop(layout, camera, threshold)
                before = plan_snapshot(plan)
                for perturbed in cells:
                    observation = synthesize_observation(perturbed, camera)
                    reused = plan.prepare(observation, None, category_separated)
                    fresh = prepare_problem(
                        layout, observation, threshold, None, category_separated
                    )
                    self.assert_same(reused, fresh, observation, layout)
                    # the next cell starts from the plan as it was built
                    assert plan_snapshot(plan) == before

    def test_readmitting_cell_leaves_plan_unchanged(self, clustered_layout):
        # the containing cell holds three candidates: four detections make
        # the first cell re-admit sites, and the next cell, of two
        # detections, must see the plan's original pool again
        camera = CameraState(position=(2.0, 6.0), yaw=0.0, fov=359.0, range=50.0)
        plan = plan_stop(clustered_layout, camera, 0.0)
        before = plan_snapshot(plan)
        crowded = Observation(
            camera=camera,
            detections=tuple(make_detection(float(x), 6.0) for x in (1, 2, 3, 4)),
        )
        sparse = Observation(camera=camera, detections=crowded.detections[:2])
        first = plan.prepare(crowded)
        assert first.kept_site_ids > plan.kept_site_ids
        assert first.effective_threshold > plan.effective_threshold == 0.0
        assert plan_snapshot(plan) == before
        second = plan.prepare(sparse)
        assert second.kept_site_ids == plan.kept_site_ids == {"S01"}
        for observation, reused in ((crowded, first), (sparse, second)):
            fresh = prepare_problem(clustered_layout, observation, 0.0)
            self.assert_same(reused, fresh, observation, clustered_layout)

    def test_observation_from_another_camera_rejected(self, clustered_layout):
        camera = CameraState(position=(2.0, 6.0), yaw=0.0, fov=359.0, range=50.0)
        elsewhere = CameraState(position=(10.0, 2.0), yaw=0.0, fov=359.0, range=50.0)
        plan = plan_stop(clustered_layout, camera, 0.0)
        with pytest.raises(SceneValidationError):
            plan.prepare(Observation(camera=elsewhere, detections=(make_detection(1.6, 5.1),)))

    def test_plan_arrays_read_only(self, clustered_layout):
        camera = CameraState(position=(2.0, 6.0), yaw=0.0, fov=359.0, range=50.0)
        side = plan_stop(clustered_layout, camera, 0.0).side
        for array in (side.x, side.z, side.yaw, side.boxes, side.box_col):
            assert not array.flags.writeable


TWIN_DIMS = {"chair": (0.5, 0.9, 0.5), "table": (1.4, 0.8, 0.9)}


@settings(max_examples=150, deadline=None)
@given(
    spots=st.lists(
        st.tuples(
            st.integers(1, 9),
            st.integers(1, 9),
            st.sampled_from((0.0, 90.0, 200.0)),
            st.sampled_from(sorted(TWIN_DIMS)),
            st.integers(1, 2),
        ),
        min_size=1,
        max_size=4,  # at most 8 objects, within the oracle's bound
        unique_by=lambda spot: spot[:2],
    ),
    threshold=st.sampled_from((0.0, 0.5, 1.0)),
    category_separated=st.booleans(),
)
def test_zero_noise_twin_layouts(spots, threshold, category_separated):
    # same-type objects paired on one pose, observed without noise: every
    # twin pair is an exact tie that the cost build must keep exact
    objects = []
    for x, z, yaw, object_type, copies in spots:
        for _ in range(copies):
            label = f"{object_type}-{len(objects):02d}"
            dims = TWIN_DIMS[object_type]
            objects.append(make_object(label, float(x), float(z), yaw, object_type, dims))
    layout = SceneLayout(
        name="twins",
        bounds=SceneBounds(width=10.0, depth=10.0),
        sites=(
            VoronoiSite(id="S01", center=(2.5, 5.0)),
            VoronoiSite(id="S02", center=(7.5, 5.0)),
            VoronoiSite(id="S03", center=(5.0, 8.5)),
        ),
        objects=tuple(objects),
    )
    camera = CameraState(position=(5.0, 0.0), yaw=0.0, fov=170.0, range=30.0)
    observation = synthesize_observation(layout, camera)
    assert len(observation.detections) == len(objects)
    prepared = prepare_problem(
        layout, observation, threshold=threshold, category_separated=category_separated
    )
    result = assert_matches_oracle(prepared.problem)
    if threshold == 1.0:
        # every object is a candidate: each detection takes its own label,
        # the smaller of two twins' columns, at a total of exactly zero
        assert result.total_cost == 0.0
        assert result.pairs == tuple(enumerate(sorted(o.label for o in objects)))

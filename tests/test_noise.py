"""Gaussian layout perturbation: determinism, clamping, statistics."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from relabel.noise import NoiseModel, ZERO_NOISE, derive_seed, make_rng, perturb_layout
from relabel.partition import VoronoiSite
from relabel.scene import (
    ObjectInstance,
    PlanarPose,
    SceneBounds,
    SceneLayout,
    SceneValidationError,
    normalize_yaw,
    scene_to_dict,
)
from relabel.scenegen import ARCHETYPES, generate_scene

from .conftest import make_object


def big_layout(n: int = 400, side: float = 200.0) -> SceneLayout:
    # plenty of headroom so clamping never kicks in during statistics checks
    objects = tuple(
        make_object(f"chair-{k:03d}", 50.0 + (k % 20) * 5.0, 50.0 + (k // 20) * 5.0, yaw=180.0)
        for k in range(n)
    )
    return SceneLayout(
        name="grid",
        bounds=SceneBounds(width=side, depth=side),
        sites=(VoronoiSite(id="S01", center=(side / 2, side / 2)),),
        objects=objects,
    )


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(SceneValidationError):
            NoiseModel(t_sd=-0.1)
        with pytest.raises(SceneValidationError):
            NoiseModel(r_sd=-1.0)
        with pytest.raises(SceneValidationError):
            NoiseModel(t_mean=math.inf)

    def test_zero_noise_constant(self):
        assert ZERO_NOISE == NoiseModel()

    def test_negative_sd_rejected_by_name(self):
        with pytest.raises(SceneValidationError, match="noise r_sd must be >= 0, got -1.0"):
            NoiseModel(r_sd=-1.0)

    def test_negative_zero_sd_is_no_noise(self, two_site_layout):
        # -0.0 >= 0, but numpy's normal rejects a scale whose sign bit is set
        noise = NoiseModel(t_sd=-0.0, r_sd=-0.0)
        assert noise == ZERO_NOISE and math.copysign(1.0, noise.t_sd) == 1.0
        assert perturb_layout(two_site_layout, noise, 4) == two_site_layout


class TestPerturb:
    def test_zero_noise_is_identity(self, two_site_layout):
        perturbed = perturb_layout(two_site_layout, ZERO_NOISE, 123)
        assert perturbed == two_site_layout

    def test_same_seed_same_layout(self, two_site_layout):
        noise = NoiseModel(t_sd=0.5, r_sd=20.0)
        a = perturb_layout(two_site_layout, noise, 99)
        b = perturb_layout(two_site_layout, noise, 99)
        assert a == b

    def test_different_seeds_differ(self, two_site_layout):
        noise = NoiseModel(t_sd=0.5, r_sd=20.0)
        assert perturb_layout(two_site_layout, noise, 1) != perturb_layout(
            two_site_layout, noise, 2
        )

    def test_only_poses_change(self, two_site_layout):
        noise = NoiseModel(t_sd=0.5, r_sd=20.0)
        perturbed = perturb_layout(two_site_layout, noise, 5)
        assert perturbed.name == two_site_layout.name
        assert perturbed.sites == two_site_layout.sites
        for before, after in zip(two_site_layout.objects, perturbed.objects):
            assert before.label == after.label
            assert before.object_type == after.object_type
            assert before.dims == after.dims

    def test_positions_clamped_to_bounds(self, two_site_layout):
        noise = NoiseModel(t_sd=500.0)  # nearly every draw would leave the room
        perturbed = perturb_layout(two_site_layout, noise, 3)
        for o in perturbed.objects:
            assert two_site_layout.bounds.contains(o.pose.x, o.pose.z)

    def test_yaw_stays_normalized(self, two_site_layout):
        perturbed = perturb_layout(two_site_layout, NoiseModel(r_sd=5000.0), 8)
        for o in perturbed.objects:
            assert 0.0 <= o.pose.yaw < 360.0

    @pytest.mark.parametrize("r_mean", [1000.0, -1000.0, 1e300])
    def test_yaw_offset_beyond_a_turn_saturates(self, two_site_layout, r_mean):
        # an offset past +-360 degrees is held to one whole turn
        perturbed = perturb_layout(two_site_layout, NoiseModel(r_mean=r_mean), 8)
        turn = math.copysign(360.0, r_mean)
        for before, after in zip(two_site_layout.objects, perturbed.objects):
            assert after.pose.yaw == normalize_yaw(before.pose.yaw + turn)

    def test_sample_statistics_match_model(self):
        layout = big_layout()
        noise = NoiseModel(t_sd=1.0, r_sd=10.0)
        perturbed = perturb_layout(layout, noise, 1234)
        dx = np.array(
            [p.pose.x - q.pose.x for p, q in zip(perturbed.objects, layout.objects)]
        )
        dz = np.array(
            [p.pose.z - q.pose.z for p, q in zip(perturbed.objects, layout.objects)]
        )
        dr = np.array(
            [((p.pose.yaw - q.pose.yaw + 180.0) % 360.0) - 180.0
             for p, q in zip(perturbed.objects, layout.objects)]
        )
        # 800 translation draws, 400 rotation draws: sd estimate within ~10%
        assert abs(np.std(np.concatenate([dx, dz])) - 1.0) < 0.1
        assert abs(np.std(dr) - 10.0) < 1.0
        assert abs(np.mean(np.concatenate([dx, dz]))) < 0.15


class TestSeeds:
    def test_make_rng_is_numpy_generator(self):
        rng = make_rng(0)
        assert isinstance(rng, np.random.Generator)
        assert make_rng(0).integers(0, 1 << 30) == rng.integers(0, 1 << 30)

    def test_derive_seed_streams_are_independent(self, two_site_layout):
        noise = NoiseModel(t_sd=0.5)
        a = perturb_layout(two_site_layout, noise, derive_seed(0, 0, 0))
        b = perturb_layout(two_site_layout, noise, derive_seed(0, 0, 1))
        c = perturb_layout(two_site_layout, noise, derive_seed(0, 0, 0))
        assert a != b
        assert a == c

    @pytest.mark.parametrize(
        "draw",
        [
            lambda layout: make_rng(-1),
            lambda layout: make_rng(np.int64(-1)),
            lambda layout: derive_seed(-1),
            lambda layout: derive_seed(-1, 0, 2),
            lambda layout: perturb_layout(layout, NoiseModel(t_sd=0.5), -1),
        ],
        ids=["make_rng", "make_rng-numpy-int", "derive_seed", "derive_seed-stream", "perturb"],
    )
    def test_negative_seed_rejected_by_name(self, two_site_layout, draw):
        with pytest.raises(SceneValidationError, match="seed must be >= 0, got -1"):
            draw(two_site_layout)

    def test_accepts_generator_seed(self, two_site_layout):
        noise = NoiseModel(t_sd=0.5)
        a = perturb_layout(two_site_layout, noise, make_rng(17))
        b = perturb_layout(two_site_layout, noise, 17)
        assert a == b


def loop_perturb(layout: SceneLayout, noise: NoiseModel, seed) -> SceneLayout:
    """The per-object perturbation that the array steps replaced, kept as
    their reference: label-sorted draws, one object at a time."""
    rng = make_rng(seed)
    objects = layout.objects
    n = len(objects)
    order = sorted(range(n), key=lambda i: objects[i].label)
    dx = rng.normal(noise.t_mean, noise.t_sd, size=n)
    dz = rng.normal(noise.t_mean, noise.t_sd, size=n)
    dr = np.clip(rng.normal(noise.r_mean, noise.r_sd, size=n), -360.0, 360.0)
    replaced = {}
    for k, i in enumerate(order):
        obj = objects[i]
        x = min(max(obj.pose.x + float(dx[k]), 0.0), layout.bounds.width)
        z = min(max(obj.pose.z + float(dz[k]), 0.0), layout.bounds.depth)
        yaw = obj.pose.yaw + float(dr[k])
        replaced[i] = ObjectInstance(
            label=obj.label, object_type=obj.object_type,
            pose=PlanarPose(x=x, z=z, yaw=yaw), dims=obj.dims,
        )
    return SceneLayout(
        name=layout.name, bounds=layout.bounds, sites=layout.sites,
        objects=tuple(replaced[i] for i in range(n)),
    )


def layout_bytes(layout: SceneLayout) -> bytes:
    # repr of every float, so -0.0 and 0.0 differ
    return json.dumps(scene_to_dict(layout)).encode()


# just below a whole turn, and zero: a tiny offset makes each sum round to
# exactly 360.0, which the pose renormalizes to 0.0
BELOW_A_TURN = math.nextafter(360.0, 0.0)
EDGE_YAWS = SceneLayout(
    name="edge-yaws",
    bounds=SceneBounds(width=4.0, depth=3.0),
    sites=(VoronoiSite(id="S01", center=(2.0, 1.5)),),
    objects=tuple(
        make_object(f"chair-{k:02d}", 0.5 + k, 1.5, yaw=yaw)
        for k, yaw in enumerate((BELOW_A_TURN, 0.0, 180.0))
    ),
)
# a floor whose positions plus an offset pass the largest float
HUGE_FLOOR = SceneLayout(
    name="huge-floor",
    bounds=SceneBounds(width=1e308, depth=1.0),
    sites=(VoronoiSite(id="S01", center=(0.5, 0.5)),),
    objects=(make_object("chair-01", 1e308, 0.5), make_object("chair-02", 0.0, 0.5)),
)


class TestMatchesThePerObjectLoop:
    @pytest.mark.parametrize("name", sorted(ARCHETYPES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel(t_sd=0.3, r_sd=20.0),
            # sd larger than every room: both bounds clamps and the yaw clamp
            NoiseModel(t_sd=50.0, r_sd=5000.0),
        ],
        ids=["mild", "clamped"],
    )
    def test_archetypes(self, name, seed, noise):
        layout = generate_scene(name, seed)
        stream = derive_seed(seed, 7)
        assert layout_bytes(perturb_layout(layout, noise, stream)) == layout_bytes(
            loop_perturb(layout, noise, stream)
        )
        # draws follow the labels, not the order of the object tuple
        shuffled = dataclasses.replace(layout, objects=layout.objects[::-1])
        assert layout_bytes(perturb_layout(shuffled, noise, stream)) == layout_bytes(
            loop_perturb(shuffled, noise, stream)
        )

    @pytest.mark.parametrize("r_mean", [3e-14, -1e-300])
    def test_yaw_sums_that_round_to_a_whole_turn(self, r_mean):
        assert BELOW_A_TURN + 3e-14 == 360.0 and 0.0 + -1e-300 < 0.0
        noise = NoiseModel(r_mean=r_mean)
        perturbed = perturb_layout(EDGE_YAWS, noise, 3)
        assert layout_bytes(perturbed) == layout_bytes(loop_perturb(EDGE_YAWS, noise, 3))
        assert all(0.0 <= o.pose.yaw < 360.0 for o in perturbed.objects)

    def test_sums_past_the_largest_float_clamp_to_the_bound(self):
        # the suite turns an overflow warning into an error
        noise = NoiseModel(t_mean=1e308)
        perturbed = perturb_layout(HUGE_FLOOR, noise, 0)
        assert layout_bytes(perturbed) == layout_bytes(loop_perturb(HUGE_FLOOR, noise, 0))
        assert [(o.pose.x, o.pose.z) for o in perturbed.objects] == [(1e308, 1.0)] * 2

"""Gaussian layout perturbation: determinism, clamping, statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from relabel.noise import NoiseModel, ZERO_NOISE, derive_seed, make_rng, perturb_layout
from relabel.partition import VoronoiSite
from relabel.scene import SceneBounds, SceneLayout, SceneValidationError

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

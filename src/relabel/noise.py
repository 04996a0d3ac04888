"""Random layout changes: Gaussian translation and rotation per object.

All randomness in the package flows through numpy's PCG64 generator (the
default_rng algorithm), a named, seedable, portable source: a seed fully
determines a perturbation on every platform.  Draws happen in label-sorted
object order, one vectorized batch per component (all x offsets, then all z
offsets, then all yaw offsets), which keeps results independent of how the
object tuple happens to be ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import ObjectInstance, PlanarPose, SceneLayout, SceneValidationError


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Gaussian noise parameters: translation in meters, rotation in degrees.

    Translation applies independently to x and z; rotation to yaw.  The two
    components are independent of each other.
    """

    t_mean: float = 0.0
    t_sd: float = 0.0
    r_mean: float = 0.0
    r_sd: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t_mean", "t_sd", "r_mean", "r_sd"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise SceneValidationError(f"noise {name} must be finite, got {value}")
            if name.endswith("_sd"):
                if value < 0.0:
                    raise SceneValidationError(f"noise {name} must be >= 0, got {value}")
                value += 0.0  # -0.0 is no noise; numpy's normal rejects its sign
            object.__setattr__(self, name, value)


ZERO_NOISE = NoiseModel()


def _require_seed(seed: int) -> int:
    value = int(seed)
    if value < 0:
        raise SceneValidationError(f"seed must be >= 0, got {value}")
    return value


def make_rng(seed: int | np.random.SeedSequence | None = None) -> np.random.Generator:
    """The package's single randomness source: a PCG64 generator."""
    if isinstance(seed, (int, np.integer)):
        _require_seed(seed)
    return np.random.default_rng(seed)


def derive_seed(master_seed: int, *stream: int) -> np.random.SeedSequence:
    """Independent child seed for a (master seed, stream index...) key.

    Gives each sweep cell its own stable stream, so adding or reordering
    cells never shifts another cell's draws.
    """
    return np.random.SeedSequence([_require_seed(master_seed), *map(_require_seed, stream)])


def perturb_layout(
    layout: SceneLayout,
    noise: NoiseModel,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> SceneLayout:
    """Return a copy of `layout` with every object independently disturbed.

    x and z offsets are drawn from N(t_mean, t_sd^2), the yaw offset from
    N(r_mean, r_sd^2).  Yaw offsets are clamped to [-360, 360]; positions
    are clamped componentwise back into the scene bounds; yaws renormalize
    to [0, 360).  Zero noise reproduces the layout bit for bit.
    """
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    objects = layout.objects
    n = len(objects)
    order = sorted(range(n), key=lambda i: objects[i].label)
    dx = rng.normal(noise.t_mean, noise.t_sd, size=n)
    dz = rng.normal(noise.t_mean, noise.t_sd, size=n)
    dr = np.clip(rng.normal(noise.r_mean, noise.r_sd, size=n), -360.0, 360.0)

    replaced: dict[int, ObjectInstance] = {}
    for k, i in enumerate(order):
        obj = objects[i]
        x = min(max(obj.pose.x + float(dx[k]), 0.0), layout.bounds.width)
        z = min(max(obj.pose.z + float(dz[k]), 0.0), layout.bounds.depth)
        yaw = obj.pose.yaw + float(dr[k])
        replaced[i] = ObjectInstance(
            label=obj.label,
            object_type=obj.object_type,
            pose=PlanarPose(x=x, z=z, yaw=yaw),
            dims=obj.dims,
        )
    return SceneLayout(
        name=layout.name,
        bounds=layout.bounds,
        sites=layout.sites,
        objects=tuple(replaced[i] for i in range(n)),
    )

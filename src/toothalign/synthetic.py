"""Seeded synthetic mouths for tests, demos, and benchmarks.

Each jaw is a parabolic U-arch of ellipsoidal crown shells. Ground-truth
(aligned) positions are laid out with controlled surface gaps, so the gt
jaw is collision-free and respects the augmentation constraints by
construction: each placement pass builds every crown of a jaw in one
stacked array and measures all adjacent gaps in one bvh.cloud_gaps
query, and a jaw whose gaps have not settled within 0.02 mm after three
passes raises InfeasibleParams. The pre-orthodontic state is produced
by perturbing every tooth with a known rigid transform about its
centroid, which makes exact oracle transforms available to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .bvh import cloud_gaps
from .case import Case, Jaw, Tooth
from .errors import ConfigError, InfeasibleParams
from .geometry import RigidTransform, random_rigid

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


@dataclass(frozen=True)
class SynthParams:
    teeth_per_jaw: int = 12
    arch_width: float = 64.0  # molar-to-molar span, mm
    arch_depth: float = 44.0  # front-to-back extent, mm
    crown_size_range: tuple[float, float] = (5.0, 7.0)  # mesiodistal, mm
    gap_range: tuple[float, float] = (0.9, 1.5)  # adjacent surface gaps, mm
    rot_max_deg: float = 8.0
    trans_sigma_mm: float = 0.3
    points_per_tooth: int = 512
    proxy_radius: float = 0.25
    occlusal_clearance: float = 0.5  # vertical space between the jaws, mm

    def __post_init__(self) -> None:
        if not 8 <= self.teeth_per_jaw <= 16:
            raise ConfigError(f"teeth_per_jaw must be 8..16, got {self.teeth_per_jaw}")
        lo, hi = self.crown_size_range
        if not (0 < lo <= hi):
            raise ConfigError("crown_size_range must be increasing and positive")
        glo, ghi = self.gap_range
        if not (0 < glo <= ghi):
            raise ConfigError("gap_range must be increasing and positive")
        if glo <= 2.0 * self.proxy_radius:
            raise ConfigError("minimum gap must exceed the proxy diameter")
        if self.arch_width <= 0 or self.arch_depth <= 0:
            raise ConfigError("arch dimensions must be positive")
        if self.points_per_tooth < 4:
            raise ConfigError("points_per_tooth must be at least 4")
        if self.rot_max_deg < 0 or self.trans_sigma_mm < 0:
            raise ConfigError("perturbation magnitudes must be nonnegative")


@cache
def _fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit directions, built once per n and read-only."""
    k = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * k
    out = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    out.flags.writeable = False
    return out


class _Parabola:
    """y = depth * (1 - (2x / width)^2), arc-length parameterized, over
    read-only arrays."""

    def __init__(self, width: float, depth: float, samples: int = 4096):
        self.width = width
        self.depth = depth
        x = np.linspace(-width / 2.0, width / 2.0, samples)
        y = depth * (1.0 - (2.0 * x / width) ** 2)
        pts = np.stack([x, y], axis=1)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        self._x = x
        self._arc = np.concatenate([[0.0], np.cumsum(steps)])
        x.flags.writeable = self._arc.flags.writeable = False

    def total(self) -> float:
        return float(self._arc[-1])

    def at(self, s):
        x = np.interp(s, self._arc, self._x)
        y = self.depth * (1.0 - (2.0 * x / self.width) ** 2)
        return np.stack(np.broadcast_arrays(x, y), axis=-1)

    def tangent(self, s):
        x = np.interp(s, self._arc, self._x)
        dydx = self.depth * (-8.0 * x / self.width**2)
        t = np.stack(np.broadcast_arrays(np.ones_like(x), dydx), axis=-1)
        return t / np.linalg.norm(t, axis=-1, keepdims=True)


_arch_curve = cache(_Parabola)  # one shared curve per (width, depth)


def _crown_clouds(directions, centers, tangents, sizes, spins, jitters) -> np.ndarray:
    """Ellipsoid shells, crown i about centers[i] with its mesiodistal
    axis along tangents[i], as (3, crowns, points) coordinates."""
    cs, sn = np.cos(spins)[:, None], np.sin(spins)[:, None]
    dx, dy, dz = directions.T
    lx = (cs * dx - sn * dy) * jitters * (sizes / 2.0)[:, None]
    ly = (sn * dx + cs * dy) * jitters * (0.85 * sizes / 2.0)[:, None]
    lz = dz * jitters * (1.05 * sizes / 2.0)[:, None]
    (cx, cy, cz), (tx, ty) = centers.T[..., None], tangents.T[..., None]
    return np.stack([cx + lx * tx - ly * ty, cy + lx * ty + ly * tx, cz + lz])


def _build_jaw(side: str, ids: list[int], params: SynthParams, rng) -> Jaw:
    n = len(ids)
    # The lower curve sits well inside the upper one so the projected
    # outlines of opposing crowns stay clear of each other: generated
    # cases have no occlusal contact within the default overlap radius.
    scale = 1.0 if side == "upper" else 0.80  # lower arch sits slightly inside
    curve = _arch_curve(params.arch_width * scale, params.arch_depth * scale)
    sizes = rng.uniform(*params.crown_size_range, size=n)
    gaps = rng.uniform(*params.gap_range, size=n - 1)
    z_jitter = rng.uniform(-0.15, 0.15, size=n)
    spins = rng.uniform(0.0, 2.0 * np.pi, size=n)
    jitters = 1.0 + 0.02 * rng.uniform(-1.0, 1.0, size=(n, params.points_per_tooth))

    heights = 1.05 * sizes
    clear = params.occlusal_clearance / 2.0
    z_sign = -1.0 if side == "lower" else 1.0
    z_centers = z_sign * (heights / 2.0 + clear) + z_jitter

    spacing = sizes[:-1] / 2.0 + gaps + sizes[1:] / 2.0
    directions = _fibonacci_sphere(params.points_per_tooth)

    margin = 0.5
    for _ in range(3):  # placement passes: measure gaps, then correct spacing
        total_span = float(spacing.sum()) + float(sizes[0] + sizes[-1]) / 2.0
        need, offer = total_span + 2.0 * margin, curve.total()
        if need > offer:
            digits = 1  # the fewest decimals that tell the two lengths apart
            while f"{need:.{digits}f}" == f"{offer:.{digits}f}":
                digits += 1
            raise InfeasibleParams(
                f"{side} jaw: {n} crowns need {need:.{digits}f} mm of arch "
                f"but the curve offers {offer:.{digits}f} mm"
            )
        start = (curve.total() - total_span) / 2.0 + sizes[0] / 2.0
        arcs = start + np.concatenate([[0.0], np.cumsum(spacing)])
        centers = np.column_stack([curve.at(arcs), z_centers])
        tangents = curve.tangent(arcs)
        cols = _crown_clouds(directions, centers, tangents, sizes, spins, jitters)
        tree = cols[:, 1:]
        measured = cloud_gaps(cols[:, :-1], tree, tree.min(axis=2), tree.max(axis=2), tree.mean(axis=2))
        err = gaps - measured
        if np.abs(err).max() < 0.02:
            break
        spacing = spacing + err
    else:
        k = int(np.abs(err).argmax())
        raise InfeasibleParams(
            f"{side} jaw: the gap between teeth {ids[k]} and {ids[k + 1]} is still "
            f"{abs(err[k]):.4f} mm off its {gaps[k]:.4f} mm target after 3 placement passes"
        )

    clouds = cols.transpose(1, 2, 0)  # points are replaced by the perturbed copy later
    teeth = [
        Tooth(tid, points=clouds[i], gt_points=clouds[i].copy(), proxy_radius=params.proxy_radius)
        for i, tid in enumerate(ids)
    ]
    return Jaw(side, teeth)


def _perturb_teeth(jaw: Jaw, params: SynthParams, rng) -> dict[int, RigidTransform]:
    transforms: dict[int, RigidTransform] = {}
    rot_max = np.deg2rad(params.rot_max_deg)
    for tooth in sorted(jaw.teeth, key=lambda t: t.id):
        t = random_rigid(rng, rot_max, 0.0, params.trans_sigma_mm, tooth.gt_centroid())
        tooth.points = t.apply(tooth.gt_points)
        tooth.moved = not t.is_identity()
        transforms[tooth.id] = t
    return transforms


def generate_synthetic_case(
    params: SynthParams | None = None,
    seed: int = 0,
    case_id: str | None = None,
    return_transforms: bool = False,
):
    """Build one synthetic case; same seed and params give identical output.

    ``points`` holds the misaligned (perturbed) clouds and ``gt_points``
    the aligned layout. With ``return_transforms`` the exact gt-to-pre
    transforms are returned alongside the case.
    """
    params = params or SynthParams()
    rng = np.random.default_rng(seed)
    n = params.teeth_per_jaw
    start = (16 - n) // 2 + 1
    upper_ids = list(range(start, start + n))
    lower_ids = [i + 16 for i in upper_ids]

    upper = _build_jaw("upper", upper_ids, params, rng)
    lower = _build_jaw("lower", lower_ids, params, rng)
    transforms = _perturb_teeth(upper, params, rng)
    transforms.update(_perturb_teeth(lower, params, rng))

    case = Case(case_id or f"synth-{seed}", upper, lower)
    if return_transforms:
        return case, transforms
    return case

"""Constrained data augmentation.

Pre-treatment states are simulated from finished (target) geometry:
each tooth gets a random rigid displacement, then the jaw is pushed
back toward clinical plausibility by two constraint passes:

* regularization: inter-tooth gaps are closed to at most 2.35 mm by
  sliding the distal tooth of an offending pair toward the midline
  along the arch, and centroids are kept within [0, 2.2] mm of the
  arch by pulling teeth perpendicular onto it;
* collision resolution: interpenetrating pairs are separated by
  sliding the tooth farther from the midline outward along the arch.

Both passes only translate teeth, so the per-tooth rotation stays
exactly the sampled one. Collision tests treat each cloud as a union
of proxy spheres; they and the gap distances are exact k-d tree
queries (see bvh), equal to an all-pairs scan.
"""

from __future__ import annotations

import numpy as np

from .arch import ArchLine, fit_arch_line
from .bvh import AabbTree, interlock_masks, nearest_distances
from .case import Case, Jaw, Tooth, midline_offset
from .config import AugmentConfig
from .errors import (
    CollisionUnresolved,
    ConstraintViolation,
    CorrespondenceMismatch,
    NoCollision,
)
from .geometry import RigidTransform, kabsch_recover, quat_from_axis_angle
from .seeding import derive_seed

_REGULARIZE_PASSES = 8
_PULL_STEPS = 16
_JOINT_ROUNDS = 4
_SLACK = 1e-6  # settle strictly inside thresholds so re-checks stay quiet


# ------------------------------------------------------------ perturbation

def perturb_tooth(tooth: Tooth, seed: int, config: AugmentConfig) -> RigidTransform:
    """Random displacement about the tooth centroid: rotation angle
    uniform in +-rot_range about a uniformly random axis, translation
    components i.i.d. Normal(trans_mu, trans_sigma).

    Draw order (axis, angle, translation) is fixed; same seed, same
    transform.
    """
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    angle = rng.uniform(-np.deg2rad(config.rot_range), np.deg2rad(config.rot_range))
    trans = rng.normal(config.trans_mu, config.trans_sigma, size=3)
    return RigidTransform(
        rotation=quat_from_axis_angle(axis, angle),
        translation=trans,
        pivot=tooth.centroid(),
    )


# --------------------------------------------------------------- collision

def _interlock(a: Tooth, b: Tooth, trees: dict[int, AabbTree]):
    radius = a.proxy_radius + b.proxy_radius
    mask_a, mask_b, d_min = interlock_masks(trees[a.id], trees[b.id], radius)
    return mask_a, mask_b, d_min, radius


def penetration_distance(tooth_a: Tooth, tooth_b: Tooth) -> float:
    """Overlap extent: the farthest distance between interlocking
    points, where a point interlocks when it lies strictly inside the
    other cloud's proxy volume.

    A single coincident contact point yields ~0; this is the raw
    extent, see detect_collisions for the always-positive resolution step.
    """
    trees = {tooth_a.id: AabbTree(tooth_a.points), tooth_b.id: AabbTree(tooth_b.points)}
    mask_a, mask_b, _, _ = _interlock(tooth_a, tooth_b, trees)
    if not mask_a.any():
        raise NoCollision(f"teeth {tooth_a.id} and {tooth_b.id} do not interlock")
    pa, pb = tooth_a.points[mask_a], tooth_b.points[mask_b]
    return float(np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1).max()))


def _separation_step(a: Tooth, b: Tooth, trees) -> float | None:
    """None when disjoint; otherwise a positive slide distance that
    clears the overlap: proxy penetration depth plus a hair of margin.

    Deliberately NOT the interlock extent penetration_distance reports;
    extent-sized slides over-separate banded contacts by millimetres and
    fight the gap constraint."""
    mask_a, mask_b, d_min, radius = _interlock(a, b, trees)
    if not mask_a.any():
        return None
    return radius - d_min + 1e-3


def detect_collisions(jaw: Jaw) -> list[tuple[int, int, float]]:
    """All interlocking present-tooth pairs ``(id_a, id_b, step)``, in
    ascending id order; each step is a positive slide that clears the
    overlap."""
    teeth = jaw.present_teeth()
    trees = {t.id: AabbTree(t.points) for t in teeth}
    pairs = []
    for i, a in enumerate(teeth):
        for b in teeth[i + 1 :]:
            step = _separation_step(a, b, trees)
            if step is not None:
                pairs.append((a.id, b.id, step))
    return pairs


# ------------------------------------------------------------- constraints

def adjacent_gaps(jaw: Jaw) -> list[tuple[int, int, float]]:
    """Nearest point-pair distance between adjacent present teeth;
    adjacency means consecutive present ids (absences skipped)."""
    teeth = jaw.present_teeth()
    out = []
    for a, b in zip(teeth, teeth[1:]):
        gap = nearest_distances(a.points, AabbTree(b.points)).min()
        out.append((a.id, b.id, float(gap)))
    return out


def _center_out(teeth: list[Tooth]) -> list[Tooth]:
    return sorted(teeth, key=lambda t: (midline_offset(t.id), t.id))


def _mesial_neighbor(jaw: Jaw, tooth_id: int) -> Tooth | None:
    """Adjacent present tooth on the midline side of tooth_id."""
    ids = sorted(t.id for t in jaw.present_teeth())
    pos = ids.index(tooth_id)
    mid = 8.5 if tooth_id <= 16 else 24.5
    if tooth_id < mid:
        return jaw.get(ids[pos + 1]) if pos + 1 < len(ids) else None
    return jaw.get(ids[pos - 1]) if pos > 0 else None


def _translate(tooth: Tooth, vec: np.ndarray) -> None:
    tooth.points = tooth.points + vec


def _arch_distance(arch: ArchLine, tooth: Tooth) -> float:
    """Unsigned arch distance of the centroid: one projection, and no
    labial side, which abs() of the signed distance would drop again."""
    return float(arch.project(tooth.centroid()[None, :])[2][0])


def _pull_to_arch(tooth: Tooth, arch: ArchLine, lo: float, hi: float) -> float:
    """Perpendicular pulls until the centroid's arch distance is inside
    [lo, hi]. Returns the total displacement."""
    total = 0.0
    for _ in range(_PULL_STEPS):
        c = tooth.centroid()
        _, feet, dists = arch.project(c[None, :])
        dist = float(dists[0])
        if lo <= dist <= hi:
            break
        if dist < 1e-12:
            break  # on the arch; no direction to push outward
        target = hi - _SLACK if dist > hi else lo + _SLACK
        vec = (1.0 - target / dist) * (feet[0] - c)
        _translate(tooth, vec)
        total += float(np.linalg.norm(vec))
    return total


def _close_gap(tooth: Tooth, mesial: Tooth, arch: ArchLine, threshold: float) -> float:
    """Slides tooth toward the midline along the arch until its gap to
    the mesial neighbor is at most threshold. Returns total slide."""
    total = 0.0
    mesial_tree = AabbTree(mesial.points)
    for _ in range(_PULL_STEPS):
        gap = float(nearest_distances(tooth.points, mesial_tree).min())
        if gap <= threshold:
            break
        delta = -(gap - (threshold - _SLACK))
        c = tooth.centroid()
        vec = arch.move_along(c, delta, extend=True) - c
        _translate(tooth, vec)
        total += float(np.linalg.norm(vec))
    return total


def jaw_regularize(jaw: Jaw, arch: ArchLine, config: AugmentConfig) -> Jaw:
    """Center-out constraint pass, repeated to a fixed point: arch
    distances into range, then each tooth's gap to its mesial neighbor
    closed. The most central tooth anchors the traversal (it is never
    slid). Pure; the input jaw is left untouched."""
    config.validate()
    out = jaw.copy()
    lo, hi = config.arch_dist_range
    order = _center_out(out.present_teeth())
    for _ in range(_REGULARIZE_PASSES):
        shifted = 0.0
        for k, tooth in enumerate(order):
            shifted += _pull_to_arch(tooth, arch, lo, hi)
            if k == 0:
                continue
            mesial = _mesial_neighbor(out, tooth.id)
            if mesial is not None:
                shifted += _close_gap(tooth, mesial, arch, config.gap_threshold)
        if shifted < 1e-9:
            break
    for tooth in out.present_teeth():
        _refresh_moved(tooth, jaw.get(tooth.id))
    return out


def _refresh_moved(tooth: Tooth, before: Tooth | None) -> None:
    if tooth.gt_points is not None:
        tooth.moved = not np.array_equal(tooth.points, tooth.gt_points)
    elif before is not None and not np.array_equal(tooth.points, before.points):
        tooth.moved = True


def resolve_collisions_verbose(
    jaw: Jaw, arch: ArchLine, config: AugmentConfig
) -> tuple[Jaw, int]:
    """Iteratively separates colliding pairs by sliding the tooth
    farther from the midline outward along the arch; returns the
    collision-free jaw and the number of iterations used.

    Raises CollisionUnresolved when max_collision_iters passes still
    leave a collision.
    """
    config.validate()
    out = jaw.copy()
    for iteration in range(config.max_collision_iters + 1):
        pairs = detect_collisions(out)
        if not pairs:
            for tooth in out.present_teeth():
                _refresh_moved(tooth, jaw.get(tooth.id))
            return out, iteration
        if iteration == config.max_collision_iters:
            break
        for id_a, id_b, step in pairs:
            a, b = out.get(id_a), out.get(id_b)
            mover = max(a, b, key=lambda t: (midline_offset(t.id), t.id))
            c = mover.centroid()
            vec = arch.move_along(c, step, extend=True) - c
            _translate(mover, vec)
    remaining = ", ".join(f"{a}-{b} (needs {step:.3f} mm)" for a, b, step in pairs)
    raise CollisionUnresolved(
        f"collisions remain after {config.max_collision_iters} iterations: teeth {remaining}"
    )


# ------------------------------------------------------------ case drivers

def _gt_jaw(jaw: Jaw) -> Jaw:
    """Copy of the jaw posed at its ground-truth geometry."""
    out = jaw.copy()
    for tooth in out.present_teeth():
        if tooth.gt_points is None:
            raise CorrespondenceMismatch(
                f"tooth {tooth.id} has no gt_points; augmentation needs targets"
            )
        tooth.points = tooth.gt_points.copy()
        tooth.moved = False
    return out


def _measure(jaw: Jaw, arch: ArchLine | None, config: AugmentConfig) -> tuple[float, float, str]:
    """Widest adjacent gap, largest centroid arch distance (0.0 without
    an arch), and what breaks: empty when every gap and arch distance
    holds; otherwise the widest breaking gap and the arch distance
    farthest outside its range."""
    broken = []
    a, b, gap = max(adjacent_gaps(jaw), key=lambda g: g[2], default=(0, 0, 0.0))
    if gap > config.gap_threshold + 1e-9:
        broken.append(f"gap {a}-{b} is {gap:.6g} mm > {config.gap_threshold} mm")
    lo, hi = config.arch_dist_range
    dists = [(_arch_distance(arch, t), t.id) for t in jaw.present_teeth()] if arch else []
    outside = [
        (max(lo - d, d - hi), tid, d) for d, tid in dists if not lo - 1e-9 <= d <= hi + 1e-9
    ]
    if outside:
        _, tid, d = max(outside)
        broken.append(f"tooth {tid} is {d:.6g} mm from the arch, outside [{lo}, {hi}] mm")
    return gap, max((d for d, _ in dists), default=0.0), "; ".join(broken)


def _jaw_entry(
    jaw: Jaw, max_gap: float, max_dist: float, broken: str, collisions: int, config: AugmentConfig
) -> dict:
    """Report entry of one jaw from its _measure result: satisfied when
    nothing broke, no pair collides and no recovered rotation exceeds
    rot_range."""
    teeth = jaw.present_teeth()
    angles = [
        np.rad2deg(kabsch_recover(t.gt_points, t.points).angle())
        for t in teeth
        if t.gt_points is not None
    ]
    max_angle = max(angles, default=0.0)
    return {
        "teeth": len(teeth),
        "collisions": collisions,
        "max_gap_mm": max_gap,
        "max_arch_dist_mm": max_dist,
        "max_angle_deg": max_angle,
        "satisfied": bool(not broken and collisions == 0 and max_angle <= config.rot_range + 1e-9),
    }


def _report(case_id: str, jaws: dict[str, dict]) -> dict:
    satisfied = all(entry["satisfied"] for entry in jaws.values())
    return {"case_id": case_id, "jaws": jaws, "satisfied": satisfied}


def check_constraints(case: Case, config: AugmentConfig) -> dict:
    """Constraint-satisfaction report for a case's current geometry.

    Gaps, arch distances (against an arch fitted to gt centers, the
    same arch augmentation uses), collisions, and, where targets exist,
    the recovered per-tooth rotation angle.
    """
    jaws = {}
    for side in ("upper", "lower"):
        jaw = case.jaw(side)
        teeth = jaw.present_teeth()
        arch = None
        if len(teeth) >= 2:
            has_gt = all(t.gt_points is not None for t in teeth)
            arch = fit_arch_line(_gt_jaw(jaw)) if has_gt else fit_arch_line(jaw)
        gap, dist, broken = _measure(jaw, arch, config)
        jaws[side] = _jaw_entry(jaw, gap, dist, broken, len(detect_collisions(jaw)), config)
    return _report(case.id, jaws)


def constrained_augment_case_report(
    gt_case: Case, seed: int, config: AugmentConfig | None = None
) -> tuple[Case, dict]:
    """Simulated pre-treatment case from target geometry, plus its
    constraint report.

    Per jaw: fit the arch to target centers, displace each tooth
    (center-out order, per-tooth derived seeds), then alternate
    regularization and collision resolution until both families of
    constraints hold. Targets pass through bit-identical. The report is
    the last joint round's measurement, which check_constraints would
    repeat on the same arch and geometry.
    """
    config = config or AugmentConfig()
    config.validate()
    out = gt_case.copy()
    jaws: dict[str, dict] = {}
    iterations: dict[str, int] = {}
    for side in ("upper", "lower"):
        working = _gt_jaw(out.jaw(side))
        arch = fit_arch_line(working)
        for tooth in _center_out(working.present_teeth()):
            t = perturb_tooth(tooth, derive_seed(seed, "perturb", out.id, tooth.id), config)
            tooth.points = t.apply(tooth.points)
        total_iters = 0
        for _ in range(_JOINT_ROUNDS):
            working = jaw_regularize(working, arch, config)
            working, iters = resolve_collisions_verbose(working, arch, config)
            total_iters += iters
            gap, dist, broken = _measure(working, arch, config)
            if not broken:
                break
        else:
            raise ConstraintViolation(f"jaw {side}: after {_JOINT_ROUNDS} joint rounds, {broken}")
        # resolve_collisions_verbose returns only a collision-free jaw
        jaws[side] = _jaw_entry(working, gap, dist, broken, 0, config)
        iterations[side] = total_iters
        target = out.jaw(side)
        for tooth in working.present_teeth():
            dst = target.get(tooth.id)
            dst.points = tooth.points
            dst.moved = not np.array_equal(tooth.points, dst.gt_points)
    report = _report(out.id, jaws)
    report["collision_iterations"] = iterations
    return out, report


def ordinary_augment(case: Case, seed: int, config: AugmentConfig | None = None) -> Case:
    """Training-time augmentation: with probability ordinary_prob the
    current (pre-treatment) geometry of every present tooth is
    displaced; targets are never touched."""
    config = config or AugmentConfig()
    config.validate()
    out = case.copy()
    rng = np.random.default_rng(derive_seed(seed, "ordinary-trigger", out.id))
    if rng.random() >= config.ordinary_prob:
        return out
    for tooth in sorted(out.present_teeth(), key=lambda t: t.id):
        t = perturb_tooth(tooth, derive_seed(seed, "ordinary", out.id, tooth.id), config)
        if t.is_identity():
            continue
        tooth.points = t.apply(tooth.points)
        tooth.moved = True
    return out

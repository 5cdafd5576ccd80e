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

The joint loop of one case reuses a tooth's tree for as long as the
tooth has not moved (see _tree_of). The public passes below copy their
input once and run the same in-place helpers on the copy.
"""

from __future__ import annotations

import numpy as np

from .arch import ArchLine, fit_arch_line
from .bvh import AabbTree, boxes_apart, cloud_gap, interlock_masks
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

def _tree_of(tooth: Tooth, trees: dict[int, AabbTree]) -> AabbTree:
    """The tree over the tooth's current points, from trees when the
    entry there holds the very array ``tooth.points`` is bound to, else
    built and stored. Every move rebinds ``points`` (see _translate) and
    nothing writes them in place, so a moved tooth always misses."""
    tree = trees.get(tooth.id)
    if tree is None or tree.data is not tooth.points:
        tree = trees[tooth.id] = AabbTree(tooth.points)
    return tree


def penetration_distance(tooth_a: Tooth, tooth_b: Tooth) -> float:
    """Overlap extent: the farthest distance between interlocking
    points, where a point interlocks when it lies strictly inside the
    other cloud's proxy volume.

    A single coincident contact point yields ~0; this is the raw
    extent, see detect_collisions for the always-positive resolution step.
    """
    radius = tooth_a.proxy_radius + tooth_b.proxy_radius
    mask_a, mask_b, _ = interlock_masks(AabbTree(tooth_a.points), AabbTree(tooth_b.points), radius)
    if not mask_a.any():
        raise NoCollision(f"teeth {tooth_a.id} and {tooth_b.id} do not interlock")
    pa, pb = tooth_a.points[mask_a], tooth_b.points[mask_b]
    return float(np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1).max()))


def _separation_step(a: AabbTree, b: AabbTree, radius: float) -> float | None:
    """None when disjoint; otherwise a positive slide distance that
    clears the overlap: proxy penetration depth plus a hair of margin.

    Deliberately NOT the interlock extent penetration_distance reports;
    extent-sized slides over-separate banded contacts by millimetres and
    fight the gap constraint."""
    mask_a, _, d_min = interlock_masks(a, b, radius)
    if not mask_a.any():
        return None
    return radius - d_min + 1e-3


def detect_collisions(
    jaw: Jaw, trees: dict[int, AabbTree] | None = None
) -> list[tuple[int, int, float]]:
    """All interlocking present-tooth pairs ``(id_a, id_b, step)``, in
    ascending id order; each step is a positive slide that clears the
    overlap. A pair whose grown bounding boxes are apart cannot
    interlock and is not tested. ``trees`` maps tooth ids to trees
    that the call reuses and adds to (see _tree_of); it never changes
    the result."""
    teeth = jaw.present_teeth()
    trees = {} if trees is None else trees
    pairs = []
    for i, a in enumerate(teeth):
        tree_a = _tree_of(a, trees)
        for b in teeth[i + 1 :]:
            tree_b = _tree_of(b, trees)
            radius = a.proxy_radius + b.proxy_radius
            if boxes_apart(tree_a, tree_b, radius):
                continue
            step = _separation_step(tree_a, tree_b, radius)
            if step is not None:
                pairs.append((a.id, b.id, step))
    return pairs


# ------------------------------------------------------------- constraints

def adjacent_gaps(
    jaw: Jaw, trees: dict[int, AabbTree] | None = None
) -> list[tuple[int, int, float]]:
    """Nearest point-pair distance between adjacent present teeth;
    adjacency means consecutive present ids (absences skipped).
    ``trees`` is as in detect_collisions."""
    teeth = jaw.present_teeth()
    trees = {} if trees is None else trees
    return [(a.id, b.id, cloud_gap(a.points, _tree_of(b, trees))) for a, b in zip(teeth, teeth[1:])]


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


def _close_gap(tooth: Tooth, mesial: Tooth, arch: ArchLine, threshold: float, trees) -> float:
    """Slides tooth toward the midline along the arch until its gap to
    the mesial neighbor is at most threshold. Returns total slide."""
    total = 0.0
    mesial_tree = _tree_of(mesial, trees)
    for _ in range(_PULL_STEPS):
        gap = cloud_gap(tooth.points, mesial_tree)
        if gap <= threshold:
            break
        delta = -(gap - (threshold - _SLACK))
        c = tooth.centroid()
        vec = arch.move_along(c, delta, extend=True) - c
        _translate(tooth, vec)
        total += float(np.linalg.norm(vec))
    return total


def _regularize(jaw: Jaw, arch: ArchLine, config: AugmentConfig, trees) -> None:
    """jaw_regularize, in place."""
    lo, hi = config.arch_dist_range
    order = _center_out(jaw.present_teeth())
    for _ in range(_REGULARIZE_PASSES):
        shifted = 0.0
        for k, tooth in enumerate(order):
            shifted += _pull_to_arch(tooth, arch, lo, hi)
            if k == 0:
                continue
            mesial = _mesial_neighbor(jaw, tooth.id)
            if mesial is not None:
                shifted += _close_gap(tooth, mesial, arch, config.gap_threshold, trees)
        if shifted < 1e-9:
            break


def jaw_regularize(jaw: Jaw, arch: ArchLine, config: AugmentConfig) -> Jaw:
    """Center-out constraint pass, repeated to a fixed point: arch
    distances into range, then each tooth's gap to its mesial neighbor
    closed. The most central tooth anchors the traversal (it is never
    slid). Pure; the input jaw is left untouched."""
    config.validate()
    out = jaw.copy()
    _regularize(out, arch, config, {})
    for tooth in out.present_teeth():
        _refresh_moved(tooth, jaw.get(tooth.id))
    return out


def _refresh_moved(tooth: Tooth, before: Tooth | None) -> None:
    if tooth.gt_points is not None:
        tooth.moved = not np.array_equal(tooth.points, tooth.gt_points)
    elif before is not None and not np.array_equal(tooth.points, before.points):
        tooth.moved = True


def _resolve(jaw: Jaw, arch: ArchLine, config: AugmentConfig, trees) -> int:
    """resolve_collisions_verbose, in place; returns the iterations."""
    for iteration in range(config.max_collision_iters + 1):
        pairs = detect_collisions(jaw, trees)
        if not pairs:
            return iteration
        if iteration == config.max_collision_iters:
            break
        for id_a, id_b, step in pairs:
            a, b = jaw.get(id_a), jaw.get(id_b)
            mover = max(a, b, key=lambda t: (midline_offset(t.id), t.id))
            c = mover.centroid()
            vec = arch.move_along(c, step, extend=True) - c
            _translate(mover, vec)
    remaining = ", ".join(f"{a}-{b} (needs {step:.3f} mm)" for a, b, step in pairs)
    raise CollisionUnresolved(
        f"collisions remain after {config.max_collision_iters} iterations: teeth {remaining}"
    )


def resolve_collisions_verbose(
    jaw: Jaw, arch: ArchLine, config: AugmentConfig
) -> tuple[Jaw, int]:
    """Iteratively separates colliding pairs by sliding the tooth
    farther from the midline outward along the arch; returns the
    collision-free jaw and the number of iterations used. Pure.

    Raises CollisionUnresolved when max_collision_iters passes still
    leave a collision.
    """
    config.validate()
    out = jaw.copy()
    iterations = _resolve(out, arch, config, {})
    for tooth in out.present_teeth():
        _refresh_moved(tooth, jaw.get(tooth.id))
    return out, iterations


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


def _measure(
    jaw: Jaw, arch: ArchLine | None, config: AugmentConfig, trees
) -> tuple[float, float, str]:
    """Widest adjacent gap, largest centroid arch distance (0.0 without
    an arch), and what breaks: empty when every gap and arch distance
    holds; otherwise the widest breaking gap and the arch distance
    farthest outside its range. Arch distances are unsigned: one
    projection of every centroid, and no labial side."""
    broken = []
    a, b, gap = max(adjacent_gaps(jaw, trees), key=lambda g: g[2], default=(0, 0, 0.0))
    if gap > config.gap_threshold + 1e-9:
        broken.append(f"gap {a}-{b} is {gap:.6g} mm > {config.gap_threshold} mm")
    lo, hi = config.arch_dist_range
    teeth = jaw.present_teeth()
    dists = []
    if arch and teeth:
        far = arch.project(np.array([t.centroid() for t in teeth]))[2]
        dists = [(float(d), t.id) for d, t in zip(far, teeth)]
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
        trees: dict[int, AabbTree] = {}
        gap, dist, broken = _measure(jaw, arch, config, trees)
        jaws[side] = _jaw_entry(jaw, gap, dist, broken, len(detect_collisions(jaw, trees)), config)
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
    trees: dict[int, AabbTree] = {}  # see _tree_of
    for side in ("upper", "lower"):
        working = _gt_jaw(out.jaw(side))
        arch = fit_arch_line(working)
        for tooth in _center_out(working.present_teeth()):
            t = perturb_tooth(tooth, derive_seed(seed, "perturb", out.id, tooth.id), config)
            tooth.points = t.apply(tooth.points)
        total_iters = 0
        for _ in range(_JOINT_ROUNDS):
            _regularize(working, arch, config, trees)
            total_iters += _resolve(working, arch, config, trees)
            gap, dist, broken = _measure(working, arch, config, trees)
            if not broken:
                break
        else:
            raise ConstraintViolation(f"jaw {side}: after {_JOINT_ROUNDS} joint rounds, {broken}")
        # _resolve returns only on a collision-free jaw
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

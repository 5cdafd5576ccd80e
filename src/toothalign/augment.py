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
of proxy spheres; they and the gap distances are exact proximity
queries (see bvh), equal to an all-pairs scan.

A regularization pass pulls every tooth toward the arch first, each
pull step projecting all unsettled centroids in one call, and then
closes the gaps center-out. A pull moves only its own tooth, and a
projection's answer does not depend on the other queries of the call,
so this equals pulling and closing tooth by tooth.

Both passes work in place and move points only; the ``moved`` flags
are the caller's. The joint loop of one case runs them with one
``clouds`` store, which remembers a tooth's tree (its bounding box and
coordinate columns, see bvh.AabbTree), and the gap and the interlock
answer of a pair, for as long as both teeth keep the points arrays they
were measured on (see _Clouds). Each regularization pass measures every
gap it lacks in one stacked query after its pulls, so a gap is measured
again only after a slide; a pair whose remembered gap clears the proxy
radii needs no interlock test (bvh.gap_clears); the report's rotations
come from one stacked registration per jaw (metrics.recover_teeth).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .arch import ArchLine, fit_arch_line
from .bvh import AabbTree, boxes_apart_many, gap_clears, interlock_masks, tree_gaps
from .case import Case, Jaw, Tooth, midline, midline_offset
from .config import AugmentConfig
from .errors import CollisionUnresolved, ConstraintViolation, CorrespondenceMismatch
from .geometry import RigidTransform, random_rigid
from .metrics import recover_teeth
from .seeding import derive_seed

_REGULARIZE_PASSES = 8
_PULL_STEPS = 16
_JOINT_ROUNDS = 4
_SLACK = 1e-6  # settle strictly inside thresholds so re-checks stay quiet


# ------------------------------------------------------------ perturbation

def perturb_tooth(tooth: Tooth, seed: int, config: AugmentConfig) -> RigidTransform:
    """Random displacement about the tooth centroid (see random_rigid),
    rotation angle in +-rot_range degrees; same seed, same transform."""
    rng = np.random.default_rng(seed)
    return random_rigid(
        rng, np.deg2rad(config.rot_range), config.trans_mu, config.trans_sigma, tooth.centroid()
    )


# --------------------------------------------------------------- collision

class _Clouds:
    """What one case's proximity queries have already answered: per
    tooth id the tree over its points, and per pair of ids the gap and
    the interlock answer (a separation step, or None for no interlock),
    each with the two points arrays it was measured on. An entry counts
    only while the teeth are still bound to those very arrays. Every
    move rebinds ``points`` (see _translate) and nothing writes them in
    place, so a moved tooth always misses."""

    def __init__(self):
        self.trees: dict[int, AabbTree] = {}
        self.gaps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float]] = {}
        self.steps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float | None]] = {}


def _tree_of(tooth: Tooth, clouds: _Clouds) -> AabbTree:
    """The tree over the tooth's current points, remembered or built."""
    tree = clouds.trees.get(tooth.id)
    if tree is None or tree.data is not tooth.points:
        tree = clouds.trees[tooth.id] = AabbTree(tooth.points)
    return tree


def _recall(store: dict, a: Tooth, b: Tooth):
    """The entry of store for teeth a and b (lower id first) while both
    still hold the points it was measured on, else None."""
    lo, hi = (a, b) if a.id < b.id else (b, a)
    seen = store.get((lo.id, hi.id))
    return seen if seen is not None and seen[0] is lo.points and seen[1] is hi.points else None


def _remember(store: dict, a: Tooth, b: Tooth, answer) -> None:
    lo, hi = (a, b) if a.id < b.id else (b, a)
    store[(lo.id, hi.id)] = (lo.points, hi.points, answer)


def _gaps(pairs: list[tuple[Tooth, Tooth]], clouds: _Clouds) -> list[float]:
    """cloud_gap between each pair's current points, remembered or
    measured: the pairs not remembered are measured in one tree_gaps
    call (the first tooth's rows against the second's tree) when their
    clouds share one shape, else in one call each. The gap is exact, so
    symmetric bit for bit: one entry serves both orders."""
    todo = [(a, b) for a, b in pairs if _recall(clouds.gaps, a, b) is None]
    one_shape = len({(a.points.shape, b.points.shape) for a, b in todo}) == 1
    for group in [todo] if one_shape else [[pair] for pair in todo]:
        got = tree_gaps([a.points for a, _ in group], [_tree_of(b, clouds) for _, b in group])
        for (a, b), gap in zip(group, got.tolist()):
            _remember(clouds.gaps, a, b, gap)
    return [_recall(clouds.gaps, a, b)[2] for a, b in pairs]


def _separation_step(a: Tooth, b: Tooth, radius: float, clouds: _Clouds) -> float | None:
    """None when no point lies strictly inside the other cloud's proxy
    volume; otherwise a positive slide distance that clears the
    overlap: proxy penetration depth plus a hair of margin. Remembered
    while both teeth hold their points.

    Deliberately not the interlock extent (the farthest interlocking
    pair); extent-sized slides over-separate banded contacts by
    millimetres and fight the gap constraint."""
    seen = _recall(clouds.steps, a, b)
    if seen is not None:
        return seen[2]
    gap = _recall(clouds.gaps, a, b)
    if gap is not None and gap_clears(gap[2], radius):
        step = None
    else:
        mask_a, _, d_min = interlock_masks(_tree_of(a, clouds), _tree_of(b, clouds), radius)
        step = radius - d_min + 1e-3 if mask_a.any() else None
    _remember(clouds.steps, a, b, step)
    return step


def detect_collisions(jaw: Jaw, clouds: _Clouds | None = None) -> list[tuple[int, int, float]]:
    """All interlocking present-tooth pairs ``(id_a, id_b, step)``, in
    ascending id order; each step is a positive slide that clears the
    overlap. A pair whose grown bounding boxes are apart cannot
    interlock and is not tested; one stacked box test covers every
    pair. ``clouds`` holds trees and answers that the call reuses and
    adds to (see _Clouds); it never changes the result."""
    teeth = jaw.present_teeth()
    clouds = _Clouds() if clouds is None else clouds
    trees = [_tree_of(t, clouds) for t in teeth]
    mins = np.array([t.mins for t in trees], ndmin=2)
    maxes = np.array([t.maxes for t in trees], ndmin=2)
    radii = np.array([t.proxy_radius for t in teeth])
    i, j = np.triu_indices(len(teeth), 1)
    radius = radii[i] + radii[j]
    near = ~boxes_apart_many(mins[i], maxes[i], mins[j], maxes[j], radius)
    pairs = []
    for a, b, radius in zip(i[near].tolist(), j[near].tolist(), radius[near].tolist()):
        step = _separation_step(teeth[a], teeth[b], radius, clouds)
        if step is not None:
            pairs.append((teeth[a].id, teeth[b].id, step))
    return pairs


# ------------------------------------------------------------- constraints

def adjacent_gaps(jaw: Jaw, clouds: _Clouds | None = None) -> list[tuple[int, int, float]]:
    """Nearest point-pair distance between adjacent present teeth;
    adjacency means consecutive present ids (absences skipped). The
    gaps not held by ``clouds`` are measured in one stacked query and
    stored there (see _gaps)."""
    teeth = jaw.present_teeth()
    clouds = _Clouds() if clouds is None else clouds
    pairs = list(zip(teeth, teeth[1:]))
    return [(a.id, b.id, gap) for (a, b), gap in zip(pairs, _gaps(pairs, clouds))]


def _center_out(teeth: list[Tooth]) -> list[Tooth]:
    return sorted(teeth, key=lambda t: (midline_offset(t.id), t.id))


def _mesial_neighbor(jaw: Jaw, tooth_id: int) -> Tooth | None:
    """Adjacent present tooth on the midline side of tooth_id."""
    ids = sorted(t.id for t in jaw.present_teeth())
    pos = ids.index(tooth_id)
    if tooth_id < midline(tooth_id):
        return jaw.get(ids[pos + 1]) if pos + 1 < len(ids) else None
    return jaw.get(ids[pos - 1]) if pos > 0 else None


def _translate(tooth: Tooth, vec: np.ndarray) -> None:
    tooth.points = tooth.points + vec


def _pull_to_arch(teeth: list[Tooth], arch: ArchLine, lo: float, hi: float) -> list[float]:
    """Perpendicular pulls of each tooth until its centroid's arch
    distance is inside [lo, hi]; one projection per step for all the
    teeth still outside. Returns each tooth's total displacement."""
    totals = [0.0] * len(teeth)
    pending = list(range(len(teeth)))
    for _ in range(_PULL_STEPS):
        if not pending:
            break
        centroids = np.array([teeth[k].centroid() for k in pending])
        _, feet, dists = arch.project(centroids)
        outside = []
        for k, c, foot, dist in zip(pending, centroids, feet, dists.tolist()):
            if lo <= dist <= hi or dist < 1e-12:
                continue  # in range, or on the arch with no direction to push outward
            target = hi - _SLACK if dist > hi else lo + _SLACK
            vec = (1.0 - target / dist) * (foot - c)
            _translate(teeth[k], vec)
            totals[k] += float(np.linalg.norm(vec))
            outside.append(k)
        pending = outside
    return totals


def _slide(tooth: Tooth, arch: ArchLine, delta: float) -> float:
    """Slides tooth by delta mm of arc along the arch, positive away
    from the midline (see ArchLine.move_along). Returns the distance
    its centroid moved."""
    c = tooth.centroid()
    vec = arch.move_along(c, delta) - c
    _translate(tooth, vec)
    return float(np.linalg.norm(vec))


def _close_gap(tooth: Tooth, mesial: Tooth, arch: ArchLine, threshold: float, clouds: _Clouds) -> float:
    """Slides tooth toward the midline along the arch until its gap to
    the mesial neighbor is at most threshold. Returns total slide."""
    total = 0.0
    for _ in range(_PULL_STEPS):
        gap = _gaps([(tooth, mesial)], clouds)[0]
        if gap <= threshold:
            break
        total += _slide(tooth, arch, -(gap - (threshold - _SLACK)))
    return total


def jaw_regularize(jaw: Jaw, arch: ArchLine, config: AugmentConfig, clouds: _Clouds | None = None) -> None:
    """Center-out constraint pass, in place, repeated to a fixed point:
    arch distances into range, then each tooth's gap to its mesial
    neighbor closed. The most central tooth anchors the traversal (it
    is never slid). Each pass pulls every tooth, then closes the gaps;
    ``shifted`` adds the moves up in the order of pulling and closing
    tooth by tooth (see the module doc). ``clouds`` is as in
    detect_collisions."""
    clouds = _Clouds() if clouds is None else clouds
    lo, hi = config.arch_dist_range
    order = _center_out(jaw.present_teeth())
    for _ in range(_REGULARIZE_PASSES):
        pulled = _pull_to_arch(order, arch, lo, hi)
        adjacent_gaps(jaw, clouds)  # every gap of the pass in one query; a slide re-measures its own
        shifted = 0.0
        for k, tooth in enumerate(order):
            shifted += pulled[k]
            if k == 0:
                continue
            mesial = _mesial_neighbor(jaw, tooth.id)
            if mesial is not None:
                shifted += _close_gap(tooth, mesial, arch, config.gap_threshold, clouds)
        if shifted < 1e-9:
            break


def resolve_collisions_verbose(
    jaw: Jaw, arch: ArchLine, config: AugmentConfig, clouds: _Clouds | None = None
) -> int:
    """Iteratively separates colliding pairs, in place, by sliding the
    tooth farther from the midline outward along the arch; returns the
    number of iterations used. ``clouds`` is as in detect_collisions.

    Raises CollisionUnresolved when max_collision_iters passes still
    leave a collision.
    """
    clouds = _Clouds() if clouds is None else clouds
    for iteration in range(config.max_collision_iters + 1):
        pairs = detect_collisions(jaw, clouds)
        if not pairs:
            return iteration
        if iteration == config.max_collision_iters:
            break
        for id_a, id_b, step in pairs:
            a, b = jaw.get(id_a), jaw.get(id_b)
            mover = max(a, b, key=lambda t: (midline_offset(t.id), t.id))
            _slide(mover, arch, step)
    remaining = ", ".join(f"{a}-{b} (needs {step:.3f} mm)" for a, b, step in pairs)
    raise CollisionUnresolved(
        f"collisions remain after {config.max_collision_iters} iterations: teeth {remaining}"
    )


# ------------------------------------------------------------ case drivers

def _measure(
    jaw: Jaw, arch: ArchLine | None, config: AugmentConfig, clouds: _Clouds
) -> tuple[float, float, str]:
    """Widest adjacent gap, largest centroid arch distance (0.0 without
    an arch), and what breaks: empty when every gap and arch distance
    holds; otherwise the widest breaking gap and the arch distance
    farthest outside its range. Arch distances are unsigned: one
    projection of every centroid, and no labial side."""
    broken = []
    a, b, gap = max(adjacent_gaps(jaw, clouds), key=lambda g: g[2], default=(0, 0, 0.0))
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
    posed = [t for t in jaw.present_teeth() if t.gt_points is not None]
    recovered = recover_teeth([t.id for t in posed], [t.gt_points for t in posed], [t.points for t in posed])
    max_angle = max((np.rad2deg(r.angle()) for r in recovered.values()), default=0.0)
    return {
        "teeth": len(jaw.present_teeth()),
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
            at_targets = all(t.gt_points is not None for t in teeth)
            posed = Jaw(side, [replace(t, points=t.gt_points) for t in teeth]) if at_targets else jaw
            arch = fit_arch_line(posed)
        clouds = _Clouds()
        gap, dist, broken = _measure(jaw, arch, config, clouds)
        jaws[side] = _jaw_entry(jaw, gap, dist, broken, len(detect_collisions(jaw, clouds)), config)
    return _report(case.id, jaws)


def _copy_but_points(case: Case) -> Case:
    """A copy of case whose present teeth have no points yet, for the
    caller to bind: copying clouds about to be replaced is wasted."""
    def teeth(side):
        return [replace(t, points=None).copy() if t.present else t.copy() for t in case.jaw(side).teeth]

    return replace(case, upper=Jaw("upper", teeth("upper")), lower=Jaw("lower", teeth("lower")))


def constrained_augment_case_report(
    gt_case: Case, seed: int, config: AugmentConfig | None = None
) -> tuple[Case, dict]:
    """Simulated pre-treatment case from target geometry, plus its
    constraint report.

    Per jaw: pose each present tooth of the copy at its targets, fit the
    arch to their centers, displace each tooth (per-tooth derived
    seeds), then alternate regularization and collision resolution
    until both families of constraints hold. Targets pass through
    bit-identical. The report is the last joint round's measurement,
    which check_constraints would repeat on the same arch and geometry.
    """
    config = config or AugmentConfig()
    out = _copy_but_points(gt_case)
    jaws: dict[str, dict] = {}
    iterations: dict[str, int] = {}
    clouds = _Clouds()
    for side in ("upper", "lower"):
        jaw = out.jaw(side)
        teeth = jaw.present_teeth()
        for tooth in teeth:
            if tooth.gt_points is None:
                raise CorrespondenceMismatch(
                    f"tooth {tooth.id} has no gt_points; augmentation needs targets"
                )
            tooth.points = tooth.gt_points  # every move rebinds points (see _Clouds)
        arch = fit_arch_line(jaw)
        for tooth in teeth:
            t = perturb_tooth(tooth, derive_seed(seed, "perturb", out.id, tooth.id), config)
            tooth.points = t.apply(tooth.points)
        total_iters = 0
        for _ in range(_JOINT_ROUNDS):
            jaw_regularize(jaw, arch, config, clouds)
            total_iters += resolve_collisions_verbose(jaw, arch, config, clouds)
            gap, dist, broken = _measure(jaw, arch, config, clouds)
            if not broken:
                break
        else:
            raise ConstraintViolation(f"jaw {side}: after {_JOINT_ROUNDS} joint rounds, {broken}")
        # resolve_collisions_verbose returns only on a collision-free jaw
        jaws[side] = _jaw_entry(jaw, gap, dist, broken, 0, config)
        iterations[side] = total_iters
        for tooth in teeth:
            tooth.moved = not np.array_equal(tooth.points, tooth.gt_points)
    report = _report(out.id, jaws)
    report["collision_iterations"] = iterations
    return out, report


def ordinary_augment(case: Case, seed: int, config: AugmentConfig | None = None) -> Case:
    """Training-time augmentation: with probability ordinary_prob the
    current (pre-treatment) geometry of every present tooth is
    displaced; targets are never touched."""
    config = config or AugmentConfig()
    rng = np.random.default_rng(derive_seed(seed, "ordinary-trigger", case.id))
    if rng.random() >= config.ordinary_prob:
        return case.copy()
    out = _copy_but_points(case)
    for tooth, source in zip(out.all_teeth(), case.all_teeth()):
        if tooth.present:
            t = perturb_tooth(source, derive_seed(seed, "ordinary", case.id, tooth.id), config)
            tooth.points = t.apply(source.points)  # a copy when t is the identity
            tooth.moved = tooth.moved or not t.is_identity()
    return out

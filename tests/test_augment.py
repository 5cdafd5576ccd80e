import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toothalign import augment, geometry
from toothalign.arch import fit_arch_line
from toothalign.augment import (
    AugmentConfig,
    adjacent_gaps,
    check_constraints,
    constrained_augment_case_report,
    detect_collisions,
    jaw_regularize,
    ordinary_augment,
    perturb_tooth,
    resolve_collisions_verbose,
)
from toothalign.bvh import AabbTree, cloud_gap, gap_clears, interlock_masks
from toothalign.case import Jaw, Tooth
from toothalign.config import config_from_dict
from toothalign.errors import (
    CollisionUnresolved,
    ConfigError,
    ConstraintViolation,
    CorrespondenceMismatch,
)
from toothalign.seeding import derive_seed
from toothalign.synthetic import SynthParams, generate_synthetic_case

from conftest import gt_view
from oracles import (
    brute_collision_pairs,
    brute_min_distance,
    maxwell_mean,
    pull_to_arch_one_by_one,
    same_bits,
)


def _tooth(tid, pts, radius=0.25, gt=None):
    pts = np.asarray(pts, dtype=float)
    return Tooth(
        id=tid,
        present=True,
        moved=False,
        points=pts,
        gt_points=pts.copy() if gt is None else np.asarray(gt, dtype=float),
        proxy_radius=radius,
    )


# ------------------------------------------------------------------ config

@pytest.mark.parametrize(
    "kwargs",  # a config document
    [
        {"augment": {"rot_range": -1.0}},
        {"augment": {"trans_sigma": -0.1}},
        {"augment": {"gap_threshold": -2.0}},
        {"augment": {"arch_dist_range": [2.0, 1.0]}},
        {"augment": {"arch_dist_range": [-0.5, 1.0]}},
        {"augment": {"ordinary_prob": 1.5}},
        {"augment": {"ordinary_prob": -0.1}},
        {"augment": {"max_collision_iters": 0}},
        # values of the wrong type
        {"seed": "a"},
        {"seed": 1.5},
        {"seed": True},
        {"ordering": 3},
        {"augment": {"rot_range": "x"}},
        {"augment": {"max_collision_iters": 2.5}},
        {"augment": {"arch_dist_range": ["a", 1]}},
        {"augment": {"arch_dist_range": [0.0, float("nan")]}},
        {"loss": {"tau": None}},
        {"loss": {"tau": float("inf")}},
        {"loss": {"omega": 10**400}},
        {"loss": {"delta": [1, 2, 3, "z"]}},
        {"loss": {"delta": [1, 2, 3]}},
        {"loss": []},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        config_from_dict(kwargs)


# ------------------------------------------------------------ perturbation

def test_perturb_deterministic(case7):
    tooth = case7.upper.teeth[0]
    s = derive_seed(3, "perturb", case7.id, tooth.id)
    a = perturb_tooth(tooth, s, AugmentConfig())
    b = perturb_tooth(tooth, s, AugmentConfig())
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)
    assert np.array_equal(a.pivot, tooth.centroid())
    c = perturb_tooth(tooth, s + 1, AugmentConfig())
    assert not np.array_equal(a.translation, c.translation)


def test_perturb_distributions(case7):
    # angle uniform on +-10 deg, translation components N(0, 0.3):
    # sample means against their analytic values
    tooth = case7.upper.teeth[0]
    config = AugmentConfig()
    n = 2000
    draws = [perturb_tooth(tooth, 10_000 + k, config) for k in range(n)]
    angles = np.array([np.rad2deg(t.angle()) for t in draws])
    norms = np.array([np.linalg.norm(t.translation) for t in draws])
    assert angles.max() <= config.rot_range + 1e-9
    assert abs(angles.mean() - config.rot_range / 2.0) < 0.3
    assert abs(norms.mean() - maxwell_mean(config.trans_sigma)) < 0.02
    comps = np.array([t.translation for t in draws]).ravel()
    assert abs(comps.mean()) < 0.01
    assert abs(comps.std() - config.trans_sigma) < 0.01


def test_perturb_zero_ranges_is_identity(case7):
    config = AugmentConfig(rot_range=0.0, trans_sigma=0.0)
    t = perturb_tooth(case7.upper.teeth[0], 5, config)
    assert t.angle() == 0.0
    assert not t.translation.any()


# --------------------------------------------------------------- collision

def test_interlock_is_strict():
    # exactly at the radius sum: no collision; a hair inside: one
    a = _tooth(1, [[0.0, 0.0, 0.0]])
    b = _tooth(2, [[0.5, 0.0, 0.0]])
    jaw = Jaw("upper", [a, b])
    assert detect_collisions(jaw) == []
    b.points = np.array([[0.4999, 0.0, 0.0]])
    assert [(x, y) for x, y, _ in detect_collisions(jaw)] == [(1, 2)]


def test_detect_collisions_matches_brute(rng):
    # random blobs jammed into a small box; tree and brute must agree
    for trial in range(10):
        teeth = []
        for k in range(6):
            center = rng.uniform(-4.0, 4.0, size=3)
            pts = center + rng.normal(0.0, 1.2, size=(40, 3))
            teeth.append(_tooth(k + 1, pts))
        jaw = Jaw("upper", teeth)
        got = {(a, b) for a, b, _ in detect_collisions(jaw)}
        want = brute_collision_pairs(teeth)
        assert got == want


def test_separation_step_clears_single_pair():
    a = _tooth(3, [[0.0, 0.0, 0.0]])
    b = _tooth(4, [[0.3, 0.0, 0.0]])
    jaw = Jaw("upper", [a, b])
    pairs = detect_collisions(jaw)
    assert len(pairs) == 1
    _, _, step = pairs[0]
    # slide b straight away by the step: contact must be cleared
    b.points = b.points + np.array([step, 0.0, 0.0])
    assert not detect_collisions(jaw)


def test_adjacent_gaps_matches_brute(corpus):
    case = corpus[1]
    for jaw in (case.upper, case.lower):
        for a_id, b_id, gap in adjacent_gaps(jaw):
            a, b = jaw.get(a_id), jaw.get(b_id)
            assert gap == pytest.approx(brute_min_distance(a.points, b.points), abs=1e-9)


def test_adjacent_gaps_skip_absent(corpus):
    case = corpus[2].copy()
    jaw = case.upper
    victim = jaw.teeth[5]
    victim.present = False
    ids = [(a, b) for a, b, _ in adjacent_gaps(jaw)]
    assert (jaw.teeth[4].id, jaw.teeth[6].id) in ids
    assert all(victim.id not in pair for pair in ids)


# ------------------------------------------------------------ regularizing

def _perturbed_jaw(case, side, seed):
    jaw = gt_view(case).jaw(side)
    config = AugmentConfig()
    for tooth in jaw.present_teeth():
        t = perturb_tooth(tooth, derive_seed(seed, "perturb", case.id, tooth.id), config)
        tooth.points = t.apply(tooth.points)
    return jaw


def test_regularize_satisfies_both_families(corpus):
    config = AugmentConfig()
    lo, hi = config.arch_dist_range
    for k, case in enumerate(corpus[:5]):
        jaw = _perturbed_jaw(case, "upper", 600 + k)
        arch = fit_arch_line(gt_view(case).upper)
        jaw_regularize(jaw, arch, config)
        for _, _, gap in adjacent_gaps(jaw):
            assert gap <= config.gap_threshold + 1e-9
        for tooth in jaw.present_teeth():
            d = abs(arch.signed_distance(tooth.centroid()))
            assert lo - 1e-9 <= d <= hi + 1e-9


def test_regularize_is_in_place_and_idempotent(corpus):
    # the pass moves the jaw it is given, returns nothing and leaves
    # the moved flags alone; a second pass barely moves anything
    case = corpus[3]
    jaw = _perturbed_jaw(case, "lower", 77)
    jaw.teeth[3].points = jaw.teeth[3].points + np.array([0.0, 0.0, 4.0])  # off the arch
    before = [t.points.copy() for t in jaw.teeth]
    flags = [t.moved for t in jaw.teeth]
    arch = fit_arch_line(gt_view(case).lower)
    config = AugmentConfig()
    assert jaw_regularize(jaw, arch, config) is None
    assert any(not np.array_equal(t.points, snap) for t, snap in zip(jaw.teeth, before))
    assert [t.moved for t in jaw.teeth] == flags
    once = [t.points for t in jaw.teeth]
    jaw_regularize(jaw, arch, config)
    for a, b in zip(once, jaw.teeth):
        assert np.linalg.norm(a - b.points) < 1e-6


def test_regularize_preserves_rotation(corpus):
    # the pass only translates, so recovered rotations survive it
    from toothalign.geometry import kabsch_recover

    case = corpus[4]
    jaw = _perturbed_jaw(case, "upper", 91)
    arch = fit_arch_line(gt_view(case).upper)
    pre = {
        t.id: kabsch_recover(t.gt_points, t.points).angle()
        for t in jaw.present_teeth()
    }
    jaw_regularize(jaw, arch, AugmentConfig())
    for t in jaw.present_teeth():
        post = kabsch_recover(t.gt_points, t.points).angle()
        assert post == pytest.approx(pre[t.id], abs=1e-9)


def _regularize_tooth_by_tooth(jaw, arch, config):
    """The regularization pass before its pulls were batched: pull tooth
    k to the arch, then close its gap, in center-out order."""
    lo, hi = config.arch_dist_range
    clouds = augment._Clouds()
    order = augment._center_out(jaw.present_teeth())
    for _ in range(augment._REGULARIZE_PASSES):
        shifted = 0.0
        for k, tooth in enumerate(order):
            shifted += pull_to_arch_one_by_one(tooth, arch, lo, hi)
            if k == 0:
                continue
            mesial = augment._mesial_neighbor(jaw, tooth.id)
            if mesial is not None:
                shifted += augment._close_gap(tooth, mesial, arch, config.gap_threshold, clouds)
        if shifted < 1e-9:
            break


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(0, 99),
    st.sampled_from(["upper", "lower"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0.0, 2.2), (1.0, 2.2), (0.5, 0.5), (0.0, 0.3)]),
)
def test_batched_pulls_leave_the_jaws_of_pulls_tooth_by_tooth(corpus, k, side, seed, arch_range):
    """One projection per pull step for every tooth still outside the
    range moves each tooth, and each pass, exactly as one-point pulls
    interleaved with the gap closing did."""
    case = corpus[k]
    arch = fit_arch_line(gt_view(case).jaw(side))
    config = AugmentConfig(arch_dist_range=arch_range)
    lo, hi = arch_range
    jaw = _perturbed_jaw(case, side, seed)

    batched, one_by_one = jaw.copy(), jaw.copy()
    order = augment._center_out(batched.present_teeth())
    totals = augment._pull_to_arch(order, arch, lo, hi)
    want = [pull_to_arch_one_by_one(t, arch, lo, hi) for t in augment._center_out(one_by_one.present_teeth())]
    assert same_bits(totals, want)
    for a, b in zip(batched.teeth, one_by_one.teeth):
        assert a.points is None or same_bits(a.points, b.points)

    batched, one_by_one = jaw.copy(), jaw.copy()
    jaw_regularize(batched, arch, config)
    _regularize_tooth_by_tooth(one_by_one, arch, config)
    for a, b in zip(batched.teeth, one_by_one.teeth):
        assert a.points is None or same_bits(a.points, b.points)


# ------------------------------------------------------------- resolution

def test_resolve_clears_forced_overlap(corpus):
    case = corpus[5]
    jaw = gt_view(case).upper
    arch = fit_arch_line(jaw)
    a, b = jaw.teeth[6], jaw.teeth[7]
    # shallow contact, like a perturbation would cause: close the surface
    # gap and sink another 0.6 mm
    gap = brute_min_distance(a.points, b.points)
    direction = a.centroid() - b.centroid()
    direction /= np.linalg.norm(direction)
    b.points = b.points + (gap + 0.6) * direction
    assert detect_collisions(jaw)
    iters = resolve_collisions_verbose(jaw, arch, AugmentConfig())
    assert not detect_collisions(jaw)
    assert 1 <= iters <= 10


def test_resolve_noop_when_clear(corpus):
    case = corpus[6]
    jaw = gt_view(case).lower
    arch = fit_arch_line(jaw)
    before = [t.points for t in jaw.teeth]
    assert resolve_collisions_verbose(jaw, arch, AugmentConfig()) == 0
    for snap, t in zip(before, jaw.teeth):
        assert t.points is snap


def test_resolve_gives_up_honestly(corpus):
    case = corpus[7]
    jaw = gt_view(case).upper
    arch = fit_arch_line(jaw)
    a, b = jaw.teeth[5], jaw.teeth[6]
    b.points = b.points + 0.9 * (a.centroid() - b.centroid())
    with pytest.raises(CollisionUnresolved):
        resolve_collisions_verbose(jaw, arch, AugmentConfig(max_collision_iters=1))


def test_collision_unresolved_names_the_pairs(corpus):
    case = corpus[7]
    jaw = gt_view(case).upper
    arch = fit_arch_line(jaw)
    a, b = jaw.teeth[5], jaw.teeth[6]
    b.points = b.points + 0.9 * (a.centroid() - b.centroid())
    with pytest.raises(CollisionUnresolved) as err:
        resolve_collisions_verbose(jaw, arch, AugmentConfig(max_collision_iters=1))
    named = re.findall(r"(\d+)-(\d+) \(needs (\d+\.\d{3}) mm\)", str(err.value))
    assert str(err.value).startswith("collisions remain after 1 iterations: teeth ")
    assert named, err.value
    assert [(int(x), int(y)) for x, y, _ in named] == sorted(
        (int(x), int(y)) for x, y, _ in named
    )
    assert all(float(step) > 0.0 for _, _, step in named)


# ------------------------------------------------------------ case drivers

@pytest.mark.parametrize(
    "config, message",
    [
        (AugmentConfig(gap_threshold=0.3), r"gap 9-10 is 0\.50\d+ mm > 0\.3 mm$"),
        (
            AugmentConfig(arch_dist_range=(1.0, 1.0)),
            r"tooth 11 is 0\.99\d+ mm from the arch, outside \[1\.0, 1\.0\] mm$",
        ),
    ],
    ids=["gap", "arch_distance"],
)
def test_constraint_violation_names_the_worst_value(config, message):
    case = generate_synthetic_case(SynthParams(teeth_per_jaw=8), seed=1000, case_id="c000")
    with pytest.raises(ConstraintViolation, match=r"^jaw upper: after 4 joint rounds, " + message):
        constrained_augment_case_report(case, 3, config)


def test_constrained_augment_runs_the_public_passes(monkeypatch):
    """The joint loop runs jaw_regularize and resolve_collisions_verbose
    themselves, once per joint round and jaw, on one clouds store."""
    calls = {"jaw_regularize": [], "resolve_collisions_verbose": []}
    for name, calls_of in calls.items():
        def counting(jaw, arch, config, clouds=None, _pass=getattr(augment, name), _calls=calls_of):
            _calls.append(clouds)
            return _pass(jaw, arch, config, clouds)
        monkeypatch.setattr(augment, name, counting)
    case = generate_synthetic_case(SynthParams(teeth_per_jaw=8), seed=1000, case_id="c000")
    constrained_augment_case_report(case, 3)
    regularized, resolved = calls.values()
    assert len(regularized) >= 2 and len(resolved) == len(regularized)
    assert all(c is regularized[0] for c in regularized + resolved)


def test_constrained_augment_deterministic(corpus):
    case = corpus[8]
    a, _ = constrained_augment_case_report(case, seed=21)
    b, _ = constrained_augment_case_report(case, seed=21)
    c, _ = constrained_augment_case_report(case, seed=22)
    for ta, tb in zip(a.upper.teeth + a.lower.teeth, b.upper.teeth + b.lower.teeth):
        assert np.array_equal(ta.points, tb.points)
    assert any(
        not np.array_equal(ta.points, tc.points)
        for ta, tc in zip(a.upper.teeth, c.upper.teeth)
    )


def test_constrained_augment_report(corpus):
    case = corpus[9]
    out, report = constrained_augment_case_report(case, seed=5)
    assert report["satisfied"]
    assert set(report["collision_iterations"]) == {"upper", "lower"}
    for side in ("upper", "lower"):
        entry = report["jaws"][side]
        assert entry["collisions"] == 0
        assert entry["max_gap_mm"] <= 2.35 + 1e-9
        assert entry["max_arch_dist_mm"] <= 2.2 + 1e-9
        assert entry["max_angle_deg"] <= 10.0 + 1e-9
    # targets pass through untouched
    for t_in, t_out in zip(
        case.upper.teeth + case.lower.teeth, out.upper.teeth + out.lower.teeth
    ):
        assert np.array_equal(t_in.gt_points, t_out.gt_points)
    assert any(t.moved for t in out.upper.teeth)


def test_constrained_augment_moves_only_the_case_it_returns(corpus):
    case = corpus[4]
    before = case.copy()
    out, _ = constrained_augment_case_report(case, seed=5)
    for t_before, t_in, t_out in zip(before.all_teeth(), case.all_teeth(), out.all_teeth()):
        assert t_in.moved == t_before.moved
        if t_in.present:
            assert np.array_equal(t_in.points, t_before.points)
            assert np.array_equal(t_in.gt_points, t_before.gt_points)
            assert t_out.points is not t_out.gt_points and t_out.points is not t_in.points
            for a in (t_in.points, t_in.gt_points):
                assert not any(np.shares_memory(a, b) for b in (t_out.points, t_out.gt_points))


def test_constrained_augment_needs_every_target(corpus):
    case = corpus[0].copy()
    tooth = case.lower.present_teeth()[2]
    tooth.gt_points = None
    with pytest.raises(
        CorrespondenceMismatch, match=rf"^tooth {tooth.id} has no gt_points; augmentation needs targets$"
    ):
        constrained_augment_case_report(case, 3)


@pytest.mark.parametrize(
    "config", [AugmentConfig(), AugmentConfig(arch_dist_range=(1.0, 2.2))], ids=["default", "lo"]
)
def test_constrained_report_is_check_constraints(config):
    """The report is the last joint round's measurement; an independent
    check_constraints of the returned case must read the same, bit for bit."""
    for k in range(6):
        params = SynthParams(teeth_per_jaw=8 + k % 3)
        case = generate_synthetic_case(params, seed=1000 + k, case_id=f"c{k:03d}")
        out, report = constrained_augment_case_report(case, 40 + k, config)
        expected = check_constraints(out, config)
        expected["collision_iterations"] = report["collision_iterations"]
        assert report == expected


def test_reused_trees_are_never_stale(monkeypatch):
    """The joint loop reuses a tooth's tree and a pair's gap while the
    teeth have not moved, and a remembered gap that clears the proxy
    radii answers the interlock test; building every tree and asking
    every question afresh must give the same cases and reports, bit for
    bit, while building more trees and measuring more gaps. Every gap
    and interlock answer the reuse gives equals a fresh measurement of
    the teeth as they are then."""
    runs = [
        (generate_synthetic_case(SynthParams(teeth_per_jaw=n), seed=2000 + n, case_id=f"t{n}"), seed)
        for n in (8, 9, 10, 12)
        for seed in (3, 4)
    ]
    builds = []

    class CountingTree(AabbTree):
        def __init__(self, points):
            builds[-1] += 1
            super().__init__(points)

    measured, asked, stale = [], [], []

    def counting_gap(points, tree):
        measured[-1] += 1
        return cloud_gap(points, tree)

    def checked_gap(a, b, clouds, reused=augment._gap):
        asked[-1] += 1
        got = reused(a, b, clouds)
        if not same_bits(got, cloud_gap(a.points, AabbTree(b.points))):
            stale.append(("gap", a.id, b.id))
        return got

    def checked_step(a, b, radius, clouds, reused=augment._separation_step):
        got = reused(a, b, radius, clouds)
        mask_a, _, d_min = interlock_masks(AabbTree(a.points), AabbTree(b.points), radius)
        if got != (radius - d_min + 1e-3 if mask_a.any() else None):
            stale.append(("step", a.id, b.id))
        return got

    def fresh_step(a, b, radius, clouds):
        mask_a, _, d_min = interlock_masks(CountingTree(a.points), CountingTree(b.points), radius)
        return radius - d_min + 1e-3 if mask_a.any() else None

    monkeypatch.setattr(augment, "AabbTree", CountingTree)
    monkeypatch.setattr(augment, "cloud_gap", counting_gap)
    fresh = (
        lambda tooth, clouds: CountingTree(tooth.points),
        lambda a, b, clouds: counting_gap(a.points, CountingTree(b.points)),
        fresh_step,
    )
    results = []
    for tree_of, gap, step in ((augment._tree_of, checked_gap, checked_step), fresh):
        monkeypatch.setattr(augment, "_tree_of", tree_of)
        monkeypatch.setattr(augment, "_gap", gap)
        monkeypatch.setattr(augment, "_separation_step", step)
        builds.append(0)
        measured.append(0)
        asked.append(0)
        results.append([constrained_augment_case_report(case, seed) for case, seed in runs])
    assert builds[0] < builds[1]
    assert not stale
    assert measured[0] < asked[0]  # some gaps were remembered
    assert measured[0] < measured[1]
    for (reused, report), (fresh, want) in zip(*results):
        assert report == want
        for a, b in zip(reused.upper.teeth + reused.lower.teeth, fresh.upper.teeth + fresh.lower.teeth):
            assert same_bits(a.points, b.points)
            assert a.moved == b.moved


def test_augmentation_asks_each_question_once_per_pass(monkeypatch):
    """Counted, not timed, on one seeded 10-tooth case: the report's
    rotations come from stacked registrations (no one-tooth call). In
    one constrained call no gap query repeats a pair of points arrays
    already measured, and no interlock test follows a measured gap of
    the same two arrays that clears the summed proxy radii."""
    calls = {"kabsch_recover": 0}
    original = geometry.kabsch_recover

    def counted_kabsch(*args, **kwargs):
        calls["kabsch_recover"] += 1
        return original(*args, **kwargs)

    gaps, tested = [], []

    def recording_gap(points, tree):
        gap = cloud_gap(points, tree)
        gaps.append((points, tree.data, gap))
        return gap

    def recording_interlock(a, b, radius):
        tested.append((a.data, b.data, radius, len(gaps)))
        return interlock_masks(a, b, radius)

    def same_arrays(p, q, r, s):
        return (p is r and q is s) or (p is s and q is r)

    monkeypatch.setattr(geometry, "kabsch_recover", counted_kabsch)
    monkeypatch.setattr(augment, "cloud_gap", recording_gap)
    monkeypatch.setattr(augment, "interlock_masks", recording_interlock)
    case = generate_synthetic_case(SynthParams(teeth_per_jaw=10), seed=2010, case_id="q10")
    out, report = constrained_augment_case_report(case, 5)
    assert gaps and tested
    for k, (p, q, _) in enumerate(gaps):
        assert not any(same_arrays(p, q, r, s) for r, s, _ in gaps[:k])
    for p, q, radius, before in tested:
        assert not any(same_arrays(p, q, r, s) and gap_clears(g, radius) for r, s, g in gaps[:before])
    check_constraints(out, AugmentConfig())
    ordinary_augment(case, 5)
    assert calls["kabsch_recover"] == 0


def test_ordinary_augment_with_no_displacement_keeps_every_bit(corpus):
    """Zero ranges draw the identity for every tooth: the output equals
    the input bit for bit, in its own arrays, with the moved flags kept."""
    case = corpus[3].copy()
    case.upper.teeth[0].moved = False
    config = AugmentConfig(rot_range=0.0, trans_mu=0.0, trans_sigma=0.0, ordinary_prob=1.0)
    out = ordinary_augment(case, 8, config)
    for a, b in zip(case.all_teeth(), out.all_teeth()):
        assert a.moved == b.moved
        if a.present:
            assert same_bits(a.points, b.points) and same_bits(a.gt_points, b.gt_points)
            assert not np.shares_memory(a.points, b.points)


def test_ordinary_augment_trigger_rate(corpus):
    case = corpus[0]
    config = AugmentConfig()
    fired = 0
    for seed in range(200):
        out = ordinary_augment(case, seed, config)
        changed = any(
            not np.array_equal(a.points, b.points)
            for a, b in zip(case.upper.teeth, out.upper.teeth)
        )
        fired += changed
        for a, b in zip(
            case.upper.teeth + case.lower.teeth, out.upper.teeth + out.lower.teeth
        ):
            assert np.array_equal(a.gt_points, b.gt_points)
    # binomial(200, 0.62): three sigma is ~0.1
    assert abs(fired / 200.0 - config.ordinary_prob) < 0.11


def test_ordinary_augment_deterministic(corpus):
    case = corpus[1]
    a = ordinary_augment(case, 17)
    b = ordinary_augment(case, 17)
    for ta, tb in zip(a.upper.teeth + a.lower.teeth, b.upper.teeth + b.lower.teeth):
        assert np.array_equal(ta.points, tb.points)


def test_check_constraints_at_targets(corpus):
    report = check_constraints(gt_view(corpus[0]), AugmentConfig())
    assert report["satisfied"]
    for side in ("upper", "lower"):
        entry = report["jaws"][side]
        assert entry["teeth"] == 12
        assert entry["collisions"] == 0
        assert entry["max_angle_deg"] < 1e-6


def test_check_constraints_enforces_the_lower_arch_bound(corpus):
    # at the target pose every centroid lies on the arch fitted through them
    report = check_constraints(gt_view(corpus[0]), AugmentConfig(arch_dist_range=(1.0, 2.2)))
    assert report["satisfied"] is False
    for side in ("upper", "lower"):
        entry = report["jaws"][side]
        assert entry["max_arch_dist_mm"] < 1.0
        assert entry["collisions"] == 0
        assert entry["satisfied"] is False

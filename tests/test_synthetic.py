"""Generator sanity: the synthetic corpus must actually satisfy the
invariants the rest of the suite leans on (collision-free gt, controlled
gaps, exact oracle transforms, determinism)."""

import re

import numpy as np
import pytest

from toothalign.augment import adjacent_gaps, detect_collisions
from toothalign.errors import ConfigError, InfeasibleParams
from toothalign.geometry import kabsch_recover, rotation_angle_between
from toothalign.seeding import derive_seed
from toothalign.synthetic import SynthParams, generate_synthetic_case

from conftest import gt_view


def test_shape_and_ids(corpus):
    for case in corpus[:10]:
        assert [t.id for t in case.upper.teeth] == list(range(3, 15))
        assert [t.id for t in case.lower.teeth] == list(range(19, 31))
        for tooth in case.upper.teeth + case.lower.teeth:
            assert tooth.present
            assert tooth.points.shape == (512, 3)
            assert tooth.gt_points.shape == (512, 3)
            assert tooth.proxy_radius == 0.25


def test_determinism():
    a = generate_synthetic_case(seed=42)
    b = generate_synthetic_case(seed=42)
    assert a.id == b.id == "synth-42"
    for ta, tb in zip(a.upper.teeth + a.lower.teeth, b.upper.teeth + b.lower.teeth):
        assert np.array_equal(ta.points, tb.points)
        assert np.array_equal(ta.gt_points, tb.gt_points)


def test_seed_changes_output():
    a = generate_synthetic_case(seed=1)
    b = generate_synthetic_case(seed=2)
    assert not np.array_equal(a.upper.teeth[0].points, b.upper.teeth[0].points)


def test_gt_layout_is_collision_free(small_corpus):
    for case in small_corpus:
        for jaw in (case.upper, case.lower):
            pairs = detect_collisions(gt_view_jaw(case, jaw))
            assert not pairs, f"{case.id}/{jaw.side}: {pairs}"


def gt_view_jaw(case, jaw):
    g = gt_view(case)
    return g.upper if jaw.side == "upper" else g.lower


def test_gt_gaps_match_request(small_corpus):
    # placement iterates until measured gaps track the drawn targets;
    # allow slack for the 3-pass cutoff
    lo, hi = SynthParams().gap_range
    for case in small_corpus:
        for jaw in (gt_view(case).upper, gt_view(case).lower):
            for _, _, gap in adjacent_gaps(jaw):
                assert lo - 0.1 < gap < hi + 0.1


def test_jaws_occlusally_separated(small_corpus):
    # projected outlines of opposing gt crowns must stay farther apart
    # than the default overlap radius, so gt overlap masks are empty
    from scipy.spatial import cKDTree

    for case in small_corpus[:3]:
        g = gt_view(case)
        up = np.concatenate([t.points[:, :2] for t in g.upper.teeth])
        lo = np.concatenate([t.points[:, :2] for t in g.lower.teeth])
        d, _ = cKDTree(lo).query(up, k=1)
        assert d.min() > 0.07


def test_transform_oracles_exact():
    case, transforms = generate_synthetic_case(seed=9, return_transforms=True)
    for tooth in case.upper.teeth + case.lower.teeth:
        t = transforms[tooth.id]
        assert np.array_equal(t.apply(tooth.gt_points), tooth.points)
        rec = kabsch_recover(tooth.gt_points, tooth.points)
        assert rotation_angle_between(rec.rotation, t.rotation) < 1e-6
        assert np.linalg.norm(rec.apply(tooth.gt_points) - tooth.points) < 1e-6


def test_moved_flags_track_identity():
    case, transforms = generate_synthetic_case(seed=11, return_transforms=True)
    for tooth in case.upper.teeth + case.lower.teeth:
        assert tooth.moved == (not transforms[tooth.id].is_identity())


def test_zero_perturbation_keeps_gt():
    params = SynthParams(rot_max_deg=0.0, trans_sigma_mm=0.0)
    case = generate_synthetic_case(params, seed=4)
    for tooth in case.upper.teeth + case.lower.teeth:
        assert np.array_equal(tooth.points, tooth.gt_points)
        assert not tooth.moved


def test_teeth_per_jaw_variants():
    # 16 crowns outgrow the default curve; widen the arch for that row
    for n, params in (
        (8, SynthParams(teeth_per_jaw=8)),
        (10, SynthParams(teeth_per_jaw=10)),
        (16, SynthParams(teeth_per_jaw=16, arch_width=88.0, arch_depth=54.0)),
    ):
        case = generate_synthetic_case(params, seed=5)
        assert len(case.upper.teeth) == n
        assert len(case.lower.teeth) == n
        assert all(1 <= t.id <= 16 for t in case.upper.teeth)
        assert all(17 <= t.id <= 32 for t in case.lower.teeth)


def test_infeasible_arch_raises():
    params = SynthParams(teeth_per_jaw=16, arch_width=40.0, arch_depth=18.0)
    with pytest.raises(InfeasibleParams):
        generate_synthetic_case(params, seed=0)



def test_infeasible_message_shows_need_above_offer():
    # `gen --teeth 12 --seed 5` misses on its second case by under 0.05 mm,
    # which one decimal would print as equal lengths
    case_id = "synth5-001"
    with pytest.raises(InfeasibleParams) as info:
        generate_synthetic_case(SynthParams(teeth_per_jaw=12), derive_seed(5, "gen", case_id), case_id)
    need, offer = (float(v) for v in re.findall(r"(\d+\.\d+) mm", str(info.value)))
    assert need > offer


@pytest.mark.parametrize(
    "kwargs",
    [
        {"teeth_per_jaw": 4},
        {"teeth_per_jaw": 17},
        {"crown_size_range": (7.0, 5.0)},
        {"gap_range": (0.4, 1.0)},  # below the proxy diameter
        {"gap_range": (-1.0, 1.0)},
        {"arch_width": -3.0},
        {"points_per_tooth": 2},
        {"rot_max_deg": -1.0},
    ],
)
def test_bad_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        SynthParams(**kwargs)

import numpy as np
import pytest

from toothalign.case import Case, Jaw, Tooth
from toothalign.errors import ConfigError, CorrespondenceMismatch, DegenerateAxis
from toothalign.geometry import RigidTransform, quat_from_axis_angle
from toothalign.losses import (
    LossWeights,
    anterior_uniformity_parts,
    enhancement_weights,
    occlusal_overlap_mask,
    opposing_region,
    overlap_consistency_loss,
    posterior_uniformity_loss,
    recon_loss,
    rot_trans_loss,
    total_loss,
)
from toothalign.metrics import residual_transforms
from toothalign.synthetic import generate_synthetic_case

from conftest import gt_view
from oracles import (
    brute_xy_mask,
    grad_check,
    recon_loss_from_transforms,
    recon_theta_fn,
    val_theta_fn,
)


def _tooth(tid, pts, moved=True, gt=None):
    pts = np.asarray(pts, dtype=float)
    return Tooth(
        id=tid,
        present=True,
        moved=moved,
        points=pts,
        gt_points=pts.copy() if gt is None else np.asarray(gt, dtype=float),
        proxy_radius=0.25,
    )


def _case(cid, upper_teeth, lower_teeth):
    return Case(cid, Jaw("upper", upper_teeth), Jaw("lower", lower_teeth))


# ----------------------------------------------------------------- weights

def test_weights_defaults():
    w = LossWeights()
    assert w.delta == (1.0, 1.0, 1.0, 1.0)
    assert w.omega == 10.0
    assert w.w_posterior == 2.0
    assert w.omega_anterior == pytest.approx(1.0 / np.pi, abs=0)
    assert w.tau == 0.07


@pytest.mark.parametrize(
    "kwargs", [{"omega": -1.0}, {"tau": 0.0}, {"delta": (1.0, -1.0, 1.0, 1.0)}]
)
def test_weights_reject(kwargs):
    with pytest.raises(ConfigError):
        LossWeights(**kwargs)


# ----------------------------------------------------------- zero at truth

def test_all_terms_exactly_zero_at_truth(small_corpus):
    for case in small_corpus:
        g = gt_view(case)
        bd = total_loss(g, g)
        assert bd.l_recon == 0.0
        assert bd.l_rotate == 0.0
        assert bd.l_trans == 0.0
        assert bd.l_val == 0.0
        assert bd.l_fit == 0.0
        assert bd.l_uni_ant == 0.0
        assert bd.total == 0.0


# ------------------------------------------------------------------- recon

def test_recon_two_point_hand_value():
    # unit shift of a 2-point cloud: 1 + 1 point terms plus 1 centroid
    gt = _tooth(3, [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    pred = _tooth(3, [[1.0, 0.0, 0.0], [1.0, 2.0, 0.0]], gt=gt.points)
    value, grads = recon_loss(
        _case("p", [pred], []), _case("g", [gt], [])
    )
    assert value == 3.0
    # moving +x further increases the loss: positive x-translation slope
    assert grads[3][4] == pytest.approx(2.0 * (1.0 + 1.0 + 1.0), abs=1e-12)


def test_recon_from_transforms_inverts_perturbation():
    case, transforms = generate_synthetic_case(seed=31, return_transforms=True)
    inv = {tid: t.inverse() for tid, t in transforms.items()}
    value, grads = recon_loss_from_transforms(case, inv)
    assert value < 1e-15
    assert set(grads) == set(transforms)


def test_recon_from_transforms_missing_raises():
    case, transforms = generate_synthetic_case(seed=32, return_transforms=True)
    inv = {tid: t.inverse() for tid, t in transforms.items()}
    inv.pop(next(iter(sorted(inv))))
    with pytest.raises(CorrespondenceMismatch):
        recon_loss_from_transforms(case, inv)


def test_recon_gradient_matches_fd(rng):
    case = generate_synthetic_case(seed=33)
    jaw = Jaw("upper", case.upper.teeth[:3])
    sub = Case("sub", jaw, Jaw("lower", []))
    pivots = {t.id: t.centroid() for t in jaw.teeth}
    fn, n = recon_theta_fn(sub, pivots)
    for _ in range(5):
        theta = rng.normal(0.0, 0.5, size=n)
        theta[::7] += 1.5  # keep quaternions well away from zero norm
        assert grad_check(fn, theta) <= 1e-4


# --------------------------------------------------------------- transform

def test_rot_trans_loss_hand_values():
    tg = RigidTransform(
        quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3),
        np.array([0.5, -0.25, 0.0]),
        np.zeros(3),
    )
    tp = RigidTransform.identity(np.zeros(3))
    l_rot, l_tr, l_val, grads = rot_trans_loss({4: tp}, {4: tg}, zeta=None)
    dq = np.abs(tp.rotation - tg.rotation).sum()
    dt = np.abs(tp.translation - tg.translation).sum()
    assert l_rot == pytest.approx(2.0 * dq, abs=1e-15)
    assert l_tr == pytest.approx(2.0 * dt, abs=1e-15)
    assert l_val == pytest.approx(10.0 * l_rot + l_tr, abs=1e-12)
    assert grads[4].shape == (7,)


def test_rot_trans_mismatch_raises():
    t = RigidTransform.identity(np.zeros(3))
    with pytest.raises(CorrespondenceMismatch):
        rot_trans_loss({1: t}, {2: t})


def test_rot_trans_loss_names_the_unpaired_teeth():
    t = RigidTransform.identity(np.zeros(3))
    message = r"^transform tooth sets differ: pred lacks \[7\], gt lacks \[1, 4\]$"
    with pytest.raises(CorrespondenceMismatch, match=message):
        rot_trans_loss({1: t, 4: t, 9: t}, {7: t, 9: t})


def test_enhancement_weights_saturate():
    near = RigidTransform(
        quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.2),
        np.array([0.9, 0.0, 0.0]),
        np.zeros(3),
    )
    huge = RigidTransform(
        quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 3.0),
        np.array([10.0, 0.0, 0.0]),
        np.zeros(3),
    )
    z = enhancement_weights({1: near, 2: huge})
    assert z[1][0] == pytest.approx(0.2 / (np.pi / 2.0), abs=1e-12)
    assert z[1][1] == pytest.approx(0.9 / 4.5, abs=1e-12)
    assert z[2] == (1.0, 1.0)


def test_val_gradient_matches_fd(rng):
    gt_t = {}
    for tid in (3, 4, 5):
        gt_t[tid] = RigidTransform(
            quat_from_axis_angle(rng.normal(size=3), float(rng.uniform(0.1, 0.5))),
            rng.normal(0.0, 1.0, size=3),
            np.zeros(3),
        )
    fn, n = val_theta_fn(gt_t)
    for _ in range(5):
        theta = rng.normal(0.0, 2.0, size=n)
        # stay away from the L1 kinks so the FD window is one-sided-free
        flat_gt = np.concatenate(
            [np.concatenate([gt_t[t].rotation, gt_t[t].translation]) for t in sorted(gt_t)]
        )
        theta = np.where(np.abs(theta - flat_gt) < 1e-3, theta + 0.01, theta)
        assert grad_check(fn, theta) <= 1e-4


# ------------------------------------------------------------------- masks

def test_overlap_mask_matches_brute(rng):
    for _ in range(20):
        n_a, n_b = rng.integers(4, 64, size=2)
        a = _tooth(5, rng.uniform(-0.2, 0.2, size=(n_a, 3)))
        b = _tooth(22, rng.uniform(-0.2, 0.2, size=(n_b, 3)))
        got = occlusal_overlap_mask(a, [b], tau=0.07)
        want = brute_xy_mask(a.points, b.points, tau=0.07)
        assert np.array_equal(got, want)


def test_overlap_mask_threshold_is_strict():
    a = _tooth(5, [[0.0, 0.0, 1.0], [0.05, 0.0, 1.0]])
    b = _tooth(22, [[0.07, 0.0, -1.0]])
    mask = occlusal_overlap_mask(a, [b], tau=0.07)
    assert mask.tolist() == [False, True]  # exactly tau away: outside


def test_overlap_mask_empty_region():
    a = _tooth(5, [[0.0, 0.0, 1.0]])
    assert not occlusal_overlap_mask(a, [], tau=0.07).any()


def test_opposing_region_never_misses(rng):
    case = generate_synthetic_case(seed=35)
    tau = 5.0  # huge radius so some cross-jaw pairs qualify
    tooth = case.upper.teeth[4]
    region = opposing_region(tooth, case.lower, tau)
    ids = {t.id for t in region}
    for other in case.lower.teeth:
        d = np.sqrt(
            (
                (tooth.points[:, None, :2] - other.points[None, :, :2]) ** 2
            ).sum(axis=2)
        ).min()
        if d < tau:
            assert other.id in ids


def test_hamming_hand_value():
    lower = _tooth(25, [[0.05, 0.0, -1.0], [5.0, 0.0, -1.0]], moved=False)
    gt_up = _tooth(8, [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
    pred_up = _tooth(
        8, [[0.0, 0.0, 1.0], [0.03, 0.01, 1.0], [2.0, 0.0, 1.0]], gt=gt_up.points
    )
    pred = _case("p", [pred_up], [lower])
    gt = _case("g", [gt_up], [lower])
    # pred mask [T,T,F] vs gt mask [T,F,F]: one disagreeing flag
    assert overlap_consistency_loss(pred, gt) == 1.0


# -------------------------------------------------------------- uniformity

def test_posterior_variance_hand_value():
    up_a = _tooth(3, [[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
    up_b = _tooth(14, [[10.0, 0.0, 1.0], [10.0, 0.0, 2.0]])
    lo_a = _tooth(19, [[0.0, 0.0, 0.0]], moved=False)
    lo_b = _tooth(30, [[10.0, 0.0, 0.0]], moved=False)
    case = _case("p", [up_a, up_b], [lo_a, lo_b])
    # contact distances {1,3} and {1,2}: population variances 1.0 and 0.25
    assert posterior_uniformity_loss(case) == 1.25


def test_posterior_skips_anterior_and_sparse():
    ant = _tooth(8, [[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])  # anterior id
    one_flag = _tooth(3, [[5.0, 0.0, 1.0], [9.0, 0.0, 4.0]])  # single in-mask point
    lo = _tooth(19, [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]], moved=False)
    case = _case("p", [ant, one_flag], [lo])
    assert posterior_uniformity_loss(case) == 0.0


def test_anterior_parts_hand_values():
    gt_t = _tooth(8, [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    pred_t = _tooth(8, [[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]], gt=gt_t.points)
    pred = _case("p", [pred_t], [])
    gt = _case("g", [gt_t], [])
    total, l_pos, l_ang = anterior_uniformity_parts(pred, gt)
    # same centroid; peak walks from the origin to (-1, 0, 1); axes turn 90 deg
    assert l_pos == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert l_ang == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert total == pytest.approx(np.sqrt(2.0) + 0.5, abs=1e-12)


def test_anterior_translation_only_keeps_axes():
    gt_t = _tooth(8, [[0.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    pred_t = _tooth(8, gt_t.points + np.array([1.0, 0.0, 0.0]), gt=gt_t.points)
    total, l_pos, l_ang = anterior_uniformity_parts(
        _case("p", [pred_t], []), _case("g", [gt_t], [])
    )
    assert l_ang == 0.0
    assert l_pos == pytest.approx(2.0, abs=1e-12)


def test_anterior_degenerate_axis_raises():
    bad = _tooth(8, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(DegenerateAxis):
        anterior_uniformity_parts(_case("p", [bad], []), _case("g", [bad], []))


def test_uniformity_combines_with_posterior_weight():
    up_a = _tooth(3, [[0.0, 0.0, 1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 2.0]])
    lo_a = _tooth(19, [[0.0, 0.0, 0.0]], moved=False)
    case = _case("p", [up_a], [lo_a])
    # no anterior teeth: the posterior variance is doubled by w_posterior
    bd = total_loss(case, case)
    assert bd.l_uni_ant == 0.0
    assert bd.l_uni == 2.0 * posterior_uniformity_loss(case) > 0.0


# ------------------------------------------------------------------- total

def test_total_delta_weights_are_linear(small_corpus):
    case = small_corpus[0]
    pred = gt_view(case)
    for tooth in pred.upper.teeth[:4]:
        tooth.points = tooth.points + np.array([0.3, -0.1, 0.2])
        tooth.moved = True
    gt = gt_view(case)
    for tid in [t.id for t in pred.upper.teeth[:4]]:
        gt.tooth(tid).moved = True
    base = total_loss(pred, gt)
    scaled = total_loss(pred, gt, LossWeights(delta=(2.0, 3.0, 4.0, 5.0)))
    want = 2.0 * base.l_recon + 3.0 * base.l_fit + 4.0 * base.l_uni + 5.0 * base.l_val
    assert scaled.total == pytest.approx(want, rel=1e-12)


def test_total_test_mode_pins_enhancement(small_corpus):
    case = small_corpus[1]
    pred = gt_view(case)
    for tooth in pred.upper.teeth:
        tooth.points = tooth.points + np.array([0.4, 0.0, 0.0])
        tooth.moved = True
    gt = gt_view(case)
    for t in gt.upper.teeth:
        t.moved = True
    train = total_loss(pred, gt, test_mode=False)
    test = total_loss(pred, gt, test_mode=True)
    # recovered corrections are small, so train-mode factors sit below 2
    assert train.l_trans < test.l_trans
    gt_t = residual_transforms(pred, gt)
    want = 2.0 * sum(np.abs(t.translation).sum() for t in gt_t.values())
    assert test.l_trans == pytest.approx(want, rel=1e-12)


def test_total_shares_occlusal_contacts_bit_for_bit(small_corpus):
    # total_loss finds the prediction's opposing regions and masks once
    # for the overlap and posterior terms; each term alone gives the
    # same bits. The lower crowns are spread into occlusal contact.
    case = small_corpus[3].copy()
    for t in case.lower.present_teeth():
        offset = 0.2 * np.array([*t.gt_points[:, :2].mean(axis=0), 0.0])
        t.points, t.gt_points = t.points + offset, t.gt_points + offset
    gt = gt_view(case)
    bd = total_loss(case, gt)
    assert bd.l_fit == overlap_consistency_loss(case, gt) > 0.0
    assert bd.l_uni_pior == posterior_uniformity_loss(case) > 0.0


def test_total_moved_set_mismatch_raises(small_corpus):
    pred = gt_view(small_corpus[2])
    gt = gt_view(small_corpus[2])
    pred.upper.teeth[0].moved = False
    with pytest.raises(CorrespondenceMismatch):
        total_loss(pred, gt)


def test_total_point_count_mismatch_raises(small_corpus):
    pred = gt_view(small_corpus[3])
    gt = gt_view(small_corpus[3])
    pred.upper.teeth[0].moved = True
    gt.upper.teeth[0].moved = True
    pred.upper.teeth[0].points = pred.upper.teeth[0].points[:100]
    with pytest.raises(CorrespondenceMismatch):
        total_loss(pred, gt)


def test_breakdown_to_dict_keys(small_corpus):
    bd = total_loss(gt_view(small_corpus[0]), gt_view(small_corpus[0]))
    d = bd.to_dict()
    assert set(d) == {
        "l_recon", "l_rotate", "l_trans", "l_val", "l_fit",
        "l_uni_ant", "l_uni_pior", "l_uni", "total", "gradients",
    }
    assert set(d["gradients"]) == {"recon", "val"}

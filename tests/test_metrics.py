import numpy as np
import pytest

from toothalign.errors import CorrespondenceMismatch, DegenerateCloud, InvalidArgument
from toothalign.geometry import RigidTransform, quat_from_axis_angle
from toothalign.metrics import (
    CURVE_SAMPLES,
    add_curve,
    add_error,
    auc,
    case_metrics,
    evaluate_cases,
    iteration_metrics,
    iterate_predict,
    me_rotate,
    me_translate,
    recover_teeth,
    residual_transforms,
)

from conftest import gt_view


def _t(angle_deg, axis, trans):
    return RigidTransform(
        quat_from_axis_angle(np.asarray(axis, dtype=float), np.deg2rad(angle_deg)),
        np.asarray(trans, dtype=float),
        np.zeros(3),
    )


# --------------------------------------------------------------------- auc

def test_auc_closed_forms():
    assert auc(np.zeros(10)) == 1.0
    assert auc(np.full(10, 100.0)) == 0.0
    assert auc(np.full(10, 2.5), k=5.0) == 0.5
    # one distance at k/4: contributes 0.75
    assert auc(np.array([1.25]), k=5.0) == 0.75


def test_auc_monotone_in_error():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.0, 4.0, size=200)
    worse = base + 0.5
    assert auc(worse) < auc(base)


def test_auc_monotone_in_k():
    d = np.array([1.0, 2.0, 3.0])
    assert auc(d, k=10.0) > auc(d, k=5.0)


def test_auc_guards():
    for k in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidArgument):
            auc(np.array([1.0]), k=k)
    with pytest.raises(ValueError):
        auc(np.array([]))


def test_add_curve_grid():
    d = np.array([0.0, 1.0, 4.0])
    curve = add_curve(d, k=5.0)
    assert curve.thresholds.shape == (CURVE_SAMPLES,)
    assert curve.thresholds[0] == 0.0 and curve.thresholds[-1] == 5.0
    assert curve.fractions[0] == pytest.approx(1.0 / 3.0)
    assert curve.fractions[-1] == 1.0
    assert (np.diff(curve.fractions) >= 0).all()
    payload = curve.to_dict()
    assert payload["k_mm"] == 5.0
    assert len(payload["fractions"]) == CURVE_SAMPLES


def test_add_curve_counts_equal_the_broadcast_comparison():
    # distances exactly on thresholds (0, k and inner grid points), just
    # beside them, repeated, and past k
    k = 5.0
    grid = np.linspace(0.0, k, CURVE_SAMPLES)
    d = np.concatenate([grid[[0, 0, 1, 128, 255, 256, 256]], np.nextafter(grid[[1, 128]], np.inf), [7.0, 0.3]])
    for sample in (d, d[::-1], d[:1], grid):
        want = (sample[None, :] <= grid[:, None]).mean(axis=1)
        got = add_curve(sample, k=k).fractions
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --------------------------------------------------------------------- add

def test_add_error_hand_value(small_corpus):
    pred = gt_view(small_corpus[0])
    gt = gt_view(small_corpus[0])
    for tooth in pred.upper.teeth + pred.lower.teeth:
        tooth.points = tooth.points + np.array([3.0, 0.0, 4.0])  # shift norm 5
    distances, add = add_error(pred, gt)
    assert distances.shape == (24 * 512,)
    assert add == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(distances, 5.0, atol=1e-12)


def test_add_error_mismatch_raises(small_corpus):
    pred = gt_view(small_corpus[1])
    gt = gt_view(small_corpus[1])
    pred.upper.teeth[0].present = False
    with pytest.raises(CorrespondenceMismatch):
        add_error(pred, gt)


def test_add_error_names_the_unpaired_teeth(small_corpus):
    pred = gt_view(small_corpus[1])
    gt = gt_view(small_corpus[1])
    pred.upper.teeth[0].present = False
    gt.lower.teeth[2].present = False
    a, b = pred.upper.teeth[0].id, gt.lower.teeth[2].id
    message = rf"^present-tooth sets differ: pred lacks \[{a}\], gt lacks \[{b}\]$"
    with pytest.raises(CorrespondenceMismatch, match=message):
        add_error(pred, gt)


def test_add_error_names_a_tooth_with_other_point_counts(small_corpus):
    gt = gt_view(small_corpus[1])
    pred = gt_view(small_corpus[1])
    tooth = pred.lower.teeth[3]
    tooth.points = tooth.points[:100]
    with pytest.raises(CorrespondenceMismatch, match=rf"^tooth {tooth.id}: point counts differ$"):
        add_error(pred, gt)


# -------------------------------------------------------------- transforms

def test_me_rotate_frozen_geodesics():
    gt = {1: _t(0.0, [0, 0, 1], [0, 0, 0]), 2: _t(0.0, [0, 0, 1], [0, 0, 0])}
    pred = {1: _t(30.0, [0, 0, 1], [0, 0, 0]), 2: _t(10.0, [1, 0, 0], [0, 0, 0])}
    assert me_rotate(pred, gt) == pytest.approx(20.0, abs=1e-9)
    assert me_rotate(gt, gt) == 0.0


def test_me_translate_values():
    gt = {1: _t(0, [0, 0, 1], [0, 0, 0]), 2: _t(0, [0, 0, 1], [1, 1, 1])}
    pred = {1: _t(0, [0, 0, 1], [3, 4, 0]), 2: _t(0, [0, 0, 1], [1, 1, 1])}
    assert me_translate(pred, gt) == pytest.approx(2.5, abs=1e-12)


def test_me_of_no_teeth_is_zero():
    assert me_rotate({}, {}) == 0.0
    assert me_translate({}, {}) == 0.0


def test_me_mismatch_raises():
    t = _t(0, [0, 0, 1], [0, 0, 0])
    with pytest.raises(CorrespondenceMismatch):
        me_rotate({1: t}, {2: t})


def test_me_names_the_unpaired_teeth():
    t = _t(0, [0, 0, 1], [0, 0, 0])
    message = r"^transform tooth sets differ: pred lacks \[2, 5\], gt lacks \[1\]$"
    with pytest.raises(CorrespondenceMismatch, match=message):
        me_translate({1: t, 3: t}, {2: t, 3: t, 5: t})


def test_residual_transforms_name_the_unpaired_moved_teeth(small_corpus):
    pred = gt_view(small_corpus[2])
    gt = gt_view(small_corpus[2])
    tooth = pred.upper.teeth[0]
    tooth.moved = not tooth.moved
    side = "gt" if tooth.moved else "pred"
    message = rf"^moved-tooth sets differ: .*{side} lacks \[{tooth.id}\]"
    with pytest.raises(CorrespondenceMismatch, match=message):
        residual_transforms(pred, gt)


def test_residual_transforms_recover_planted_offset(small_corpus):
    gt = gt_view(small_corpus[2])
    pred = gt_view(small_corpus[2])
    planted = _t(12.0, [0, 1, 0], [0.5, -0.2, 0.1])
    tooth = pred.upper.teeth[4]
    moved = RigidTransform(planted.rotation, planted.translation, tooth.centroid())
    tooth.points = moved.apply(tooth.points)
    res = residual_transforms(pred, gt)
    assert np.rad2deg(res[tooth.id].angle()) == pytest.approx(12.0, abs=1e-6)
    # every other tooth needs no correction
    others = [tid for tid in res if tid != tooth.id]
    assert all(res[t].angle() < 1e-9 for t in others)


def test_residual_transforms_name_a_tooth_with_other_point_counts(small_corpus):
    gt = gt_view(small_corpus[2])
    pred = gt_view(small_corpus[2])
    tooth = pred.upper.teeth[4]
    tooth.points = tooth.points[:100]
    with pytest.raises(CorrespondenceMismatch, match=rf"^tooth {tooth.id}: point counts differ$"):
        residual_transforms(pred, gt)


def test_recover_teeth_names_the_first_degenerate_tooth(rng):
    line = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
    blob = rng.normal(size=(5, 3))
    with pytest.raises(DegenerateCloud, match=r"^tooth 9: cloud is collinear"):
        recover_teeth([9], [line], [line + 1.0])
    with pytest.raises(DegenerateCloud, match=r"^tooth 4: cloud is collinear"):
        recover_teeth([3, 4, 5], [blob, line, line], [blob + 1.0, line + 1.0, line + 2.0])
    # unequal point counts: one registration per tooth, by id
    got = recover_teeth([7, 2], [blob, blob[:4]], [blob + 1.0, blob[:4]])
    assert list(got) == [7, 2] and got[2].is_identity()
    assert recover_teeth([], [], []) == {}


# ------------------------------------------------------------------- cases

def test_case_metrics_zero_at_truth(small_corpus):
    g = gt_view(small_corpus[3])
    m = case_metrics(g, g)
    assert m == {
        "add_mm": 0.0,
        "auc": 1.0,
        "me_rotate_deg": 0.0,
        "me_translate_mm": 0.0,
    }


def test_case_metrics_on_perturbed(small_corpus):
    case = small_corpus[4]
    m = case_metrics(case, gt_view(case))
    assert 0.0 < m["add_mm"] < 5.0
    assert 0.0 < m["auc"] < 1.0
    assert 0.0 < m["me_rotate_deg"] <= 8.0 + 1e-9
    assert m["me_translate_mm"] > 0.0


def test_evaluate_cases_aggregates(small_corpus):
    pairs = [(case, gt_view(case)) for case in small_corpus[:4]]
    report, curve = evaluate_cases(pairs, k=5.0)
    assert len(report["cases"]) == 4
    assert report["add_mm"] == pytest.approx(
        np.mean([r["add_mm"] for r in report["cases"]]), abs=1e-12
    )
    assert report["k_mm"] == 5.0
    assert curve.fractions[-1] == 1.0
    with pytest.raises(ValueError):
        evaluate_cases([])


# --------------------------------------------------------------- iteration

def test_iterate_identity_is_fixed_point(small_corpus):
    case = small_corpus[5]
    preds = iterate_predict(lambda c: c.copy(), case, 3)
    assert len(preds) == 3
    for p in preds:
        for a, b in zip(p.upper.teeth, case.upper.teeth):
            assert np.array_equal(a.points, b.points)
    with pytest.raises(ValueError):
        iterate_predict(lambda c: c, case, 0)


def test_iteration_metrics_improve_with_contraction(small_corpus):
    # a model that walks each cloud halfway to the target every step
    case = small_corpus[6]
    gt = gt_view(case)

    def halfway(c):
        out = c.copy()
        for tooth in out.present_teeth():
            tooth.points = 0.5 * (tooth.points + tooth.gt_points)
        return out

    rows = iteration_metrics(halfway, case, gt, n=4)
    adds = [r["add_mm"] for r in rows]
    assert rows[0]["iteration"] == 1
    assert all(a > b for a, b in zip(adds, adds[1:]))
    assert adds[1] == pytest.approx(adds[0] / 2.0, rel=1e-9)


@pytest.mark.parametrize("k", [0.0, -1.0, np.inf, np.nan])
def test_iteration_metrics_checks_k_before_predicting(small_corpus, k):
    def model(case):
        raise AssertionError("predicted before k was checked")

    case = small_corpus[0]
    with pytest.raises(InvalidArgument):
        iteration_metrics(model, case, gt_view(case), n=3, k=k)

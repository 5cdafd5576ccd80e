"""Alignment quality metrics and the iterative-prediction harness.

ADD pools the point-to-point distances of all present teeth of a case;
set-level numbers average the per-case values in fixed case order. AUC
integrates the empirical distance CDF exactly (it is a step function,
so the integral is a finite sum), leaving no binning tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import Case, Tooth
from .errors import CorrespondenceMismatch, DegenerateCloud, InvalidArgument
from .geometry import RigidTransform, kabsch_recover_many, rotation_angle_between

CURVE_SAMPLES = 257
K_MM = 5.0  # default CDF integration bound, mm


@dataclass(frozen=True)
class AddCurve:
    """Empirical CDF of point errors on a uniform [0, k] grid."""

    thresholds: np.ndarray
    fractions: np.ndarray
    k: float

    def to_dict(self) -> dict:
        return {
            "k_mm": self.k,
            "thresholds_mm": [float(t) for t in self.thresholds],
            "fractions": [float(f) for f in self.fractions],
        }


def check_paired_ids(kind: str, pred_ids, gt_ids) -> None:
    """The one tooth-pairing key check: CorrespondenceMismatch, naming
    the ids each side lacks, unless both sides hold the same ids."""
    pred_ids, gt_ids = set(pred_ids), set(gt_ids)
    if pred_ids != gt_ids:
        lacks = f"pred lacks {sorted(gt_ids - pred_ids)}, gt lacks {sorted(pred_ids - gt_ids)}"
        raise CorrespondenceMismatch(f"{kind} sets differ: {lacks}")


def _paired(kind: str, pred_teeth: list[Tooth], gt_teeth: list[Tooth]) -> list[tuple[Tooth, Tooth]]:
    """(pred, gt) pairs by id: the one tooth pairing of the losses and
    the metrics. Both sides must hold the same ids (see
    check_paired_ids), and each pair must hold equal point counts."""
    gt_by_id = {t.id: t for t in gt_teeth}
    check_paired_ids(kind, [t.id for t in pred_teeth], gt_by_id)
    pairs = [(a, gt_by_id[a.id]) for a in sorted(pred_teeth, key=lambda t: t.id)]
    for a, b in pairs:
        if a.points.shape != b.points.shape:
            raise CorrespondenceMismatch(f"tooth {a.id}: point counts differ")
    return pairs


def add_error(pred_case: Case, gt_case: Case) -> tuple[np.ndarray, float]:
    """Distances between corresponding points, pooled over every
    present tooth, plus their mean (the ADD value)."""
    chunks = []
    for a, b in _paired("present-tooth", pred_case.present_teeth(), gt_case.present_teeth()):
        d = a.points - b.points
        chunks.append(np.sqrt((d * d).sum(axis=1)))
    distances = np.concatenate(chunks)
    return distances, float(distances.mean())


def _check_k(k: float) -> None:
    if not (k > 0 and np.isfinite(k)):
        raise InvalidArgument(f"k must be positive and finite, got {k}")


def auc(distances, k: float = K_MM) -> float:
    """Exact area under the distance CDF over [0, k], divided by k.

    Each distance d contributes max(0, k - d) / (n * k); equivalently
    the integral of the step CDF. 1.0 when all distances are 0, 0.0
    when none is below k.
    """
    _check_k(k)
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise ValueError("auc needs at least one distance")
    return float(np.clip(k - d, 0.0, k).mean() / k)


def add_curve(distances, k: float = K_MM) -> AddCurve:
    d = np.asarray(distances, dtype=float)
    thresholds = np.linspace(0.0, k, CURVE_SAMPLES)
    fractions = np.searchsorted(np.sort(d), thresholds, side="right") / d.size  # counts of d <= t
    return AddCurve(thresholds=thresholds, fractions=fractions, k=float(k))


def _matched(pred_t: dict, gt_t: dict) -> list:
    check_paired_ids("transform tooth", pred_t, gt_t)
    return sorted(pred_t)


def me_rotate(pred_t: dict[int, RigidTransform], gt_t: dict[int, RigidTransform]) -> float:
    """Mean geodesic rotation difference in degrees."""
    ids = _matched(pred_t, gt_t)
    if not ids:
        return 0.0
    angles = [
        rotation_angle_between(pred_t[tid].rotation, gt_t[tid].rotation) for tid in ids
    ]
    return float(np.rad2deg(np.mean(angles)))


def me_translate(pred_t: dict[int, RigidTransform], gt_t: dict[int, RigidTransform]) -> float:
    """Mean translation-vector L2 difference in mm."""
    ids = _matched(pred_t, gt_t)
    if not ids:
        return 0.0
    return float(
        np.mean(
            [np.linalg.norm(pred_t[tid].translation - gt_t[tid].translation) for tid in ids]
        )
    )


def moved_teeth(case: Case) -> list[Tooth]:
    """The case's present moved teeth, by id."""
    return sorted((t for t in case.all_teeth() if t.present and t.moved), key=lambda t: t.id)


def paired_moved(pred: Case, gt: Case) -> list[tuple[Tooth, Tooth]]:
    """(pred, gt) pairs of the moved teeth, by id (see _paired)."""
    return _paired("moved-tooth", moved_teeth(pred), moved_teeth(gt))


def recover_teeth(ids: list[int], src: list, dst: list) -> dict[int, RigidTransform]:
    """kabsch_recover(src[k], dst[k]) of each tooth ids[k], by id: one
    stacked kabsch_recover_many when every cloud has one shape, else one
    row per tooth. A degenerate cloud names the first such tooth."""
    one_shape = len({np.shape(c) for c in (*src, *dst)}) == 1
    rows = [slice(None)] if one_shape else [slice(k, k + 1) for k in range(len(ids))]
    out = []
    for r in rows:
        try:
            out += kabsch_recover_many(np.stack(src[r]), np.stack(dst[r]))
        except DegenerateCloud as exc:
            raise DegenerateCloud(f"tooth {ids[r][exc.row]}: {exc}") from exc
    return dict(zip(ids, out))


def residual_transforms(pred_case: Case, gt_case: Case) -> dict[int, RigidTransform]:
    """Least-squares rigid residual per present moved tooth: what still
    separates each predicted cloud from its target."""
    pairs = paired_moved(pred_case, gt_case)
    return recover_teeth([a.id for a, _ in pairs], [a.points for a, _ in pairs], [b.points for _, b in pairs])


def case_metrics(pred_case: Case, gt_case: Case, k: float = K_MM) -> dict:
    """ADD, AUC, and mean residual rotation/translation for one case."""
    return _case_metrics(pred_case, gt_case, k)[0]


def _case_metrics(pred_case: Case, gt_case: Case, k: float) -> tuple[dict, np.ndarray]:
    distances, add = add_error(pred_case, gt_case)
    residual = residual_transforms(pred_case, gt_case)
    identity = {tid: RigidTransform.identity() for tid in residual}
    row = {
        "add_mm": add,
        "auc": auc(distances, k),
        "me_rotate_deg": me_rotate(residual, identity),
        "me_translate_mm": me_translate(residual, identity),
    }
    return row, distances


def evaluate_cases(
    pairs: list[tuple[Case, Case]], k: float = K_MM
) -> tuple[dict, AddCurve]:
    """Aggregate report over (pred, gt) pairs: per-case metrics, their
    means, and the pooled distance curve for plotting."""
    if not pairs:
        raise ValueError("no case pairs to evaluate")
    per_case = []
    pooled = []
    for pred, gt in pairs:
        metrics, distances = _case_metrics(pred, gt, k)
        per_case.append({"case_id": pred.id, **metrics})
        pooled.append(distances)
    report = {
        "cases": per_case,
        "add_mm": float(np.mean([r["add_mm"] for r in per_case])),
        "auc": float(np.mean([r["auc"] for r in per_case])),
        "me_rotate_deg": float(np.mean([r["me_rotate_deg"] for r in per_case])),
        "me_translate_mm": float(np.mean([r["me_translate_mm"] for r in per_case])),
        "k_mm": float(k),
    }
    return report, add_curve(np.concatenate(pooled), k)


def iterate_predict(model, case: Case, n: int) -> list[Case]:
    """Feeds each prediction back as the next input; returns the n
    predicted cases in order."""
    if n < 1:
        raise InvalidArgument(f"n must be at least 1, got {n}")
    out = []
    current = case
    for _ in range(n):
        current = model(current)
        out.append(current)
    return out


def iteration_metrics(model, case: Case, gt_case: Case, n: int, k: float = K_MM) -> list[dict]:
    """Per-iteration metric table for repeated prediction. A bad k is
    rejected before the first prediction runs."""
    _check_k(k)
    rows = []
    for i, pred in enumerate(iterate_predict(model, case, n)):
        row = {"iteration": i + 1}
        row.update(case_metrics(pred, gt_case, k))
        rows.append(row)
    return rows

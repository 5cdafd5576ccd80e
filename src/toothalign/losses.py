"""Alignment losses: reconstruction, transform, occlusal-overlap
consistency, and occlusal-distance uniformity.

Conventions shared by every function here:

* Predictions and targets correspond index-wise per tooth.
* Static teeth (``moved=False``) are excluded from every sum; their
  transform is identically zero by definition.
* Occlusal projection drops z; the overlap threshold ``tau`` is strict
  (a point at exactly tau is outside). Distance comparisons are done on
  squared values so the strict threshold is reproducible bit-for-bit.
* The transform losses are L1 per component with a subgradient of 0 at
  kinks. Rotation-angle and translation-norm enhancement factors scale
  each tooth's contribution by (1 + zeta).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .bvh import AabbTree, interlock_masks, nearest_distances
from .case import ANTERIOR_IDS, Case, Jaw, Tooth, jaw_of_id
from .config import LossWeights
from .errors import DegenerateAxis
from .geometry import RigidTransform, quat_to_matrix
from .metrics import check_paired_ids, moved_teeth, paired_moved, residual_transforms


@dataclass
class LossBreakdown:
    l_recon: float
    l_rotate: float
    l_trans: float
    l_val: float
    l_fit: float
    l_uni_ant: float
    l_uni_pior: float
    l_uni: float
    total: float
    gradients: dict[str, dict[int, np.ndarray]] = field(repr=False)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "gradients"}
        out["gradients"] = {
            term: {str(tid): g.tolist() for tid, g in sorted(per.items())}
            for term, per in sorted(self.gradients.items())
        }
        return out


# -------------------------------------------------------- rotation algebra

def _rotation_with_partials(q: np.ndarray):
    """R(q / |q|) and the four dR/dq_k including the normalization chain."""
    q = np.asarray(q, dtype=float)
    n = float(np.linalg.norm(q))
    if n < 1e-12:
        raise ValueError("zero quaternion in loss evaluation")
    w, x, y, z = qh = q / n
    rot = quat_to_matrix(q)
    d_unit = np.array(
        [
            [[0, -z, y], [z, 0, -x], [-y, x, 0]],
            [[0, y, z], [y, -2 * x, -w], [z, w, -2 * x]],
            [[-2 * y, x, w], [x, 0, z], [-w, z, -2 * y]],
            [[-2 * z, -w, x], [w, -2 * z, y], [x, y, 0]],
        ],
        dtype=float,
    ) * 2.0
    chain = (np.eye(4) - np.outer(qh, qh)) / n  # d(q/|q|)/dq
    partials = np.einsum("jab,jk->kab", d_unit, chain)
    return rot, partials


# --------------------------------------------------------- reconstruction

def _recon_tooth(pre_pts, gt_pts, q, trans, pivot):
    """Squared point offsets plus squared centroid offset, with gradient
    with respect to the 7 raw transform parameters."""
    q = np.asarray(q, dtype=float)
    trans = np.asarray(trans, dtype=float)
    rot, partials = _rotation_with_partials(q)
    u = pre_pts - pivot
    uc = u.mean(axis=0)
    if q[0] == 1.0 and not q[1:].any() and not trans.any():
        # identity: skip the (p - pivot) + pivot round trip so that
        # pre == gt gives a bit-exact zero residual
        resid = pre_pts - gt_pts
        resid_c = pre_pts.mean(axis=0) - gt_pts.mean(axis=0)
    else:
        base = pivot + trans
        resid = u @ rot.T + base - gt_pts
        resid_c = rot @ uc + base - gt_pts.mean(axis=0)
    value = float((resid * resid).sum() + resid_c @ resid_c)
    grad = np.empty(7)
    for k in range(4):
        dr = partials[k]
        grad[k] = 2.0 * float((resid * (u @ dr.T)).sum() + resid_c @ (dr @ uc))
    grad[4:] = 2.0 * (resid.sum(axis=0) + resid_c)
    return value, grad


def recon_loss(pred_case: Case, gt_case: Case) -> tuple[float, dict[int, np.ndarray]]:
    """Squared point-wise and centroid offsets between two assembled cases.

    The gradient is taken with respect to an identity transform applied
    to the prediction (pivot at each tooth's current centroid): the
    direction a further correction would move each of the 7 parameters.
    """
    value = 0.0
    grads: dict[int, np.ndarray] = {}
    identity_q = np.array([1.0, 0.0, 0.0, 0.0])
    zero_t = np.zeros(3)
    for a, b in paired_moved(pred_case, gt_case):
        v, g = _recon_tooth(a.points, b.points, identity_q, zero_t, a.centroid())
        value += v
        grads[a.id] = g
    return value, grads


# ------------------------------------------------------- transform losses

def enhancement_weights(
    gt_transforms: dict[int, RigidTransform],
    weights: LossWeights | None = None,
) -> dict[int, tuple[float, float]]:
    """Per-tooth (zeta_rotate, zeta_trans) in [0, 1].

    Larger ground-truth corrections get weights closer to 1 so severe
    misalignments dominate.
    """
    w = weights or LossWeights()
    out = {}
    for tid, t in gt_transforms.items():
        zr = min(t.angle() / w.max_angle, 1.0)
        zt = min(float(np.linalg.norm(t.translation)) / w.max_translation, 1.0)
        out[tid] = (zr, zt)
    return out


def rot_trans_loss(
    pred_transforms: dict[int, RigidTransform],
    gt_transforms: dict[int, RigidTransform],
    weights: LossWeights | None = None,
    zeta: dict[int, tuple[float, float]] | None = None,
) -> tuple[float, float, float, dict[int, np.ndarray]]:
    """L1 quaternion and translation losses with enhancement factors.

    Returns ``(l_rotate, l_trans, l_val, gradients)`` where l_val =
    omega * l_rotate + l_trans and the gradient of l_val is taken with
    respect to each predicted tooth's 7 parameters. ``zeta=None`` is
    test mode: every enhancement factor is 1.0.
    """
    w = weights or LossWeights()
    check_paired_ids("transform tooth", pred_transforms, gt_transforms)
    l_rotate = 0.0
    l_trans = 0.0
    grads: dict[int, np.ndarray] = {}
    for tid in sorted(pred_transforms):
        tp, tg = pred_transforms[tid], gt_transforms[tid]
        zr, zt = (1.0, 1.0) if zeta is None else zeta[tid]
        dq = tp.rotation - tg.rotation
        dt = tp.translation - tg.translation
        l_rotate += float(np.abs(dq).sum()) * (1.0 + zr)
        l_trans += float(np.abs(dt).sum()) * (1.0 + zt)
        g = np.empty(7)
        g[:4] = w.omega * np.sign(dq) * (1.0 + zr)
        g[4:] = np.sign(dt) * (1.0 + zt)
        grads[tid] = g
    return l_rotate, l_trans, w.omega * l_rotate + l_trans, grads


# -------------------------------------------------------- occlusal masks

def _xy_boxes(teeth) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Each tooth's projected (xy) bounding box, by id."""
    return {t.id: (t.points[:, :2].min(axis=0), t.points[:, :2].max(axis=0)) for t in teeth}


def opposing_region(
    tooth: Tooth, opposing_jaw: Jaw, tau: float = LossWeights.tau, boxes: dict | None = None
) -> list[Tooth]:
    """Opposing-jaw teeth whose tau-dilated projected boxes meet the
    tooth's projected box. Never misses a tooth holding a point within
    tau of the tooth's projection. ``boxes`` holds the projected boxes
    of the case's teeth when the caller has them (see _xy_boxes)."""
    teeth = opposing_jaw.present_teeth()
    if boxes is None:
        boxes = _xy_boxes([tooth, *teeth])
    a_lo, a_hi = boxes[tooth.id]
    region = []
    for other in teeth:
        b_lo, b_hi = boxes[other.id]
        if np.all(a_lo - tau <= b_hi + tau) and np.all(b_lo - tau <= a_hi + tau):
            region.append(other)
    return region


def occlusal_overlap_mask(
    tooth: Tooth, region: list[Tooth], tau: float = LossWeights.tau, contacts: dict | None = None
) -> np.ndarray:
    """Binary flags: a tooth point is set iff its projected distance to
    the opposing region is strictly below tau. Empty region: all zero.

    For a nonempty region, a ``contacts`` dict also receives, under the
    tooth's id, ``(flags, region points, region flags)``: the region
    flags mark the region points within tau of the tooth's projection.
    """
    if not region:
        return np.zeros(tooth.points.shape[0], dtype=bool)
    b = np.concatenate([t.points for t in region])
    mask_t, mask_b, _ = interlock_masks(AabbTree(tooth.points[:, :2]), AabbTree(b[:, :2]), tau)
    if contacts is not None:
        contacts[tooth.id] = (mask_t, b, mask_b)
    return mask_t


def occlusal_contacts(case: Case, tau: float = LossWeights.tau) -> dict[int, tuple]:
    """The contacts (see occlusal_overlap_mask) of every moved tooth of
    the case whose opposing region is nonempty, from one projected box
    per tooth. overlap_consistency_loss and posterior_uniformity_loss
    share them."""
    boxes = _xy_boxes(case.present_teeth())
    contacts: dict[int, tuple] = {}
    for tooth in moved_teeth(case):
        region = opposing_region(tooth, case.opposing_jaw(jaw_of_id(tooth.id)), tau, boxes)
        occlusal_overlap_mask(tooth, region, tau, contacts)
    return contacts


def overlap_consistency_loss(
    pred_case: Case, gt_case: Case, tau: float = LossWeights.tau, pred_contacts: dict | None = None
) -> float:
    """Average Hamming distance between predicted and target overlap
    masks, over moved teeth whose opposing region is nonempty in either
    case; 0.0 when no tooth qualifies. ``pred_contacts`` are the
    prediction's occlusal_contacts when the caller has them."""
    pairs = paired_moved(pred_case, gt_case)
    if pred_contacts is None:
        pred_contacts = occlusal_contacts(pred_case, tau)
    gt_contacts = occlusal_contacts(gt_case, tau)
    hams = []
    for a, b in pairs:
        if a.id not in pred_contacts and b.id not in gt_contacts:
            continue
        none = (np.zeros(a.points.shape[0], dtype=bool),)
        mask_a = pred_contacts.get(a.id, none)[0]
        mask_b = gt_contacts.get(b.id, none)[0]
        hams.append(float(np.count_nonzero(mask_a != mask_b)))
    return float(np.mean(hams)) if hams else 0.0


# ------------------------------------------------------ uniformity losses

def posterior_uniformity_loss(
    pred_case: Case, tau: float = LossWeights.tau, contacts: dict | None = None
) -> float:
    """Sum over posterior teeth of the population variance of in-mask
    occlusal contact distances.

    For each posterior tooth, take its points flagged by the overlap
    mask and the opposing-region points flagged by the reciprocal mask;
    the statistic is the variance of each flagged tooth point's nearest
    3D distance into the flagged region points. Teeth with fewer than
    two flagged points contribute 0. This term regularizes the
    prediction itself: it vanishes at ground truth only when the target
    contacts are themselves uniform or degenerate. ``contacts`` are the
    case's occlusal_contacts when the caller has them.
    """
    if contacts is None:
        contacts = occlusal_contacts(pred_case, tau)
    value = 0.0
    for tooth in moved_teeth(pred_case):
        if tooth.id in ANTERIOR_IDS or tooth.id not in contacts:
            continue
        mask_t, b, mask_b = contacts[tooth.id]
        if np.count_nonzero(mask_t) < 2:
            continue
        d = nearest_distances(tooth.points[mask_t], AabbTree(b[mask_b]))
        value += float(d.var())  # population variance
    return value


def _incisal_peak(tooth: Tooth) -> np.ndarray:
    """Extreme point along the occlusal direction: max z for lower
    teeth, min z for upper teeth."""
    z = tooth.points[:, 2]
    idx = int(np.argmax(z)) if jaw_of_id(tooth.id) == "lower" else int(np.argmin(z))
    return tooth.points[idx]


def anterior_uniformity_parts(
    pred_case: Case, gt_case: Case, omega_ant: float = LossWeights.omega_anterior
) -> tuple[float, float, float]:
    """(total, positional part, angular part) of the anterior term.

    Positional part: centroid offset plus incisal-peak offset per tooth.
    Angular part: the angle between the pred and target tooth axes
    (centroid to peak), via a clamped arccos.
    """
    l_pos = 0.0
    l_ang = 0.0
    for a, b in paired_moved(pred_case, gt_case):
        if a.id not in ANTERIOR_IDS:
            continue
        ca, cb = a.centroid(), b.centroid()
        pa, pb = _incisal_peak(a), _incisal_peak(b)
        va, vb = pa - ca, pb - cb
        na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
        if na < 1e-12 or nb < 1e-12:
            raise DegenerateAxis(f"tooth {a.id}: incisal peak coincides with centroid")
        l_pos += float(np.linalg.norm(ca - cb)) + float(np.linalg.norm(pa - pb))
        if np.array_equal(va, vb):
            continue  # arccos(~1) would leak ~1e-8 for identical axes
        dot = float(np.clip(va @ vb / (na * nb), -1.0, 1.0))
        l_ang += float(np.arccos(dot))
    return l_pos + omega_ant * l_ang, l_pos, l_ang


# ------------------------------------------------------------- total loss

def total_loss(
    pred_case: Case,
    gt_case: Case,
    weights: LossWeights | None = None,
    test_mode: bool = False,
) -> LossBreakdown:
    """Full weighted loss between an assembled prediction and target.

    Transform-space terms use the prediction as the baseline: the
    predicted transform is the identity and the target transform is the
    recovered residual correction. In train mode (default) enhancement
    factors derive from those residuals; ``test_mode`` pins them to 1.
    """
    w = weights or LossWeights()
    l_recon, g_recon = recon_loss(pred_case, gt_case)
    gt_t = residual_transforms(pred_case, gt_case)
    pred_t = {tid: RigidTransform.identity() for tid in gt_t}
    zeta = None if test_mode else enhancement_weights(gt_t, w)
    l_rotate, l_trans, l_val, g_val = rot_trans_loss(pred_t, gt_t, w, zeta)
    contacts = occlusal_contacts(pred_case, w.tau)
    l_fit = overlap_consistency_loss(pred_case, gt_case, w.tau, contacts)
    ant, _, _ = anterior_uniformity_parts(pred_case, gt_case, w.omega_anterior)
    pior = posterior_uniformity_loss(pred_case, w.tau, contacts)
    l_uni = ant + w.w_posterior * pior
    d0, d1, d2, d3 = w.delta
    total = d0 * l_recon + d1 * l_fit + d2 * l_uni + d3 * l_val
    return LossBreakdown(
        l_recon=l_recon,
        l_rotate=l_rotate,
        l_trans=l_trans,
        l_val=l_val,
        l_fit=l_fit,
        l_uni_ant=ant,
        l_uni_pior=pior,
        l_uni=l_uni,
        total=total,
        gradients={"recon": g_recon, "val": g_val},
    )

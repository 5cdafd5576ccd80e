"""Output checks computed apart from the program.

Nothing here calls toothalign: every quantity is recomputed from raw
point arrays with numpy and scipy.spatial.cKDTree, the same way
tests/oracles.py does. Each check returns a list of problem strings;
an empty list means the output passed.

A jaw is passed as a list of ``Crown`` records, which callers build
either from in-memory cases or from case JSON documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

GAP_MAX_MM = 2.35
ARCH_DIST_MAX_MM = 2.2
ROT_MAX_DEG = 10.0
RIGID_TOL_MM = 1e-9
TAU_MM = 0.07
ARCH_SAMPLES_PER_SEGMENT = 2048  # vertex spacing ~3 um: distance error < 1e-6 mm
ARCH_TOL_MM = 1e-5
REL_TOL = 1e-9

SCHEMAS = {
    "gen": "manifest",
    "sample": "manifest",
    "serialize": "tooth_point_image",
    "arch export": "arch_polyline",
    "augment": "augment_report",
    "loss": "loss_breakdown",
    "forward": "transforms",
    "eval": "eval_report",
    "iterate": "iterate_report",
}


@dataclass(frozen=True)
class Crown:
    id: int
    points: np.ndarray
    gt_points: np.ndarray | None
    radius: float
    moved: bool = True


def jaws_of_case(case) -> dict[str, list[Crown]]:
    """Present crowns per jaw of an in-memory case, ascending id."""
    return {
        side: [
            Crown(t.id, t.points, t.gt_points, t.proxy_radius, t.moved)
            for t in sorted(getattr(case, side).teeth, key=lambda t: t.id)
            if t.present
        ]
        for side in ("upper", "lower")
    }


def jaws_of_doc(doc: dict) -> dict[str, list[Crown]]:
    """Present crowns per jaw of a parsed case JSON document."""
    out = {}
    for side in ("upper", "lower"):
        crowns = []
        for t in sorted(doc[side], key=lambda t: t["id"]):
            if not t.get("present", True):
                continue
            gt = t.get("gt_points")
            crowns.append(
                Crown(
                    t["id"],
                    np.asarray(t["points"], dtype=float),
                    None if gt is None else np.asarray(gt, dtype=float),
                    float(t.get("proxy_radius", 0.25)),
                    bool(t.get("moved", True)),
                )
            )
        out[side] = crowns
    return out


def load_doc(path) -> dict:
    return json.loads(Path(path).read_text())


# ------------------------------------------------------------ geometry


def min_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(cKDTree(b).query(a)[0].min())


def proper_rotation(src: np.ndarray, dst: np.ndarray) -> tuple[float, float]:
    """(angle in degrees, det) of the least-squares rotation src -> dst,
    by SVD of the centred cross-covariance."""
    h = (src - src.mean(axis=0)).T @ (dst - dst.mean(axis=0))
    u, _, vt = np.linalg.svd(h)
    det = float(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, np.sign(det)]) @ u.T
    cos = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos))), det


def hermite_arch(centers: np.ndarray, per_segment: int = ARCH_SAMPLES_PER_SEGMENT) -> np.ndarray:
    """Dense samples of the Catmull-Rom curve through ``centers``: one
    cubic Hermite piece per unit parameter interval, end tangents by
    one-sided differences."""
    c = np.asarray(centers, dtype=float)
    m = np.empty_like(c)
    m[0] = c[1] - c[0]
    m[-1] = c[-1] - c[-2]
    m[1:-1] = 0.5 * (c[2:] - c[:-2])
    s = np.linspace(0.0, 1.0, per_segment, endpoint=False)[:, None]
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    pieces = [h00 * c[i] + h10 * m[i] + h01 * c[i + 1] + h11 * m[i + 1] for i in range(len(c) - 1)]
    return np.concatenate(pieces + [c[-1:]])


def xy_mask(points: np.ndarray, region: np.ndarray, tau: float = TAU_MM) -> np.ndarray:
    """Points whose projected distance to the region is below tau."""
    if region.shape[0] == 0:
        return np.zeros(points.shape[0], dtype=bool)
    d, _ = cKDTree(region[:, :2]).query(points[:, :2])
    return d < tau


def _boxes_meet(a: np.ndarray, b: np.ndarray, tau: float) -> bool:
    a_lo, a_hi = a[:, :2].min(axis=0), a[:, :2].max(axis=0)
    b_lo, b_hi = b[:, :2].min(axis=0), b[:, :2].max(axis=0)
    return bool(np.all(a_lo - tau <= b_hi + tau) and np.all(b_lo - tau <= a_hi + tau))


def _region(crown: Crown, opposing: list[Crown], tau: float) -> np.ndarray:
    """Points of the opposing crowns whose tau-dilated projected boxes
    meet the crown's box (the loss's opposing region)."""
    hits = [o.points for o in opposing if _boxes_meet(crown.points, o.points, tau)]
    return np.concatenate(hits) if hits else np.zeros((0, 3))


def _close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ------------------------------------------------------------- augment


def check_constrained(gt_jaws: dict, out_jaws: dict) -> list[str]:
    """Constrained augmentation output against the paper's constraints:
    no proxy collision, adjacent gaps, centroid-to-target-arch distance,
    rotation bound, and targets passed through bit-identical."""
    problems = []
    for side, crowns in out_jaws.items():
        inputs = {c.id: c for c in gt_jaws[side]}
        if [c.id for c in crowns] != sorted(inputs):
            problems.append(f"{side}: present teeth changed")
            continue
        trees = [cKDTree(c.points) for c in crowns]
        for i, a in enumerate(crowns):
            for j in range(i + 1, len(crowns)):
                b = crowns[j]
                r = a.radius + b.radius
                d, _ = trees[j].query(a.points, distance_upper_bound=r)
                if (d < r).any():
                    problems.append(f"{side}: teeth {a.id}-{b.id} collide")
        for a, b in zip(crowns, crowns[1:]):
            gap = min_distance(a.points, b.points)
            if gap > GAP_MAX_MM + 1e-9:
                problems.append(f"{side}: gap {a.id}-{b.id} is {gap:.4f} mm")
        arch = cKDTree(hermite_arch(np.array([inputs[c.id].gt_points.mean(axis=0) for c in crowns])))
        for c in crowns:
            if c.gt_points is None or not np.array_equal(c.gt_points, inputs[c.id].gt_points):
                problems.append(f"{side}: tooth {c.id} gt_points changed")
                continue
            dist = float(arch.query(c.points.mean(axis=0))[0])
            if dist > ARCH_DIST_MAX_MM + ARCH_TOL_MM:
                problems.append(f"{side}: tooth {c.id} is {dist:.6f} mm off the target arch")
            angle, det = proper_rotation(c.gt_points, c.points)
            if angle > ROT_MAX_DEG + 1e-6 or det <= 0:
                problems.append(f"{side}: tooth {c.id} rotated {angle:.4f} deg")
    return problems


def check_rigid(before: dict, after: dict, label: str, static_fixed: bool = True) -> list[str]:
    """Every crown of ``after`` is a proper rigid motion of the same crown
    in ``before``, and its target is untouched. With ``static_fixed``,
    crowns marked static must not move at all."""
    problems = []
    for side, crowns in after.items():
        inputs = {c.id: c for c in before[side]}
        for c in crowns:
            src = inputs.get(c.id)
            if src is None or src.points.shape != c.points.shape:
                problems.append(f"{label} {side}: tooth {c.id} does not match its input")
                continue
            if not _same(src.gt_points, c.gt_points):
                problems.append(f"{label} {side}: tooth {c.id} gt_points changed")
            if static_fixed and not src.moved:
                if not np.array_equal(src.points, c.points):
                    problems.append(f"{label} {side}: static tooth {c.id} moved")
                continue
            drift = float(np.abs(pdist(src.points) - pdist(c.points)).max())
            _, det = proper_rotation(src.points, c.points)
            if drift > RIGID_TOL_MM or det <= 0:
                problems.append(f"{label} {side}: tooth {c.id} not rigid (drift {drift:.2e})")
    return problems


def _same(a, b) -> bool:
    return (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))


# --------------------------------------------------------------- align


def occlusal_terms(pred: dict, gt: dict, tau: float = TAU_MM) -> tuple[float, int]:
    """(l_fit, flagged target points): mean Hamming distance of the
    predicted and target overlap masks over moved teeth whose opposing
    region is nonempty in either case."""
    opposite = {"upper": "lower", "lower": "upper"}
    hams = []
    flagged = 0
    for side in ("upper", "lower"):
        gt_by_id = {c.id: c for c in gt[side]}
        for a in pred[side]:
            b = gt_by_id[a.id]
            if not (a.moved and b.moved):
                continue
            ra = _region(a, pred[opposite[side]], tau)
            rb = _region(b, gt[opposite[side]], tau)
            mask_b = xy_mask(b.points, rb, tau)
            flagged += int(mask_b.sum())
            if ra.shape[0] == 0 and rb.shape[0] == 0:
                continue
            hams.append(float(np.count_nonzero(xy_mask(a.points, ra, tau) != mask_b)))
    return (float(np.mean(hams)) if hams else 0.0), flagged


def recon(pred: dict, gt: dict) -> float:
    """Sum over moved teeth of squared point offsets plus the squared
    centroid offset."""
    total = 0.0
    for side in ("upper", "lower"):
        gt_by_id = {c.id: c for c in gt[side]}
        for a in pred[side]:
            if not a.moved:
                continue
            b = gt_by_id[a.id].points
            d = a.points - b
            dc = a.points.mean(axis=0) - b.mean(axis=0)
            total += float((d * d).sum() + dc @ dc)
    return total


def add_and_auc(pred: dict, gt: dict, k: float = 5.0) -> tuple[float, float]:
    """ADD as the mean corresponding-point distance over every present
    tooth, and AUC as the integral over [0, k] of the empirical distance
    CDF, divided by k."""
    d = np.concatenate(
        [
            np.linalg.norm(a.points - b.points, axis=1)
            for side in ("upper", "lower")
            for a, b in zip(pred[side], gt[side])
        ]
    )
    steps = np.sort(d)
    cdf = np.arange(1, steps.size + 1) / steps.size
    edges = np.minimum(np.append(steps[1:], k), k)
    area = float((cdf * np.maximum(edges - steps, 0.0))[steps < k].sum())
    return float(d.mean()), area / k


def check_align(inp: dict, pred: dict, gt: dict, breakdown: dict, report: dict) -> list[str]:
    """Prediction, loss breakdown and evaluation report of one case."""
    problems = check_rigid(inp, pred, "prediction")
    want = recon(pred, gt)
    if not _close(breakdown["l_recon"], want):
        problems.append(f"l_recon {breakdown['l_recon']!r} != {want!r}")
    fit, flagged = occlusal_terms(pred, gt)
    if not _close(breakdown["l_fit"], fit):
        problems.append(f"l_fit {breakdown['l_fit']!r} != {fit!r}")
    if flagged == 0:
        problems.append("no occlusal point is flagged on the target")
    if not breakdown["l_uni_pior"] > 0.0:
        problems.append("l_uni_pior is 0: the case exercises no occlusal contact")
    add, area = add_and_auc(pred, gt, report["k_mm"])
    row = report["cases"][0]
    if not (_close(row["add_mm"], add) and _close(report["add_mm"], add)):
        problems.append(f"ADD {row['add_mm']!r} != {add!r}")
    if not (_close(row["auc"], area) and _close(report["auc"], area)):
        problems.append(f"AUC {row['auc']!r} != {area!r}")
    return problems


# ----------------------------------------------------------------- cli


def check_schema(name: str, payload, schema_dir: Path) -> list[str]:
    import jsonschema

    schema = json.loads((schema_dir / f"{SCHEMAS[name]}.schema.json").read_text())
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return [f"{name}: stdout breaks {SCHEMAS[name]} schema: {exc.message}"]
    return []


def check_serialized(payload: dict, case: dict) -> list[str]:
    """Each present row is a permutation of its tooth's points."""
    problems = []
    crowns = {c.id: c for crowns in case.values() for c in crowns}
    for row, present in enumerate(payload["presence"]):
        tooth = crowns.get(row + 1)
        if present != (tooth is not None):
            problems.append(f"serialize: presence of row {row} is wrong")
        elif tooth is not None and not _same_rows(np.asarray(payload["data"][row]), tooth.points):
            problems.append(f"serialize: row {row} is not a permutation of tooth {row + 1}")
    return problems


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    return np.array_equal(a[np.lexsort(a.T)], b[np.lexsort(b.T)])


def check_sampled(sampled: dict, case: dict, n: int) -> list[str]:
    """Each sampled tooth holds n distinct points of its input tooth."""
    problems = []
    for side in ("upper", "lower"):
        inputs = {c.id: c for c in case[side]}
        for c in sampled[side]:
            pool = {tuple(p) for p in inputs[c.id].points.tolist()}
            rows = [tuple(p) for p in c.points.tolist()]
            if len(rows) != n or len(set(rows)) != n or not set(rows) <= pool:
                problems.append(f"sample: tooth {c.id} is not {n} distinct input points")
    return problems


def check_unit_quaternions(payload: dict) -> list[str]:
    """Every predicted rotation in ``forward``'s stdout is a unit quaternion."""
    return [
        f"forward: tooth {tid} quaternion has norm {float(np.linalg.norm(t['rotation']))!r}"
        for tid, t in payload["transforms"].items()
        if abs(np.linalg.norm(t["rotation"]) - 1.0) > 1e-12
    ]


def check_self_eval(report: dict) -> list[str]:
    if report["add_mm"] != 0.0 or report["auc"] != 1.0:
        return [f"eval of a directory against itself gave ADD {report['add_mm']}, AUC {report['auc']}"]
    return []

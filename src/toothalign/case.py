"""Mouth cases: teeth, jaws, schema-validated JSON I/O, and the 32x512x3
tooth point image the network consumes.

Universal numbering is used throughout: ids 1..16 belong to the upper jaw
and 17..32 to the lower jaw, each running anatomically along its arch.
Coordinates are millimetres, each within +-1000 mm, with the occlusal
plane at z = 0; the lower jaw points its crowns toward +z and the upper
jaw toward -z.

A case file (extension ``.case.json``) looks like::

    {"id": "case-1", "upper": [tooth, ...], "lower": [tooth, ...]}

with each tooth::

    {"id": 3, "present": true, "moved": true, "proxy_radius": 0.25,
     "points": [[x, y, z], ...], "gt_points": [[x, y, z], ...]}

``points`` holds the current (usually pre-orthodontic) cloud; the optional
``gt_points`` holds the target cloud in index-wise correspondence.
Floats round-trip bit-exactly through JSON.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    CorrespondenceMismatch,
    DuplicateTooth,
    SchemaViolation,
    TransformForAbsentTooth,
    ValidationError,
    WrongPointCount,
)
from .geometry import RigidTransform, centroid

POINT_COUNT = 512
MAX_COORD_MM = 1000.0  # coordinate bound: ten jaw widths, far from float32 or squared overflow
NORM_SCALE_MM = 40.0  # fixed divisor when feeding coordinates to the network
UPPER_IDS = range(1, 17)
LOWER_IDS = range(17, 33)
# Incisors and canines; everything else counts as posterior.
ANTERIOR_IDS = frozenset(range(6, 12)) | frozenset(range(22, 28))
ORDERING_MODES = ("arch_line", "local_z", "center_distance", "random")


def jaw_of_id(tooth_id: int) -> str:
    return "upper" if tooth_id <= 16 else "lower"


def midline(tooth_id: int) -> float:
    """The midline of the tooth's jaw, in id units: it sits between the
    two central incisors (ids 8|9 upper, 24|25 lower)."""
    return 8.5 if tooth_id <= 16 else 24.5


def midline_offset(tooth_id: int) -> float:
    """Anatomical distance from the jaw midline, in tooth positions:
    the central incisors score 0.5 and third molars 7.5."""
    return abs(tooth_id - midline(tooth_id))


@dataclass
class Tooth:
    id: int
    present: bool = True
    moved: bool = True
    points: np.ndarray | None = None
    gt_points: np.ndarray | None = None
    proxy_radius: float = 0.25

    def centroid(self) -> np.ndarray:
        return centroid(self.points)

    def gt_centroid(self) -> np.ndarray:
        return centroid(self.gt_points)

    def copy(self) -> "Tooth":
        return replace(
            self,
            points=None if self.points is None else self.points.copy(),
            gt_points=None if self.gt_points is None else self.gt_points.copy(),
        )


@dataclass
class Jaw:
    side: str  # "upper" | "lower"
    teeth: list[Tooth] = field(default_factory=list)

    def present_teeth(self) -> list[Tooth]:
        return [t for t in self.teeth if t.present]

    def get(self, tooth_id: int) -> Tooth | None:
        for t in self.teeth:
            if t.id == tooth_id:
                return t
        return None

    def copy(self) -> "Jaw":
        return Jaw(self.side, [t.copy() for t in self.teeth])


@dataclass
class Case:
    id: str
    upper: Jaw
    lower: Jaw

    def jaw(self, side: str) -> Jaw:
        if side == "upper":
            return self.upper
        if side == "lower":
            return self.lower
        raise ValueError(f"unknown side {side!r}")

    def opposing_jaw(self, side: str) -> Jaw:
        return self.lower if side == "upper" else self.upper

    def all_teeth(self) -> list[Tooth]:
        return list(self.upper.teeth) + list(self.lower.teeth)

    def present_teeth(self) -> list[Tooth]:
        return [t for t in self.all_teeth() if t.present]

    def tooth(self, tooth_id: int) -> Tooth | None:
        return self.jaw(jaw_of_id(tooth_id)).get(tooth_id)

    def mouth_center(self) -> np.ndarray:
        pts = np.concatenate([t.points for t in self.present_teeth()])
        return centroid(pts)

    def copy(self) -> "Case":
        return Case(self.id, self.upper.copy(), self.lower.copy())


# ------------------------------------------------------------------ schema

def is_finite_number(value) -> bool:
    """A finite JSON number that fits a float; bool is not one."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _check_points(raw, path: str, expected: int | None, tid: int) -> np.ndarray:
    if not isinstance(raw, list):
        raise SchemaViolation("points must be a list of [x, y, z]", path)
    if expected is not None and len(raw) != expected:
        raise WrongPointCount(f"expected {expected} points, found {len(raw)}", path)
    if len(raw) == 0:
        raise WrongPointCount("present tooth has no points", path)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, nested, non-numeric, huge
        arr = np.empty(0)
    # asarray also takes bools, numeric strings and null (as NaN), so the
    # element types are checked as well
    if not (
        arr.ndim == 2
        and arr.shape[1] == 3
        and np.isfinite(arr).all()
        and {type(v) for p in raw for v in p} <= {int, float}
    ):
        raise SchemaViolation("each point must be a list of 3 finite numbers", path)
    far = np.abs(arr) > MAX_COORD_MM
    if far.any():
        value = arr.flat[far.argmax()]
        raise SchemaViolation(
            f"tooth {tid} has coordinate {value:.6g} mm, outside [-{MAX_COORD_MM:g}, {MAX_COORD_MM:g}] mm", path
        )
    return arr


def _tooth_from_dict(raw: dict, side: str, index: int, expected: int | None) -> Tooth:
    path = f"{side}[{index}]"
    if not isinstance(raw, dict):
        raise SchemaViolation("tooth must be an object", path)
    unknown = set(raw) - {"id", "present", "moved", "points", "gt_points", "proxy_radius"}
    if unknown:
        raise SchemaViolation(f"unknown fields {sorted(unknown)}", path)
    if "id" not in raw or not isinstance(raw["id"], int) or isinstance(raw["id"], bool):
        raise SchemaViolation("id must be an integer", path)
    tid = raw["id"]
    valid = UPPER_IDS if side == "upper" else LOWER_IDS
    if tid not in valid:
        raise SchemaViolation(f"id {tid} outside the {side} range {valid}", path)
    present = raw.get("present", True)
    moved = raw.get("moved", True)
    if not isinstance(present, bool) or not isinstance(moved, bool):
        raise SchemaViolation("present/moved must be booleans", path)
    radius = raw.get("proxy_radius", 0.25)
    if not is_finite_number(radius) or radius <= 0:
        raise SchemaViolation("proxy_radius must be a positive finite number", path)
    radius = float(radius)
    points = gt_points = None
    if present:
        if "points" not in raw:
            raise SchemaViolation("present tooth requires points", path)
        points = _check_points(raw["points"], f"{path}.points", expected, tid)
        if raw.get("gt_points") is not None:
            gt_points = _check_points(raw["gt_points"], f"{path}.gt_points", expected, tid)
            if gt_points.shape != points.shape:
                raise CorrespondenceMismatch(
                    f"{path}: gt_points and points must correspond index-wise"
                )
    else:
        # an absent tooth may omit its clouds or leave them null or empty
        if any(raw.get(key) not in (None, []) for key in ("points", "gt_points")):
            raise SchemaViolation("absent tooth must not carry points", path)
    return Tooth(tid, present, moved, points, gt_points, radius)


def case_from_dict(raw: dict, expected_points: int | None = POINT_COUNT) -> Case:
    """Build and validate a Case from a parsed JSON document."""
    if not isinstance(raw, dict):
        raise SchemaViolation("case must be an object")
    unknown = set(raw) - {"id", "upper", "lower"}
    if unknown:
        raise SchemaViolation(f"unknown fields {sorted(unknown)}")
    if not isinstance(raw.get("id"), str) or not raw["id"]:
        raise SchemaViolation("id must be a nonempty string", "id")
    jaws = {}
    for side in ("upper", "lower"):
        items = raw.get(side)
        if not isinstance(items, list):
            raise SchemaViolation("jaw must be a list of teeth", side)
        teeth = [_tooth_from_dict(t, side, i, expected_points) for i, t in enumerate(items)]
        seen: set[int] = set()
        for t in teeth:
            if t.id in seen:
                raise DuplicateTooth(f"tooth {t.id} appears twice", side)
            seen.add(t.id)
        teeth.sort(key=lambda t: t.id)
        if not any(t.present for t in teeth):
            raise SchemaViolation("jaw needs at least one present tooth", side)
        jaws[side] = Jaw(side, teeth)
    return Case(raw["id"], jaws["upper"], jaws["lower"])


def case_to_dict(case: Case) -> dict:
    out: dict = {"id": case.id, "upper": [], "lower": []}
    for side in ("upper", "lower"):
        for t in sorted(case.jaw(side).teeth, key=lambda t: t.id):
            d: dict = {
                "id": t.id,
                "present": bool(t.present),
                "moved": bool(t.moved),
                "proxy_radius": float(t.proxy_radius),
            }
            if t.present:
                d["points"] = t.points.tolist()
                if t.gt_points is not None:
                    d["gt_points"] = t.gt_points.tolist()
            out[side].append(d)
    return out


def dumps_json(doc) -> str:
    """Deterministic JSON encoding used for every file this package writes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_case(path, expected_points: int | None = POINT_COUNT) -> Case:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read case file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge integer, deep nesting
        raise SchemaViolation(f"invalid JSON: {exc}") from exc
    return case_from_dict(raw, expected_points)


def save_case(case: Case, path, expected_points: int | None = POINT_COUNT) -> None:
    """Writes the case after the schema checks a load would run; an
    invalid case raises and writes nothing."""
    doc = case_to_dict(case)
    case_from_dict(doc, expected_points)
    write_text(path, dumps_json(doc))


def write_text(path, text: str) -> None:
    """Writes an output file; a path that cannot be written raises a
    ValidationError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


# -------------------------------------------------------- point orderings

def order_local_z(tooth: Tooth) -> np.ndarray:
    """Indices sorting points by descending z; ties keep input order."""
    z = tooth.points[:, 2]
    return np.argsort(-z, kind="stable")


def order_center_distance(tooth: Tooth, mouth_center) -> np.ndarray:
    """Indices sorting points by ascending distance to the mouth center."""
    d = np.linalg.norm(tooth.points - np.asarray(mouth_center, dtype=float), axis=1)
    return np.argsort(d, kind="stable")


def order_random(tooth: Tooth, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(tooth.points.shape[0])


# ----------------------------------------------------- tooth point image

@dataclass
class ToothPointImage:
    """Dense 32 x N x 3 stack of per-tooth clouds plus a presence mask.

    Row r holds tooth id r + 1; absent teeth are all-zero rows with
    ``presence[r] == False``.
    """

    data: np.ndarray  # (32, N, 3)
    presence: np.ndarray  # (32,) bool


def build_tooth_point_image(
    case: Case, ordering: str = "arch_line", seed: int | None = None
) -> ToothPointImage:
    """Stack each present tooth's points, permuted by the chosen ordering.

    The ``arch_line`` ordering fits each jaw's arch line to the case
    (TooFewTeeth when a jaw has fewer than two present teeth). ``seed``
    is required for ``random``. Apart from the random mode, the image is
    invariant to the order in which a tooth's points were stored.
    """
    if ordering not in ORDERING_MODES:
        raise ValueError(f"unknown ordering {ordering!r}; pick one of {ORDERING_MODES}")
    if ordering == "random" and seed is None:
        raise ValueError("random ordering requires a seed")

    from .arch import fit_case_arches, serialize_points  # local import to avoid a cycle

    arches = fit_case_arches(case) if ordering == "arch_line" else None
    present = case.present_teeth()
    n = present[0].points.shape[0] if present else POINT_COUNT
    data = np.zeros((32, n, 3))
    mask = np.zeros(32, dtype=bool)
    mouth = case.mouth_center() if ordering == "center_distance" else None

    for tooth in present:
        if tooth.points.shape[0] != n:
            raise CorrespondenceMismatch("all present teeth must share one point count")
        if ordering == "arch_line":
            perm = serialize_points(tooth, arches[jaw_of_id(tooth.id)])
        elif ordering == "local_z":
            perm = order_local_z(tooth)
        elif ordering == "center_distance":
            perm = order_center_distance(tooth, mouth)
        else:
            perm = order_random(tooth, seed)
        row = tooth.id - 1
        data[row] = tooth.points[perm]
        mask[row] = True
    return ToothPointImage(data, mask)


def tooth_centers(case: Case) -> np.ndarray:
    """(32, 3) array of present-tooth centroids; absent rows are zero."""
    centers = np.zeros((32, 3))
    for t in case.present_teeth():
        centers[t.id - 1] = t.centroid()
    return centers


# ------------------------------------------------------------- assembler

def tooth_assembler(case: Case, transforms: dict[int, RigidTransform]) -> Case:
    """Apply per-tooth rigid transforms and rebuild the case.

    Transforms must cover every present, moved tooth. Static teeth are
    left untouched even if a transform is supplied for them, and absent
    teeth may not receive one.
    """
    for tid in transforms:
        t = case.tooth(tid)
        if t is None or not t.present:
            raise TransformForAbsentTooth(f"transform given for absent tooth {tid}")
    out = case.copy()
    for tooth in out.all_teeth():
        if not tooth.present or not tooth.moved:
            continue
        if tooth.id not in transforms:
            raise CorrespondenceMismatch(f"no transform for moved tooth {tooth.id}")
        tooth.points = transforms[tooth.id].apply(tooth.points)
    return out

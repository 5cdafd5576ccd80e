"""Rigid-body primitives shared by the whole pipeline.

Quaternions are stored as ``(w, x, y, z)`` with unit norm and are
canonicalized so the first nonzero component is positive (in practice
``w >= 0``; the two antipodal quaternions encode the same rotation).
Transforms rotate about an explicit pivot point:

    apply(p) = R (p - pivot) + pivot + translation

All coordinates are millimetres.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCloud, EmptyCloud, InsufficientPoints, InvalidArgument

QUAT_ATOL = 1e-9


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
    return pts


def centroid(points) -> np.ndarray:
    """Arithmetic mean of a nonempty (n, 3) cloud."""
    pts = _as_points(points)
    if pts.shape[0] == 0:
        raise EmptyCloud("centroid of an empty cloud")
    return pts.mean(axis=0)


# ------------------------------------------------------------- quaternions

def quat_normalize(q) -> np.ndarray:
    """Scale to unit norm and canonicalize the sign.

    The canonical representative has w > 0; when w == 0 the first nonzero
    of (x, y, z) is made positive so every rotation has one encoding.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {q.shape}")
    n = float(np.linalg.norm(q))
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero quaternion")
    q = q / n
    for c in q:
        if c > 0.0:
            break
        if c < 0.0:
            q = -q
            break
    return q


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation of ``angle`` radians about ``axis``.

    The axis need not be unit length; a negative angle is folded into the
    opposite axis so the canonical form always has angle in [0, pi].
    """
    axis = np.asarray(axis, dtype=float)
    n = float(np.linalg.norm(axis))
    if n < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * float(angle)
    q = np.empty(4)
    q[0] = np.cos(half)
    q[1:] = np.sin(half) * (axis / n)
    return quat_normalize(q)


def quat_to_matrix(q) -> np.ndarray:
    """3x3 rotation matrix of a quaternion (normalized internally)."""
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(rot) -> np.ndarray:
    """Quaternion of a proper rotation matrix (Shepperd's branching)."""
    m = np.asarray(rot, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {m.shape}")
    t = np.trace(m)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def rotation_angle_between(qa, qb) -> float:
    """Geodesic angle in radians between two rotations; sign-insensitive.

    With qb signed so that qa . qb >= 0, |qa - qb| and |qa + qb| are
    2 sin and 2 cos of a quarter of the angle, so atan2 keeps the small
    angles that 2 acos(|qa . qb|) loses (it reads 1e-8 rad as 0)."""
    qa = quat_normalize(qa)
    qb = quat_normalize(qb)
    if float(np.dot(qa, qb)) < 0.0:
        qb = -qb
    return 4.0 * float(np.arctan2(np.linalg.norm(qa - qb), np.linalg.norm(qa + qb)))


# ---------------------------------------------------------------- transforms

@dataclass(frozen=True)
class RigidTransform:
    """Rotation about a pivot followed by a translation."""

    rotation: np.ndarray = field(default_factory=quat_identity)  # (w, x, y, z)
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pivot: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", quat_normalize(self.rotation))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))
        object.__setattr__(self, "pivot", np.asarray(self.pivot, dtype=float).reshape(3))

    @classmethod
    def identity(cls, pivot=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return cls(quat_identity(), np.zeros(3), np.asarray(pivot, dtype=float))

    def is_identity(self) -> bool:
        return (
            self.rotation[0] == 1.0
            and not self.rotation[1:].any()
            and not self.translation.any()
        )

    def apply(self, points) -> np.ndarray:
        pts = _as_points(points)
        if pts.shape[0] == 0:
            raise EmptyCloud("cannot transform an empty cloud")
        if self.is_identity():
            return pts.copy()
        rot = quat_to_matrix(self.rotation)
        return (pts - self.pivot) @ rot.T + self.pivot + self.translation

    def inverse(self) -> "RigidTransform":
        return RigidTransform(
            quat_conjugate(self.rotation),
            -self.translation,
            self.pivot + self.translation,
        )

    def angle(self) -> float:
        """Rotation angle in radians, in [0, pi]: 2 atan2(|v|, w) of the
        unit quaternion (w, v), which reads small angles exactly."""
        return 2.0 * float(np.arctan2(np.linalg.norm(self.rotation[1:]), self.rotation[0]))


def random_rigid(rng, max_angle: float, trans_mu: float, trans_sigma: float, pivot) -> RigidTransform:
    """Random displacement about ``pivot``: rotation angle uniform in
    +-max_angle radians about a uniformly random axis, translation
    components i.i.d. Normal(trans_mu, trans_sigma).

    The draws come in a fixed order (axis, angle, translation), so the
    same rng state gives the same transform. A zero angle gives the
    exact identity rotation.
    """
    axis = rng.normal(size=3)
    angle = rng.uniform(-max_angle, max_angle)
    trans = rng.normal(trans_mu, trans_sigma, size=3)
    rotation = quat_from_axis_angle(axis, angle) if angle else quat_identity()
    return RigidTransform(rotation, trans, pivot)


# -------------------------------------------------------- rigid registration

def kabsch_recover_many(src, dst) -> list[RigidTransform]:
    """Least-squares rigid transform mapping each ``src[k]`` onto
    ``dst[k]``, over two (k, n, 3) stacks.

    Points correspond index-wise. Each pivot is the source centroid, so
    for exact rigid pairs the residual is zero to machine precision. One
    stacked mean, product and SVD serve every row, with the arithmetic
    of a one-row stack. Equal clouds give the exact identity. Raises
    DegenerateCloud, ``row`` the first such row, for fewer than three
    points or (near-)collinear clouds, where the rotation is not unique.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 3 or src.shape[2] != 3:
        raise ValueError(f"expected a (k, n, 3) stack, got shape {src.shape}")
    if src.shape != dst.shape:
        raise ValueError(f"shape mismatch: {src.shape} vs {dst.shape}")
    if src.shape[1] < 3:
        raise DegenerateCloud("rigid registration needs at least 3 points")
    cs = src.mean(axis=1)
    cd = dst.mean(axis=1)
    same = (src == dst).all(axis=(1, 2))
    src, dst = src - cs[:, None], dst - cd[:, None]  # centred
    u, s, vt = np.linalg.svd(src.transpose(0, 2, 1) @ dst)
    # Collinear clouds leave rotation about the line unconstrained.
    scale = np.abs(src).max(axis=(1, 2)) * np.abs(dst).max(axis=(1, 2))
    flat = ~same & (s[:, 1] <= 1e-12 * np.maximum(scale, 1e-300))
    if flat.any():
        raise DegenerateCloud("cloud is collinear or has no spatial extent", row=int(flat.argmax()))
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    flip = np.zeros((len(s), 3, 3))
    flip[:, [0, 1, 2], [0, 1, 2]] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rot = v @ flip @ ut
    return [
        RigidTransform.identity(c) if eq else RigidTransform(quat_from_matrix(r), b - c, c)
        for eq, r, c, b in zip(same.tolist(), rot, cs, cd)
    ]


def kabsch_recover(src, dst) -> RigidTransform:
    """kabsch_recover_many of one (n, 3) cloud pair: the one-row call."""
    return kabsch_recover_many(_as_points(src)[None], _as_points(dst)[None])[0]


# ------------------------------------------------- farthest point sampling

def _sq_dists(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    diff = points - ref
    return diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2]


def fps_start_index(points) -> int:
    """Default seed for farthest point sampling.

    The point farthest from the cloud centroid; the lowest index wins
    ties, so the choice is deterministic.
    """
    pts = _as_points(points)
    if pts.shape[0] == 0:
        raise EmptyCloud("cannot seed sampling from an empty cloud")
    return int(np.argmax(_sq_dists(pts, centroid(pts))))


def fps_sample(points, n: int, start_index: int | None = None) -> np.ndarray:
    """Greedy farthest point sampling; returns ``n`` indices in pick order.

    Each step picks the point whose distance to the already-selected set
    is largest, breaking ties toward the lowest index. Works on squared
    distances, which leaves the argmax unchanged.
    """
    pts = _as_points(points)
    count = pts.shape[0]
    if count == 0:
        raise EmptyCloud("cannot sample from an empty cloud")
    if n > count:
        raise InsufficientPoints(f"requested {n} samples from {count} points")
    if n <= 0:
        raise InvalidArgument(f"sample count must be positive, got {n}")
    if start_index is None:
        start_index = fps_start_index(pts)
    if not 0 <= start_index < count:
        raise ValueError(f"start index {start_index} out of range [0, {count})")
    chosen = np.empty(n, dtype=int)
    chosen[0] = start_index
    best = _sq_dists(pts, pts[start_index])
    for k in range(1, n):
        nxt = int(np.argmax(best))  # argmax returns the first maximum
        chosen[k] = nxt
        best = np.minimum(best, _sq_dists(pts, pts[nxt]))
    return chosen

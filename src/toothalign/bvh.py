"""Exact proximity queries between point clouds.

Every nearest-distance and within-radius question the package asks
about tooth clouds (collisions, gaps, generator spacing, occlusal
contact) is answered here, in numpy, equal to an all-pairs scan bit for
bit. Pruning by boxes and by a sweep along x (Preparata & Shamos 1985)
only drops a point whose difference from the box or window is at least
the radius on some axis; rounding is monotone, so every pair it drops
has a squared distance of at least r * r. Membership is decided by the
strict ``d2 < r * r`` test, ``d2`` summing the squared axis differences
in the order ``((a - b) ** 2).sum(-1)`` does. The gap between two clouds
is a bounded nearest-neighbour search (Friedman, Bentley & Finkel 1977).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EmptyCloud

_INFLATE = 1.0 + 1e-9
_TINY = 1e-280  # a squared bound below this nears the subnormals, where rounding eats _INFLATE
_BLOCK = 1 << 16  # pairs per block of an all-pairs minimum


class AabbTree:
    """A fixed (n, 2) or (n, 3) cloud ``data`` (the caller's array), its
    bounding box ``mins``/``maxes`` and its (dim, n) columns ``cols``."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError("expected an (n, 2) or (n, 3) point array")
        if pts.shape[0] == 0:
            raise EmptyCloud("cannot build a tree over zero points")
        self.data = pts
        self.n = pts.shape[0]
        self.cols = pts.T.copy()
        self.mins = self.cols.min(axis=1)
        self.maxes = self.cols.max(axis=1)

    @cached_property
    def centroid(self) -> np.ndarray:
        """Mean of the cloud, computed once, when a gap query first asks;
        trees that only flag interlocks never pay for it."""
        return self.cols.mean(axis=1)


def _d2(a, b) -> np.ndarray:
    """Squared distances between points given as per-axis coordinates."""
    d2 = (a[0] - b[0]) ** 2
    for ak, bk in zip(a[1:], b[1:]):
        d2 += (ak - bk) ** 2
    return d2


def _near_box(cols, lo, hi, reach) -> np.ndarray:
    """Indices of the columns' points whose difference from the box
    [lo, hi] is below reach on every axis."""
    return np.flatnonzero(((lo[:, None] - cols < reach) & (cols - hi[:, None] < reach)).all(axis=0))


def _min_d2(pc, cols) -> np.ndarray:
    """Smallest squared distance from each point of the columns pc to
    the columns' points cols, one block of pc at a time."""
    out = np.empty(pc.shape[1])
    step = max(1, _BLOCK // cols.shape[1])
    for s in range(0, pc.shape[1], step):
        out[s : s + step] = _d2(pc[:, s : s + step, None], cols[:, None, :]).min(axis=1)
    return out


def interlock_masks(a, b, radius: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Flags of each cloud's points lying strictly within radius of the
    other cloud, plus the closest pair distance among flagged points
    (inf when the clouds are separated). Each row of a near b's box is
    paired with the rows of b, near the box of those, in its x window."""
    reach = radius * _INFLATE
    ia = _near_box(a.cols, b.mins, b.maxes, reach)
    ia = ia[np.argsort(a.cols[0, ia])]  # sorted needles make searchsorted cheap
    ka = a.cols.take(ia, axis=1)
    jb = _near_box(b.cols, ka.min(axis=1, initial=np.inf), ka.max(axis=1, initial=-np.inf), reach)
    jb = jb[np.argsort(b.cols[0, jb])]
    bx = b.cols[0, jb]
    start = np.searchsorted(bx, ka[0] - reach, side="left")
    count = np.searchsorted(bx, ka[0] + reach, side="right") - start
    first = np.repeat(start - np.cumsum(count) + count, count)
    i = np.repeat(ia, count)
    j = jb[first + np.arange(first.size)]
    d2 = _d2(a.cols.take(i, axis=1), b.cols.take(j, axis=1))
    hit = d2 < radius * radius
    mask_a = np.zeros(a.n, dtype=bool)
    mask_b = np.zeros(b.n, dtype=bool)
    mask_a[i[hit]] = True
    mask_b[j[hit]] = True
    best = float(np.sqrt(d2[hit].min())) if hit.any() else np.inf
    return mask_a, mask_b, best


def nearest_distances(points, tree) -> np.ndarray:
    """Distance from each row of points to its nearest point of tree,
    in the same arithmetic as interlock_masks."""
    return np.sqrt(_min_d2(np.asarray(points, dtype=float).T, tree.cols))


def cloud_gap(points, tree) -> float:
    """Smallest distance from any row of points to tree's cloud: exactly
    ``nearest_distances(points, tree).min()``.

    The query row nearest the tree's centroid gives a real pair, whose
    distance bounds the gap. Rows farther than the bound (inflated, as
    above) from the tree's box are dropped, by a test inflated once more
    to cover its rounding, and so are tree points that far from the box
    of the rows left; the rest are compared all-pairs. A bound whose
    square leaves the normal range would lose the inflation to rounding,
    so such a cloud pair is compared all-pairs in full."""
    pc = np.asarray(points, dtype=float).T.copy()
    near = _d2(pc, tree.centroid).argmin()
    bound = float(np.sqrt(_min_d2(pc[:, near : near + 1], tree.cols)[0]))
    if not bound * bound > _TINY:
        return float(np.sqrt(_min_d2(pc, tree.cols).min()))
    reach = bound * _INFLATE
    outside = np.maximum(np.maximum(tree.mins[:, None] - pc, pc - tree.maxes[:, None]), 0.0)
    keep = (outside * outside).sum(axis=0) <= reach * reach * _INFLATE
    keep[near] = True
    pc = pc[:, keep]
    j = _near_box(tree.cols, pc.min(axis=1), pc.max(axis=1), reach)
    return float(np.sqrt(_min_d2(pc, tree.cols.take(j, axis=1)).min()))


def boxes_apart(a, b, radius: float) -> bool:
    """True when the bounding boxes of trees a and b, grown by radius
    (inflated, as above), are apart on some axis: then no pair of their
    points lies within radius, and interlock_masks would flag nothing."""
    return bool((np.maximum(a.mins - b.maxes, b.mins - a.maxes) > radius * _INFLATE).any())

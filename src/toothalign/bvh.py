"""Exact proximity queries between point clouds.

Every nearest-distance and within-radius question the package asks
about tooth clouds (collisions, gaps, generator spacing, occlusal
contact) is answered here, on scipy's k-d tree (Bentley 1975) built
with the sliding-midpoint rule (Maneewongvatana & Mount 1999).

The tree only proposes candidate pairs, at a radius inflated by a
relative 1e-9 so that rounding inside the tree cannot drop a pair.
Membership is then decided by the strict ``((a - b) ** 2).sum(-1) <
r * r`` test on the original coordinates, so results equal an
all-pairs scan exactly, not approximately. The gap between two clouds
is a bounded nearest-neighbour search (Friedman, Bentley & Finkel
1977): one real pair bounds it, and only points within that bound are
looked at again.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud

_INFLATE = 1.0 + 1e-9
_TINY = 1e-280  # a squared bound below this nears the subnormals, where rounding eats _INFLATE


class AabbTree(cKDTree):
    """Static k-d tree (its nodes are axis-aligned boxes) over a fixed
    (n, 2) or (n, 3) cloud; the cloud is ``self.data``."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError("expected an (n, 2) or (n, 3) point array")
        if pts.shape[0] == 0:
            raise EmptyCloud("cannot build a tree over zero points")
        super().__init__(pts, balanced_tree=False)


def interlock_masks(a, b, radius: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Flags of each cloud's points lying strictly within radius of the
    other cloud, plus the closest pair distance among flagged points
    (inf when the clouds are separated)."""
    cand = a.sparse_distance_matrix(b, radius * _INFLATE, output_type="ndarray")
    d2 = ((a.data[cand["i"]] - b.data[cand["j"]]) ** 2).sum(axis=-1)
    hit = d2 < radius * radius
    mask_a = np.zeros(a.n, dtype=bool)
    mask_b = np.zeros(b.n, dtype=bool)
    mask_a[cand["i"][hit]] = True
    mask_b[cand["j"][hit]] = True
    best = float(np.sqrt(d2[hit].min())) if hit.any() else np.inf
    return mask_a, mask_b, best


def nearest_distances(points, tree) -> np.ndarray:
    """Distance from each row of points to its nearest point of tree,
    in the same arithmetic as interlock_masks."""
    pts = np.asarray(points, dtype=float)
    _, j = tree.query(pts)
    return np.sqrt(((pts - tree.data[j]) ** 2).sum(axis=-1))


def cloud_gap(points, tree) -> float:
    """Smallest distance from any row of points to tree's cloud: exactly
    ``nearest_distances(points, tree).min()``.

    The query row nearest the tree's centroid gives a real pair, whose
    distance bounds the gap; only rows with a neighbour within that
    bound (inflated, as above) have their distance recomputed. A bound
    whose square leaves the normal range would lose the inflation to
    rounding, so such a cloud pair takes the full query."""
    pts = np.asarray(points, dtype=float)
    near = ((pts - tree.data.mean(axis=0)) ** 2).sum(axis=-1).argmin()
    bound = float(nearest_distances(pts[near : near + 1], tree)[0])
    if not bound * bound > _TINY:
        return float(nearest_distances(pts, tree).min())
    _, j = tree.query(pts, distance_upper_bound=bound * _INFLATE)
    hit = j < tree.n
    return float(np.sqrt(((pts[hit] - tree.data[j[hit]]) ** 2).sum(axis=-1)).min())


def boxes_apart(a, b, radius: float) -> bool:
    """True when the bounding boxes of trees a and b, grown by radius
    (inflated, as above), are apart on some axis: then no pair of their
    points lies within radius, and interlock_masks would flag nothing."""
    return bool((np.maximum(a.mins - b.maxes, b.mins - a.maxes) > radius * _INFLATE).any())

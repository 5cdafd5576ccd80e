"""Exact proximity queries between point clouds.

Every nearest-distance and within-radius question the package asks
about tooth clouds (collisions, gaps, generator spacing, occlusal
contact) is answered here, on scipy's k-d tree (Bentley 1975) built
with the sliding-midpoint rule (Maneewongvatana & Mount 1999).

The tree only proposes candidate pairs, at a radius inflated by a
relative 1e-9 so that rounding inside the tree cannot drop a pair.
Membership is then decided by the strict ``((a - b) ** 2).sum(-1) <
r * r`` test on the original coordinates, so results equal an
all-pairs scan exactly, not approximately.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud

_INFLATE = 1.0 + 1e-9


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

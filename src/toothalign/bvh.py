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
is a bounded nearest-neighbour search (Friedman, Bentley & Finkel 1977),
written once: ``cloud_gaps`` runs it on a stack of cloud pairs (given
as points and trees to ``tree_gaps``), and ``cloud_gap`` is its one-pair
call, as ``boxes_apart`` is of the box test ``boxes_apart_many``.
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
    """Flags of the columns' points whose difference from the box
    [lo, hi] is below reach on every axis (leading axis the dimension)."""
    return ((lo[..., None] - cols < reach) & (cols - hi[..., None] < reach)).all(axis=0)


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
    ia = np.flatnonzero(_near_box(a.cols, b.mins, b.maxes, reach))
    ia = ia[np.argsort(a.cols[0, ia])]  # sorted needles make searchsorted cheap
    ka = a.cols.take(ia, axis=1)
    jb = np.flatnonzero(_near_box(b.cols, ka.min(axis=1, initial=np.inf), ka.max(axis=1, initial=-np.inf), reach))
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


def gap_clears(gap: float, radius: float) -> bool:
    """True when the gap between two clouds (a cloud_gap answer) shows
    that interlock_masks at radius flags nothing. Both square their
    pairs in the same arithmetic; an interlock has a pair with
    d2 < r * r, whose rounded root is below r * _INFLATE."""
    return gap > radius * _INFLATE


def nearest_distances(points, tree) -> np.ndarray:
    """Distance from each row of points to its nearest point of tree,
    in the same arithmetic as interlock_masks."""
    return np.sqrt(_min_d2(np.asarray(points, dtype=float).T, tree.cols))


def _kept(x, mask) -> np.ndarray:
    """The (dim, pairs, points) coordinates x of each pair's points that
    mask flags, padded to the largest count with the pair's first one:
    a duplicate never changes a minimum."""
    if mask.shape[0] == 1:
        return x.compress(mask[0], axis=2)
    counts = mask.sum(axis=1)
    order = np.argsort(~mask, axis=1, kind="stable")[:, : counts.max()]
    order = np.where(np.arange(order.shape[1]) < counts[:, None], order, order[:, :1])
    return x[:, np.arange(x.shape[1])[:, None], order]


def cloud_gaps(pc, cols, mins, maxes, centroid) -> np.ndarray:
    """Per pair k, the smallest distance between the query cloud
    ``pc[:, k]`` and the tree cloud ``cols[:, k]``, both given as
    (dim, pairs, points) coordinates, with the tree's box
    ``mins[:, k]``/``maxes[:, k]`` and centroid ``centroid[:, k]``:
    exactly the all-pairs minimum.

    The query row nearest the tree's centroid gives a real pair, whose
    distance bounds the gap. Rows farther than the bound (inflated, as
    above) from the tree's box are dropped, by a test inflated once more
    to cover its rounding, and so are tree points that far from the box
    of the rows left; the rest are compared all-pairs, every pair's rows
    padded to one count. A bound whose square leaves the normal range
    would lose the inflation to rounding, so such a cloud pair is
    compared all-pairs in full."""
    rows = np.arange(pc.shape[1])
    near = _d2(pc, centroid[..., None]).argmin(axis=1)
    bound = np.sqrt(_d2(pc[:, rows, near, None], cols).min(axis=1))
    reach = np.where(bound * bound > _TINY, bound * _INFLATE, np.inf)[:, None]  # inf keeps every pair
    outside = np.minimum(np.maximum(pc, mins[..., None]), maxes[..., None]) - pc  # to the box, signed
    keep = (outside * outside).sum(axis=0) <= reach * reach * _INFLATE
    keep[rows, near] = True
    a = _kept(pc, keep)
    b = _kept(cols, _near_box(cols, a.min(axis=2), a.max(axis=2), reach))
    best = np.inf
    step = max(1, _BLOCK // (rows.size * b.shape[2]))
    for s in range(0, a.shape[2], step):
        best = np.minimum(best, _d2(a[:, :, s : s + step, None], b[:, :, None, :]).min(axis=(1, 2)))
    return np.sqrt(best)


def tree_gaps(points, trees) -> np.ndarray:
    """cloud_gap of each pair ``points[k]``, ``trees[k]``, in one
    cloud_gaps call; every pair has the shapes of the first."""
    tree = [np.stack([getattr(t, f) for t in trees], axis=1) for f in ("cols", "mins", "maxes", "centroid")]
    return cloud_gaps(np.stack([np.asarray(p, dtype=float).T for p in points], axis=1), *tree)


def cloud_gap(points, tree) -> float:
    """Smallest distance from any row of points to tree's cloud: exactly
    ``nearest_distances(points, tree).min()``; the one-pair tree_gaps."""
    return float(tree_gaps([points], [tree])[0])


def boxes_apart_many(mins_a, maxes_a, mins_b, maxes_b, radius) -> np.ndarray:
    """Per pair k, True when boxes a and b (rows k), grown by radius[k]
    (inflated, as above), are apart on some axis: then no pair of their
    points lies within radius, and interlock_masks would flag nothing."""
    return (np.maximum(mins_a - maxes_b, mins_b - maxes_a) > radius[:, None] * _INFLATE).any(axis=1)


def boxes_apart(a, b, radius: float) -> bool:
    """boxes_apart_many of the boxes of trees a and b: the one-pair call."""
    return bool(boxes_apart_many(a.mins[None], a.maxes[None], b.mins[None], b.maxes[None], np.array([radius]))[0])

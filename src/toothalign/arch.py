"""Dental arch lines and arch-based point serialization.

The arch line is a piecewise cubic Hermite curve through the present
teeth's centroids, taken in universal-number order so it sweeps the jaw
from one end to the other. Interior tangents follow the Catmull-Rom rule
(half the chord between the two neighbours); the ends use one-sided
chords. The curve passes exactly through every centroid.

Signed distance to the arch is the full 3D distance to the nearest curve
point, with a sign that is positive on the labial (outer) side. The side
is decided by the in-plane normal ``z x tangent`` oriented away from a
lingual reference point, which defaults to the centroid of the knots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .case import Case, Jaw, Tooth, midline_offset
from .errors import ArchOverrun, TooFewTeeth

SAMPLES_PER_SEGMENT = 256  # arc-length table resolution
PROJECTION_SEEDS = 64  # uniform Newton seeds per segment
NEWTON_ITERS = 12


@dataclass
class ArchLine:
    knots: np.ndarray  # (m, 3) tooth centroids in anatomical order
    tangents: np.ndarray  # (m, 3)
    tooth_ids: tuple[int, ...] | None = None
    lingual_reference: np.ndarray | None = None
    midline_param: float | None = None

    _spline: CubicHermiteSpline = field(init=False, repr=False)
    _deriv: CubicHermiteSpline = field(init=False, repr=False)
    _deriv2: CubicHermiteSpline = field(init=False, repr=False)
    _table_t: np.ndarray = field(init=False, repr=False)
    _table_len: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.tangents = np.asarray(self.tangents, dtype=float)
        m = self.knots.shape[0]
        if m < 2:
            raise TooFewTeeth("an arch line needs at least two knots")
        if self.tangents.shape != self.knots.shape:
            raise ValueError("one tangent per knot is required")
        params = np.arange(m, dtype=float)
        self._spline = CubicHermiteSpline(params, self.knots, self.tangents, axis=0)
        self._deriv = self._spline.derivative()
        self._deriv2 = self._deriv.derivative()

        dense = np.linspace(0.0, m - 1.0, (m - 1) * SAMPLES_PER_SEGMENT + 1)
        pts = self._spline(dense)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        self._table_t = dense
        self._table_len = np.concatenate([[0.0], np.cumsum(steps)])

        offsets = (np.arange(PROJECTION_SEEDS) + 0.5) / PROJECTION_SEEDS
        self._seed_t = (np.arange(m - 1)[:, None] + offsets[None, :]).ravel()
        self._seed_pts = self._spline(self._seed_t)
        # float32 is plenty for picking candidate seeds; refinement and
        # final distances stay in float64
        self._seed_pts32 = self._seed_pts.astype(np.float32).T.copy()
        self._seed_sq32 = (self._seed_pts * self._seed_pts).sum(axis=1).astype(np.float32)

        if self.lingual_reference is None:
            self.lingual_reference = self.knots.mean(axis=0)
        else:
            self.lingual_reference = np.asarray(self.lingual_reference, dtype=float)
        if self.midline_param is None:
            self.midline_param = self._default_midline()

    @classmethod
    def from_centers(
        cls,
        centers,
        tooth_ids=None,
        lingual_reference=None,
        midline_param: float | None = None,
    ) -> "ArchLine":
        """Catmull-Rom arch through ``centers`` (anatomical order)."""
        c = np.asarray(centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] < 2:
            raise TooFewTeeth("need at least two (x, y, z) centers")
        m = c.shape[0]
        tangents = np.empty_like(c)
        tangents[0] = c[1] - c[0]
        tangents[-1] = c[-1] - c[-2]
        if m > 2:
            tangents[1:-1] = 0.5 * (c[2:] - c[:-2])
        return cls(
            c,
            tangents,
            tuple(tooth_ids) if tooth_ids is not None else None,
            lingual_reference,
            midline_param,
        )

    def _default_midline(self) -> float:
        if self.tooth_ids:
            offs = [midline_offset(i) for i in self.tooth_ids]
            order = np.argsort(offs, kind="stable")
            mid = 8.5 if self.tooth_ids[0] <= 16 else 24.5
            first = int(order[0])
            # Knots on both sides of the anatomical midline: put the
            # midline halfway between the two most central ones.
            for k in order[1:]:
                if (self.tooth_ids[int(k)] - mid) * (self.tooth_ids[first] - mid) < 0:
                    return 0.5 * (first + int(k))
            return float(first)
        # Without ids fall back to the arc-length midpoint.
        return self.param_at_arc(0.5 * self.total_length())

    # ------------------------------------------------------------ sampling

    def point_at(self, t) -> np.ndarray:
        return self._spline(t)

    def tangent_at(self, t) -> np.ndarray:
        return self._deriv(t)

    def total_length(self) -> float:
        return float(self._table_len[-1])

    def arc_at_param(self, t) -> np.ndarray | float:
        return np.interp(t, self._table_t, self._table_len)

    def param_at_arc(self, s) -> np.ndarray | float:
        return np.interp(s, self._table_len, self._table_t)

    def sample_polyline(self, n: int = 256) -> np.ndarray:
        """n points uniformly spaced in arc length, ends included."""
        s = np.linspace(0.0, self.total_length(), n)
        return self._spline(self.param_at_arc(s))

    # ---------------------------------------------------------- projection

    def project(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest curve point for each query.

        Returns ``(params, feet, distances)``. Each segment is seeded
        with uniform samples and refined by a clamped Newton iteration on
        the stationarity condition (p - c(t)) . c'(t) = 0, then the best
        segment wins; projection is exact to about 1e-6 in parameter.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        m = self.knots.shape[0]
        nseg = m - 1
        # seed scan: |p-c|^2 minus the per-point |p|^2 constant, which
        # cannot change any argmin; one float32 GEMM, no distance semantics
        score = self._seed_sq32[None, :] - 2.0 * (
            p.astype(np.float32) @ self._seed_pts32
        )
        sseg = score.reshape(p.shape[0], nseg, PROJECTION_SEEDS)
        best = sseg.argmin(axis=2)  # best seed per segment
        rows = np.arange(p.shape[0])[:, None]
        segd = np.take_along_axis(sseg, best[..., None], 2)[..., 0]
        # refine only the few closest segments; the winner is always among
        # them because 64 seeds track each segment to well under a micron
        k = min(3, nseg)
        top = np.argpartition(segd, k - 1, axis=1)[:, :k] if nseg > k else (
            np.broadcast_to(np.arange(nseg), (p.shape[0], nseg)).copy()
        )
        t = top + (np.take_along_axis(best, top, 1) + 0.5) / PROJECTION_SEEDS

        lo = top.astype(float)
        hi = lo + 1.0
        for _ in range(NEWTON_ITERS):
            c = self._spline(t)
            d1 = self._deriv(t)
            dd = self._deriv2(t)
            r = p[:, None, :] - c
            g = (r * d1).sum(axis=2)
            gp = -(d1 * d1).sum(axis=2) + (r * dd).sum(axis=2)
            step = g / np.where(np.abs(gp) > 1e-30, gp, -1e-30)
            nxt = np.clip(t - step, lo, hi)
            moved = np.abs(nxt - t).max()
            t = nxt
            if moved < 1e-7:
                break

        c = self._spline(t)
        dist2 = ((p[:, None, :] - c) ** 2).sum(axis=2)
        pick = dist2.argmin(axis=1)
        rows = rows[:, 0]
        t_best = t[rows, pick]
        feet = c[rows, pick]
        return t_best, feet, np.sqrt(dist2[rows, pick])

    # ------------------------------------------------------ signed distance

    def _labial_directions(self, t, feet) -> np.ndarray:
        tang = np.atleast_2d(self._deriv(t))
        feet = np.atleast_2d(feet)
        z = np.array([0.0, 0.0, 1.0])
        n = np.cross(np.broadcast_to(z, tang.shape), tang)
        away = feet - self.lingual_reference
        flip = (n * away).sum(axis=1) < 0.0
        n[flip] *= -1.0
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        small = norms[:, 0] < 1e-12
        if small.any():
            # Tangent parallel to z: fall back to the outward offset itself.
            fallback = away[small]
            fn = np.linalg.norm(fallback, axis=1, keepdims=True)
            n[small] = np.where(fn > 1e-12, fallback / fn, [1.0, 0.0, 0.0])
            norms[small] = 1.0
        return n / norms

    def signed_distances(self, points) -> np.ndarray:
        """3D distance to the curve, positive on the labial side."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        t, feet, dist = self.project(p)
        labial = self._labial_directions(t, feet)
        side = np.where(((p - feet) * labial).sum(axis=1) < 0.0, -1.0, 1.0)
        return dist * side

    def signed_distance(self, point) -> float:
        return float(self.signed_distances(np.asarray(point, dtype=float)[None, :])[0])

    # ------------------------------------------------------ moving along

    def move_along(self, point, delta: float, extend: bool = False) -> np.ndarray:
        """Slide a point along the arch by ``delta`` millimetres of arc.

        Positive delta moves away from the jaw midline, negative toward
        it. The point keeps its offset from the curve: it is translated
        by the difference between the new and old foot points. Leaving
        the curve domain raises ArchOverrun unless ``extend`` is set, in
        which case the curve continues straight along its end tangent.
        """
        p = np.asarray(point, dtype=float).reshape(3)
        t0, foot0, _ = self.project(p[None, :])
        s0 = float(self.arc_at_param(t0[0]))
        s_mid = float(self.arc_at_param(self.midline_param))
        outward = 1.0 if s0 >= s_mid else -1.0
        s1 = s0 + outward * float(delta)
        total = self.total_length()
        if -1e-9 <= s1 <= total + 1e-9:
            foot1 = self._spline(self.param_at_arc(np.clip(s1, 0.0, total)))
        elif not extend:
            raise ArchOverrun(f"arc position {s1:.3f} outside [0, {total:.3f}]")
        elif s1 < 0.0:
            d = self._deriv(0.0)
            foot1 = self._spline(0.0) + d / np.linalg.norm(d) * s1
        else:
            tend = self.knots.shape[0] - 1.0
            d = self._deriv(tend)
            foot1 = self._spline(tend) + d / np.linalg.norm(d) * (s1 - total)
        return p + (np.asarray(foot1) - foot0[0])


def fit_arch_line(jaw: Jaw) -> ArchLine:
    """Arch line through a jaw's present-tooth centroids in id order."""
    present = jaw.present_teeth()
    if len(present) < 2:
        raise TooFewTeeth(f"{jaw.side} jaw has {len(present)} present teeth; need 2")
    present = sorted(present, key=lambda t: t.id)
    centers = np.array([t.centroid() for t in present])
    return ArchLine.from_centers(centers, tooth_ids=[t.id for t in present])


def fit_case_arches(case: Case) -> dict[str, ArchLine]:
    return {"upper": fit_arch_line(case.upper), "lower": fit_arch_line(case.lower)}


def move_along_arch(arch: ArchLine, point, delta: float, extend: bool = False) -> np.ndarray:
    return arch.move_along(point, delta, extend=extend)


def serialize_points(tooth: Tooth, arch: ArchLine, labial_positive: bool = True) -> np.ndarray:
    """Permutation ordering a tooth's points by ascending signed arch
    distance (most lingual first); ties keep input order.

    ``labial_positive=False`` flips the sign convention, which reverses
    the serialization direction.
    """
    d = arch.signed_distances(tooth.points)
    if not labial_positive:
        d = -d
    return np.argsort(d, kind="stable")

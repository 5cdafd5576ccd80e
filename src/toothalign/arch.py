"""Dental arch lines and arch-based point serialization.

The arch line is a piecewise cubic Hermite curve through the present
teeth's centroids, taken in universal-number order so it sweeps the jaw
from one end to the other. Interior tangents follow the Catmull-Rom rule
(half the chord between the two neighbours); the ends use one-sided
chords. The curve passes exactly through every centroid.

The curve is evaluated here in plain numpy, from per-segment power
coefficients in the unit parameter ``s = t - i`` of segment ``i``. The
evaluation order and the interval rule are those of scipy's ``PPoly``
(a parameter on an inner knot belongs to the next segment, at s = 0;
parameters outside [0, m-1] extrapolate the end segments), so every
point, tangent and projection equals a ``CubicHermiteSpline`` of the
same knots bit for bit; the tests hold scipy as that reference.

Signed distance to the arch is the full 3D distance to the nearest curve
point, with a sign that is positive on the labial (outer) side. The side
is decided by the in-plane normal ``z x tangent`` oriented away from a
lingual reference point, which defaults to the centroid of the knots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .case import Case, Jaw, Tooth, midline, midline_offset
from .errors import CoincidentKnots, TooFewTeeth

SAMPLES_PER_SEGMENT = 256  # arc-length table resolution
PROJECTION_SEEDS = 64  # uniform Newton seeds per segment
NEWTON_ITERS = 12
MIN_KNOT_GAP_MM = 1e-6  # consecutive centroids closer than this give no arch direction


def _hermite_rows(knots: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Power coefficients, shape (9, 3, m - 1), of the unit-spaced cubic
    Hermite curve (output 0), its tangent (1) and its second derivative
    (2) in the segment parameter s. Rows 0-2 hold the constant terms of
    outputs 0-2, rows 3-5 their s terms, rows 6-7 the s^2 terms of
    outputs 0-1 and row 8 the s^3 term of output 0. A constant row is
    stored as ``0.0 + a``, what the first addition of PPoly makes of it."""
    slope = np.diff(knots, axis=0)
    t = tangents[:-1] + tangents[1:] - 2 * slope
    c0, c1, c2, c3 = t, slope - tangents[:-1] - t, tangents[:-1], knots[:-1]
    d0, d1 = 3.0 * c0, 2.0 * c1  # tangent: d0 s^2 + d1 s + c2
    e0 = 2.0 * d0  # second derivative: e0 s + d1
    rows = np.stack((c3 + 0.0, c2 + 0.0, d1 + 0.0, c2, d1, e0, c1, d0, c0))
    return np.ascontiguousarray(rows.transpose(0, 2, 1))


# the rows of _hermite_rows that outputs 0..n-1 use, in the same order
_ROWS_FOR = {n: [*range(n), *range(3, 3 + n), *range(6, 6 + min(n, 2)), 8] for n in (1, 2, 3)}


def _curve(rows: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Outputs 0..n-1 from their rows ``_ROWS_FOR[n]`` gathered per
    parameter, shape ``(n,) + rows.shape[1:]``, summed in PPoly's order
    ``((a + b s) + c s^2) + d s^3``."""
    q = min(n, 2)
    s2 = s * s
    out = rows[n : 2 * n] * s
    out += rows[:n]
    out[:q] += rows[2 * n : 2 * n + q] * s2
    out[0] += rows[-1] * (s2 * s)
    return out


@dataclass
class ArchLine:
    knots: np.ndarray  # (m, 3) tooth centroids in anatomical order
    tangents: np.ndarray  # (m, 3)
    tooth_ids: tuple[int, ...] | None = None
    lingual_reference: np.ndarray | None = None
    midline_param: float | None = None

    _rows: np.ndarray = field(init=False, repr=False)  # (9, 3, m - 1)
    _ends: np.ndarray = field(init=False, repr=False)  # (3, 3, m - 1)
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
        self._rows = _hermite_rows(self.knots, self.tangents)
        # what a parameter at each segment's upper end evaluates to: the
        # next segment at s = 0, or the last segment at s = 1
        ends = np.arange(1.0, float(m))
        self._ends = np.ascontiguousarray(self._evaluate(ends, 3).transpose(0, 2, 1))

        dense = np.linspace(0.0, m - 1.0, (m - 1) * SAMPLES_PER_SEGMENT + 1)
        pts = self.point_at(dense)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        self._table_t = dense
        self._table_len = np.concatenate([[0.0], np.cumsum(steps)])

        offsets = (np.arange(PROJECTION_SEEDS) + 0.5) / PROJECTION_SEEDS
        self._seed_t = (np.arange(m - 1)[:, None] + offsets[None, :]).ravel()
        seed_pts = self.point_at(self._seed_t)
        # float32 is plenty for picking candidate seeds; refinement and
        # final distances stay in float64. Scaling by -2 is exact.
        self._seed_neg2_32 = np.ascontiguousarray(-2.0 * seed_pts.astype(np.float32).T)
        self._seed_sq32 = (seed_pts * seed_pts).sum(axis=1).astype(np.float32)

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
            mid = midline(self.tooth_ids[0])
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

    def _evaluate(self, t, n: int) -> np.ndarray:
        """Outputs 0..n-1 at parameters ``t``, shape ``(n,) + t.shape + (3,)``.
        A parameter on an inner knot takes the next segment at s = 0."""
        t = np.asarray(t, dtype=float)
        # fmax/fmin keep a NaN parameter on segment 0, where it stays NaN
        seg = np.fmin(np.fmax(t, 0.0), self._rows.shape[2] - 1.0).astype(np.intp)
        rows = np.take(self._rows[_ROWS_FOR[n]], seg, axis=2)
        return np.moveaxis(_curve(rows, t - seg, n), 1, -1)

    def point_at(self, t) -> np.ndarray:
        return self._evaluate(t, 1)[0]

    def tangent_at(self, t) -> np.ndarray:
        return self._evaluate(t, 2)[1]

    def total_length(self) -> float:
        return float(self._table_len[-1])

    def arc_at_param(self, t) -> np.ndarray | float:
        return np.interp(t, self._table_t, self._table_len)

    def param_at_arc(self, s) -> np.ndarray | float:
        return np.interp(s, self._table_len, self._table_t)

    def sample_polyline(self, n: int = 256) -> np.ndarray:
        """n points uniformly spaced in arc length, ends included."""
        s = np.linspace(0.0, self.total_length(), n)
        return self.point_at(self.param_at_arc(s))

    # ---------------------------------------------------------- projection

    def project(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest curve point for each query.

        Returns ``(params, feet, distances)``. Each segment is seeded
        with uniform samples and refined by a clamped Newton iteration on
        the stationarity condition (p - c(t)) . c'(t) = 0, then the best
        segment wins; projection is exact to about 1e-6 in parameter.
        Each query stops iterating on its own, once no candidate of its
        own moves by 1e-7, so a query's answer does not depend on the
        other queries in the call.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        nseg = self.knots.shape[0] - 1
        # seed scan: |p-c|^2 minus the per-point |p|^2 constant, which
        # cannot change any argmin; one float32 GEMM, no distance semantics
        score = p.astype(np.float32) @ self._seed_neg2_32
        score += self._seed_sq32
        sseg = score.reshape(p.shape[0], nseg, PROJECTION_SEEDS)
        best = sseg.argmin(axis=2)  # best seed per segment
        segd = np.take_along_axis(sseg, best[..., None], 2)[..., 0]
        # refine only the few closest segments; the winner is always among
        # them because 64 seeds track each segment to well under a micron
        k = min(3, nseg)
        top = np.argpartition(segd, k - 1, axis=1)[:, :k] if nseg > k else (
            np.broadcast_to(np.arange(nseg), (p.shape[0], nseg)).copy()
        )
        top_k = np.ascontiguousarray(top.T)  # candidate-major (k, n) from here on
        t = top_k + (np.take_along_axis(best, top, 1).T + 0.5) / PROJECTION_SEEDS

        # Each candidate stays on its segment [lo, lo + 1], so coefficients
        # are gathered once, coordinate-major (rows, xyz, k, n); a
        # parameter clamped to the segment's upper end takes the end value.
        lo = top_k.astype(float)
        hi = lo + 1.0
        rows = np.take(self._rows, top_k, axis=2)
        ends = np.take(self._ends, top_k, axis=2)
        pt = p.T[:, None, :]

        def curve(t):
            out = _curve(rows, t - lo, 3)
            at_end = t == hi
            if at_end.any():
                np.copyto(out, ends, where=at_end)
            return out

        # A NaN step counts as moving. A stopped query's steps are still
        # computed, not taken: gathering the live queries costs more than
        # the third, and usually last, step would save.
        live = np.ones(p.shape[0], dtype=bool)
        for _ in range(NEWTON_ITERS):
            c, d1, dd = curve(t)
            r = pt - c
            g = (r * d1).sum(axis=0)
            gp = -(d1 * d1).sum(axis=0) + (r * dd).sum(axis=0)
            step = g / np.where(np.abs(gp) > 1e-30, gp, -1e-30)
            nxt = np.minimum(np.maximum(t - step, lo), hi)
            settled = (np.abs(nxt - t) < 1e-7).all(axis=0)
            t = nxt if live.all() else np.where(live, nxt, t)
            live &= ~settled
            if not live.any():
                break

        c = curve(t)[0]
        dist2 = ((pt - c) ** 2).sum(axis=0)
        pick = dist2.argmin(axis=0)
        idx = np.arange(p.shape[0])
        feet = np.ascontiguousarray(c[:, pick, idx].T)
        return t[pick, idx], feet, np.sqrt(dist2[pick, idx])

    # ------------------------------------------------------ signed distance

    def _labial_directions(self, t, feet) -> np.ndarray:
        tang = np.atleast_2d(self.tangent_at(t))
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
            keep = fn[:, 0] > 1e-12
            unit = np.tile([1.0, 0.0, 0.0], (fallback.shape[0], 1))
            unit[keep] = fallback[keep] / fn[keep]
            n[small] = unit
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

    def move_along(self, point, delta: float) -> np.ndarray:
        """Slide a point along the arch by ``delta`` millimetres of arc.

        Positive delta moves away from the jaw midline, negative toward
        it. The point keeps its offset from the curve: it is translated
        by the difference between the new and old foot points. Past
        either end the curve continues straight along its end tangent.
        """
        p = np.asarray(point, dtype=float).reshape(3)
        t0, foot0, _ = self.project(p[None, :])
        s0 = float(self.arc_at_param(t0[0]))
        s_mid = float(self.arc_at_param(self.midline_param))
        outward = 1.0 if s0 >= s_mid else -1.0
        s1 = s0 + outward * float(delta)
        total = self.total_length()
        if -1e-9 <= s1 <= total + 1e-9:
            foot1 = self.point_at(self.param_at_arc(np.clip(s1, 0.0, total)))
        else:
            t_end, past = (0.0, s1) if s1 < 0.0 else (self.knots.shape[0] - 1.0, s1 - total)
            d = self.tangent_at(t_end)
            foot1 = self.point_at(t_end) + d / np.linalg.norm(d) * past
        return p + (np.asarray(foot1) - foot0[0])


def fit_arch_line(jaw: Jaw) -> ArchLine:
    """Arch line through a jaw's present-tooth centroids in id order."""
    present = jaw.present_teeth()
    if len(present) < 2:
        raise TooFewTeeth(f"{jaw.side} jaw has {len(present)} present teeth; need 2")
    present = sorted(present, key=lambda t: t.id)
    centers = np.array([t.centroid() for t in present])
    gaps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
    close = np.flatnonzero(gaps < MIN_KNOT_GAP_MM)
    if close.size:
        i = int(close[0])
        raise CoincidentKnots(
            f"{jaw.side} jaw: teeth {present[i].id} and {present[i + 1].id} have centroids "
            f"{gaps[i]:.3g} mm apart; an arch line needs at least {MIN_KNOT_GAP_MM:g} mm"
        )
    return ArchLine.from_centers(centers, tooth_ids=[t.id for t in present])


def fit_case_arches(case: Case) -> dict[str, ArchLine]:
    return {"upper": fit_arch_line(case.upper), "lower": fit_arch_line(case.lower)}


def serialize_points(tooth: Tooth, arch: ArchLine) -> np.ndarray:
    """Permutation ordering a tooth's points by ascending signed arch
    distance (most lingual first); ties keep input order."""
    return np.argsort(arch.signed_distances(tooth.points), kind="stable")

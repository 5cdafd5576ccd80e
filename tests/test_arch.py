import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicHermiteSpline

from toothalign.arch import NEWTON_ITERS, PROJECTION_SEEDS, ArchLine, fit_arch_line, serialize_points
from toothalign.case import Tooth
from toothalign.errors import ArchOverrun, TooFewTeeth

from oracles import dense_curve_distance, same_bits


def straight_arch(n=5):
    """Knots along x at y=0; labial is +y by the lingual reference."""
    centers = np.stack(
        [np.linspace(-8.0, 8.0, n), np.zeros(n), np.zeros(n)], axis=1
    )
    return ArchLine.from_centers(centers, lingual_reference=[0.0, -5.0, 0.0])


@pytest.fixture(scope="module")
def jaw_arch(corpus):
    return fit_arch_line(corpus[0].upper)


def test_needs_two_knots():
    with pytest.raises(TooFewTeeth):
        ArchLine.from_centers(np.zeros((1, 3)))


def test_interpolates_knots(jaw_arch):
    m = jaw_arch.knots.shape[0]
    at = jaw_arch.point_at(np.arange(m, dtype=float))
    assert np.abs(at - jaw_arch.knots).max() < 1e-9


def test_c1_continuity_at_knots(jaw_arch):
    # one-sided derivatives agree at interior knots
    eps = 1e-7
    for k in range(1, jaw_arch.knots.shape[0] - 1):
        left = (jaw_arch.point_at(k) - jaw_arch.point_at(k - eps)) / eps
        right = (jaw_arch.point_at(k + eps) - jaw_arch.point_at(k)) / eps
        assert np.abs(left - right).max() < 1e-4


def test_collinear_centers_give_straight_curve():
    arch = straight_arch()
    t = np.linspace(0.0, 4.0, 200)
    pts = arch.point_at(t)
    assert np.abs(pts[:, 1]).max() < 1e-9
    assert np.abs(pts[:, 2]).max() < 1e-9


def test_arc_length_table_monotone(jaw_arch):
    assert (np.diff(jaw_arch._table_len) >= 0).all()
    assert jaw_arch.total_length() > 0
    # param <-> arc round trips
    s = np.linspace(0, jaw_arch.total_length(), 50)
    assert np.abs(jaw_arch.arc_at_param(jaw_arch.param_at_arc(s)) - s).max() < 1e-9


def test_sample_polyline_uniform(jaw_arch):
    poly = jaw_arch.sample_polyline(256)
    assert poly.shape == (256, 3)
    steps = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    # uniform arc spacing up to table resolution
    assert steps.std() / steps.mean() < 0.02


def test_projection_on_curve_points(jaw_arch):
    t = np.linspace(0.1, jaw_arch.knots.shape[0] - 1.1, 40)
    q = jaw_arch.point_at(t)
    _, _, dist = jaw_arch.project(q)
    assert dist.max() < 1e-6


def test_projection_matches_dense_brute(jaw_arch, rng):
    t = rng.uniform(0, jaw_arch.knots.shape[0] - 1, 300)
    q = jaw_arch.point_at(t) + rng.normal(0, 2.0, size=(300, 3))
    _, _, dist = jaw_arch.project(q)
    brute = dense_curve_distance(jaw_arch, q)
    assert np.abs(dist - brute).max() < 1e-4


def test_signed_distance_analytic_line():
    arch = straight_arch()
    assert abs(arch.signed_distance([0.0, 2.0, 0.0]) - 2.0) < 1e-9
    assert abs(arch.signed_distance([0.0, -2.0, 0.0]) + 2.0) < 1e-9
    assert abs(arch.signed_distance([1.0, 0.0, 0.0])) < 1e-9


def test_sign_flips_across_curve(jaw_arch, rng):
    t = rng.uniform(0.5, jaw_arch.knots.shape[0] - 1.5, 30)
    feet = jaw_arch.point_at(t)
    tang = jaw_arch.tangent_at(t)
    normal = np.cross(np.broadcast_to([0.0, 0.0, 1.0], tang.shape), tang)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    up = feet + 0.5 * normal
    dn = feet - 0.5 * normal
    du = jaw_arch.signed_distances(up)
    dd = jaw_arch.signed_distances(dn)
    assert (np.sign(du) != np.sign(dd)).all()
    assert np.abs(np.abs(du) - 0.5).max() < 1e-3
    assert np.abs(np.abs(dd) - 0.5).max() < 1e-3


def test_move_along_zero_is_identity():
    arch = straight_arch()
    p = np.array([1.0, 1.0, 0.0])
    assert np.allclose(arch.move_along(p, 0.0), p, atol=1e-9)


def test_move_along_straight_line_analytic():
    arch = straight_arch()
    # midline sits at x=0; +delta moves away from it
    p = np.array([3.0, 1.0, 0.0])
    out = arch.move_along(p, 2.0)
    assert np.allclose(out, [5.0, 1.0, 0.0], atol=1e-6)
    out = arch.move_along(np.array([-3.0, 1.0, 0.0]), 2.0)
    assert np.allclose(out, [-5.0, 1.0, 0.0], atol=1e-6)


def test_move_along_round_trip_on_curve(jaw_arch, rng):
    for _ in range(20):
        t = float(rng.uniform(1.0, jaw_arch.knots.shape[0] - 2.0))
        p = jaw_arch.point_at(t)
        delta = float(rng.uniform(0.2, 2.0))
        there = jaw_arch.move_along(p, delta)
        back = jaw_arch.move_along(there, -delta)
        assert np.linalg.norm(back - p) < 1e-3


def test_move_along_round_trip_off_curve(jaw_arch, rng):
    # the offset is carried by translation, so curvature leaks a small
    # tangential error proportional to delta * offset / bend radius
    for _ in range(20):
        t = float(rng.uniform(1.0, jaw_arch.knots.shape[0] - 2.0))
        p = jaw_arch.point_at(t) + rng.normal(0, 0.5, size=3)
        delta = float(rng.uniform(0.2, 2.0))
        back = jaw_arch.move_along(jaw_arch.move_along(p, delta), -delta)
        assert np.linalg.norm(back - p) < 5e-2


def test_move_along_arc_amount(jaw_arch, rng):
    for _ in range(10):
        t = float(rng.uniform(1.0, jaw_arch.knots.shape[0] - 2.0))
        p = jaw_arch.point_at(t)
        delta = 1.5
        out = jaw_arch.move_along(p, delta)
        t1, _, _ = jaw_arch.project(out[None])
        s0 = float(jaw_arch.arc_at_param(t))
        s1 = float(jaw_arch.arc_at_param(t1[0]))
        assert abs(abs(s1 - s0) - delta) < 1e-3


def test_move_along_overrun_and_extension():
    arch = straight_arch()
    end = np.array([8.0, 1.0, 0.0])
    with pytest.raises(ArchOverrun):
        arch.move_along(end, 5.0)
    out = arch.move_along(end, 5.0, extend=True)
    assert np.allclose(out, [13.0, 1.0, 0.0], atol=1e-6)


# ------------------------------------------------------------ serialization

def test_serialize_bijection_and_tie_break():
    arch = straight_arch()
    pts = np.tile([[0.0, 1.0, 0.0]], (6, 1))  # all equidistant
    tooth = Tooth(id=8, points=pts)
    perm = serialize_points(tooth, arch)
    assert perm.tolist() == [0, 1, 2, 3, 4, 5]


def test_serialize_sign_ordering():
    arch = straight_arch()
    pts = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])  # labial, lingual
    tooth = Tooth(id=8, points=pts)
    assert serialize_points(tooth, arch).tolist() == [1, 0]


def test_serialize_permutation_invariant(jaw_arch, corpus, rng):
    tooth = corpus[0].upper.present_teeth()[2]
    base = serialize_points(tooth, jaw_arch)
    shuffle = rng.permutation(tooth.points.shape[0])
    shuffled = Tooth(id=tooth.id, points=tooth.points[shuffle])
    perm = serialize_points(shuffled, jaw_arch)
    assert np.array_equal(shuffled.points[perm], tooth.points[base])


def test_fit_arch_line_orders_by_id(corpus):
    jaw = corpus[0].upper
    arch = fit_arch_line(jaw)
    ids = [t.id for t in sorted(jaw.present_teeth(), key=lambda t: t.id)]
    assert list(arch.tooth_ids) == ids
    assert arch.knots.shape[0] == len(ids)


# ------------------------------------------- scipy PPoly as the reference

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)


@st.composite
def hermite_curves(draw):
    """Knots and tangents on a 0.01 mm grid (with -0.0), and parameters
    at every knot, at both ends, inside and outside [0, m - 1]."""
    m = draw(st.integers(2, 9))
    grid = st.one_of(st.just(-0.0), st.integers(-4000, 4000).map(lambda v: v / 100.0))
    knots = draw(arrays(np.float64, (m, 3), elements=grid))
    tangents = draw(arrays(np.float64, (m, 3), elements=grid))
    inside = draw(st.lists(st.floats(-1.5, m + 0.5), min_size=1, max_size=30))
    t = np.concatenate([np.arange(m, dtype=float), [0.0, m - 1.0, -0.0], inside])
    return knots, tangents, t


def _ppoly_project(spline, p):
    """The projection of ArchLine.project, evaluated with scipy's PPoly."""
    deriv = spline.derivative()
    deriv2 = deriv.derivative()
    nseg = spline.x.size - 1
    offsets = (np.arange(PROJECTION_SEEDS) + 0.5) / PROJECTION_SEEDS
    seed_pts = spline((np.arange(nseg)[:, None] + offsets[None, :]).ravel())
    seed_sq32 = (seed_pts * seed_pts).sum(axis=1).astype(np.float32)
    score = seed_sq32[None, :] - 2.0 * (p.astype(np.float32) @ seed_pts.astype(np.float32).T.copy())
    sseg = score.reshape(p.shape[0], nseg, PROJECTION_SEEDS)
    best = sseg.argmin(axis=2)
    segd = np.take_along_axis(sseg, best[..., None], 2)[..., 0]
    k = min(3, nseg)
    top = np.argpartition(segd, k - 1, axis=1)[:, :k] if nseg > k else (
        np.broadcast_to(np.arange(nseg), (p.shape[0], nseg)).copy()
    )
    t = top + (np.take_along_axis(best, top, 1) + 0.5) / PROJECTION_SEEDS
    lo = top.astype(float)
    hi = lo + 1.0
    live = np.ones(p.shape[0], dtype=bool)  # each query stops on its own
    for _ in range(NEWTON_ITERS):
        c, d1, dd = spline(t), deriv(t), deriv2(t)
        r = p[:, None, :] - c
        g = (r * d1).sum(axis=2)
        gp = -(d1 * d1).sum(axis=2) + (r * dd).sum(axis=2)
        nxt = np.clip(t - g / np.where(np.abs(gp) > 1e-30, gp, -1e-30), lo, hi)
        moved = np.abs(nxt - t).max(axis=1)
        t = np.where(live[:, None], nxt, t)
        live &= ~(moved < 1e-7)
        if not live.any():
            break
    c = spline(t)
    dist2 = ((p[:, None, :] - c) ** 2).sum(axis=2)
    pick = dist2.argmin(axis=1)
    rows = np.arange(p.shape[0])
    return t[rows, pick], c[rows, pick], np.sqrt(dist2[rows, pick])


@PROPERTY
@given(hermite_curves())
def test_curve_equals_scipy_cubic_hermite_bit_for_bit(curve):
    knots, tangents, t = curve
    arch = ArchLine(knots, tangents)
    spline = CubicHermiteSpline(np.arange(len(knots), dtype=float), knots, tangents, axis=0)
    deriv = spline.derivative()
    assert same_bits(arch.point_at(t), spline(t))
    assert same_bits(arch.tangent_at(t), deriv(t))
    assert same_bits(arch._evaluate(t, 3)[2], deriv.derivative()(t))  # Newton's c''
    assert same_bits(arch.point_at(t[-1]), spline(t[-1]))  # scalar parameter


@PROPERTY
@given(hermite_curves(), st.integers(0, 2**32 - 1))
def test_projection_equals_ppoly_projection_bit_for_bit(curve, seed):
    knots, tangents, _ = curve
    arch = ArchLine(knots, tangents)
    spline = CubicHermiteSpline(np.arange(len(knots), dtype=float), knots, tangents, axis=0)
    rng = np.random.default_rng(seed)
    # queries near the curve, on its knots and far off its ends
    t = rng.uniform(-0.5, len(knots) - 0.5, 40)
    p = np.concatenate([spline(t) + rng.normal(0.0, 3.0, (40, 3)), knots, knots[[0, -1]] * 3.0])
    for got, want in zip(arch.project(p), _ppoly_project(spline, p)):
        assert same_bits(got, want)


@st.composite
def arches_with_queries(draw):
    """A Catmull-Rom arch through 2-16 random knots, and queries near
    the curve, on every knot, far off it and beyond both ends."""
    m = draw(st.integers(2, 16))
    knots = draw(arrays(np.float64, (m, 3), elements=st.floats(-30.0, 30.0)))
    arch = ArchLine.from_centers(knots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.uniform(0.0, m - 1.0, 20)
    ends = arch.point_at(np.array([0.0, m - 1.0]))
    heads = arch.tangent_at(np.array([0.0, m - 1.0])) * np.array([[-1.0], [1.0]])
    beyond = ends + heads * rng.uniform(0.1, 5.0, (2, 1)) + rng.normal(0.0, 0.5, (2, 3))
    far = rng.normal(0.0, 500.0, (4, 3))
    near = arch.point_at(t) + rng.normal(0.0, 2.0, (20, 3))
    return arch, np.concatenate([near, knots, far, beyond])


@PROPERTY
@given(arches_with_queries())
def test_projection_of_a_batch_is_the_projection_of_each_row(data):
    """A query's projection does not depend on the other queries in the
    call: each one stops iterating on its own."""
    arch, p = data
    batch = arch.project(p)
    rows = [arch.project(p[i : i + 1]) for i in range(len(p))]
    for got, want in zip(batch, (np.concatenate(r) for r in zip(*rows))):
        assert same_bits(got, want)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toothalign.errors import DegenerateCloud, EmptyCloud, InsufficientPoints
from toothalign.geometry import (
    RigidTransform,
    axis_angle_from_quat,
    centroid,
    fps_sample,
    fps_start_index,
    kabsch_recover,
    quat_from_axis_angle,
    quat_from_matrix,
    quat_identity,
    quat_normalize,
    quat_to_matrix,
    random_rigid,
    rotation_angle_between,
)

from oracles import (
    augment_perturbation,
    brute_fps,
    quat_multiply,
    same_bits,
    synthetic_perturbation,
)


# ------------------------------------------------------------- quaternions

def test_identity_quaternion():
    assert np.array_equal(quat_identity(), [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(quat_from_axis_angle([0, 0, 1], 0.0), [1, 0, 0, 0])


def test_half_turn_about_z():
    q = quat_from_axis_angle([0.0, 0.0, 1.0], np.pi)
    assert np.allclose(q, [0, 0, 0, 1], atol=1e-12)


def test_normalize_canonical_sign():
    # first nonzero component made positive
    q = quat_normalize([-1.0, 0.0, 0.0, 0.0])
    assert q[0] == 1.0
    q = quat_normalize([0.0, -2.0, 0.0, 0.0])
    assert np.allclose(q, [0, 1, 0, 0])


def test_axis_angle_round_trip(rng):
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-6, np.pi - 1e-6)
        q = quat_from_axis_angle(axis, angle)
        a2, ang2 = axis_angle_from_quat(q)
        # double cover: either representation is fine
        if np.dot(a2, axis) < 0:
            a2, ang2 = -a2, -ang2
        assert abs(ang2 - angle) < 1e-9 or abs(abs(ang2) - angle) < 1e-9
        assert np.allclose(a2, axis, atol=1e-9)


def test_multiply_matches_matrix_product(rng):
    for _ in range(100):
        q1 = quat_normalize(rng.normal(size=4))
        q2 = quat_normalize(rng.normal(size=4))
        lhs = quat_to_matrix(quat_multiply(q1, q2))
        rhs = quat_to_matrix(q1) @ quat_to_matrix(q2)
        assert np.allclose(lhs, rhs, atol=1e-12)


# unnormalized quaternions, kept away from the zero vector
_QUATS = st.tuples(*[st.floats(-1.0, 1.0) for _ in range(4)]).filter(
    lambda q: np.linalg.norm(q) > 1e-3
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_QUATS)
def test_matrix_round_trip(raw):
    q = quat_normalize(raw)
    r = quat_to_matrix(q)
    assert np.allclose(r @ r.T, np.eye(3), rtol=0, atol=1e-14)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)
    back = quat_from_matrix(r)
    # q and -q give the same matrix; the sign is lost where w is about 0
    assert min(np.abs(back - q).max(), np.abs(back + q).max()) < 1e-12
    assert np.allclose(quat_to_matrix(back), r, rtol=0, atol=1e-14)


def test_rotation_angle_between_double_cover():
    q = quat_from_axis_angle([0, 0, 1], np.pi / 2)
    assert abs(rotation_angle_between(quat_identity(), q) - np.pi / 2) < 1e-12
    assert rotation_angle_between(q, q) == 0.0
    assert rotation_angle_between(q, -np.asarray(q)) < 1e-9


# -------------------------------------------------------- rigid transforms

def _same_transform(a, b):
    return all(same_bits(getattr(a, f), getattr(b, f)) for f in ("rotation", "translation", "pivot"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**63 - 1),
    st.floats(1e-6, 180.0),
    st.floats(-2.0, 2.0),
    st.floats(1e-6, 3.0),
)
def test_random_rigid_is_both_old_samplers(seed, range_deg, mu, sigma):
    """The one sampler draws what augmentation and the generator each
    drew before, bit for bit, and leaves the rng where they left it."""
    pivot = np.array([1.5, -2.0, 0.25])
    cases = [
        (mu, lambda rng: augment_perturbation(rng, range_deg, mu, sigma, pivot)),
        (0.0, lambda rng: synthetic_perturbation(rng, range_deg, sigma, pivot)),
    ]
    for mean, old in cases:
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_rigid(rng_new, np.deg2rad(range_deg), mean, sigma, pivot)
        assert _same_transform(got, old(rng_old))
        assert rng_new.random() == rng_old.random()


def test_random_rigid_zero_ranges_is_the_exact_identity():
    t = random_rigid(np.random.default_rng(3), 0.0, 0.0, 0.0, np.zeros(3))
    assert same_bits(t.rotation, quat_identity()) and same_bits(t.translation, np.zeros(3))
    assert t.is_identity()


def test_apply_transform_formula(rng):
    q = quat_from_axis_angle([0, 1, 0], 0.7)
    pivot = np.array([1.0, 2.0, 3.0])
    trans = np.array([0.5, -0.25, 2.0])
    t = RigidTransform(q, trans, pivot)
    pts = rng.normal(size=(50, 3))
    r = quat_to_matrix(q)
    want = (pts - pivot) @ r.T + pivot + trans
    assert np.allclose(t.apply(pts), want, atol=1e-12)


def test_transform_preserves_distances(rng):
    t = RigidTransform(
        quat_from_axis_angle(rng.normal(size=3), 1.1),
        rng.normal(size=3),
        rng.normal(size=3),
    )
    pts = rng.normal(size=(30, 3))
    out = t.apply(pts)
    d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d1 = np.linalg.norm(out[:, None] - out[None, :], axis=2)
    assert np.abs(d0 - d1).max() < 1e-9


def test_identity_apply_is_bit_exact(rng):
    pts = rng.normal(size=(20, 3)) * 37.0
    t = RigidTransform.identity(pivot=[4.0, 5.0, 6.0])
    out = t.apply(pts)
    assert np.array_equal(out, pts)
    assert out is not pts  # still a copy


def test_inverse_round_trip(rng):
    t = RigidTransform(
        quat_from_axis_angle([1, 2, 2], 0.9), np.array([1.0, 0.0, -2.0]),
        np.array([3.0, -1.0, 0.5]),
    )
    pts = rng.normal(size=(25, 3))
    back = t.inverse().apply(t.apply(pts))
    assert np.abs(back - pts).max() < 1e-9


# ------------------------------------------------------------ registration

@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 64),
    spread=st.sampled_from([0.1, 1.0, 30.0]),
    raw=_QUATS,
    translation=st.tuples(*[st.floats(-50.0, 50.0) for _ in range(3)]),
    pivot=st.tuples(*[st.floats(-50.0, 50.0) for _ in range(3)]),
)
def test_kabsch_recovers_known_transform(seed, n, spread, raw, translation, pivot):
    pts = np.random.default_rng(seed).normal(0.0, spread, size=(n, 3))
    t = RigidTransform(quat_normalize(raw), np.array(translation), np.array(pivot))
    moved = t.apply(pts)
    rec = kabsch_recover(pts, moved)
    assert np.abs(rec.apply(pts) - moved).max() < 1e-9
    # arccos cannot resolve angles much below ~3e-8 near identity
    assert rotation_angle_between(rec.rotation, t.rotation) < 1e-7


def test_kabsch_identical_clouds_exact_identity(rng):
    pts = rng.normal(size=(12, 3))
    rec = kabsch_recover(pts, pts.copy())
    assert rec.is_identity()
    assert np.array_equal(rec.apply(pts), pts)


def test_kabsch_degenerate_raises(rng):
    line = np.outer(np.arange(5, dtype=float), [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateCloud):
        kabsch_recover(line, line + [0.0, 1.0, 0.0])
    with pytest.raises(DegenerateCloud):
        kabsch_recover(np.zeros((2, 3)), np.zeros((2, 3)))


# --------------------------------------------------------------- sampling

def test_centroid_basics():
    assert np.array_equal(centroid([[1.0, 2.0, 3.0]]), [1, 2, 3])
    cube = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).T.reshape(-1, 3)
    assert np.allclose(centroid(cube), [0, 0, 0])
    with pytest.raises(EmptyCloud):
        centroid(np.empty((0, 3)))


def test_fps_frozen_sequence():
    # frozen from the brute oracle on this exact cloud
    pts = np.random.default_rng(3).uniform(-1, 1, size=(10, 3))
    assert abs(float(pts.sum()) - -1.3850287259679535) < 1e-12
    assert fps_start_index(pts) == 0
    assert fps_sample(pts, 6).tolist() == [0, 7, 9, 4, 6, 1]


def test_fps_matches_brute_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 11))
        pts = rng.uniform(-2, 2, size=(n, 3))
        k = int(rng.integers(1, n + 1))
        start = fps_start_index(pts)
        assert fps_sample(pts, k).tolist() == brute_fps(pts, k, start)[:k]


def test_fps_tie_break_lowest_index():
    # symmetric square: after the corner start, two corners tie; the
    # first maximum must win
    pts = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0]], dtype=float)
    order = fps_sample(pts, 4, start_index=0)
    assert order[0] == 0 and order[1] == 3
    assert order.tolist() == brute_fps(pts, 4, 0)


def test_fps_errors():
    pts = np.zeros((4, 3))
    with pytest.raises(InsufficientPoints):
        fps_sample(np.ones((3, 3)), 4)
    with pytest.raises(EmptyCloud):
        fps_sample(np.empty((0, 3)), 1)
    with pytest.raises(ValueError):
        fps_sample(pts, 0)

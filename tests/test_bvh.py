"""Property tests of the proximity primitive: interlock flags, closest
flagged distance, nearest distances and the gap between two clouds
equal a numpy all-pairs scan bit for bit, including lattices where many
pairs sit exactly at the radius (a pair at exactly the radius is
outside) and many pairs tie for the gap. A box test that reports two
clouds apart leaves no pair to flag."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from toothalign.bvh import AabbTree, boxes_apart, cloud_gap, interlock_masks, nearest_distances
from toothalign.errors import EmptyCloud

from oracles import same_bits

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _all_pairs(a, b, radius):
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    hit = d2 < radius * radius
    best = float(np.sqrt(d2[hit].min())) if hit.any() else np.inf
    gap = float(np.sqrt(d2.min()))
    return hit.any(axis=1), hit.any(axis=0), best, np.sqrt(d2.min(axis=1)), gap


def _assert_matches_all_pairs(a, b, radius):
    tree_a, tree_b = AabbTree(a), AabbTree(b)
    mask_a, mask_b, best = interlock_masks(tree_a, tree_b, radius)
    want_a, want_b, want_best, want_near, want_gap = _all_pairs(a, b, radius)
    assert np.array_equal(mask_a, want_a)
    assert np.array_equal(mask_b, want_b)
    assert best == want_best
    assert np.array_equal(nearest_distances(a, tree_b), want_near)
    assert same_bits(cloud_gap(a, tree_b), want_gap)
    assert same_bits(cloud_gap(b, tree_a), want_gap)
    if boxes_apart(tree_a, tree_b, radius):
        assert not want_a.any()


@st.composite
def random_clouds(draw):
    dim = draw(st.sampled_from([2, 3]))
    coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, (draw(st.integers(1, 60)), dim), elements=coords))
    b = draw(arrays(np.float64, (draw(st.integers(1, 60)), dim), elements=coords))
    radius = draw(st.floats(0.0, 4.0))
    return a, b, radius


@st.composite
def lattice_clouds(draw):
    dim = draw(st.sampled_from([2, 3]))
    spacing = draw(st.sampled_from([1.0, 0.25, 0.07, 0.1, 0.3]))
    cells = st.lists(st.tuples(*[st.integers(0, 4)] * dim), min_size=1, max_size=40)
    a = np.array(draw(cells), dtype=float) * spacing
    b = np.array(draw(cells), dtype=float) * spacing
    radius = draw(st.sampled_from([1, 2, 3])) * spacing
    return a, b, radius


@PROPERTY
@given(random_clouds())
def test_random_clouds_match_all_pairs(clouds):
    _assert_matches_all_pairs(*clouds)


@PROPERTY
@given(lattice_clouds())
def test_lattice_clouds_match_all_pairs(clouds):
    _assert_matches_all_pairs(*clouds)


def test_tree_rejects_bad_clouds():
    with pytest.raises(EmptyCloud):
        AabbTree(np.empty((0, 3)))
    with pytest.raises(ValueError):
        AabbTree(np.zeros((4, 4)))


def test_boxes_apart_only_when_no_pair_is_within_radius():
    a = AabbTree(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    for dx, apart in ((0.5, False), (1.0, False), (1.0 + 1e-6, True), (-3.0, True)):
        b = AabbTree(np.array([[dx, 0.5, 0.0]]))
        assert boxes_apart(a, b, 1.0) is apart
        assert boxes_apart(b, a, 1.0) is apart
        if apart:
            assert not interlock_masks(a, b, 1.0)[0].any()

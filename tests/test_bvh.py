"""Property tests of the proximity primitive: interlock flags, closest
flagged distance, nearest distances and the gap between two clouds
equal a numpy all-pairs scan bit for bit, including lattices where many
pairs sit exactly at the radius (a pair at exactly the radius is
outside) and many pairs tie for the gap, and separated clouds, where
the gap query drops most rows by their distance to the other cloud's
box. A box test that reports two clouds apart leaves no pair to flag."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from toothalign.bvh import AabbTree, boxes_apart, cloud_gap, interlock_masks, nearest_distances
from toothalign.errors import EmptyCloud

from oracles import all_pairs_proximity, same_bits

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _assert_matches_all_pairs(a, b, radius):
    tree_a, tree_b = AabbTree(a), AabbTree(b)
    mask_a, mask_b, best = interlock_masks(tree_a, tree_b, radius)
    want_a, want_b, want_best, want_near, want_gap = all_pairs_proximity(a, b, radius)
    assert np.array_equal(mask_a, want_a)
    assert np.array_equal(mask_b, want_b)
    assert same_bits(best, want_best)
    assert same_bits(nearest_distances(a, tree_b), want_near)
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


@st.composite
def separated_clouds(draw):
    """b on a lattice or random; a beyond b's box on one axis. Lattice
    rows of a sit a whole number of cells deep behind a face a whole
    number of cells from b's box: the rows of that face lie exactly the
    gap from the box, where many tie for it, and rows deeper than the
    bound lie past its reach."""
    dim = draw(st.sampled_from([2, 3]))
    axis = draw(st.integers(0, dim - 1))
    side = draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        spacing = draw(st.sampled_from([1.0, 0.25, 0.07, 0.1, 0.3]))
        cells = st.tuples(*[st.integers(0, 4)] * dim)
        b = np.array(draw(st.lists(cells, min_size=1, max_size=40)), dtype=float)
        a = np.array(draw(st.lists(cells, min_size=8, max_size=40)), dtype=float)
        depth = np.array(draw(st.lists(st.integers(0, 40), min_size=len(a), max_size=len(a))))
        gap = draw(st.integers(1, 3))
        a[:, axis] = np.where(side > 0, b[:, axis].max() + gap + depth, b[:, axis].min() - gap - depth)
        a, b = a * spacing, b * spacing
        radius = draw(st.sampled_from([1, 2, 3])) * spacing
    else:
        coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        b = draw(arrays(np.float64, (draw(st.integers(1, 60)), dim), elements=coords))
        a = draw(arrays(np.float64, (draw(st.integers(8, 60)), dim), elements=coords))
        a[:, axis] = side * (3.0 + draw(st.floats(0.0, 5.0)) + 10.0 * (a[:, axis] + 3.0))
        radius = draw(st.floats(0.0, 4.0))
    return a, b, radius


@st.composite
def edge_clouds(draw):
    """Duplicate points, coincident clouds, far-apart clouds and radii
    near 0, at scales from 1e-150 (squared gaps below _TINY, where the
    gap query compares all pairs) through 1e-7 to 1e2."""
    dim = draw(st.sampled_from([2, 3]))
    scale = draw(st.sampled_from([1e-150, 1e-7, 1.0, 1e2]))
    coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, (draw(st.integers(1, 30)), dim), elements=coords, fill=st.nothing()))
    a = a[draw(st.lists(st.integers(0, len(a) - 1), min_size=1, max_size=60))]  # repeats rows
    kind = draw(st.sampled_from(["coincident", "shuffled", "sharing", "apart", "far"]))
    if kind == "coincident":
        b = a
    elif kind == "shuffled":
        b = a[draw(st.permutations(range(len(a))))]
    else:
        b = draw(arrays(np.float64, (draw(st.integers(1, 30)), dim), elements=coords, fill=st.nothing()))
        if kind == "sharing":
            b = np.concatenate([b, a[: draw(st.integers(1, len(a)))]])
        if kind == "far":
            b = b + draw(st.sampled_from([10.0, 1e3, -1e3]))
    radius = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-12]), st.floats(0.0, 4.0)))
    return a * scale, b * scale, radius * scale


@PROPERTY
@given(edge_clouds())
def test_edge_clouds_match_all_pairs(clouds):
    _assert_matches_all_pairs(*clouds)


@PROPERTY
@given(random_clouds())
def test_random_clouds_match_all_pairs(clouds):
    _assert_matches_all_pairs(*clouds)


@PROPERTY
@given(lattice_clouds())
def test_lattice_clouds_match_all_pairs(clouds):
    _assert_matches_all_pairs(*clouds)


@PROPERTY
@given(separated_clouds())
def test_separated_clouds_match_all_pairs(clouds):
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

import copy
import json
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toothalign
from toothalign.arch import fit_case_arches, serialize_points
from toothalign.case import (
    ANTERIOR_IDS,
    LOWER_IDS,
    MAX_COORD_MM,
    NORM_SCALE_MM,
    ORDERING_MODES,
    POINT_COUNT,
    UPPER_IDS,
    Case,
    Jaw,
    Tooth,
    build_tooth_point_image,
    case_from_dict,
    case_to_dict,
    dumps_json,
    jaw_of_id,
    load_case,
    midline_offset,
    order_center_distance,
    order_local_z,
    order_random,
    save_case,
    tooth_assembler,
    tooth_centers,
)
from toothalign.errors import (
    ComputationError,
    CorrespondenceMismatch,
    DuplicateTooth,
    SchemaViolation,
    TooFewTeeth,
    TransformForAbsentTooth,
    ValidationError,
    WrongPointCount,
)
from toothalign.geometry import RigidTransform, quat_from_axis_angle
from toothalign.synthetic import SynthParams, generate_synthetic_case

from conftest import gt_view
from oracles import same_bits


def test_constants():
    assert POINT_COUNT == 512
    assert NORM_SCALE_MM == 40.0
    assert list(UPPER_IDS) == list(range(1, 17))
    assert list(LOWER_IDS) == list(range(17, 33))
    assert ANTERIOR_IDS == frozenset(range(6, 12)) | frozenset(range(22, 28))
    assert jaw_of_id(16) == "upper" and jaw_of_id(17) == "lower"


def test_midline_offset():
    assert midline_offset(8) == 0.5 and midline_offset(9) == 0.5
    assert midline_offset(24) == 0.5 and midline_offset(25) == 0.5
    assert midline_offset(1) == 7.5 and midline_offset(32) == 7.5


def test_round_trip_bit_exact(case7):
    d = case_to_dict(case7)
    back = case_from_dict(d)
    for a, b in zip(case7.all_teeth(), back.all_teeth()):
        assert a.id == b.id and a.present == b.present and a.moved == b.moved
        if a.present:
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.gt_points, b.gt_points)


def test_json_round_trip_via_file(tmp_path, case7):
    p = tmp_path / "c.json"
    save_case(case7, p)
    back = load_case(p)
    assert back.id == case7.id
    t0 = case7.upper.present_teeth()[0]
    t1 = back.upper.get(t0.id)
    assert np.array_equal(t0.points, t1.points)


def test_dumps_json_deterministic(case7):
    a = dumps_json(case_to_dict(case7))
    b = dumps_json(case_to_dict(case7))
    assert a == b
    assert a.endswith("\n")
    # keys are sorted; whitespace-free separators
    assert '"id"' in a and ": " not in a.split("\n")[0]


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_dumps_json_rejects_non_finite_numbers(value):
    # json would write Infinity or NaN, which is not JSON
    with pytest.raises(ComputationError, match=rf"^cannot encode JSON: total\[1\] is {value}$"):
        dumps_json({"total": [1.0, value]})
    # the first in sorted-key order is named
    with pytest.raises(ComputationError, match=rf"^cannot encode JSON: a\.b is {value}$"):
        dumps_json({"z": value, "a": {"c": [value], "b": value}})


def test_tooth_centroid_is_remembered_per_points_array(case7):
    tooth = case7.upper.teeth[0].copy()
    c = tooth.centroid()
    assert tooth.centroid() is c and not c.flags.writeable
    assert same_bits(c, tooth.points.mean(axis=0))
    tooth.points = tooth.points + 1.0
    assert same_bits(tooth.centroid(), tooth.points.mean(axis=0))
    assert tooth.copy()._centroid is None and "_centroid" not in repr(tooth)


def test_save_rejects_bad_cases_and_writes_nothing(case7, tmp_path):
    bad = case7.copy()
    bad.upper.present_teeth()[0].points = np.zeros((40, 3))
    with pytest.raises(WrongPointCount):
        save_case(bad, tmp_path / "bad.case.json")

    dup = case7.copy()
    dup.upper.teeth.append(dup.upper.present_teeth()[0].copy())
    with pytest.raises(DuplicateTooth):
        save_case(dup, tmp_path / "dup.case.json")
    assert list(tmp_path.iterdir()) == []


def test_from_dict_rejects_wrong_jaw_and_schema():
    t = {"id": 20, "points": np.zeros((POINT_COUNT, 3)).tolist()}
    with pytest.raises(SchemaViolation, match=r"^upper\[0\]: id 20 outside the upper range 1\.\.16$"):
        case_from_dict({"id": "x", "upper": [t], "lower": []})
    with pytest.raises(SchemaViolation, match=r"^lower\[0\]: id 3 outside the lower range 17\.\.32$"):
        case_from_dict({"id": "x", "upper": [{**t, "id": 3}], "lower": [{**t, "id": 3}]})
    with pytest.raises(SchemaViolation):
        case_from_dict({"id": "x"})


def _tooth_doc(tid, k):
    pts = [[float(k), float(i), 0.5 * i] for i in range(4)]
    return {"id": tid, "present": True, "moved": True, "proxy_radius": 0.25,
            "points": pts, "gt_points": [[x + 0.1, y, z] for x, y, z in pts]}


_TINY_DOC = {
    "id": "tiny",
    "upper": [_tooth_doc(3, 0), _tooth_doc(4, 1)],
    "lower": [_tooth_doc(19, 2), _tooth_doc(20, 3)],
}


def _paths(doc, prefix=()):
    """Every object key and list index under ``doc``, leaves included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_BAD_VALUES = ["a", "1.5", None, True, False, float("nan"), float("inf"), 10**400, -1e150, 1000.5,
               -1, 0, 2.5, [], [1, 2], [1, 2, 3, 4], [[1, 2, 3]], {}, {"x": 1}]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(list(_paths(_TINY_DOC))), st.sampled_from(_BAD_VALUES))
def test_mutated_case_document_fails_typed(path, value):
    doc = copy.deepcopy(_TINY_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        case = case_from_dict(doc, expected_points=4)
    except (ValidationError, ComputationError):
        case = None
    is_coordinate = len(path) == 5 and path[2] in ("points", "gt_points")
    if is_coordinate:
        # a coordinate is accepted exactly when it is a number within the bound
        valid = type(value) in (int, float) and abs(value) <= MAX_COORD_MM
        assert (case is not None) == valid, (path, value)


# extreme but valid coordinates: signed zero, the smallest subnormal and
# the bound itself with its nearest floats must survive the text round trip
_BELOW_BOUND = float(np.nextafter(MAX_COORD_MM, 0.0))
_EDGE_COORDS = [0.0, -0.0, 5e-324, -5e-324, MAX_COORD_MM, -MAX_COORD_MM, _BELOW_BOUND, -_BELOW_BOUND]
_COORDS = st.one_of(
    st.sampled_from(_EDGE_COORDS), st.floats(-MAX_COORD_MM, MAX_COORD_MM, allow_nan=False)
)


_N = 4  # points per tooth in the round-trip cases


@st.composite
def _cases(draw):
    """Cases whose jaws mix absent teeth and present teeth with and
    without gt_points."""
    cloud = st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=_N, max_size=_N)
    jaws = {}
    for side, ids in (("upper", UPPER_IDS), ("lower", LOWER_IDS)):
        chosen = draw(st.lists(st.sampled_from(list(ids)), min_size=1, max_size=4, unique=True))
        # a jaw needs one present tooth; the rest may be absent
        present = [True] + [draw(st.booleans()) for _ in chosen[1:]]
        teeth = []
        for tid, live in zip(chosen, present):
            points = gt_points = None
            if live:
                points = np.array(draw(cloud), dtype=float)
                if draw(st.booleans()):
                    gt_points = np.array(draw(cloud), dtype=float)
            radius = draw(st.sampled_from([0.25, 5e-324, 1.7e308, 0.1 + 0.2]))
            teeth.append(Tooth(tid, live, draw(st.booleans()), points, gt_points, radius))
        jaws[side] = Jaw(side, teeth)
    case_id = draw(st.text(alphabet="az09-_ é\"", min_size=1, max_size=8))
    return Case(case_id, jaws["upper"], jaws["lower"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cases())
def test_case_json_round_trip_is_bit_exact(case):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.case.json", Path(tmp) / "b.case.json"
        save_case(case, first, expected_points=_N)
        back = load_case(first, expected_points=_N)
        save_case(back, second, expected_points=_N)
        assert first.read_bytes() == second.read_bytes()
    assert back.id == case.id
    for side in ("upper", "lower"):
        want = sorted(case.jaw(side).teeth, key=lambda t: t.id)
        got = back.jaw(side).teeth
        assert [t.id for t in got] == [t.id for t in want]
        for a, b in zip(want, got):
            assert (a.present, a.moved, a.proxy_radius) == (b.present, b.moved, b.proxy_radius)
            for field in ("points", "gt_points"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None) == (y is None), (a.id, field)
                if x is not None:
                    assert same_bits(x, y), (a.id, field)


@pytest.mark.parametrize(
    "clouds, loads",
    [
        ({}, True),
        ({"points": None, "gt_points": None}, True),
        ({"points": [], "gt_points": []}, True),
        ({"points": 0, "gt_points": {}}, False),
        ({"points": False}, False),
        ({"gt_points": ""}, False),
        ({"points": [[0.0, 0.0, 0.0]]}, False),
    ],
)
def test_absent_tooth_carries_no_points(clouds, loads):
    doc = copy.deepcopy(_TINY_DOC)
    doc["upper"].append({"id": 1, "present": False, **clouds})
    if loads:
        assert not case_from_dict(doc, expected_points=4).tooth(1).present
    else:
        with pytest.raises(SchemaViolation):
            case_from_dict(doc, expected_points=4)


# ------------------------------------------------- schema and loader parity

CASE_SCHEMA = json.loads(
    (Path(toothalign.__file__).parent / "schemas" / "case.schema.json").read_text()
)

# The rules only the loader checks, each with why JSON Schema cannot say
# it. One more is not a row here: gt_points must hold as many points as
# points, and JSON Schema cannot compare the lengths of two fields.
CODE_ONLY = {
    "duplicate tooth id": "JSON Schema cannot compare the items of an array",
    "present tooth with 10 points": "the point count is an argument of the loader",
    "tooth id written as 5.0": "JSON Schema counts 5.0 as an integer",
}


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _absent_upper_tooth(**clouds):
    return lambda doc: doc["upper"].append({"id": 1, "present": False, **clouds})


# name -> (mutation of a generated 8-tooth case, the loader's error or None)
MUTATIONS = {
    "unchanged": (lambda doc: None, None),
    "absent tooth with null points": (_absent_upper_tooth(points=None), None),
    "absent tooth with null gt_points": (_absent_upper_tooth(gt_points=None), None),
    "absent tooth with points": (_absent_upper_tooth(points=[[0.0, 0.0, 0.0]]), SchemaViolation),
    "present omitted": (lambda doc: doc["upper"][0].pop("present"), None),
    "moved omitted": (lambda doc: doc["upper"][0].pop("moved"), None),
    "proxy_radius omitted": (lambda doc: doc["upper"][0].pop("proxy_radius"), None),
    "present tooth without points": (lambda doc: doc["upper"][0].pop("points"), SchemaViolation),
    "present tooth with null gt_points": (_set(("upper", 0, "gt_points"), None), None),
    "present tooth with 10 points": (
        lambda doc: doc["upper"][0].update(points=doc["upper"][0]["points"][:10]),
        WrongPointCount,
    ),
    "duplicate tooth id": (lambda doc: doc["upper"].append(doc["upper"][0]), DuplicateTooth),
    "lower-jaw id (20) in upper": (_set(("upper", 0, "id"), 20), SchemaViolation),
    "upper-jaw id (5) in lower": (_set(("lower", 0, "id"), 5), SchemaViolation),
    "tooth id written as 5.0": (_set(("upper", 0, "id"), 5.0), SchemaViolation),
    "coordinate 1e400 (inf after parsing)": (
        _set(("upper", 0, "points", 0, 0), json.loads("1e400")),
        SchemaViolation,
    ),
    "coordinate on the bound": (_set(("upper", 0, "points", 0, 1), -MAX_COORD_MM), None),
    "coordinate past the bound": (
        _set(("upper", 0, "gt_points", 3, 2), float(np.nextafter(MAX_COORD_MM, np.inf))),
        SchemaViolation,
    ),
    "proxy_radius 1e400": (_set(("upper", 0, "proxy_radius"), json.loads("1e400")), SchemaViolation),
    "every upper tooth absent": (
        lambda doc: doc.update(upper=[{"id": 3, "present": False}]),
        SchemaViolation,
    ),
    "unknown tooth field": (_set(("upper", 0, "colour"), "white"), SchemaViolation),
    "unknown case field": (_set(("notes",), "none"), SchemaViolation),
    "non-object root": ([], SchemaViolation),  # the whole document
}


_PARITY_POINTS = 16  # points kept per cloud: the schema check is slow on 512


@pytest.fixture(scope="module")
def case_doc():
    doc = case_to_dict(generate_synthetic_case(SynthParams(teeth_per_jaw=8), seed=0))
    for tooth in doc["upper"] + doc["lower"]:
        tooth["points"] = tooth["points"][:_PARITY_POINTS]
        tooth["gt_points"] = tooth["gt_points"][:_PARITY_POINTS]
    return doc


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_schema_and_loader_agree(case_doc, name):
    mutate, error = MUTATIONS[name]
    if callable(mutate):
        doc = copy.deepcopy(case_doc)
        mutate(doc)
    else:
        doc = mutate
    if error is None:
        case_from_dict(doc, _PARITY_POINTS)
    else:
        with pytest.raises(error):
            case_from_dict(doc, _PARITY_POINTS)
    schema_accepts = jsonschema.Draft202012Validator(CASE_SCHEMA).is_valid(doc)
    assert schema_accepts == (error is None or name in CODE_ONLY)


def test_gt_points_must_hold_as_many_points_as_points():
    # the loader-only rule named above CODE_ONLY: without an expected
    # point count, only this check pairs the two clouds
    doc = copy.deepcopy(_TINY_DOC)
    doc["lower"][1]["gt_points"] = doc["lower"][1]["gt_points"][:3]
    with pytest.raises(
        CorrespondenceMismatch, match=r"^lower\[1\]: gt_points and points must correspond index-wise$"
    ):
        case_from_dict(doc, expected_points=None)


# ---------------------------------------------------------- point orderings

def test_order_local_z():
    tooth = Tooth(id=1, points=np.array([[0, 0, 1.0], [0, 0, 5.0], [0, 0, 3.0]]))
    assert order_local_z(tooth).tolist() == [1, 2, 0]


def test_order_center_distance():
    tooth = Tooth(id=1, points=np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
    assert order_center_distance(tooth, np.zeros(3)).tolist() == [1, 2, 0]


def test_order_random_deterministic():
    tooth = Tooth(id=5, points=np.arange(30, dtype=float).reshape(10, 3))
    a = order_random(tooth, seed=9)
    b = order_random(tooth, seed=9)
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == list(range(10))
    assert not np.array_equal(a, order_random(tooth, seed=10))


# ------------------------------------------------------- tooth point image

def test_tooth_point_image_rows(case7):
    arches = fit_case_arches(case7)
    tpi = build_tooth_point_image(case7, "arch_line")
    assert tpi.data.shape == (32, POINT_COUNT, 3)
    present_ids = {t.id for t in case7.present_teeth()}
    for row in range(32):
        if row + 1 in present_ids:
            assert tpi.presence[row]
            tooth = case7.tooth(row + 1)
            # permuted by the arch line fitted to the tooth's own jaw
            perm = serialize_points(tooth, arches[jaw_of_id(tooth.id)])
            assert np.array_equal(tpi.data[row], tooth.points[perm])
        else:
            assert not tpi.presence[row]
            assert not tpi.data[row].any()


def _sorted_rows(points):
    return points[np.lexsort(points.T[::-1])]


@pytest.mark.parametrize("ordering", ORDERING_MODES)
def test_every_ordering_permutes_each_present_tooth(case7, ordering):
    tpi = build_tooth_point_image(case7, ordering, seed=4)
    present = {t.id: t for t in case7.present_teeth()}
    assert 0 < len(present) < 32
    for row in range(32):
        tooth = present.get(row + 1)
        assert tpi.presence[row] == (tooth is not None)
        if tooth is None:
            assert not tpi.data[row].any()
        else:
            assert np.array_equal(_sorted_rows(tpi.data[row]), _sorted_rows(tooth.points))
    again = build_tooth_point_image(case7, ordering, seed=4)
    assert np.array_equal(again.data, tpi.data) and np.array_equal(again.presence, tpi.presence)
    if ordering == "random":
        return
    # the seedless orderings ignore the order a tooth's points are stored in
    shuffled = case7.copy()
    rng = np.random.default_rng(11)
    for tooth in shuffled.present_teeth():
        tooth.points = tooth.points[rng.permutation(tooth.points.shape[0])]
    assert np.array_equal(build_tooth_point_image(shuffled, ordering).data, tpi.data)


def test_tooth_point_image_single_tooth():
    pts = np.random.default_rng(0).normal(size=(POINT_COUNT, 3))
    case = Case(
        "solo",
        Jaw("upper", [Tooth(id=4, points=pts, gt_points=pts.copy())]),
        Jaw("lower", []),
    )
    tpi = build_tooth_point_image(case, "local_z")
    assert tpi.presence.sum() == 1
    assert tpi.presence[3]


def test_tooth_point_image_requires_arch(case7):
    # the arch_line ordering fits each jaw's arch, which needs two teeth
    pts = np.random.default_rng(0).normal(size=(POINT_COUNT, 3))
    solo = Case("solo", Jaw("upper", [Tooth(id=4, points=pts)]), Jaw("lower", []))
    with pytest.raises(TooFewTeeth):
        build_tooth_point_image(solo, "arch_line")
    with pytest.raises(ValueError):
        build_tooth_point_image(case7, "no_such_mode")


def test_tooth_centers(case7):
    centers = tooth_centers(case7)
    assert centers.shape == (32, 3)
    t = case7.upper.present_teeth()[0]
    assert np.allclose(centers[t.id - 1], t.centroid())


# --------------------------------------------------------------- assembler

def test_assembler_applies_and_skips_static(case7):
    case = case7.copy()
    static = case.upper.present_teeth()[0]
    static.moved = False
    transforms = {}
    rot = quat_from_axis_angle([0, 0, 1.0], 0.1)
    for t in case.present_teeth():
        transforms[t.id] = RigidTransform(rot, np.array([1.0, 0, 0]), t.centroid())
    out = tooth_assembler(case, transforms)
    moved = next(t for t in out.present_teeth() if t.id != static.id)
    src = case.tooth(moved.id)
    assert np.allclose(moved.points, transforms[moved.id].apply(src.points))
    # static tooth ignored the supplied transform
    assert np.array_equal(out.tooth(static.id).points, static.points)


def test_assembler_errors(case7):
    case = case7.copy()
    with pytest.raises(TransformForAbsentTooth):
        tooth_assembler(case, {16: RigidTransform.identity()})  # 16 absent here
    some = case.present_teeth()[0]
    with pytest.raises(Exception):
        # missing transform for a moved tooth
        tooth_assembler(case, {some.id: RigidTransform.identity(some.centroid())})


def test_gt_view_helper(case7):
    gt = gt_view(case7)
    for t in gt.present_teeth():
        assert np.array_equal(t.points, t.gt_points)

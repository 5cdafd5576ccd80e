"""Every case document the loader accepts, however extreme its
geometry, runs to a JSON payload or ends in one typed error.

Generated 8-tooth cases get one mutation each and go through the
subcommands that read a case, in process and with warnings as errors.
The exit code is 0, 1 or 2; a failure logs exactly one ERROR line and
prints nothing; a success prints JSON holding no NaN and no Infinity.
"""

import contextlib
import io
import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toothalign.case import case_to_dict
from toothalign.cli import main
from toothalign.synthetic import SynthParams, generate_synthetic_case


def _clouds(doc):
    return [t for t in doc["upper"] + doc["lower"] if t["present"]]


def _scale(factor):
    def mutate(doc):
        for t in _clouds(doc):
            for key in ("points", "gt_points"):
                t[key] = [[c * factor for c in p] for p in t[key]]

    return mutate


def _collapse(doc):
    t = doc["upper"][3]
    t["points"] = [t["points"][0]] * len(t["points"])


def _flatten(doc):
    for p in doc["lower"][2]["points"]:
        p[2] = 0.0


def _twin(doc):
    doc["upper"][4]["points"] = [list(p) for p in doc["upper"][3]["points"]]


def _one_cloud_jaw(doc):
    for t in doc["lower"][1:]:
        t["points"] = [list(p) for p in doc["lower"][0]["points"]]


def _swap_jaws(doc):
    doc["upper"], doc["lower"] = doc["lower"], doc["upper"]


def _unmoved(doc):
    for t in _clouds(doc):
        t["moved"] = False


def _two_per_jaw(doc):
    for side in ("upper", "lower"):
        for t in doc[side][2:]:
            t.update(present=False, points=None, gt_points=None)


def _proxy_radius(value):
    def mutate(doc):
        for t in _clouds(doc):
            t["proxy_radius"] = value

    return mutate


def _no_targets(doc):
    for t in _clouds(doc):
        del t["gt_points"]


def _stacked(doc):
    # every tooth moved onto the first one's xy, 10 mm apart in z
    for side in ("upper", "lower"):
        for k, t in enumerate(doc[side]):
            for key in ("points", "gt_points"):
                first = doc[side][0][key]
                cx = sum(p[0] for p in first) / len(first)
                cy = sum(p[1] for p in first) / len(first)
                own_x = sum(p[0] for p in t[key]) / len(t[key])
                own_y = sum(p[1] for p in t[key]) / len(t[key])
                t[key] = [[p[0] - own_x + cx, p[1] - own_y + cy, p[2] + 10.0 * k] for p in t[key]]


MUTATIONS = {
    "scale 1e-7": _scale(1e-7),
    "scale 1e-5": _scale(1e-5),
    "scale 1e2": _scale(1e2),
    "collapsed tooth": _collapse,
    "flat tooth": _flatten,
    "twin clouds": _twin,
    "one-cloud jaw": _one_cloud_jaw,
    "swapped jaws": _swap_jaws,
    "nothing moved": _unmoved,
    "two teeth per jaw": _two_per_jaw,
    "proxy radius 1e-300": _proxy_radius(1e-300),
    "proxy radius 900": _proxy_radius(900.0),
    "no gt_points": _no_targets,
    "stacked in z": _stacked,
}

COMMANDS = {
    "serialize": ["serialize", "--in", "{case}"],
    "arch export": ["arch", "export", "--in", "{case}"],
    "augment": ["augment", "--in", "{case}", "-o", "{out}"],
    "augment ordinary": ["augment", "--mode", "ordinary", "--in", "{case}", "-o", "{out}"],
    "loss": ["loss", "--pred", "{case}", "--gt", "{gt}"],
    "forward": ["forward", "--in", "{case}"],
    "iterate": ["iterate", "-n", "1", "--in", "{case}", "--gt", "{gt}"],
}

_CASES = {}


def _case_doc(seed: int) -> dict:
    if seed not in _CASES:
        case = generate_synthetic_case(SynthParams(teeth_per_jaw=8), seed, f"edge{seed}")
        _CASES[seed] = json.dumps(case_to_dict(case))
    return json.loads(_CASES[seed])


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _no_constant(name):
    raise AssertionError(f"payload holds {name}")


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    command=st.sampled_from(sorted(COMMANDS)),
)
def test_accepted_documents_run_or_end_in_one_typed_error(seed, mutation, command):
    gt = _case_doc(seed)
    doc = _case_doc(seed)
    MUTATIONS[mutation](doc)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"case": Path(tmp, "case.json"), "gt": Path(tmp, "gt.json"), "out": Path(tmp, "out.json")}
        paths["case"].write_text(json.dumps(doc))
        paths["gt"].write_text(json.dumps(gt))
        argv = [a.format(**paths) for a in COMMANDS[command]]
        handler = _Records()
        logger = logging.getLogger("toothalign")
        logger.addHandler(handler)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
        finally:
            logger.removeHandler(handler)
    out = stdout.getvalue()
    errors = [r for r in handler.records if r.levelno >= logging.ERROR]
    assert code in (0, 1, 2), (mutation, command)
    if code:
        assert out == "" and len(errors) == 1, (mutation, command, errors)
    else:
        assert errors == [], (mutation, command)
        json.loads(out, parse_constant=_no_constant)

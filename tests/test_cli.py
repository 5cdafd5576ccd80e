"""End-to-end exercises of every subcommand, run in process.

Each payload printed to stdout is validated against its published JSON
schema, and the reproducibility contract (same command, same bytes) is
checked where the acceptance suite does not already cover it.
"""

import json
import re
from pathlib import Path

import jsonschema
import pytest

import toothalign
from toothalign.case import dumps_json, load_case, save_case
from toothalign.cli import main

SCHEMA_DIR = Path(toothalign.__file__).parent / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv, schema=None):
    code, out = _run(capsys, argv)
    assert code == 0, f"{argv} exited {code}"
    payload = json.loads(out)
    if schema:
        jsonschema.validate(payload, _schema(schema))
    return payload


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cases")
    code = main(["gen", "--seed", "0", "--cases", "2", "-o", str(d)])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def case_file(case_dir):
    return case_dir / "synth0-000.case.json"


# -------------------------------------------------------------------- gen

def test_gen_manifest_and_files(capsys, tmp_path):
    payload = _run_json(
        capsys, ["gen", "--seed", "3", "--cases", "2", "-o", str(tmp_path)], "manifest"
    )
    assert payload["written"] == [
        str(tmp_path / "synth3-000.case.json"),
        str(tmp_path / "synth3-001.case.json"),
    ]
    doc = json.loads((tmp_path / "synth3-000.case.json").read_text())
    jsonschema.validate(doc, _schema("case"))
    assert doc["id"] == "synth3-000"


def test_gen_reproducible_bytes(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_json(capsys, ["gen", "--seed", "5", "-o", str(a)], "manifest")
    _run_json(capsys, ["gen", "--seed", "5", "-o", str(b)], "manifest")
    assert (a / "synth5-000.case.json").read_bytes() == (b / "synth5-000.case.json").read_bytes()


def test_gen_seed_changes_cases(capsys, tmp_path):
    _run_json(capsys, ["gen", "--seed", "5", "-o", str(tmp_path / "a")], "manifest")
    _run_json(capsys, ["gen", "--seed", "6", "-o", str(tmp_path / "b")], "manifest")
    a = (tmp_path / "a" / "synth5-000.case.json").read_text()
    b = (tmp_path / "b" / "synth6-000.case.json").read_text()
    assert json.loads(a)["upper"] != json.loads(b)["upper"]


def test_gen_infeasible_teeth_exits_2(capsys, tmp_path):
    code, _ = _run(capsys, ["gen", "--teeth", "16", "-o", str(tmp_path)])
    assert code == 2


def test_gen_bad_teeth_count_exits_1(capsys, tmp_path):
    code, _ = _run(capsys, ["gen", "--teeth", "40", "-o", str(tmp_path)])
    assert code == 1


# ------------------------------------------------------------------ sample

def test_sample_downsamples(capsys, case_file, tmp_path):
    out = tmp_path / "small.case.json"
    payload = _run_json(
        capsys,
        ["sample", "--in", str(case_file), "-n", "128", "-o", str(out)],
        "manifest",
    )
    assert payload["written"] == [str(out)]
    case = load_case(out, expected_points=128)
    for tooth in case.present_teeth():
        assert tooth.points.shape == (128, 3)
        assert tooth.gt_points.shape == (128, 3)


def test_sample_too_many_points_exits_2(capsys, case_file, tmp_path):
    code, _ = _run(
        capsys,
        ["sample", "--in", str(case_file), "-n", "600", "-o", str(tmp_path / "x.json")],
    )
    assert code == 2


# --------------------------------------------------------------- serialize

def test_serialize_payload(capsys, case_file):
    payload = _run_json(
        capsys, ["serialize", "--in", str(case_file)], "tooth_point_image"
    )
    assert payload["case_id"] == "synth0-000"
    assert payload["ordering"] == "arch_line"
    assert len(payload["presence"]) == 32
    assert sum(payload["presence"]) == 24
    assert len(payload["data"]) == 32
    assert len(payload["data"][0]) == 512
    assert len(payload["data"][0][0]) == 3


def test_serialize_reproducible_and_file_matches_stdout(capsys, case_file, tmp_path):
    out = tmp_path / "tpi.json"
    code1, stdout1 = _run(
        capsys, ["serialize", "--in", str(case_file), "-o", str(out)]
    )
    file1 = out.read_bytes()
    code2, stdout2 = _run(
        capsys, ["serialize", "--in", str(case_file), "-o", str(out)]
    )
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    assert file1 == out.read_bytes()
    assert file1.decode() == stdout1


def test_serialize_ordering_flag(capsys, case_file):
    a = _run_json(
        capsys, ["serialize", "--in", str(case_file), "--ordering", "local_z"]
    )
    assert a["ordering"] == "local_z"
    b = _run_json(
        capsys, ["serialize", "--in", str(case_file), "--ordering", "arch_line"]
    )
    assert a["data"] != b["data"]


# ------------------------------------------------------------------- arch

def test_arch_export_payload(capsys, case_file):
    payload = _run_json(
        capsys, ["arch", "export", "--in", str(case_file)], "arch_polyline"
    )
    assert set(payload["jaws"]) == {"upper", "lower"}
    assert payload["samples_per_jaw"] == 256
    for jaw in payload["jaws"].values():
        assert jaw["length_mm"] > 0
        assert len(jaw["samples"]) == 256
        assert len(jaw["samples"][0]) == 3


# ---------------------------------------------------------------- augment

def test_augment_constrained(capsys, case_file, tmp_path):
    out = tmp_path / "aug.case.json"
    payload = _run_json(
        capsys,
        ["augment", "--seed", "1", "--in", str(case_file), "-o", str(out)],
        "augment_report",
    )
    assert payload["mode"] == "constrained"
    assert payload["satisfied"] is True
    assert payload["written"] == str(out)
    case = load_case(out)
    assert any(t.moved for t in case.upper.teeth)


def test_augment_ordinary(capsys, case_file, tmp_path):
    out = tmp_path / "ord.case.json"
    payload = _run_json(
        capsys,
        ["augment", "--seed", "2", "--in", str(case_file), "--mode", "ordinary", "-o", str(out)],
        "augment_report",
    )
    assert payload["mode"] == "ordinary"
    assert out.exists()


def test_augment_ordinary_reports_the_lower_arch_bound(capsys, case_file, tmp_path):
    target = load_case(case_file)
    for tooth in target.present_teeth():
        tooth.points = tooth.gt_points.copy()
    save_case(target, tmp_path / "target.case.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_json({"augment": {"arch_dist_range": [1.0, 2.2], "ordinary_prob": 0.0}}))
    argv = ["augment", "--in", str(tmp_path / "target.case.json"), "--mode", "ordinary",
            "--config", str(cfg), "-o", str(tmp_path / "ord.case.json")]
    code, out = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is False
    assert all(jaw["max_arch_dist_mm"] < 1.0 for jaw in payload["jaws"].values())


def test_augment_bad_config_exits_1(capsys, case_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_json({"augment": {"ordinary_prob": 1.5}}))
    out = tmp_path / "x.json"
    code, _ = _run(capsys, ["augment", "--in", str(case_file), "--config", str(cfg), "-o", str(out)])
    assert code == 1
    assert not out.exists()


# ------------------------------------------------------------------- loss

def test_loss_zero_against_self(capsys, case_file):
    payload = _run_json(
        capsys,
        ["loss", "--pred", str(case_file), "--gt", str(case_file)],
        "loss_breakdown",
    )
    assert payload["total"] == 0.0
    assert payload["l_recon"] == 0.0


def test_loss_nonzero_after_augment(capsys, case_file, tmp_path):
    out = tmp_path / "aug.case.json"
    _run_json(capsys, ["augment", "--seed", "4", "--in", str(case_file), "-o", str(out)])
    payload = _run_json(
        capsys,
        ["loss", "--pred", str(out), "--gt", str(case_file), "--test-mode"],
        "loss_breakdown",
    )
    assert payload["total"] > 0.0
    plain = _run_json(
        capsys, ["loss", "--pred", str(out), "--gt", str(case_file)], "loss_breakdown"
    )
    # enhancement factors stay below the pinned test-mode value of 2
    assert plain["l_val"] < payload["l_val"]


# ----------------------------------------------------------------- forward

def test_forward_payload(capsys, case_file):
    payload = _run_json(
        capsys, ["forward", "--seed", "1", "--in", str(case_file)], "transforms"
    )
    assert payload["seed"] == 1
    assert len(payload["transforms"]) == 24
    t = payload["transforms"]["3"]
    assert len(t["rotation"]) == 4
    assert len(t["translation"]) == 3
    assert len(t["pivot"]) == 3


def test_forward_reproducible(capsys, case_file):
    _, out1 = _run(capsys, ["forward", "--seed", "1", "--in", str(case_file)])
    _, out2 = _run(capsys, ["forward", "--seed", "1", "--in", str(case_file)])
    assert out1 == out2
    _, out3 = _run(capsys, ["forward", "--seed", "2", "--in", str(case_file)])
    assert out1 != out3


# -------------------------------------------------------------------- eval

def test_eval_identical_dirs(capsys, case_dir):
    payload = _run_json(
        capsys,
        ["eval", "--pred-dir", str(case_dir), "--gt-dir", str(case_dir)],
        "eval_report",
    )
    assert payload["add_mm"] == 0.0
    assert payload["auc"] == 1.0
    assert len(payload["cases"]) == 2
    assert len(payload["curve"]["fractions"]) == 257


def test_eval_mismatched_ids_exit_1(capsys, case_dir, tmp_path):
    other = tmp_path / "other"
    _run_json(capsys, ["gen", "--seed", "9", "-o", str(other)])
    code, _ = _run(capsys, ["eval", "--pred-dir", str(case_dir), "--gt-dir", str(other)])
    assert code == 1


def test_eval_empty_dir_exit_1(capsys, case_dir, tmp_path):
    code, _ = _run(capsys, ["eval", "--pred-dir", str(tmp_path), "--gt-dir", str(case_dir)])
    assert code == 1


# ----------------------------------------------------------------- iterate

def test_iterate_payload(capsys, case_file, tmp_path):
    aug = tmp_path / "aug.case.json"
    _run_json(capsys, ["augment", "--seed", "3", "--in", str(case_file), "-o", str(aug)])
    payload = _run_json(
        capsys,
        ["iterate", "--seed", "0", "--in", str(aug), "--gt", str(case_file), "-n", "2"],
        "iterate_report",
    )
    assert payload["n"] == 2
    assert [r["iteration"] for r in payload["iterations"]] == [1, 2]
    for row in payload["iterations"]:
        assert set(row) >= {"add_mm", "auc", "me_rotate_deg", "me_translate_mm"}


# ------------------------------------------------------------ config file

def test_config_file_sets_ordering(capsys, case_file, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(dumps_json({"seed": 5, "ordering": "local_z"}))
    payload = _run_json(
        capsys, ["serialize", "--config", str(cfg), "--in", str(case_file)]
    )
    assert payload["ordering"] == "local_z"


def test_config_unknown_key_exits_1(capsys, case_file, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(dumps_json({"seeed": 5}))
    code, _ = _run(capsys, ["serialize", "--config", str(cfg), "--in", str(case_file)])
    assert code == 1


def test_cli_flag_overrides_config_seed(capsys, case_file, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(dumps_json({"seed": 5}))
    a = _run_json(
        capsys, ["forward", "--config", str(cfg), "--in", str(case_file)], "transforms"
    )
    b = _run_json(
        capsys,
        ["forward", "--config", str(cfg), "--seed", "7", "--in", str(case_file)],
        "transforms",
    )
    assert a["seed"] == 5
    assert b["seed"] == 7


def test_negative_seed_from_flag_or_config_is_one_error(capsys, caplog, case_file, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(dumps_json({"seed": -3}))
    messages = []
    for argv in (
        ["forward", "--seed", "-3", "--in", str(case_file)],
        ["forward", "--config", str(cfg), "--in", str(case_file)],
    ):
        caplog.clear()
        code, out = _run(capsys, argv)
        assert code == 1 and out == "", argv
        records = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(records) == 1, argv
        messages.append(records[0].getMessage())
    assert messages == ["ConfigError: seed must be a nonnegative integer"] * 2


# -------------------------------------------------------------- exit codes

def test_usage_error_exits_1(capsys):
    assert main(["serialize"]) == 1  # missing --in
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_file_exits_1(capsys, tmp_path):
    code, _ = _run(capsys, ["serialize", "--in", str(tmp_path / "nope.json")])
    assert code == 1


def test_negative_seed_exits_1(capsys, case_file):
    code, _ = _run(capsys, ["forward", "--seed", "-3", "--in", str(case_file)])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--cases", "-3", "-o", "{tmp}"],
        ["gen", "--cases", "0", "-o", "{tmp}"],
        ["sample", "--in", "{case}", "-n", "0", "-o", "{tmp}/x.case.json"],
        ["eval", "--pred-dir", "{dir}", "--gt-dir", "{dir}", "--k", "0"],
        ["eval", "--pred-dir", "{dir}", "--gt-dir", "{dir}", "--k", "inf"],
        ["iterate", "--in", "{case}", "--gt", "{case}", "-n", "0"],
        ["iterate", "--in", "{case}", "--gt", "{case}", "-n", "1", "--k", "inf"],
    ],
)
def test_out_of_range_argument_exits_1_with_one_log_line(
    argv, capsys, caplog, case_dir, case_file, tmp_path
):
    fields = {"tmp": tmp_path, "case": case_file, "dir": case_dir}
    code, out = _run(capsys, [a.format(**fields) for a in argv])
    assert code == 1
    assert out == ""
    records = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(records) == 1
    assert records[0].getMessage().startswith("InvalidArgument: ")
    assert list(tmp_path.iterdir()) == []


def test_iterate_rejects_k_before_any_forward_pass(monkeypatch, capsys, caplog, case_file):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward pass ran before k was checked")

    monkeypatch.setattr("toothalign.swin.predict_case", no_forward)
    argv = ["iterate", "--in", str(case_file), "--gt", str(case_file), "-n", "4", "--k", "inf"]
    code, out = _run(capsys, argv)
    assert code == 1
    assert out == ""
    records = [r for r in caplog.records if r.levelname == "ERROR"]
    assert [r.getMessage() for r in records] == ["InvalidArgument: k must be positive and finite, got inf"]


# the subcommands that read a case file, and those that read --config
# (arch export and eval read no config)
CASE_READERS = {
    "sample": ["sample", "--in", "{case}", "-o", "{out}/sampled.json"],
    "serialize": ["serialize", "--in", "{case}", "-o", "{out}/image.json"],
    "arch export": ["arch", "export", "--in", "{case}", "-o", "{out}/arch.json"],
    "augment": ["augment", "--in", "{case}", "-o", "{out}/augmented.json"],
    "loss": ["loss", "--pred", "{case}", "--gt", "{case}"],
    "forward": ["forward", "--in", "{case}"],
    "eval": ["eval", "--pred-dir", "{cases}", "--gt-dir", "{cases}"],
    "iterate": ["iterate", "--in", "{case}", "--gt", "{case}", "-n", "1"],
}
CONFIG_READERS = {"gen": ["gen", "-o", "{out}"]} | {
    name: argv for name, argv in CASE_READERS.items() if name not in ("arch export", "eval")
}


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "where, path, value",
    [
        ("case", ("upper", 0, "points", 0), ["a", 1, 2]),
        ("case", ("upper", 0, "points", 0), [1, 2]),
        ("case", ("upper", 0, "points", 0), None),
        ("case", ("upper", 0, "points", 0), [True, 1, 2]),
        ("case", ("lower", 1, "gt_points", 3), ["1.5", 1, 2]),
        ("case", ("lower", 1, "gt_points", 3, 2), None),
        ("config", ("points_per_tooth",), "a"),
        ("config", ("augment", "max_collision_iters"), 2.5),
        ("config", ("loss", "delta"), [1, 2, 3, "z"]),
        ("case", ("upper", 0), {"id": 1, "present": False, "points": 0, "gt_points": {}}),
    ],
)
def test_malformed_document_exits_1_with_one_log_line(
    where, path, value, capsys, caplog, case_file, tmp_path
):
    # every subcommand that reads the malformed kind of document
    docs = {"case": json.loads(case_file.read_text()), "config": {"augment": {}, "loss": {}}}
    _set(docs[where], path, value)
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "case.json").write_text(json.dumps(docs["case"]))
    (tmp_path / "config.json").write_text(json.dumps(docs["config"]))
    readers = CASE_READERS if where == "case" else CONFIG_READERS
    want = "SchemaViolation: " if where == "case" else "ConfigError: "
    for name, template in readers.items():
        fill = {"case": str(cases / "case.json"), "cases": str(cases), "out": str(tmp_path / "out")}
        argv = [a.format(**fill) for a in template]
        if name in CONFIG_READERS:
            argv += ["--config", str(tmp_path / "config.json")]
        caplog.clear()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, name
        assert captured.out == "", name
        assert "Traceback" not in captured.err, name
        records = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(records) == 1, name
        assert records[0].getMessage().startswith(want), name
    assert not (tmp_path / "out").exists()


def _one_cloud(doc):
    upper = [t for t in doc["upper"] if t.get("present", True)]
    for t in upper:
        t["points"], t["gt_points"] = upper[0]["points"], upper[0]["gt_points"]


def _scaled_1e_300(doc):
    for t in doc["upper"] + doc["lower"]:
        for key in ("points", "gt_points"):
            if t.get(key):
                t[key] = [[c * 1e-300 for c in p] for p in t[key]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mutate", [_one_cloud, _scaled_1e_300])
def test_coincident_centroids_exit_2_with_one_log_line(mutate, capsys, caplog, tmp_path):
    # the loader accepts both documents, but no arch line runs through
    # centroids that coincide
    assert main(["gen", "--teeth", "10", "--seed", "0", "-o", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "synth0-000.case.json").read_text())
    mutate(doc)
    (tmp_path / "case.json").write_text(json.dumps(doc))
    case = str(tmp_path / "case.json")
    for argv in (
        ["augment", "--in", case, "-o", str(tmp_path / "out.json")],
        ["serialize", "--in", case],
        ["forward", "--in", case],
    ):
        capsys.readouterr()
        caplog.clear()
        code, out = _run(capsys, argv)
        assert code == 2 and out == "", argv
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1, argv
        assert messages[0].startswith("CoincidentKnots: upper jaw: teeth "), argv
    assert not (tmp_path / "out.json").exists()


@pytest.mark.filterwarnings("error")
def test_collinear_clouds_exit_2_naming_a_tooth(capsys, caplog, tmp_path):
    # every point on the x axis: no rigid registration is unique, and
    # the error said so without naming the tooth
    assert main(["gen", "--teeth", "10", "--seed", "0", "-o", str(tmp_path)]) == 0
    gt = tmp_path / "synth0-000.case.json"
    doc = json.loads(gt.read_text())
    for t in doc["upper"] + doc["lower"]:
        if t.get("points"):
            t["points"] = [[p[0], 0.0, 0.0] for p in t["points"]]
    (tmp_path / "case.json").write_text(json.dumps(doc))
    case = str(tmp_path / "case.json")
    for argv in (
        ["augment", "--mode", "ordinary", "--in", case, "-o", str(tmp_path / "out.json")],
        ["iterate", "-n", "1", "--in", case, "--gt", str(gt)],
    ):
        capsys.readouterr()
        caplog.clear()
        code, out = _run(capsys, argv)
        assert code == 2 and out == "", argv
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1, argv
        assert re.fullmatch(
            r"DegenerateCloud: tooth \d+: cloud is collinear or has no spatial extent", messages[0]
        ), argv


@pytest.mark.filterwarnings("error")
def test_coordinates_past_the_bound_exit_1_with_one_log_line(capsys, caplog, tmp_path):
    # scaled by 1e150 the upper jaw overflowed float32 arch seeds, and
    # serialize, forward and loss exited 0 after numpy warnings
    assert main(["gen", "--teeth", "10", "--seed", "0", "-o", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "synth0-000.case.json").read_text())
    for t in doc["upper"]:
        for key in ("points", "gt_points"):
            if t.get(key):
                t[key] = [[c * 1e150 for c in p] for p in t[key]]
    (tmp_path / "case.json").write_text(json.dumps(doc))
    case = str(tmp_path / "case.json")
    k, first = next((k, t["id"]) for k, t in enumerate(doc["upper"]) if t.get("points"))
    for argv in (["serialize", "--in", case], ["forward", "--in", case], ["loss", "--pred", case, "--gt", case]):
        capsys.readouterr()
        caplog.clear()
        code, out = _run(capsys, argv)
        assert code == 1 and out == "", argv
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1, argv
        assert messages[0].startswith(f"SchemaViolation: upper[{k}].points: tooth {first} has coordinate "), argv
        assert "e+15" in messages[0] and "outside [-1000, 1000] mm" in messages[0], argv


# the master-seed and config options each subcommand reads
READS = {
    "gen": ("--seed", "--config"),
    "sample": ("--config",),
    "serialize": ("--seed", "--config"),
    "arch export": (),
    "augment": ("--seed", "--config"),
    "loss": ("--config",),
    "forward": ("--seed", "--config"),
    "eval": (),
    "iterate": ("--seed", "--config"),
}


@pytest.mark.parametrize("name", list(READS))
def test_subcommand_takes_only_the_options_it_reads(name, capsys, case_file, tmp_path):
    # an option the subcommand would not read is a usage error, never
    # silently ignored; the ones it reads run to completion
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "case.json").write_text(case_file.read_text())
    config = tmp_path / "config.json"
    config.write_text("{}")
    fill = {"case": str(cases / "case.json"), "cases": str(cases), "out": str(tmp_path)}
    argv = [a.format(**fill) for a in (CASE_READERS | CONFIG_READERS)[name]]
    for option, value in (("--seed", "3"), ("--config", str(config))):
        code = main(argv + [option, value])
        captured = capsys.readouterr()
        if option in READS[name]:
            assert code == 0, (name, option)
        else:
            assert code == 1, (name, option)
            assert captured.out == ""
            assert f"unrecognized arguments: {option}" in captured.err


@pytest.mark.parametrize("command", ["gen", "sample", "serialize", "arch export", "augment"])
def test_unwritable_output_exits_1_naming_the_path(command, capsys, caplog, case_file, tmp_path):
    existing = tmp_path / "existing.json"
    existing.write_text("{}")
    missing = tmp_path / "missing" / "x.json"
    argv, out = {
        "gen": (["gen", "--cases", "1"], existing),
        "sample": (["sample", "--in", str(case_file), "-n", "64"], missing),
        "serialize": (["serialize", "--in", str(case_file)], missing),
        "arch export": (["arch", "export", "--in", str(case_file)], missing),
        "augment": (["augment", "--in", str(case_file), "--mode", "ordinary"], tmp_path),
    }[command]
    code = main(argv + ["-o", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    records = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(records) == 1
    assert records[0].getMessage().startswith("ValidationError: cannot ")
    assert str(out) in records[0].getMessage()
    assert existing.read_text() == "{}" and not missing.parent.exists()


@pytest.mark.parametrize("flag", ["--in", "--config"])
@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000, b"1" * 5000], ids=["utf8", "deep", "bigint"]
)
def test_unreadable_file_exits_1(flag, content, capsys, caplog, case_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["serialize", "--in", str(case_file), flag, str(bad)])
    assert code == 1
    assert capsys.readouterr().out == ""
    assert len([r for r in caplog.records if r.levelname == "ERROR"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("gen", "sample", "serialize", "arch", "augment", "loss", "forward", "eval", "iterate"):
        assert name in out

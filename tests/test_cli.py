import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import ocsvm_rules as o
import ocsvm_rules.ocsvm as ocsvm_module
from ocsvm_rules.cli import load_config, main
from ocsvm_rules.formats import ExtractionConfig, json_text
from ocsvm_rules.rules import state_text

import synth


def _write_config(tmp_path, d, name="config.json", **overrides):
    csv_path = tmp_path / "data.csv"
    synth.write_csv(csv_path, d)
    cfg = {
        "dataset": "data.csv",
        "columns": {"numerical": ["x", "y"], "categorical": []},
        "ocsvm": {"nu": synth.BLOB_NU, "gamma": synth.BLOB_GAMMA},
        "output_dir": "out",
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _read_error(capsys, code):
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["exit_code"] == code
    return doc


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    rc = main(["extract", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "not found" in doc["message"]


def test_invalid_json_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["extract", "--config", str(p)]) == 2
    assert "JSON" in _read_error(capsys, 2)["message"]


def test_config_requires_dataset(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"columns": {"numerical": ["x"]}}), encoding="utf-8")
    assert main(["extract", "--config", str(p)]) == 2
    assert "dataset" in _read_error(capsys, 2)["message"]


def test_config_rejects_bad_nu(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs(), ocsvm={"nu": 1.5, "gamma": 1.0})
    assert main(["extract", "--config", str(cfg)]) == 2
    assert "nu" in _read_error(capsys, 2)["message"]


def test_config_rejects_unlisted_cyclical_column(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, synth.two_blobs(),
        columns={"numerical": ["x"], "categorical": [], "cyclical": {"y": 24}})
    assert main(["extract", "--config", str(cfg)]) == 2
    assert "cyclical" in _read_error(capsys, 2)["message"]


def test_discard_factor_nan_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg), "--discard-factor", "nan"]) == 2
    assert _read_error(capsys, 2)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [None, 3, ["out"], ""],
                         ids=["null", "number", "list", "empty"])
def test_output_dir_must_be_a_non_empty_string(tmp_path, capsys, value):
    cfg = _write_config(tmp_path, synth.two_blobs())
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    doc["output_dir"] = value
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError" and "output_dir" in doc["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.csv"]


# one wrong-typed or out-of-range value per kmeans.* and extraction.* key
BAD_SETTINGS = [
    ("kmeans", "seed", -1), ("kmeans", "seed", "0"),
    ("kmeans", "n_init", 0), ("kmeans", "n_init", 2.5),
    ("kmeans", "max_iter", 0), ("kmeans", "max_iter", True),
    ("extraction", "discard_factor", -1), ("extraction", "discard_factor", "1"),
    ("extraction", "discard_factor", True),
    ("extraction", "box_mode", "vertices"), ("extraction", "box_mode", 3),
    ("extraction", "n_v", 0), ("extraction", "n_v", 1.5),
    ("extraction", "max_clusters", 0), ("extraction", "max_clusters", "9"),
    ("extraction", "literal_cluster_threshold", "yes"),
    ("extraction", "literal_cluster_threshold", 1),
    ("extraction", "per_group_min_check", "no"),
    ("extraction", "per_group_min_check", 0),
    ("extraction", "targets", "na"), ("extraction", "targets", []),
    # json reads Infinity, and a literal such as 1e400 overflows to it; an
    # integer literal stays an int too large for a float
    ("ocsvm", "gamma", float("inf")), ("ocsvm", "tol", float("inf")),
    ("ocsvm", "nu", 10 ** 400), ("columns", "cyclical", {"x": float("inf")}),
]

# the rest of each section a bad setting is written into
BASE_SECTIONS = {"columns": {"numerical": ["x", "y"], "categorical": []}}


@pytest.mark.parametrize("section, key, value", BAD_SETTINGS,
                         ids=["%s.%s=%.20r" % case for case in BAD_SETTINGS])
def test_bad_setting_exits_2_and_names_it(tmp_path, capsys, section, key, value):
    cfg = _write_config(tmp_path, synth.two_blobs(),
                        **{section: {**BASE_SECTIONS.get(section, {}), key: value}})
    assert main(["extract", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert key in doc["message"]
    assert not (tmp_path / "out").exists()


# a misspelt key per section: each would have been read as its default
UNKNOWN_KEYS = [
    ("ocsvm", {"nu": synth.BLOB_NU, "gama": 5.0}, "ocsvm.gama"),
    ("extraction", {"discard_facter": 2.0}, "extraction.discard_facter"),
    ("kmeans", {"n_inti": 3}, "kmeans.n_inti"),
    ("columns", {"numerical": ["x", "y"], "categorical": [], "cyclic": {"x": 24}},
     "columns.cyclic"),
    ("plot", {"widht": 300}, "plot.widht"),
    ("plott", {"columns": ["x", "y"]}, "plott"),
]


@pytest.mark.parametrize("section, value, key", UNKNOWN_KEYS,
                         ids=[key for _, _, key in UNKNOWN_KEYS])
def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys, section, value, key):
    cfg = _write_config(tmp_path, synth.two_blobs(), **{section: value})
    assert main(["extract", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert repr(key) in doc["message"]
    assert not (tmp_path / "out").exists()


def test_config_without_extraction_settings_takes_the_defaults(tmp_path):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert load_config(str(cfg)).extraction == ExtractionConfig()


def test_missing_dataset_file(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    (tmp_path / "data.csv").unlink()
    assert main(["extract", "--config", str(cfg)]) == 2
    assert _read_error(capsys, 2)["error"] == "ConfigError"


def test_unparseable_dataset_value(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    (tmp_path / "data.csv").write_text("x,y\n1.0,oops\n", encoding="utf-8")
    assert main(["extract", "--config", str(cfg)]) == 2
    assert _read_error(capsys, 2)["error"] == "ParseError"


def test_config_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "cannot read config" in doc["message"]


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "config.json"
    p.write_bytes(b'{"dataset": "caf\xe9.csv"}')
    assert main(["report", "--config", str(p)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "cannot read config" in doc["message"]


def test_dataset_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    (tmp_path / "data.csv").write_bytes(b"x,y\n1.0,2.0\n\xff,3.0\n")
    assert main(["extract", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "cannot read dataset" in doc["message"]


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

EXTRACT_FILES = [
    "model.json",
    "rules_na.json",
    "rules_na.txt",
    "rules_na_scaled.json",
    "rules_na_scaled.txt",
    "extract_stats.json",
]


def test_extract_writes_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # progress goes to stderr only
    assert "wrote" in captured.err
    out = tmp_path / "out"
    for name in EXTRACT_FILES:
        assert (out / name).exists(), name
    stats = json.loads((out / "extract_stats.json").read_text())
    assert stats["non_anomalous"]["n_rules"] == 2
    assert stats["non_anomalous"]["coverage_pct"] == 100.0
    text = (out / "rules_na.txt").read_text(encoding="utf-8")
    assert len(text.splitlines()) == 2
    assert text.startswith("NOT OUTLIER IF ")


def test_extract_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    first = {n: (out / n).read_bytes() for n in EXTRACT_FILES}
    assert main(["extract", "--config", str(cfg)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_extract_both_targets(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg), "--target", "both"]) == 0
    out = tmp_path / "out"
    for suffix in ("na", "a"):
        assert (out / ("rules_%s.json" % suffix)).exists()
    a_text = (out / "rules_a.txt").read_text(encoding="utf-8")
    assert a_text.startswith("OUTLIER IF ")
    stats = json.loads((out / "extract_stats.json").read_text())
    assert set(stats) == {"non_anomalous", "anomalous"}


def test_extract_out_override(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    alt = tmp_path / "elsewhere"
    assert main(["extract", "--config", str(cfg), "--out", str(alt)]) == 0
    assert (alt / "model.json").exists()
    assert not (tmp_path / "out").exists()


def test_extract_with_categorical_and_targets_config(tmp_path, capsys):
    d = synth.grouped_dataset()
    cfg = _write_config(
        tmp_path, d,
        columns={"numerical": ["x", "y"], "categorical": ["mode"]},
        ocsvm={"nu": 0.05, "gamma": 15.0},
        extraction={"targets": ["na", "a"]})
    assert main(["extract", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "rules_na.json").read_text())
    states = {tuple(map(tuple, r["state"])) for r in doc["rules"]}
    assert (("mode", "on"),) in states
    assert (("mode", "off"),) in states
    assert (out / "rules_a.json").exists()


def _hourly_config(tmp_path):
    return _write_config(tmp_path, synth.hourly(), columns=synth.HOURLY_COLUMNS,
                         ocsvm=synth.HOURLY_OCSVM)


def test_extract_with_cyclical_column(tmp_path, capsys):
    cfg = _hourly_config(tmp_path)
    assert main(["extract", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "rules_na.json").read_text())
    assert doc["columns"] == ["hour_sin", "hour_cos", "v"]
    assert "hour" in doc["cyclical"]
    text = (out / "rules_na.txt").read_text(encoding="utf-8")
    assert "hour ≈ [" in text
    assert "hour_sin" not in text


def test_insufficient_data_exit_code(tmp_path, capsys):
    pts = np.array([[0.0, 0.0], [0.1, 0.1], [10.0, 10.0]])
    cfg = _write_config(tmp_path, synth.matrix_dataset(pts),
                        ocsvm={"nu": 0.5, "gamma": 0.1})
    assert main(["extract", "--config", str(cfg)]) == 3
    doc = _read_error(capsys, 3)
    assert doc["error"] == "InsufficientDataError"


def test_solver_non_convergence_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs(),
                        ocsvm={"nu": 0.1, "gamma": 1.0, "max_iter": 1})
    assert main(["extract", "--config", str(cfg)]) == 4
    doc = _read_error(capsys, 4)
    assert doc["error"] == "SolverConvergenceError"
    assert doc["iterations"] == 1
    assert doc["kkt_violation"] > 0


def test_extraction_non_convergence_reports_offending_boxes(tmp_path, capsys):
    d = synth.seismic_like()
    cfg = _write_config(tmp_path, d,
                        columns={"numerical": ["energy", "pulses"], "categorical": []},
                        ocsvm={"nu": 0.1, "gamma": 0.1}, extraction={"max_clusters": 3})
    assert main(["extract", "--config", str(cfg)]) == 4
    doc = _read_error(capsys, 4)
    assert doc["error"] == "ExtractionConvergenceError"
    assert doc["last_n_clusters"] == 3
    boxes = doc["offending_boxes"]
    assert boxes
    for box in boxes:
        assert len(box) == 2  # [lower, upper]
        lower, upper = box
        assert len(lower) == len(upper) == 2  # one value per numerical column
        # scaled units: every target point, hence every box, lies in [0, 1]
        assert all(0.0 <= lo <= hi <= 1.0 for lo, hi in zip(lower, upper))
    # the same boxes, in the same column order, as the library reports
    model = o.fit_dataset(d, ["energy", "pulses"], [], nu=0.1,
                          kernel=o.KernelParams(gamma=0.1))
    split = o.split_by_prediction(d, model)
    with pytest.raises(o.ExtractionConvergenceError) as ei:
        o.extract_rule_sets(split, model, config=o.ExtractionConfig(max_clusters=3))
    assert boxes == [[list(lo), list(hi)] for lo, hi in ei.value.offending_boxes]


# ---------------------------------------------------------------------------
# surrogate
# ---------------------------------------------------------------------------

def test_surrogate_writes_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["surrogate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    stats = json.loads((out / "surrogate_stats.json").read_text())
    assert stats["training_accuracy"] == 1.0
    assert stats["n_leaves"] >= 2
    assert set(stats["rules_per_class"]) <= {"-1", "1"}
    tree = json.loads((out / "tree.json").read_text())
    assert tree["features"] == ["x", "y"]
    text = (out / "tree_rules.txt").read_text(encoding="utf-8")
    assert len(text.splitlines()) == stats["n_leaves"]


def test_surrogate_requires_extract_first(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["surrogate", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "run extract first" in doc["message"]


def test_surrogate_tree_matches_library_fit(tmp_path, capsys):
    d = synth.two_blobs()
    cfg = _write_config(tmp_path, d)
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["surrogate", "--config", str(cfg)]) == 0
    model = o.fit_dataset(d, ["x", "y"], [], nu=synth.BLOB_NU,
                          kernel=o.KernelParams(gamma=synth.BLOB_GAMMA))
    tree, names = o.fit_surrogate(d, model)
    expected = o.tree_to_json(tree, names)
    assert (tmp_path / "out" / "tree.json").read_text(encoding="utf-8") == expected


MISMATCHES = {
    "nu": dict(ocsvm={"nu": 0.2, "gamma": synth.BLOB_GAMMA}),
    "gamma": dict(ocsvm={"nu": synth.BLOB_NU, "gamma": 2.0}),
    "numerical": dict(columns={"numerical": ["y", "x"], "categorical": []}),
    "cyclical": dict(columns={"numerical": ["x", "y"], "categorical": [],
                              "cyclical": {"x": 24}}),
}


@pytest.mark.parametrize("command", ["surrogate", "plot"])
@pytest.mark.parametrize("change", sorted(MISMATCHES) + ["rows"])
def test_model_must_match_config_and_data(tmp_path, capsys, command, change):
    d = synth.two_blobs()
    assert main(["extract", "--config", str(_write_config(tmp_path, d))]) == 0
    if change == "rows":
        cfg = _write_config(tmp_path, d.take(np.arange(d.rows - 1)))
    else:
        cfg = _write_config(tmp_path, d, **MISMATCHES[change])
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "run extract again" in doc["message"]


@pytest.mark.parametrize("command", ["surrogate", "plot"])
@pytest.mark.parametrize("text", [
    "{broken", "[]", "{}", '{"format": "ocsvm-model/1"}', "\udcff",
])
def test_corrupt_model_json_exits_2(tmp_path, capsys, command, text):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    (tmp_path / "out" / "model.json").write_text(text, encoding="utf-8",
                                                 errors="surrogateescape")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    assert _read_error(capsys, 2)["error"] in ("ConfigError", "SchemaError")


@pytest.mark.parametrize("entry", [
    {"period": -24, "sin": "x_sin", "cos": "x_cos"},
    {"period": 24.0, "sin": 1, "cos": "x_cos"},
], ids=["negative-period", "non-string-sin"])
def test_model_json_with_malformed_cyclical_entry_exits_2(tmp_path, capsys, entry):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["schema"]["cyclical"] = {"x": entry}
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["surrogate", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert "malformed" in doc["message"] and "model.json" in doc["message"]


def test_model_json_with_infinite_gamma_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["gamma"] = float("inf")
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["surrogate", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert "malformed" in doc["message"] and "gamma" in doc["message"]


def _first_scaling(doc):
    return doc["scaling"][sorted(doc["scaling"])[0]]


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(rho=float("nan")),
    lambda doc: doc.update(nu=float("inf")),
    lambda doc: doc["alphas"].__setitem__(0, float("nan")),
    lambda doc: doc["support_vectors"][0].__setitem__(0, float("-inf")),
    lambda doc: _first_scaling(doc).update(min=float("nan")),
    lambda doc: _first_scaling(doc).update(max=float("inf")),
], ids=["rho", "nu", "alpha", "support-vector", "scaling-min", "scaling-max"])
def test_model_json_with_non_finite_number_exits_2(tmp_path, capsys, corrupt):
    cfg = _hourly_config(tmp_path)
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    corrupt(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["surrogate", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert "malformed" in doc["message"] and "non-finite" in doc["message"]
    assert not (tmp_path / "out" / "tree.json").exists()


def _quote_first_alphas(doc):
    doc["alphas"][0] = str(doc["alphas"][0])
    doc["alphas"][1] = True


# text or a bool where a number belongs; the former reader took each through
# float() and scored with it
@pytest.mark.parametrize("field, corrupt", [
    ("nu", lambda doc: doc.update(nu=str(doc["nu"]))),
    ("gamma", lambda doc: doc.update(gamma=str(doc["gamma"]))),
    ("rho", lambda doc: doc.update(rho=True)),
    ("alphas", _quote_first_alphas),
    ("support_vectors", lambda doc: doc["support_vectors"][0].__setitem__(0, False)),
    ("scaling", lambda doc: _first_scaling(doc).update(min=False, max=True,
                                                       degenerate=False)),
], ids=["nu-text", "gamma-text", "rho-bool", "alphas-text-and-bool",
        "support-vector-bool", "scaling-bools"])
@pytest.mark.parametrize("command", ["surrogate", "plot"])
def test_model_json_with_a_non_number_exits_2(tmp_path, capsys, command, field, corrupt):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    corrupt(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert "model.json" in doc["message"] and field in doc["message"]
    assert "not a number" in doc["message"]


# text where the schema wants a list of strings, which the former reader took
# as the list of its characters; one-letter columns make such text fit the config
@pytest.mark.parametrize("slot", ["numerical", "categorical", "levels"])
@pytest.mark.parametrize("command", ["surrogate", "plot"])
def test_model_json_with_text_for_a_list_exits_2(tmp_path, capsys, command, slot):
    g = synth.grouped_dataset()
    d = o.Dataset(columns=(("x", o.NUMERICAL), ("y", o.NUMERICAL), ("m", o.CATEGORICAL)),
                  data={"x": g.data["x"], "y": g.data["y"], "m": g.data["mode"]},
                  rows=g.rows)
    cfg = _write_config(tmp_path, d, columns={"numerical": ["x", "y"], "categorical": ["m"]},
                        ocsvm={"nu": 0.05, "gamma": 15.0})
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if slot == "levels":
        doc["schema"]["levels"]["m"] = "no"
    else:
        doc["schema"][slot] = "".join(doc["schema"][slot])  # "xy" or "m"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert "model.json" in doc["message"] and "list of strings" in doc["message"]


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["scaling"].pop("x"),
    lambda doc: doc["scaling"].update(z=dict(_first_scaling(doc))),
    lambda doc: _first_scaling(doc).update(degenerate=0),
    lambda doc: _first_scaling(doc).update(degenerate=True),
    lambda doc: _first_scaling(doc).update(max=_first_scaling(doc)["min"]),
], ids=["column-missing", "column-extra", "degenerate-not-bool", "degenerate-with-range",
        "no-range-not-degenerate"])
def test_model_json_with_scaling_off_the_schema_exits_2(tmp_path, capsys, corrupt):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    corrupt(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["surrogate", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert "malformed" in doc["message"] and "scaling" in doc["message"]
    assert not (tmp_path / "out" / "tree.json").exists()


def test_model_json_with_a_fractional_n_train_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["n_train"] += 0.5
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["surrogate", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert "malformed" in doc["message"] and "n_train" in doc["message"]


def test_model_json_with_mismatched_support_vectors_is_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["alphas"] = doc["alphas"][1:]
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["surrogate", "--config", str(cfg)]) == 2
    assert _read_error(capsys, 2)["error"] == "SchemaError"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_with_no_artifacts_still_succeeds(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["model"] == {"status": "missing"}
    assert report["extraction"] == {"status": "missing"}
    assert report["rules"]["na"] == {"status": "missing"}
    assert "rules a: missing" in (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")


def test_report_summarizes_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["surrogate", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["model"]["n_train"] == 121
    assert report["rules"]["na"]["n_rules"] == 2
    assert report["surrogate"]["training_accuracy"] == 1.0
    txt = (out / "report.txt").read_text(encoding="utf-8")
    assert "extraction non_anomalous: 2 rules" in txt
    assert "  NOT OUTLIER IF " in txt


def test_report_marks_a_rule_with_an_infinite_bound_unreadable(tmp_path):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "rules_na.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["rules"][0]["upper"][0] = float("inf")
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["rules"]["na"]["status"].startswith("unreadable")


def test_report_isolates_corrupt_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    (tmp_path / "out" / "rules_na.json").write_text("{broken", encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["rules"]["na"]["status"].startswith("unreadable")
    assert report["model"]["n_train"] == 121  # other sections unaffected
    txt = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert "rules na: unreadable: " in txt

    (tmp_path / "out" / "model.json").write_text("{}", encoding="utf-8")
    (tmp_path / "out" / "extract_stats.json").write_text("[1]", encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["model"]["status"].startswith("unreadable")
    assert report["extraction"]["status"].startswith("unreadable")
    txt = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert "model: unreadable" in txt
    assert "extraction: unreadable" in txt


@pytest.mark.parametrize("fields", [
    {"format": "bogus", "rho": "x", "alphas": "abc", "n_train": 0},
    {"n_train": 0},
], ids=["bogus-fields", "zero-n_train"])
def test_report_reads_the_model_as_surrogate_does(tmp_path, capsys, fields):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(fields)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["model"]["status"].startswith("unreadable")
    assert report["rules"]["na"]["n_rules"] == 2  # other sections unaffected
    assert "model: unreadable" in (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("change", ["deleted", "garbled"])
def test_report_renders_rule_text_from_the_json(tmp_path, capsys, change):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg), "--target", "both"]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    names = ("report.json", "report.txt")
    want = [(out / name).read_bytes() for name in names]
    assert "  OUTLIER IF " in want[1].decode("utf-8")
    for suffix in ("na", "a"):
        path = out / ("rules_%s.txt" % suffix)
        if change == "deleted":
            path.unlink()
        else:
            path.write_bytes(b"\xff\xfe")
    assert main(["report", "--config", str(cfg)]) == 0
    assert [(out / name).read_bytes() for name in names] == want


def _grouped_config(tmp_path):
    return _write_config(tmp_path, synth.grouped_dataset(),
                         columns={"numerical": ["x", "y"], "categorical": ["mode"]},
                         ocsvm={"nu": 0.05, "gamma": 15.0})


@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "no-categorical"])
def test_report_counts_rules_per_state_text(tmp_path, capsys, grouped):
    cfg = _grouped_config(tmp_path) if grouped else _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rules = o.ruleset_from_json((out / "rules_na.json").read_text(encoding="utf-8")).rules
    per_state = json.loads((out / "report.json").read_text())["rules"]["na"]["per_state"]
    want = {}
    for r in rules:
        want[state_text(r.state)] = want.get(state_text(r.state), 0) + 1
    assert per_state == want
    if grouped:
        assert set(per_state) == {"mode=off", "mode=on"}
    else:
        assert set(per_state) == {"<none>"}


def test_every_json_artifact_has_the_one_layout(tmp_path, capsys):
    cfg = _grouped_config(tmp_path)
    for argv in (["extract", "--target", "both"], ["surrogate"], ["report"]):
        assert main(argv + ["--config", str(cfg)]) == 0, argv
    written = sorted((tmp_path / "out").glob("*.json"))
    assert [p.name for p in written] == [
        "extract_stats.json", "model.json", "report.json", "rules_a.json",
        "rules_a_scaled.json", "rules_na.json", "rules_na_scaled.json", "split.json",
        "surrogate_stats.json", "tree.json"]
    for p in written:
        text = p.read_text(encoding="utf-8")
        assert json_text(json.loads(text)) == text, p.name


def test_report_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    first = (out / "report.json").read_bytes(), (out / "report.txt").read_bytes()
    assert main(["report", "--config", str(cfg)]) == 0
    assert ((out / "report.json").read_bytes(),
            (out / "report.txt").read_bytes()) == first


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_requires_extract_first(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["plot", "--config", str(cfg)]) == 2
    assert "run extract first" in _read_error(capsys, 2)["message"]
    # a model but no rules for the asked target
    assert main(["extract", "--config", str(cfg), "--target", "na"]) == 0
    capsys.readouterr()
    assert main(["plot", "--config", str(cfg), "--target", "a"]) == 2
    doc = _read_error(capsys, 2)
    assert "rules_a.json" in doc["message"]
    assert "run extract first" in doc["message"]


@pytest.mark.parametrize("text, error", [
    ("{bad", "SchemaError"), ("[1]", "SchemaError"), ("{}", "SchemaError"),
    ('{"format": "rule-set/1"}', "SchemaError"), ("\udcff", "ConfigError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": False,
                 "columns": ["x", "y"], "rules": [{"state": [], "lower": [1, 0],
                                                   "upper": [0, 1], "n_points": 1}]}),
     "SchemaError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": "false",
                 "columns": ["x", "y"], "rules": []}), "SchemaError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": False,
                 "columns": ["x", "y"], "rules": [],
                 "cyclical": {"x": {"period": -24, "sin": "x_sin", "cos": "x_cos"}}}),
     "SchemaError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": False,
                 "columns": ["x", "y"], "rules": [{"state": [], "lower": [float("nan"), 0],
                                                   "upper": [1, 1], "n_points": 1}]}),
     "SchemaError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": False,
                 "columns": ["x", "y"], "rules": [{"state": [], "lower": [0, 0],
                                                   "upper": [1, 1], "n_points": -7}]}),
     "SchemaError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": False,
                 "columns": ["x", "y"], "rules": [{"state": [], "lower": ["0.5", 0],
                                                   "upper": [1, 1], "n_points": 1}]}),
     "SchemaError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": False,
                 "columns": ["x", "y"], "rules": [{"state": [], "lower": [0, 0],
                                                   "upper": [True, 1], "n_points": 1}]}),
     "SchemaError"),
    (json.dumps({"format": "rule-set/1", "target": "non_anomalous", "scaled": False,
                 "columns": ["x", "z"], "rules": []}), "SchemaError"),
], ids=["bad-json", "list", "empty", "format-only", "not-utf8", "inverted-bounds",
        "scaled-string", "negative-period", "nan-bound", "negative-count", "text-bound",
        "bool-bound", "column-not-in-data"])
def test_corrupt_rules_json_exits_2(tmp_path, capsys, text, error):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    (tmp_path / "out" / "rules_na.json").write_text(text, encoding="utf-8",
                                                    errors="surrogateescape")
    capsys.readouterr()
    assert main(["plot", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == error
    assert "rules_na.json" in doc["message"]
    assert not (tmp_path / "out" / "plot_na.svg").exists()


def test_plot_columns_missing_from_the_rules_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs(), plot={"columns": ["x", "z"]})
    assert main(["extract", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["plot", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError" and "plot.columns" in doc["message"]
    assert not (tmp_path / "out" / "plot_na.svg").exists()


def test_plot_writes_svg(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs(),
                        plot={"columns": ["x", "y"], "width": 400, "height": 300})
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["plot", "--config", str(cfg)]) == 0
    svg = (tmp_path / "out" / "plot_na.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert svg.count("<rect") >= 2  # background plus one per rule box
    assert main(["plot", "--config", str(cfg)]) == 0  # byte-stable rerun
    assert (tmp_path / "out" / "plot_na.svg").read_text(encoding="utf-8") == svg


def test_plot_both_targets_with_cyclical_column(tmp_path, capsys):
    cfg = _hourly_config(tmp_path)
    assert main(["extract", "--config", str(cfg), "--target", "both"]) == 0
    assert main(["plot", "--config", str(cfg), "--target", "both"]) == 0
    out = tmp_path / "out"
    first = {s: (out / ("plot_%s.svg" % s)).read_bytes() for s in ("na", "a")}
    assert all(svg.startswith(b"<svg") for svg in first.values())
    assert main(["plot", "--config", str(cfg), "--target", "both"]) == 0
    for suffix, svg in first.items():
        assert (out / ("plot_%s.svg" % suffix)).read_bytes() == svg, suffix


def test_extract_writes_the_split_of_the_rows(tmp_path, capsys):
    d = synth.two_blobs()
    cfg = _write_config(tmp_path, d)
    assert main(["extract", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    model = o.model_from_json((out / "model.json").read_text(encoding="utf-8"))
    assert json.loads((out / "split.json").read_text(encoding="utf-8")) == {
        "format": "split/1",
        "data_sha256": hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest(),
        "rows": d.rows,
        "anomalous": np.flatnonzero(
            ocsvm_module.dataset_decision_values(model, d) < 0).tolist()}


def test_plot_refuses_a_dataset_changed_since_extract(tmp_path, capsys):
    d = synth.two_blobs()
    cfg = _write_config(tmp_path, d)
    assert main(["extract", "--config", str(cfg)]) == 0
    # as many rows and the same columns, so the model's checks all pass
    synth.write_csv(tmp_path / "data.csv",
                    synth.matrix_dataset(d.numeric_matrix(["x", "y"]) * [3.0, 1.0]))
    capsys.readouterr()
    assert main(["plot", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "split.json" in doc["message"] and "run extract again" in doc["message"]
    assert not (tmp_path / "out" / "plot_na.svg").exists()


SPLIT_FAULTS = {
    "broken-json": lambda doc: "{broken",
    "format": lambda doc: json.dumps(dict(doc, format="split/0")),
    "bool-index": lambda doc: json.dumps(dict(doc, anomalous=[True])),
    "negative-index": lambda doc: json.dumps(dict(doc, anomalous=[-1])),
    "index-out-of-range": lambda doc: json.dumps(dict(doc, anomalous=[doc["rows"]])),
    "unsorted": lambda doc: json.dumps(dict(doc, anomalous=[2, 1])),
}


@pytest.mark.parametrize("fault", sorted(SPLIT_FAULTS))
def test_malformed_split_json_exits_2(tmp_path, capsys, fault):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "split.json"
    path.write_text(SPLIT_FAULTS[fault](json.loads(path.read_text(encoding="utf-8"))),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["plot", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "SchemaError"
    assert doc["message"].startswith("malformed %s: " % path)


def test_plot_without_split_json_says_run_extract_first(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    (tmp_path / "out" / "split.json").unlink()
    capsys.readouterr()
    assert main(["plot", "--config", str(cfg)]) == 2
    doc = _read_error(capsys, 2)
    assert doc["error"] == "ConfigError"
    assert "split.json" in doc["message"] and "run extract first" in doc["message"]


@pytest.mark.parametrize("command", ["extract", "plot"])
def test_both_targets_score_the_rows_once(tmp_path, capsys, monkeypatch, command):
    # extract scores every row once for both targets; plot reads the split
    # extract wrote to split.json and scores none
    cfg = _hourly_config(tmp_path)
    assert main(["extract", "--config", str(cfg), "--target", "both"]) == 0
    # dataset_decision_values looks decision_values up as a module global
    calls = []
    inner = ocsvm_module.decision_values

    def counting(m, X):
        calls.append(len(X))
        return inner(m, X)

    monkeypatch.setattr(ocsvm_module, "decision_values", counting)
    assert main([command, "--config", str(cfg), "--target", "both"]) == 0
    assert calls == ([synth.hourly().rows] if command == "extract" else [])


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------

def test_commands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 15 ms of import in every fresh process; plain
    # np.unique is one call that loads it
    cfg = _grouped_config(tmp_path)
    script = (
        "import sys\n"
        "from ocsvm_rules.cli import main\n"
        "for argv in (['extract', '--target', 'both'], ['surrogate'],\n"
        "             ['plot', '--target', 'both'], ['report']):\n"
        "    assert main(argv + ['--config', sys.argv[1]]) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n")
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

def test_report_runs_without_numpy_and_plot_without_kmeans(tmp_path, capsys):
    # report only reads JSON and text; numpy is most of its start-up time
    cfg = _grouped_config(tmp_path)
    assert main(["extract", "--config", str(cfg), "--target", "both"]) == 0
    # plot reads the split extract wrote and draws without numpy too; csv
    # and hashlib load only when a command reads the dataset
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ocsvm_rules.cli as cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "assert not {'csv', 'hashlib'} & (set(sys.modules) - before), 'import'\n"
        "for argv in (['report'], ['plot', '--target', 'both']):\n"
        "    assert cli.main(argv + ['--config', sys.argv[1]]) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "assert cli.main(['surrogate', '--config', sys.argv[1]]) == 0\n"
        "assert 'ocsvm_rules.clustering' not in sys.modules, 'surrogate'\n")
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["model"]["n_train"] == synth.grouped_dataset().rows
    assert report["rules"]["a"]["n_rules"] > 0


def test_console_entry_point(tmp_path):
    cfg = _write_config(tmp_path, synth.two_blobs())
    proc = subprocess.run(
        [sys.executable, "-m", "ocsvm_rules.cli", "extract", "--config", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert (tmp_path / "out" / "model.json").exists()


def test_box_mode_flag_writes_what_the_config_setting_writes(tmp_path, capsys):
    flag = _write_config(tmp_path, synth.two_blobs(), name="flag.json")
    setting = _write_config(tmp_path, synth.two_blobs(), name="setting.json",
                            extraction={"box_mode": "farthest"})
    assert main(["extract", "--config", str(flag), "--target", "both",
                 "--box-mode", "farthest", "--out", str(tmp_path / "flag")]) == 0
    assert main(["extract", "--config", str(setting), "--target", "both",
                 "--out", str(tmp_path / "setting")]) == 0
    assert main(["extract", "--config", str(flag), "--target", "both",
                 "--out", str(tmp_path / "all")]) == 0
    names = ["rules_%s%s.json" % (suffix, kind) for suffix in ("na", "a")
             for kind in ("", "_scaled")]
    read = {run: [(tmp_path / run / name).read_bytes() for name in names]
            for run in ("flag", "setting", "all")}
    assert read["flag"] == read["setting"]
    assert read["flag"] != read["all"]  # the flag changed the boxes

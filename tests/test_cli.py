import json
import subprocess
import sys

import numpy as np
import pytest

import ocsvm_rules as o
from ocsvm_rules.cli import main

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


def test_extract_with_cyclical_column(tmp_path, capsys):
    rng = np.random.default_rng(17)
    hours = rng.integers(0, 24, size=80).astype(np.float64)
    v = rng.normal(0.0, 1.0, size=80)
    v[:2] = 40.0  # unambiguous outliers
    d = synth.matrix_dataset(np.column_stack([hours, v]), names=("hour", "v"))
    cfg = _write_config(
        tmp_path, d,
        columns={"numerical": ["hour", "v"], "categorical": [],
                 "cyclical": {"hour": 24}},
        ocsvm={"nu": 0.05, "gamma": 0.5})
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
    tree, names, _, _ = o.fit_surrogate(d, model)
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


def test_report_isolates_corrupt_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, synth.two_blobs())
    assert main(["extract", "--config", str(cfg)]) == 0
    (tmp_path / "out" / "rules_na.json").write_text("{broken", encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["rules"]["na"]["status"].startswith("unreadable")
    assert report["model"]["n_train"] == 121  # other sections unaffected

    (tmp_path / "out" / "model.json").write_text("{}", encoding="utf-8")
    (tmp_path / "out" / "extract_stats.json").write_text("[1]", encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["model"]["status"].startswith("unreadable")
    assert report["extraction"]["status"].startswith("unreadable")
    txt = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert "model: unreadable" in txt
    assert "extraction: unreadable" in txt


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


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------

def test_console_entry_point(tmp_path):
    cfg = _write_config(tmp_path, synth.two_blobs())
    proc = subprocess.run(
        [sys.executable, "-m", "ocsvm_rules.cli", "extract", "--config", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert (tmp_path / "out" / "model.json").exists()

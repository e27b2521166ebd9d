"""Self-test of the benchmark on its tiny workload; runs in seconds.

    python3 -m pytest -q perfbench

The metric names come from the benchmark's code, not from the workload, so
the tiny workload (four states, 160 rows, the states configuration) stands
for both listed workloads.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=150)


def test_every_named_metric_is_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        p = bench("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert p.returncode == 0, p.stderr[-2000:]
        result = json.loads(p.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[key]}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = bench("--workload", "seismic", "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0 and p.stdout == ""


def test_seismic_sample_is_the_test_fixture():
    import synth

    names, pts, _ = workloads.seismic_sample(11)
    assert np.array_equal(pts, synth.seismic_like(11).numeric_matrix(list(names)))


def test_seed_fixes_the_inputs(tmp_path):
    w = workloads.WORKLOADS["tiny"]
    texts = []
    for i, seed in enumerate((4, 4, 5)):
        workloads.write_inputs(w, tmp_path / str(i), seed, w.data_seed)
        texts.append((tmp_path / str(i) / "data.csv").read_text(encoding="utf-8"))
    assert texts[0] == texts[1] != texts[2]


def _tampered_ops(tmp_path, tamper):
    """Failed ops of one checked pipeline run whose rules_na.json was edited."""
    w = workloads.WORKLOADS["tiny"]
    config = workloads.write_inputs(w, tmp_path, 0, w.data_seed)
    out = tmp_path / "out"
    codes, _ = run.run_inprocess(str(config), out)
    rules = out / "rules_na.json"
    doc = json.loads(rules.read_text(encoding="utf-8"))
    tamper(doc["rules"])
    rules.write_text(json.dumps(doc), encoding="utf-8")
    ops = run.Ops()
    run.check_run(ops, "tampered", codes, out, tmp_path, w.columns, {})
    return ops


def test_rules_widened_over_anomalies_fail_extract(tmp_path):
    def widen(rules):
        for r in rules:
            r["lower"] = [-1e300] * len(r["lower"])
            r["upper"] = [1e300] * len(r["upper"])

    ops = _tampered_ops(tmp_path, widen)
    assert (ops.attempted, ops.failed) == (4, 1)
    assert ops.problems[0].startswith("tampered extract: ")
    assert "anomalous rows covered" in " ".join(ops.problems)


def test_rules_dropped_from_the_file_fail_extract(tmp_path):
    ops = _tampered_ops(tmp_path, lambda rules: rules.pop())
    assert (ops.attempted, ops.failed) == (4, 1)
    assert "rules cover" in " ".join(ops.problems)

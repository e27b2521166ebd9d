"""The benchmark reaches into the package by name.

``perfbench/tracing.py`` replaces attributes such as ``rules.state_mask``
or ``Dataset.take`` with timing wrappers, ``perfbench/checks.py`` imports
the package's readers to check every run's outputs, and ``perfbench/run.py``
reads ``ocsvm.DENSE_KERNEL_LIMIT``. A renamed or deleted name would make
every benchmark run fail while every other test still passes, so this checks
each name the tracer wraps, that constant, and runs the checks. A wrapper's
``observe`` function runs only on a traced pipeline, so one runs here too,
and each layer the commands call must show up in its spans.
"""

import importlib.util
import json
import sys
from pathlib import Path

from ocsvm_rules import cli, ocsvm

import synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    targets = _load("tracing")._targets()
    assert targets
    for owner, attr, name, _ in targets:
        fn = getattr(owner, attr, None)
        assert callable(fn), "%s: %s.%s is %r" % (name, owner.__name__, attr, fn)


def test_dense_kernel_limit_is_a_positive_int():
    # run.py passes it to tracing.layer_metrics for ocsvm.gram_mb
    limit = getattr(ocsvm, "DENSE_KERNEL_LIMIT", None)
    assert isinstance(limit, int) and not isinstance(limit, bool) and limit > 0, limit


def test_traced_pipeline_emits_every_per_layer_metric(tmp_path):
    # run.py's --trace 1 flow: the four commands in this process under the
    # tracer, then layer_metrics over its spans; run.py adds the other three
    tracing, workloads = _load("tracing"), _load("workloads")
    config = str(workloads.write_inputs(workloads.WORKLOADS["tiny"], tmp_path,
                                        seed=0, data_seed=5))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for cmd, extra in (("extract", ["--target", "both"]), ("surrogate", []),
                           ("plot", ["--target", "both"]), ("report", [])):
            assert cli.main([cmd, "--config", config] + extra) == 0, cmd
    # the commands look these up where the tracer replaced them: a command
    # that bound its own copy would leave its layer's time at 0
    seen = {s["name"] for s in tracer.spans}
    for name in ("dataset.load_csv", "rules.extract_rule_sets", "surrogate.fit_tree",
                 "plotting.scatter_rules_svg", "cli.serialise"):
        assert name in seen, name
    emitted = tracing.layer_metrics(tracer.spans, ocsvm.DENSE_KERNEL_LIMIT)
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    from_run = {"cli.bytes_written", "trace.total_s", "trace.overhead_s"}
    assert {name: unit for name, (_, unit) in emitted.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] not in from_run}


def test_output_checks_load_with_their_package_imports():
    # run.py calls these two; loading the module runs checks.py's imports
    checks = _load("checks")
    assert callable(checks.check_command)
    assert callable(checks.digests)


def test_extract_check_passes_on_a_periodic_column(tmp_path, capsys):
    # no benchmark workload has a periodic column: this runs checks.py's
    # split of the written model over one
    csv_path = tmp_path / "data.csv"
    synth.write_csv(csv_path, synth.hourly())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": "data.csv", "columns": synth.HOURLY_COLUMNS,
                               "ocsvm": synth.HOURLY_OCSVM}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["extract", "--config", str(cfg), "--out", str(out),
                     "--target", "both"]) == 0
    checks = _load("checks")
    assert checks.check_command("extract", out, csv_path, synth.HOURLY_COLUMNS) == []

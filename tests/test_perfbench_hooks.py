"""The benchmark reaches into the package by name.

``perfbench/tracing.py`` replaces attributes such as ``rules.state_mask``
or ``Dataset.take`` with timing wrappers, and ``perfbench/checks.py``
imports the package's readers to check every run's outputs. A renamed or
deleted function would make every benchmark run fail while every other test
still passes, so this checks each name the tracer wraps and loads the checks.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    targets = _load("tracing")._targets()
    assert targets
    for owner, attr, name, _ in targets:
        fn = getattr(owner, attr, None)
        assert callable(fn), "%s: %s.%s is %r" % (name, owner.__name__, attr, fn)


def test_output_checks_load_with_their_package_imports():
    # run.py calls these two; loading the module runs checks.py's imports
    checks = _load("checks")
    assert callable(checks.check_command)
    assert callable(checks.digests)

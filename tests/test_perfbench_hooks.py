"""The benchmark's traced run wraps package functions by name.

``perfbench/tracing.py`` replaces attributes such as ``rules.state_mask``
or ``Dataset.take`` with timing wrappers. A renamed or deleted function
would make ``perfbench/run.py --trace 1`` fail while every other test still
passes, so this checks each name the tracer wraps.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    targets = _tracing()._targets()
    assert targets
    for owner, attr, name, _ in targets:
        fn = getattr(owner, attr, None)
        assert callable(fn), "%s: %s.%s is %r" % (name, owner.__name__, attr, fn)

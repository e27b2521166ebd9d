import os
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

# On a failing property the Hypothesis plugin imports this module, which
# imports libcst, whose import warns that mypy_extensions.TypedDict is
# deprecated. Under filterwarnings = ["error"] that warning would abort the
# whole session from inside the plugin's report hook, before the falsifying
# example is printed and before any later test runs. Importing it here,
# once, with that warning ignored leaves nothing to warn about later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

import ocsvm_rules as o

import synth

# pyproject's pythonpath reaches this process only; the CLI tests' child
# interpreters (python -m ocsvm_rules.cli) find the package through this
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def blob_data():
    return synth.two_blobs()


@pytest.fixture(scope="session")
def blob_model(blob_data):
    return o.fit_dataset(blob_data, ["x", "y"], [], nu=synth.BLOB_NU,
                         kernel=o.KernelParams(gamma=synth.BLOB_GAMMA))


@pytest.fixture(scope="session")
def seismic_data():
    return synth.seismic_like()


@pytest.fixture(scope="session")
def seismic_model(seismic_data):
    return o.fit_dataset(seismic_data, ["energy", "pulses"], [], nu=0.1,
                         kernel=o.KernelParams(gamma=0.1))


@pytest.fixture(scope="session")
def grouped_data():
    return synth.grouped_dataset()


@pytest.fixture(scope="session")
def grouped_model(grouped_data):
    return o.fit_dataset(grouped_data, ["x", "y"], ["mode"], nu=0.05,
                         kernel=o.KernelParams(gamma=15.0))

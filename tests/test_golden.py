"""Golden artifacts: sha256 of the model, rule-set and tree JSON of each fixture.

The digests pin the bytes a refactor must preserve. The model and rule-set
digests were recorded with the default ExtractionConfig before the k-means
sweep shared its seeding across cluster counts; the surrogate tree digests
before the split search was vectorised. A change that moves one of them
changes the rules, the model or the tree and has to say why.

The report digests pin report.json and report.txt after extract --target
both and surrogate through the command line, as recorded before report
stopped building the model's arrays to summarise it.

The plot digests pin plot_na.svg and plot_a.svg after extract --target both
and plot --target both, as recorded while plot still rebuilt the model and
scored every row with numpy to colour the points. hourly takes the periodic
path: its plotted columns are hour_sin and hour_cos.

The two_blobs and grouped_dataset digests (model, both rule sets, tree)
were re-pinned when every fit moved to one-row kernel products
X[i] @ X.T, which round differently from the whole X @ X.T. The models
moved in their last bits, and rows on the margin (|g| below the solver's
tol of 1e-5) changed side: two_blobs rows 63, 102 and 106 and
grouped_dataset rows 4 and 112 went from anomalous to non-anomalous. The
anomalous rule sets went from 4 to 1 and from 6 to 4 rules; each
non-anomalous set kept its 2 rules, and the boxes that took in the moved
rows grew. seismic_like did not move.
"""

import hashlib
import json

import pytest

import ocsvm_rules as o
from ocsvm_rules.cli import main

import synth

GOLDEN = {
    "two_blobs": {
        "model": "06eb917705298c34e045731a3054bc0fc5272d13243af4116bc34010d3f75d9a",
        "non_anomalous": (
            "46304a993c4d4797e86627ada8425dcc941a5691813c46538da806468315a9cd",
            "c071b2763eb1010bd9b617517652e00fb8e5ad9056272eaf5feaf3b3f2a185bc",
        ),
        "anomalous": (
            "aefb6ffd68712843f1d11ee7f2e027f8f79e5ad09efb512f0fe395e88ecf74d9",
            "958d350cbb27f49137235061201400c07ab0b9967442914d44dac4f67d7fe0b4",
        ),
    },
    "seismic_like": {
        "model": "930b8fd6eb8b3b44ee88cb3dcc0563bb161694d65bcb136fcfc24dc2d920df2c",
        "non_anomalous": (
            "758a0c716ba2d8e32299d9647f2d309d49e1b4eac62e868068947326fb4b2fbf",
            "e09703f4f209139b65d4d2b1500740c15a536e0396cf038a64a552a7ea155de1",
        ),
        "anomalous": (
            "d4c8046d77549f2d644b75f586d5e850e0143084dcee83b39694af658dde225c",
            "568c61f2ec97e11a92baca7199d0fe737035dc7008478176e100fd5524e6571b",
        ),
    },
    "grouped_dataset": {
        "model": "cd3209644f11a924f983bdf333da680a036b96517af0a57e7a792cfdba26b070",
        "non_anomalous": (
            "9552ea6296456a7e7b5aa28a527dd35f0321a0095c418f48197330e8c8b3e64c",
            "f01d606d07df918f11e0daf68b108f0f30ee2750bb3c49133416d6f15b5f301c",
        ),
        "anomalous": (
            "2134fbe8a9e91766c08c3508c19a4d24df6daadea65c50e3761923b7b8dc2c0d",
            "741010779f400ccb133cfdd4ae645a59b64e84acab7f8b6d8d299be47477c715",
        ),
    },
}

TREE_GOLDEN = {
    "two_blobs": "1df3d38dfd37b8ad373dd5862b6d20f37ef2ef08f7f1bbaf33032e0f20d9995a",
    "seismic_like": "fa5bb2c9f09020f310c12f86407ce4080fd5950932b77fb3c9fa2575fd8e80f1",
    "grouped_dataset": "6b36593eb670a9f35bda0743468b7d505f8449fd0c190bb38d451d5a0fd6dfc3",
}

FIXTURES = {
    "two_blobs": ("blob_data", "blob_model"),
    "seismic_like": ("seismic_data", "seismic_model"),
    "grouped_dataset": ("grouped_data", "grouped_model"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_model_json_golden(name, request):
    model = request.getfixturevalue(FIXTURES[name][1])
    assert _sha(o.model_to_json(model)) == GOLDEN[name]["model"]


@pytest.mark.parametrize("target", [o.TARGET_NON_ANOMALOUS, o.TARGET_ANOMALOUS])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_ruleset_json_golden(name, target, request):
    data_fx, model_fx = FIXTURES[name]
    model = request.getfixturevalue(model_fx)
    split = o.split_by_prediction(request.getfixturevalue(data_fx), model)
    res = o.extract_rule_sets(split, model, target=target)
    original, scaled = GOLDEN[name][target]
    assert _sha(o.ruleset_to_json(res.ruleset)) == original
    assert _sha(o.ruleset_to_json(res.ruleset_scaled)) == scaled


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_surrogate_tree_json_golden(name, request):
    data_fx, model_fx = FIXTURES[name]
    tree, names = o.fit_surrogate(request.getfixturevalue(data_fx),
                                  request.getfixturevalue(model_fx))
    assert _sha(o.tree_to_json(tree, names)) == TREE_GOLDEN[name]


# (dataset, columns, ocsvm settings) of each fixture's command-line run
REPORT_RUNS = {
    "two_blobs": (synth.two_blobs, {"numerical": ["x", "y"], "categorical": []},
                  {"nu": synth.BLOB_NU, "gamma": synth.BLOB_GAMMA}),
    "seismic_like": (synth.seismic_like,
                     {"numerical": ["energy", "pulses"], "categorical": []},
                     {"nu": 0.1, "gamma": 0.1}),
    "grouped_dataset": (synth.grouped_dataset,
                        {"numerical": ["x", "y"], "categorical": ["mode"]},
                        {"nu": 0.05, "gamma": 15.0}),
}

REPORT_GOLDEN = {
    "two_blobs": (
        "195ac3abd785cf35ef65ac7fc1189559cf2223a966874713b13878f9bb45f568",
        "2cccf3043bac1b164e11d965bad988db4ccb9782c1eb496598dca6b21ffb52cd",
    ),
    "seismic_like": (
        "8010c86a9cce267c344211831c28e0e09d17e6c1365ebe81b5d3d539ac8e42da",
        "4613862fc514191dddaf05abf1dba65308bb9100c1857a9d260f35fe0a12d882",
    ),
    "grouped_dataset": (
        "204a79a7d0df22b2598f1f2463a36db305e495203c47fec004f4ebdfe7390d98",
        "e3add0593a5b39499da550becdc9b3eaa3206f04c1d14286031645270b016e10",
    ),
}


def _run_commands(tmp_path, run, commands, files) -> tuple:
    """sha256 of each of files after the commands ran over run's dataset."""
    data, columns, ocsvm = run
    synth.write_csv(tmp_path / "data.csv", data())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": "data.csv", "columns": columns, "ocsvm": ocsvm}),
                   encoding="utf-8")
    for argv in commands:
        assert main(argv + ["--config", str(cfg)]) == 0, argv
    out = tmp_path / "out"
    return tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files)


@pytest.mark.parametrize("name", sorted(REPORT_RUNS))
def test_report_golden(name, tmp_path, capsys):
    assert _run_commands(
        tmp_path, REPORT_RUNS[name],
        (["extract", "--target", "both"], ["surrogate"], ["report"]),
        ("report.json", "report.txt")) == REPORT_GOLDEN[name]


# the report runs and the periodic path, whose points carry hour_sin and hour_cos
PLOT_RUNS = dict(REPORT_RUNS, hourly=(synth.hourly, synth.HOURLY_COLUMNS, synth.HOURLY_OCSVM))

PLOT_GOLDEN = {
    "grouped_dataset": (
        "3dfee88fc48877c2b860ea73dd1792156d1b55deea8c39dbd22188d8029d1aa1",
        "86d03328de657f5c7ab0c8704ee8b65910a7dda01a8e8391f00aadf204c561aa",
    ),
    "hourly": (
        "8f4a36e63a4d87475b5ad257fb71b21b33de2829a23b2c8847586622df893246",
        "4cbf3624b53bb854ec4ff1c4f17831ee00e487803c07125bc40c6620d188cf37",
    ),
    "seismic_like": (
        "6fd356f79cb6b0fa4b2424371c006cc139ac61a1abe371b41936f9fc068bd1fa",
        "1429667399dc3fb648e8e5b1536879b80d5b56e013088b29178a1ef05a0195aa",
    ),
    "two_blobs": (
        "17da4d2702e40100d0f3793acc4abbb3b1a0e91144386a6b3e7f660f8a342928",
        "ae41055d71cd6b8468f6f95fc6fbf7c981ab5da898209bce2dc5390af43a6364",
    ),
}


@pytest.mark.parametrize("name", sorted(PLOT_RUNS))
def test_plot_golden(name, tmp_path, capsys):
    assert _run_commands(
        tmp_path, PLOT_RUNS[name],
        (["extract", "--target", "both"], ["plot", "--target", "both"]),
        ("plot_na.svg", "plot_a.svg")) == PLOT_GOLDEN[name]

"""Golden artifacts: sha256 of the model, rule-set and tree JSON of each fixture.

The digests pin the bytes a refactor must preserve. The model and rule-set
digests were recorded with the default ExtractionConfig before the k-means
sweep shared its seeding across cluster counts; the surrogate tree digests
before the split search was vectorised. A change that moves one of them
changes the rules, the model or the tree and has to say why.
"""

import hashlib

import pytest

import ocsvm_rules as o

GOLDEN = {
    "two_blobs": {
        "model": "bfd11591a44e2aae8775bbfe52f4ecf16a64839ee32fed542c4a8222c42c3947",
        "non_anomalous": (
            "3be8a23867553a34972318e1480942e3d6f6f9c730539f446c081c1c3f4d8b0a",
            "77a4990b5ec6b79234d6c56efb5fa1b7cfdd221feb1754a1f37edeac5237be35",
        ),
        "anomalous": (
            "7bcb26e58579e30165a84e6b6ad23189dc84da2f6b1989547285d30a717d17a1",
            "5f5aa52fbe8d569e674e5ffb2bf5f549d92cb146f946ec774db75ed7f432dbc9",
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
        "model": "7d1f999e8d1d86b335d9fc6b0fe1bfb9fed51091d8e8fa435cbfd1057a003a16",
        "non_anomalous": (
            "7a01360d923f26dd6a017605cefdd480deb05f55db50a33b23abc80d30d867cc",
            "50a079c1869ed6b02435f9820774991068733d0114dfbe2b506f91cacdb54d03",
        ),
        "anomalous": (
            "2d43e75abba5f395f414e293de97888606ecc9acb40d045a783f900a02c7baf1",
            "12c57e7d9f1dd4ffb1691cd0d6694346262e1dc490782782133e2db10e05788d",
        ),
    },
}

TREE_GOLDEN = {
    "two_blobs": "6faa84f304834e9a63bce3b6efc0b99e33f7c223beb8512afcebc0973f1c16b0",
    "seismic_like": "fa5bb2c9f09020f310c12f86407ce4080fd5950932b77fb3c9fa2575fd8e80f1",
    "grouped_dataset": "ddbd5b15cbd36eaeacf81a2af61b487fcc3d5fdbf4651fb24eca6ab73fe67660",
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
    tree, names, _, _ = o.fit_surrogate(request.getfixturevalue(data_fx),
                                        request.getfixturevalue(model_fx))
    assert _sha(o.tree_to_json(tree, names)) == TREE_GOLDEN[name]

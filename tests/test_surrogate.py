import json

import numpy as np
import pytest

import ocsvm_rules as o
from ocsvm_rules.errors import ConfigError
from ocsvm_rules.ocsvm import ANOMALOUS, NON_ANOMALOUS, dataset_decision_values, ensure_expanded
from ocsvm_rules.surrogate import (
    fit_surrogate,
    fit_tree,
    predict_tree,
    training_accuracy,
    tree_rule_to_text,
    tree_stats,
    tree_to_json,
    tree_to_rules,
)

import cart_reference
import synth

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def test_pure_input_gives_single_leaf():
    t = fit_tree([[0.0], [1.0], [2.0]], [5, 5, 5])
    assert t.is_leaf
    assert t.prediction == 5
    assert tree_stats(t) == {"depth": 0, "n_leaves": 1, "n_nodes": 1}


def test_simple_threshold_split():
    X = [[0.0], [1.0], [10.0], [11.0]]
    y = [0, 0, 1, 1]
    t = fit_tree(X, y)
    assert not t.is_leaf
    assert t.feature == 0
    assert t.threshold == 5.5  # midpoint between the classes
    assert predict_tree(t, X).tolist() == y


def test_xor_needs_zero_gain_split():
    # no single split reduces Gini, yet the tree must still separate parity
    t = fit_tree(XOR_X, XOR_Y)
    assert predict_tree(t, XOR_X).tolist() == XOR_Y.tolist()
    s = tree_stats(t)
    assert s["depth"] == 2
    assert s["n_leaves"] == 4


def test_distinct_rows_always_fit_exactly():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(120, 3))
    y = rng.integers(0, 3, size=120)
    t = fit_tree(X, y)
    assert training_accuracy(t, X, y) == 1.0


def test_duplicate_conflicting_rows_take_majority():
    X = [[0.0], [0.0], [0.0], [7.0]]
    y = [1, 1, 0, 0]
    t = fit_tree(X, y)
    p = predict_tree(t, [[0.0], [7.0]])
    assert p.tolist() == [1, 0]


def test_majority_tie_takes_lowest_label():
    t = fit_tree([[0.0], [0.0]], [4, 2])
    assert t.is_leaf
    assert t.prediction == 2


def test_determinism():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    t1 = fit_tree(X, y)
    t2 = fit_tree(X, y)
    assert tree_to_json(t1, ["a", "b"]) == tree_to_json(t2, ["a", "b"])


def test_rules_match_leaves():
    t = fit_tree(XOR_X, XOR_Y)
    rules = tree_to_rules(t, ["a", "b"])
    assert len(rules) == tree_stats(t)["n_leaves"]
    # each point lands in exactly one rule of its own label
    for x, lab in zip(XOR_X, XOR_Y):
        hits = [r for r in rules if _satisfies(r, {"a": x[0], "b": x[1]})]
        assert len(hits) == 1
        assert hits[0].label == lab


def _satisfies(rule, values):
    for f, op, v in rule.predicates:
        if op == "<=" and not values[f] <= v:
            return False
        if op == ">" and not values[f] > v:
            return False
    return True


def test_repeated_feature_tests_are_tightened():
    # y depends on x in three bands, forcing nested splits on one feature
    X = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]
    y = [0, 0, 1, 1, 0, 0]
    t = fit_tree(X, y)
    rules = tree_to_rules(t, ["x"])
    for r in rules:
        ops = [(f, op) for f, op, _ in r.predicates]
        assert len(ops) == len(set(ops))  # at most one bound per (feature, op)


def test_rule_text_formats():
    t = fit_tree([[0.0], [10.0]], [NON_ANOMALOUS, ANOMALOUS])
    rules = tree_to_rules(t, ["v"])
    texts = [tree_rule_to_text(r) for r in rules]
    assert texts == [
        "NOT OUTLIER IF v <= 5.0 (n=1)",
        "OUTLIER IF v > 5.0 (n=1)",
    ]
    other = fit_tree([[0.0], [10.0]], [0, 7])
    assert tree_rule_to_text(tree_to_rules(other, ["v"])[1]) == "CLASS 7 IF v > 5.0 (n=1)"


def test_root_leaf_rule_text():
    t = fit_tree([[1.0]], [NON_ANOMALOUS])
    (rule,) = tree_to_rules(t, ["v"])
    assert rule.predicates == ()
    assert tree_rule_to_text(rule) == "NOT OUTLIER IF ALWAYS (n=1)"


def test_json_roundtrip():
    t = fit_tree(XOR_X, XOR_Y)
    doc = json.loads(tree_to_json(t, ["a", "b"]))
    assert doc["format"] == "surrogate-tree/1"
    assert doc["features"] == ["a", "b"]

    # every node's fields come back from the JSON as they were fitted
    def check(node, nd):
        assert nd["prediction"] == node.prediction
        assert [tuple(lc) for lc in nd["counts"]] == list(node.counts)
        if node.is_leaf:
            assert set(nd) == {"prediction", "counts"}
            return
        assert (nd["feature"], nd["threshold"]) == (node.feature, node.threshold)
        check(node.left, nd["left"])
        check(node.right, nd["right"])
    check(t, doc["root"])


def test_input_validation():
    with pytest.raises(ConfigError):
        fit_tree(np.zeros((0, 2)), [])
    with pytest.raises(ConfigError):
        fit_tree([[0.0], [1.0]], [1])
    with pytest.raises(ConfigError):
        fit_tree(np.zeros(3), [1, 2, 3])


def test_surrogate_mimics_detector(grouped_data, grouped_model):
    tree, names, M_fit, y_fit = fit_surrogate(grouped_data, grouped_model)
    d_exp = ensure_expanded(grouped_data, grouped_model.schema)
    y = np.where(dataset_decision_values(grouped_model, d_exp) >= 0,
                 NON_ANOMALOUS, ANOMALOUS)
    M = o.encode_matrix(d_exp, grouped_model.schema)
    # the matrix and labels it returns are the ones it trained on
    assert np.array_equal(M_fit, M) and np.array_equal(y_fit, y)
    assert training_accuracy(tree, M, y) == 1.0
    assert set(names) == {"x", "y", "mode=off", "mode=on"}
    # both labels appear in the leaf rules
    rules = tree_to_rules(tree, names)
    labels = {r.label for r in rules}
    assert labels == {NON_ANOMALOUS, ANOMALOUS}


def test_surrogate_requires_preprocessing(blob_data):
    X = np.column_stack([blob_data.data["x"], blob_data.data["y"]])
    bare = o.fit(X, nu=0.1, kernel=o.KernelParams(gamma=0.5))
    with pytest.raises(ConfigError):
        fit_surrogate(blob_data, bare)


# ---------------------------------------------------------------------------
# The vectorised split search against the former per-threshold loop
# ---------------------------------------------------------------------------

def _ties(rng):
    X = np.round(rng.normal(size=(200, 3)), 1)
    return X, (X[:, 0] + rng.normal(scale=0.5, size=200) > 0).astype(int)


def _duplicates(rng):
    base = rng.normal(size=(6, 2))
    X = base[rng.integers(0, 6, size=90)]
    return X, rng.integers(0, 2, size=90)


def _three_labels(rng):
    X = rng.normal(size=(150, 2))
    return X, np.array([-1, 1, 7])[rng.integers(0, 3, size=150)]


def _one_hot(rng):
    level = rng.integers(0, 4, size=160)
    x = rng.uniform(0, 10, size=160)
    X = np.column_stack([x, np.eye(4)[level]])
    y = np.where((level == 2) ^ (x > 6), 1, -1)
    return X, np.where(rng.random(160) < 0.1, -y, y)


def _xor(rng):
    X = rng.integers(0, 2, size=(64, 3)).astype(float)
    return X, (X[:, 0] != X[:, 1]).astype(int)


def _pairs(rng):
    # labels alternate along x: every node of 2 or more rows is impure, so
    # splitting goes on down to nodes of 2 rows
    X = rng.normal(size=(60, 2))
    return X, np.argsort(np.argsort(X[:, 0])) % 2


CART_CASES = {"ties": _ties, "duplicates": _duplicates, "three_labels": _three_labels,
              "one_hot": _one_hot, "xor": _xor, "pairs": _pairs}


def _assert_same_tree(got, want, sizes):
    assert got.counts == want.counts
    assert got.prediction == want.prediction
    assert got.feature == want.feature
    assert got.threshold == want.threshold
    if not want.is_leaf:
        sizes.append(sum(c for _, c in want.counts))
        _assert_same_tree(got.left, want.left, sizes)
        _assert_same_tree(got.right, want.right, sizes)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CART_CASES))
def test_split_search_matches_loop_reference(case, seed):
    X, y = CART_CASES[case](np.random.default_rng(seed))
    split_sizes = []
    _assert_same_tree(fit_tree(X, y), cart_reference.fit_tree(X, y), split_sizes)
    assert split_sizes  # every case splits at least once
    if case == "pairs":
        assert 2 in split_sizes

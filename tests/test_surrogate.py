import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ocsvm_rules as o
from ocsvm_rules.errors import ConfigError
from ocsvm_rules.ocsvm import (
    ANOMALOUS, NON_ANOMALOUS, anomalous_rows, dataset_decision_values, ensure_expanded,
)
from ocsvm_rules.surrogate import (
    _node_to_doc,
    fit_surrogate,
    fit_tree,
    predict_tree,
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
    assert tree_stats(t) == {"depth": 0, "n_leaves": 1, "n_nodes": 1,
                             "rules_per_class": {"5": 1}, "training_accuracy": 1.0}


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
    assert predict_tree(t, X).tolist() == y.tolist()
    assert tree_stats(t)["training_accuracy"] == 1.0


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
    for X, y in [
        (np.zeros((0, 2)), []),
        ([[0.0], [1.0]], [1]),
        (np.zeros(3), [1, 2, 3]),
        (np.zeros((3, 0)), [1, 2, 3]),
        # NaN differs from itself, so it makes cuts with an empty side
        ([[0.0], [np.nan], [1.0]], [0, 1, 0]),
        ([[0.0], [np.inf]], [0, 1]),
        # labels that int64 cannot hold exactly are refused, not truncated
        ([[0.0], [1.0]], [0.5, 1.7]),
        ([[0.0], [1.0]], [0.0, 1.0]),
        ([[0.0], [1.0]], [False, True]),
        ([[0.0], [1.0]], np.array([0, 2 ** 63], dtype=np.uint64)),
    ]:
        with pytest.raises(ConfigError):
            fit_tree(X, y)


def test_split_between_values_whose_sum_overflows():
    # (lo + hi) / 2 is -inf here; the threshold falls back to lo
    X = [[-1.7e308], [-1e308]]
    t = fit_tree(X, [0, 1])
    assert t.threshold == -1.7e308
    assert predict_tree(t, X).tolist() == [0, 1]


def test_growth_needs_no_recursion_and_little_memory():
    # labels alternate along x, so every split peels off one row: a chain
    n = 400
    X = np.zeros((n, 16))
    X[:, 0] = np.arange(n)
    y = np.arange(n) % 2
    tracemalloc.start()
    try:
        t = fit_tree(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree_stats(t)["depth"] == n - 1
    # the orders alive at once are disjoint: about 16 * 400 int64 entries;
    # keeping every ancestor's orders would take n / 2 times that
    assert peak < 2_000_000

    # deeper than the interpreter's recursion limit
    n = sys.getrecursionlimit() + 200
    X = np.arange(n, dtype=np.float64)[:, None]
    y = np.arange(n) % 2
    t = fit_tree(X, y)
    assert predict_tree(t, X).tolist() == y.tolist()
    # the leaf walk behind the stats and the rules needs no recursion either
    assert tree_stats(t) == {"depth": n - 1, "n_leaves": n, "n_nodes": 2 * n - 1,
                             "rules_per_class": {"0": (n + 1) // 2, "1": n // 2},
                             "training_accuracy": 1.0}
    rules = tree_to_rules(t, ["x"])
    assert [r.label for r in rules] == y.tolist()
    assert rules[-1].predicates == (("x", ">", n - 1.5),)


def test_tree_document_needs_no_recursion():
    # the chain of the test above: each split peels the lowest row off to the left
    n = sys.getrecursionlimit() + 200
    X = np.arange(n, dtype=np.float64)[:, None]
    y = np.arange(n) % 2
    tree = fit_tree(X, y)
    doc = root = _node_to_doc(tree)
    for i in range(n - 1):
        assert doc["threshold"] == i + 0.5
        assert doc["left"] == {"prediction": int(y[i]), "counts": [[int(y[i]), 1]]}
        doc = doc["right"]
    assert doc == {"prediction": int(y[-1]), "counts": [[int(y[-1]), 1]]}
    # tree_to_json lays the chain out without recursion; json's reader and
    # writer recurse once per level, so they read it back under a raised limit
    text = tree_to_json(tree, ["x"])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * n)
    try:
        back = json.loads(text)
        assert back == {"format": "surrogate-tree/1", "features": ["x"], "root": root}
        assert json.dumps(back, indent=2, sort_keys=True) + "\n" == text
    finally:
        sys.setrecursionlimit(limit)


@st.composite
def _conflicting_rows(draw):
    # a few distinct rounded rows, each drawn many times with any of three
    # labels, so that leaves hold rows their prediction gets wrong
    n_base = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(st.floats(-3, 3).map(lambda v: round(v, 1)),
                                  min_size=2, max_size=2),
                         min_size=n_base, max_size=n_base))
    picks = draw(st.lists(st.integers(0, n_base - 1), min_size=1, max_size=60))
    y = draw(st.lists(st.sampled_from((-1, 1, 7)), min_size=len(picks), max_size=len(picks)))
    return np.array([base[i] for i in picks]), np.array(y)


@given(_conflicting_rows())
def test_training_accuracy_is_the_share_that_prediction_gets_right(case):
    X, y = case
    t = fit_tree(X, y)
    assert tree_stats(t)["training_accuracy"] == np.mean(predict_tree(t, X) == y)


def test_surrogate_mimics_detector(grouped_data, grouped_model):
    tree, names = fit_surrogate(grouped_data, grouped_model.schema,
                                anomalous_rows(grouped_data, grouped_model))
    d_exp = ensure_expanded(grouped_data, grouped_model.schema)
    y = np.where(dataset_decision_values(grouped_model, d_exp) >= 0,
                 NON_ANOMALOUS, ANOMALOUS)
    M = o.encode_matrix(d_exp, grouped_model.schema)
    # the root counts the detector's labels, and every row reaches a leaf of its label
    assert dict(tree.counts) == dict(zip(*np.unique(y, return_counts=True)))
    assert np.array_equal(predict_tree(tree, M), y)
    assert tree_stats(tree)["training_accuracy"] == 1.0
    assert set(names) == {"x", "y", "mode=off", "mode=on"}
    # both labels appear in the leaf rules
    rules = tree_to_rules(tree, names)
    labels = {r.label for r in rules}
    assert labels == {NON_ANOMALOUS, ANOMALOUS}


@pytest.mark.parametrize("bad", [-1, "rows", True, 0.0],
                         ids=["negative", "rows", "bool", "float"])
def test_surrogate_refuses_a_row_index_outside_the_rows(blob_data, blob_model, bad):
    # the check split_by_prediction makes (test_ocsvm.py); -1 would label the last row
    anomalous = [0, blob_data.rows if bad == "rows" else bad]
    with pytest.raises(ConfigError, match="row index"):
        fit_surrogate(blob_data, blob_model.schema, anomalous)


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


# Values drawn from a small pool repeat, so ties, duplicate rows and constant
# columns all occur; -0.0 and 0.0 tie in the sort but print differently.
POOL = (-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 4.0)


@st.composite
def _tree_inputs(draw):
    n = draw(st.integers(1, 120))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        values = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL)))
        columns.append(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    levels = draw(st.integers(0, 3))  # one-hot columns of a categorical
    if levels:
        level = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        columns.extend(np.eye(levels)[level].T)
    X = np.column_stack(columns)
    labels = (-1, 1, 7)[:draw(st.integers(2, 3))]
    y = np.array(draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)))
    return X, y


@given(_tree_inputs())
def test_fit_tree_matches_loop_reference(case):
    X, y = case
    names = ["f%d" % j for j in range(X.shape[1])]
    # JSON text compares every node's fields, the sign of a zero threshold too
    assert (tree_to_json(fit_tree(X, y), names)
            == tree_to_json(cart_reference.fit_tree(X, y), names))


def _walk(tree, row):
    node = tree
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


def _thresholds(node):
    if node.is_leaf:
        return []
    return [node.threshold] + _thresholds(node.left) + _thresholds(node.right)


@given(_tree_inputs(), st.data())
def test_predict_tree_matches_row_walk(case, data):
    X, y = case
    t = fit_tree(X, y)
    # thresholds themselves, pool values and non-finite values
    values = list(POOL) + _thresholds(t) + [math.nan, math.inf, -math.inf]
    rows = data.draw(st.lists(
        st.lists(st.sampled_from(values), min_size=X.shape[1], max_size=X.shape[1]),
        min_size=1, max_size=40))
    Q = np.array(rows)
    assert predict_tree(t, Q).tolist() == [_walk(t, row) for row in Q]


# ---------------------------------------------------------------------------
# The pre-order walk against the former leaf-path walks
# ---------------------------------------------------------------------------

@st.composite
def _walk_inputs(draw):
    # a few distinct rounded rows drawn many times: repeated rows, ties and
    # repeated tests on one feature down a path
    n_features = draw(st.integers(1, 3))
    n_base = draw(st.integers(1, 12))
    base = draw(st.lists(st.lists(st.floats(-3, 3).map(lambda v: round(v, 1)),
                                  min_size=n_features, max_size=n_features),
                         min_size=n_base, max_size=n_base))
    picks = draw(st.lists(st.integers(0, n_base - 1), min_size=1, max_size=80))
    labels = (-1, 1, 7)[:draw(st.integers(2, 3))]
    y = draw(st.lists(st.sampled_from(labels), min_size=len(picks), max_size=len(picks)))
    return np.array([base[i] for i in picks]), np.array(y)


@given(_walk_inputs())
def test_tree_walk_matches_leaf_path_reference(case):
    X, y = case
    t = fit_tree(X, y)
    names = ["f%d" % j for j in range(X.shape[1])]
    assert tree_stats(t) == cart_reference.tree_stats(t)
    # repr and JSON text tell -0.0 from 0.0
    got = tuple((r.label, r.predicates, r.n_samples) for r in tree_to_rules(t, names))
    assert repr(got) == repr(cart_reference.tree_to_rules(t, names))
    assert json.dumps(_node_to_doc(t)) == json.dumps(cart_reference._node_to_doc(t))

"""CART surrogate: a decision tree that mimics the detector's predictions.

The tree is grown without a depth limit until every leaf is pure or
unsplittable, so on distinct training vectors it reproduces the labels
exactly. Splits minimize Gini impurity over midpoint thresholds; ties go
to the lowest feature index, then the lowest threshold, which makes
fitting deterministic. A split with zero impurity decrease is still taken
on an impure node (parity patterns need it to make progress).

Each column is sorted once, at the root (the presorted attribute lists of
SLIQ, Mehta, Agrawal & Rissanen 1996). A node holds one stable order of
its rows per feature, and a split partitions every order stably, so each
child's orders are again sorted with ties in row order, the order a
stable sort of the child's rows would give. The split search reads the
sorted values and prefix label counts from those orders and scores only
the cuts between neighbouring distinct values. Growth keeps a stack of
pending nodes instead of recursing: a node's orders are freed once its
children's are made, and the pending nodes hold disjoint rows, so at most
F * N order entries are alive at once for F features and N rows, and the
depth of the tree is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, encode_matrix, ensure_expanded
from .errors import ConfigError
from .formats import ANOMALOUS, NON_ANOMALOUS, FeatureSchema, json_text

TREE_FORMAT = "surrogate-tree/1"


@dataclass(frozen=True)
class TreeNode:
    prediction: int
    counts: tuple  # ((label, count), ...) sorted by label
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _majority(counts: tuple) -> int:
    # highest count wins; max keeps the first of equal counts, the lowest label
    return max(counts, key=lambda lc: lc[1])[0]


def _best_split(XT: np.ndarray, codes: np.ndarray, S: np.ndarray,
                tally: np.ndarray, present: np.ndarray):
    """(feature, threshold) minimizing weighted child Gini, or None.

    XT is the training matrix transposed, codes the label code of each row,
    S the node's (F, n) row orders, one stably sorted order per feature,
    tally the node's row count per label code, and present the codes it
    holds, ascending. Thresholds are midpoints between neighbouring
    distinct values. Every cut of every feature is scored at once from
    prefix label counts over the sorted rows; the first minimum in
    (feature, cut) order wins, which is the lowest feature, then the
    lowest threshold.
    """
    n = S.shape[1]
    sv = np.take_along_axis(XT, S, axis=1)
    # each sorted row followed by a different value can end the left side
    fi, ci = np.nonzero(sv[:, :-1] != sv[:, 1:])
    if fi.size == 0:
        return None
    sc = codes[S]
    left = np.empty((fi.size, present.size))  # rows of each label left of each cut
    for k, code in enumerate(present):
        # int32 sums twice as fast as the default int64 and holds any node's count
        left[:, k] = np.cumsum(sc == code, axis=1, dtype=np.int32)[fi, ci]
    right = tally[present] - left
    p = ci + 1.0  # rows on the left
    gl = 1.0 - np.sum((left / p[:, None]) ** 2, axis=1)
    gr = 1.0 - np.sum((right / (n - p)[:, None]) ** 2, axis=1)
    score = (p * gl + (n - p) * gr) / n
    j = int(np.argmin(score))
    f, c = int(fi[j]), ci[j]
    lo, hi = float(sv[f, c]), float(sv[f, c + 1])
    thr = (lo + hi) / 2.0
    if not lo <= thr < hi:  # midpoint rounded up to hi, or lo + hi overflowed
        thr = lo
    return f, thr


def fit_tree(X, y) -> TreeNode:
    """Grow an unpruned CART tree on the rows of X labelled y.

    Raises ConfigError unless X is a 2-D matrix of at least one row and
    one column with only finite values, and y holds one integer label per
    row (bool and float labels are refused, not truncated).

    The split search sorts each column once, at the root, and never again:
    a split partitions the node's per-feature row orders stably, which
    keeps each child's orders sorted (see the module docstring). Only the
    cuts between distinct neighbouring values are scored, and the first
    best cut in (feature, position) order wins. Growth pops nodes from a
    stack in pre-order and builds the frozen nodes bottom-up afterwards,
    so no depth hits the recursion limit; the orders alive at once belong
    to disjoint nodes and take O(F * N) memory for F features and N rows.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ConfigError("training data must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ConfigError("labels must be one per row, got %s" % (y.shape,))
    if X.shape[0] == 0:
        raise ConfigError("cannot fit a tree on zero rows")
    if X.shape[1] == 0:
        raise ConfigError("cannot fit a tree on zero columns")
    if not np.all(np.isfinite(X)):
        raise ConfigError("training data must be finite")
    if y.dtype == np.bool_ or not np.can_cast(y.dtype, np.int64):
        raise ConfigError("labels must be integers, got dtype %s" % y.dtype)
    labels, codes = np.unique(y, return_inverse=True)
    XT = np.ascontiguousarray(X.T)
    F = XT.shape[0]
    records = []  # (prediction, counts, split or None), in pre-order
    stack = [np.argsort(XT, axis=1, kind="stable")]
    while stack:
        S = stack.pop()
        tally = np.bincount(codes[S[0]], minlength=labels.size)
        present = np.flatnonzero(tally)
        counts = tuple((int(labels[k]), int(tally[k])) for k in present)
        split = _best_split(XT, codes, S, tally, present) if present.size > 1 else None
        records.append((_majority(counts), counts, split))
        if split is None:
            continue
        f, thr = split
        keep = (XT[f] <= thr)[S]
        right, left = S[~keep].reshape(F, -1), S[keep].reshape(F, -1)
        del S, keep  # free the node's orders before its children run
        stack += [right, left]
    # reversed pre-order meets a node's right subtree, then its left, then it
    built: list[TreeNode] = []
    for prediction, counts, split in reversed(records):
        if split is None:
            built.append(TreeNode(prediction=prediction, counts=counts))
        else:
            left, right = built.pop(), built.pop()
            built.append(TreeNode(prediction=prediction, counts=counts, feature=split[0],
                                  threshold=split[1], left=left, right=right))
    return built[0]


def predict_tree(tree: TreeNode, X) -> np.ndarray:
    """Label of the leaf each row of X reaches.

    Rows go left when their value is <= the threshold, so a NaN goes right.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.prediction
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.right, idx[~go_left]))
        stack.append((node.left, idx[go_left]))
    return out


def _walk(tree: TreeNode):
    """(node, depth, bounds) for every node in pre-order, from a stack, not
    recursion. bounds maps each (feature, op) test on the root path, op "<="
    for a left turn and ">" for a right one, to its tightest threshold; each
    child gets a copy of its parent's map with one entry replaced."""
    stack = [(tree, 0, {})]
    while stack:
        node, depth, bounds = stack.pop()
        yield node, depth, bounds
        if node.is_leaf:
            continue
        f, v = node.feature, node.threshold
        stack.append((node.right, depth + 1,
                      {**bounds, (f, ">"): max(bounds.get((f, ">"), -np.inf), v)}))
        stack.append((node.left, depth + 1,
                      {**bounds, (f, "<="): min(bounds.get((f, "<="), np.inf), v)}))


def tree_stats(tree: TreeNode) -> dict:
    """The surrogate_stats.json document of a tree that fit_tree grew.

    Every split has two children, so n_nodes is 2 * n_leaves - 1, and
    rules_per_class counts the leaves of each prediction. A leaf's counts
    are the labels of the training rows that predict_tree routes to it, so
    training_accuracy, the share of rows whose leaf predicts their label,
    is the leaves' counts of their own prediction over the root's rows.
    """
    depth = n_leaves = hits = 0
    per_class: dict = {}
    for leaf, d, _ in _walk(tree):
        if not leaf.is_leaf:
            continue
        depth = max(depth, d)
        n_leaves += 1
        hits += dict(leaf.counts)[leaf.prediction]
        per_class[str(leaf.prediction)] = per_class.get(str(leaf.prediction), 0) + 1
    return {"depth": depth, "n_leaves": n_leaves, "n_nodes": 2 * n_leaves - 1,
            "rules_per_class": per_class,
            "training_accuracy": hits / sum(c for _, c in tree.counts)}


# ---------------------------------------------------------------------------
# Leaves as rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeRule:
    """One leaf: its label and the tightened root-to-leaf conditions."""

    label: int
    predicates: tuple  # (feature_name, op, value) with op "<=" or ">"
    n_samples: int


def tree_to_rules(tree: TreeNode, feature_names) -> tuple:
    """One rule per leaf, left to right.

    Repeated tests on a feature collapse to the tightest bound, so each
    feature appears at most once per op.
    """
    feature_names = list(feature_names)
    rules = []
    for leaf, _, bounds in _walk(tree):
        if not leaf.is_leaf:
            continue
        preds = tuple(
            (feature_names[f], op, float(v))
            for (f, op), v in sorted(bounds.items(),
                                     key=lambda kv: (kv[0][0], kv[0][1] == "<="))
        )
        rules.append(TreeRule(
            label=int(leaf.prediction),
            predicates=preds,
            n_samples=sum(c for _, c in leaf.counts)))
    return tuple(rules)


def tree_rule_to_text(rule: TreeRule) -> str:
    if rule.label == NON_ANOMALOUS:
        head = "NOT OUTLIER IF "
    elif rule.label == ANOMALOUS:
        head = "OUTLIER IF "
    else:
        head = "CLASS %d IF " % rule.label
    if not rule.predicates:
        return head.rstrip() + " ALWAYS (n=%d)" % rule.n_samples
    body = " ∧ ".join("%s %s %s" % (f, op, repr(v)) for f, op, v in rule.predicates)
    return "%s%s (n=%d)" % (head, body, rule.n_samples)


# ---------------------------------------------------------------------------
# Fitting to a detector's split
# ---------------------------------------------------------------------------

def fit_surrogate(d: Dataset, schema: FeatureSchema, anomalous) -> tuple[TreeNode, list]:
    """Tree over original-unit features that mimics a detector's split of d.

    schema is the detector's preprocessing. The rows listed in anomalous are
    labelled ANOMALOUS, all others NON_ANOMALOUS; nothing is scored here. For
    a fitted model m the call is fit_surrogate(d, m.schema, anomalous_rows(d, m));
    the command line passes the split that extract recorded in split.json.

    Returns (tree, feature names); numeric features keep their units so the
    thresholds read directly, one-hot features split at 0.5. Raises
    ConfigError unless every index is an integer in [0, d.rows).
    """
    d_exp = ensure_expanded(d, schema)
    y = np.where(d_exp.row_mask(anomalous), ANOMALOUS, NON_ANOMALOUS)
    M = encode_matrix(d_exp, schema)  # unscaled numerics plus one-hot
    return fit_tree(M, y), schema.feature_names()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _node_to_doc(tree: TreeNode) -> dict:
    """The nested document of a tree, built bottom-up from the reversed
    pre-order, as fit_tree builds its nodes, so no depth hits the recursion
    limit."""
    built: list[dict] = []
    for node in reversed([node for node, _, _ in _walk(tree)]):
        doc = {"prediction": node.prediction, "counts": [[l, c] for l, c in node.counts]}
        if not node.is_leaf:
            doc.update(feature=node.feature, threshold=node.threshold,
                       left=built.pop(), right=built.pop())
        built.append(doc)
    return built[0]


def tree_to_json(tree: TreeNode, feature_names) -> str:
    return json_text({
        "format": TREE_FORMAT,
        "features": list(feature_names),
        "root": _node_to_doc(tree),
    })

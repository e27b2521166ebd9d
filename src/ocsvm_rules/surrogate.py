"""CART surrogate: a decision tree that mimics the detector's predictions.

The tree is grown without a depth limit until every leaf is pure or
unsplittable, so on distinct training vectors it reproduces the labels
exactly. Splits minimize Gini impurity over midpoint thresholds; ties go
to the lowest feature index, then the lowest threshold, which makes
fitting deterministic. A split with zero impurity decrease is still taken
on an impure node (parity patterns need it to make progress).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, encode_matrix
from .errors import ConfigError
from .ocsvm import ANOMALOUS, NON_ANOMALOUS, OcsvmModel, ensure_expanded, predict_dataset

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


def _counts(y: np.ndarray) -> tuple:
    labels, counts = np.unique(y, return_counts=True)
    return tuple((int(l), int(c)) for l, c in zip(labels, counts))


def _majority(counts: tuple) -> int:
    # highest count wins; equal counts fall to the lowest label
    best_label, best_count = counts[0]
    for label, count in counts[1:]:
        if count > best_count:
            best_label, best_count = label, count
    return best_label


def _gini(counts: tuple, total: int) -> float:
    return 1.0 - sum((c / total) ** 2 for _, c in counts)


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray):
    """(feature, threshold) minimizing weighted child Gini, or None.

    Thresholds are midpoints between consecutive distinct values. Each
    feature scores all of its thresholds at once from prefix label counts
    over the stably sorted column. The first minimum within a feature
    (lowest threshold) and strict improvement across features (lowest
    feature index) make tie-breaking deterministic.
    """
    n = idx.size
    labels, codes = np.unique(y[idx], return_inverse=True)
    onehot = np.zeros((n, labels.size))
    onehot[np.arange(n), codes] = 1.0
    Xt = X[idx].T
    best = None
    best_score = np.inf
    for f in range(Xt.shape[0]):
        vals = Xt[f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        # each sorted row c followed by a different value can end the left side
        cut = np.flatnonzero(sv[:-1] != sv[1:])
        if cut.size == 0:
            continue
        prefix = np.cumsum(onehot[order], axis=0)
        left = prefix[cut]
        right = prefix[-1] - left
        p = cut + 1.0  # rows on the left
        gl = 1.0 - np.sum((left / p[:, None]) ** 2, axis=1)
        gr = 1.0 - np.sum((right / (n - p)[:, None]) ** 2, axis=1)
        score = (p * gl + (n - p) * gr) / n
        j = int(np.argmin(score))
        if score[j] < best_score:
            c = cut[j]
            thr = (sv[c] + sv[c + 1]) / 2.0
            if thr >= sv[c + 1]:  # midpoint rounded up to the right value
                thr = sv[c]
            best = (f, float(thr))
            best_score = score[j]
    return best


def _grow(X: np.ndarray, y: np.ndarray, idx: np.ndarray) -> TreeNode:
    counts = _counts(y[idx])
    prediction = _majority(counts)
    if _gini(counts, idx.size) == 0.0:
        return TreeNode(prediction=prediction, counts=counts)
    split = _best_split(X, y, idx)
    if split is None:
        return TreeNode(prediction=prediction, counts=counts)
    f, thr = split
    mask = X[idx, f] <= thr
    left = _grow(X, y, idx[mask])
    right = _grow(X, y, idx[~mask])
    return TreeNode(prediction=prediction, counts=counts,
                    feature=f, threshold=thr, left=left, right=right)


def fit_tree(X, y) -> TreeNode:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ConfigError("training data must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ConfigError("labels must be one per row, got %s" % (y.shape,))
    if X.shape[0] == 0:
        raise ConfigError("cannot fit a tree on zero rows")
    y = y.astype(np.int64)
    return _grow(X, y, np.arange(X.shape[0]))


def predict_tree(tree: TreeNode, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, row in enumerate(X):
        node = tree
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


def tree_stats(tree: TreeNode) -> dict:
    def walk(node, depth):
        if node.is_leaf:
            return depth, 1, 1
        dl, ll, nl = walk(node.left, depth + 1)
        dr, lr, nr = walk(node.right, depth + 1)
        return max(dl, dr), ll + lr, nl + nr + 1
    depth, leaves, nodes = walk(tree, 0)
    return {"depth": depth, "n_leaves": leaves, "n_nodes": nodes}


def training_accuracy(tree: TreeNode, X, y) -> float:
    y = np.asarray(y, dtype=np.int64)
    return float(np.mean(predict_tree(tree, X) == y))


# ---------------------------------------------------------------------------
# Leaves as rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeRule:
    """One leaf: its label and the tightened root-to-leaf conditions."""

    label: int
    predicates: tuple  # (feature_name, op, value) with op "<=" or ">"
    n_samples: int


def tree_to_rules(tree: TreeNode, feature_names, label: int | None = None) -> tuple:
    """One rule per leaf, left to right; optionally only leaves of a label.

    Repeated tests on a feature collapse to the tightest bound, so each
    feature appears at most once per op.
    """
    feature_names = list(feature_names)
    rules = []

    def walk(node, path):
        if node.is_leaf:
            if label is not None and node.prediction != label:
                return
            bounds = {}
            for f, op, v in path:
                key = (f, op)
                if op == "<=":
                    bounds[key] = min(bounds.get(key, np.inf), v)
                else:
                    bounds[key] = max(bounds.get(key, -np.inf), v)
            preds = tuple(
                (feature_names[f], op, float(v))
                for (f, op), v in sorted(bounds.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1] == "<="))
            )
            rules.append(TreeRule(
                label=int(node.prediction),
                predicates=preds,
                n_samples=sum(c for _, c in node.counts)))
            return
        walk(node.left, path + [(node.feature, "<=", node.threshold)])
        walk(node.right, path + [(node.feature, ">", node.threshold)])

    walk(tree, [])
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
# Fitting against a detector
# ---------------------------------------------------------------------------

def fit_surrogate(d: Dataset,
                  model: OcsvmModel) -> tuple[TreeNode, list, np.ndarray, np.ndarray]:
    """Tree over original-unit features that mimics the model on d.

    Returns (tree, feature names, training matrix, labels); numeric features
    keep their units so the thresholds read directly, one-hot features split
    at 0.5. The labels are the model's predictions on d.
    """
    if model.schema is None or model.scaling is None:
        raise ConfigError("model has no attached preprocessing; fit with fit_dataset")
    d_exp = ensure_expanded(d, model.schema)
    y = predict_dataset(model, d_exp)
    M = encode_matrix(d_exp, model.schema)  # unscaled numerics plus one-hot
    tree = fit_tree(M, y)
    return tree, model.schema.feature_names(), M, y


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _node_to_doc(node: TreeNode) -> dict:
    doc = {
        "prediction": node.prediction,
        "counts": [[l, c] for l, c in node.counts],
    }
    if not node.is_leaf:
        doc["feature"] = node.feature
        doc["threshold"] = node.threshold
        doc["left"] = _node_to_doc(node.left)
        doc["right"] = _node_to_doc(node.right)
    return doc


def tree_to_json(tree: TreeNode, feature_names) -> str:
    doc = {
        "format": TREE_FORMAT,
        "features": list(feature_names),
        "root": _node_to_doc(tree),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

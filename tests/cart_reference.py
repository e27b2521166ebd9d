"""Reference CART growth: the per-threshold loop the surrogate used to run.

``_best_split`` and ``_grow`` are the surrogate's former split search and
tree growth, kept verbatim as a slow, obviously-correct oracle for the
vectorised search. ``TreeNode``, ``_counts``, ``_majority`` and ``_gini``
are copied alongside so the module imports nothing from ``ocsvm_rules``.

``_leaves``, ``tree_stats``, ``tree_to_rules`` and ``_node_to_doc`` are the
surrogate's former tree walks: a root-path tuple copied per node, each leaf's
path re-read to tighten its bounds, and a recursive document builder. They are
kept verbatim as the oracle for the single pre-order walk, except that
``tree_to_rules`` returns (label, predicates, n_samples) tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    Thresholds are midpoints between consecutive distinct values. Iteration
    order (features ascending, thresholds ascending) plus strict improvement
    makes tie-breaking deterministic.
    """
    n = idx.size
    labels = np.unique(y[idx])
    label_pos = {int(l): k for k, l in enumerate(labels)}
    best = None
    best_score = np.inf
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[idx][order]
        onehot = np.zeros((n, labels.size))
        onehot[np.arange(n), [label_pos[int(l)] for l in sy]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        total = prefix[-1]
        for p in range(1, n):
            if sv[p - 1] == sv[p]:
                continue
            left = prefix[p - 1]
            right = total - left
            gl = 1.0 - float(np.sum((left / p) ** 2))
            gr = 1.0 - float(np.sum((right / (n - p)) ** 2))
            score = (p * gl + (n - p) * gr) / n
            if score < best_score:
                thr = (sv[p - 1] + sv[p]) / 2.0
                if thr >= sv[p]:  # midpoint rounded up to the right value
                    thr = sv[p - 1]
                best = (f, float(thr))
                best_score = score
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
    y = np.asarray(y).astype(np.int64)
    return _grow(X, y, np.arange(X.shape[0]))


def _leaves(tree: TreeNode):
    """(leaf, path) for each leaf, left to right, from a stack, not recursion;
    path holds the (feature, op, threshold) tests from the root down to the
    leaf, op "<=" for a left turn and ">" for a right one."""
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            yield node, path
            continue
        stack.append((node.right, path + ((node.feature, ">", node.threshold),)))
        stack.append((node.left, path + ((node.feature, "<=", node.threshold),)))


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
    for leaf, path in _leaves(tree):
        depth = max(depth, len(path))
        n_leaves += 1
        hits += dict(leaf.counts)[leaf.prediction]
        per_class[str(leaf.prediction)] = per_class.get(str(leaf.prediction), 0) + 1
    return {"depth": depth, "n_leaves": n_leaves, "n_nodes": 2 * n_leaves - 1,
            "rules_per_class": per_class,
            "training_accuracy": hits / sum(c for _, c in tree.counts)}


def tree_to_rules(tree: TreeNode, feature_names) -> tuple:
    """One rule per leaf, left to right.

    Repeated tests on a feature collapse to the tightest bound, so each
    feature appears at most once per op.
    """
    feature_names = list(feature_names)
    rules = []
    for leaf, path in _leaves(tree):
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
        rules.append((
            int(leaf.prediction),
            preds,
            sum(c for _, c in leaf.counts)))
    return tuple(rules)


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

"""Loop reference for k-means++ and Lloyd, independent of ocsvm_rules.

These are the per-k seeding and the per-cluster Lloyd step that
ocsvm_rules.clustering used before it shared seeding across cluster
counts and updated all centres at once. The tests compare whole sweeps
of the production code against them. Nothing here imports ocsvm_rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Clustering:
    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int


def _plusplus_seed(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0:
            # all remaining mass at distance 0: duplicate points
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[c] = X[idx]
        np.minimum(d2, np.sum((X - centers[c]) ** 2, axis=1), out=d2)
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # argmin over squared distances; ties go to the lowest center index
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(X.shape[0]), labels]


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int) -> Clustering:
    k = centers.shape[0]
    centers = centers.copy()
    labels, d2 = _assign(X, centers)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = X[members].mean(axis=0)
            else:
                # respawn the empty cluster at the worst-fit point
                centers[c] = X[int(np.argmax(d2))]
        new_labels, d2 = _assign(X, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return Clustering(
        centers=centers,
        labels=labels.astype(np.int64),
        inertia=float(d2.sum()),
        n_iter=n_iter,
    )


def kmeans_pp(X, k: int, seed: int = 0, n_init: int = 10, max_iter: int = 100) -> Clustering:
    """Best of n_init seeded runs; strictly lower inertia replaces the incumbent."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    best: Clustering | None = None
    for r in range(n_init):
        rng = np.random.default_rng(seed + r)
        centers = _plusplus_seed(X, k, rng)
        result = _lloyd(X, centers, max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best

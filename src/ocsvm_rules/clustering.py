"""K-means with k-means++ seeding.

Determinism: for a fixed seed the result depends only on X, k, n_init and
max_iter. Restart r draws from its own np.random.default_rng(seed + r),
Lloyd iterations run to an assignment fixpoint (or max_iter), assignment
ties go to the lowest centre index, and the best restart wins by strict
inertia comparison, so earlier restarts win ties.

Seeding is shared across k. Pick c of a restart's k-means++ seeding
depends only on its generator and on the picks before it, never on k, so
the seeding for k clusters is the first k picks of one sequence per
restart. A PlusPlusSeeds object keeps those sequences; rule extraction
passes one through its sweep over k = 1, 2, ... so each step extends the
sequences instead of redrawing them. Passing it changes no result.

A PlusPlusSeeds object also carries the sweep's hook for results computed
elsewhere. Rule extraction may run every other count of one group's long
sweep in a helper process forked for that group (see rules.py); the helper
calls kmeans_pp with the same X, k, seed, n_init and max_iter, in the same
program image, so its result is the one the parent would compute. The parent
still calls kmeans_pp once per k, and seeds.ahead(k) hands it the helper's
result for the counts the helper owns. When ahead is unset or returns None
(not the helper's count, or the helper's stream ended), kmeans_pp computes
the result itself.

With one cluster a single restart runs. Every restart's Lloyd loop then
labels all rows 0, moves the centre to the same mean in its first step and
stops with the same inertia, so the first restart would win the tie anyway.
The seeding picks the other restarts skip are drawn when a later k needs
them, from the same per-restart generators in the same order.

Centres are updated with one bincount per column, which adds each
cluster's rows in ascending row order. For d >= 2 that is the order of
X[members].mean(axis=0), so the centres are bit-identical to a
per-cluster mean. For d == 1 numpy's mean over a contiguous column sums
pairwise, so there the two can differ in the last bits (within
1e-12 * max|X|); the labels do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Clustering:
    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int

    @property
    def k(self) -> int:
        return int(self.centers.shape[0])


def _points(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("clustering input must be a 2-D matrix")
    if not np.isfinite(X).all():
        raise ConfigError("clustering input contains NaN or infinite values")
    return X


class PlusPlusSeeds:
    """k-means++ seedings of X: one growing centre sequence per restart."""

    def __init__(self, X, seed: int, n_init: int):
        self.X = _points(X)
        if self.X.shape[0] == 0:
            raise ConfigError("cannot seed clusters from 0 points")
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError("seed must be a non-negative integer, got %r" % (seed,))
        if n_init < 1:
            raise ConfigError("n_init must be >= 1, got %d" % n_init)
        self.seed = seed
        self.n_init = n_init
        self._rngs = [np.random.default_rng(seed + r) for r in range(n_init)]
        self._picks: list[list[int]] = [[] for _ in range(n_init)]
        self._d2: list[np.ndarray | None] = [None] * n_init
        # k -> Clustering computed elsewhere by kmeans_pp(X, k, seed, n_init,
        # max_iter) for this X, or None to compute it here
        self.ahead: Callable[[int], Clustering | None] | None = None

    def centers(self, r: int, k: int) -> np.ndarray:
        """The first k seeding centres of restart r, as a new (k, d) array."""
        X, rng, picks = self.X, self._rngs[r], self._picks[r]
        n = X.shape[0]
        while len(picks) < k:
            d2 = self._d2[r]
            if d2 is None:
                idx = int(rng.integers(n))
                self._d2[r] = np.sum((X - X[idx]) ** 2, axis=1)
            else:
                total = float(d2.sum())
                if total <= 0:
                    # all remaining mass at distance 0: duplicate points
                    idx = int(rng.integers(n))
                else:
                    r_mass = rng.random() * total
                    idx = int(np.searchsorted(np.cumsum(d2), r_mass, side="right"))
                    idx = min(idx, n - 1)
                np.minimum(d2, np.sum((X - X[idx]) ** 2, axis=1), out=d2)
            picks.append(idx)
        return X[picks[:k]]


def _assign(X: np.ndarray, xx_col: np.ndarray,
            centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and the n x k matrix of squared distances to the centres.

    Ties go to the lowest centre index. (-2G + xx) + cc is xx - 2G + cc bit
    for bit, built in one buffer; xx_col is the row norms as an (n, 1) view.
    """
    d2 = X @ centers.T
    d2 *= -2.0
    d2 += xx_col
    d2 += (centers * centers).sum(axis=1)
    np.maximum(d2, 0.0, out=d2)
    return d2.argmin(axis=1), d2


def _lloyd(X: np.ndarray, xx: np.ndarray, centers: np.ndarray, max_iter: int) -> Clustering:
    k, d = centers.shape
    rows = np.arange(X.shape[0])
    xx_col = xx[:, None]
    centers = centers.copy()
    sums = np.empty_like(centers)
    labels, d2 = _assign(X, xx_col, centers)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        counts = np.bincount(labels, minlength=k)
        for j in range(d):
            sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=k)
        if counts.all():
            np.divide(sums, counts[:, None], out=centers)
        else:
            full = counts > 0
            centers[full] = sums[full] / counts[full, None]
            # respawn every empty cluster at the worst-fit point
            centers[~full] = X[int(np.argmax(d2[rows, labels]))]
        new_labels, d2 = _assign(X, xx_col, centers)
        converged = (new_labels == labels).all()
        labels = new_labels
        if converged:
            break
    return Clustering(
        centers=centers,
        labels=labels.astype(np.int64),
        inertia=float(d2[rows, labels].sum()),
        n_iter=n_iter,
    )


def kmeans_pp(X, k: int, seed: int = 0, n_init: int = 10, max_iter: int = 100,
              seeds: PlusPlusSeeds | None = None) -> Clustering:
    """Best of n_init seeded runs; strictly lower inertia replaces the incumbent.

    seeds, if given, must have been built from the same X, seed and n_init;
    it lets a sweep over k reuse the seeding of the smaller k, and its ahead
    hook may supply the result for k instead of computing it.
    """
    X = _points(X)
    n = X.shape[0]
    if k < 1:
        raise ConfigError("k must be >= 1, got %d" % k)
    if n < k:
        raise ConfigError("cannot form %d clusters from %d points" % (k, n))
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1, got %d" % max_iter)
    if seeds is None:
        seeds = PlusPlusSeeds(X, seed, n_init)
    elif (seeds.seed != seed or seeds.n_init != n_init
          or not (seeds.X is X or np.array_equal(seeds.X, X))):
        raise ConfigError("seeds were built for a different X, seed or n_init")
    elif seeds.ahead is not None:
        done = seeds.ahead(k)
        if done is not None:
            return done

    xx = np.sum(X * X, axis=1)
    best: Clustering | None = None
    for r in range(n_init if k > 1 else 1):
        result = _lloyd(X, xx, seeds.centers(r, k), max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    best.centers.flags.writeable = False
    best.labels.flags.writeable = False
    return best

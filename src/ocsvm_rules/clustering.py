"""K-means with k-means++ seeding.

Determinism: for a fixed seed the result depends only on X, k, n_init and
max_iter. Restart r draws from its own np.random.default_rng(seed + r),
made the first time restart r draws. Lloyd iterations run to an assignment
fixpoint (or max_iter), assignment ties go to the lowest centre index, and
the best restart wins by strict inertia comparison, so earlier restarts win
ties.

Seeding is shared across k. Pick c of a restart's k-means++ seeding
depends only on its generator and on the picks before it, never on k, so
the seeding for k clusters is the first k picks of one sequence per
restart. A PlusPlusSeeds object keeps those sequences; rule extraction
passes one through its sweep over k = 1, 2, ... so each step extends the
sequences instead of redrawing them. Passing it changes no result.

With one cluster a single restart runs. Every restart's Lloyd loop then
labels all rows 0, moves the centre to the same mean in its first step and
stops with the same inertia, so the first restart would win the tie anyway.
The seeding picks the other restarts skip are drawn when a later k needs
them, from the same per-restart generators in the same order.

Restarts run in lockstep. The seeding extends the pick sequences of all
the restarts a call runs together: each new pick costs one distance block,
one cumsum and one row sum over the restarts that need it, and each restart
still draws from its own generator. Lloyd iterates a block of b restarts as
one (b, k, d) array of centres, and a restart leaves the block at its own
fixpoint or at max_iter. A block holds b = max(1, _LLOYD_BLOCK // (n * k))
restarts, so its (b, n, k) distance array stays within _LLOYD_BLOCK entries
unless a single restart alone is larger: small groups run all their
restarts at once, large ones one at a time.

Lockstep moves no bit of any result. np.matmul calls the same BLAS kernel
on each 2-D slice that X @ C.T calls for one restart. Every other step is
elementwise, or a reduction along a contiguous last axis, which numpy does
the same way for each row of a stack as for one row alone. The centre sums
are one bincount per column over labels offset by restart * k, which adds
each (restart, cluster) bin's rows in ascending row order, as a bincount
over one restart's labels does.

For d >= 2 that order is the order of X[members].mean(axis=0), so the
centres are bit-identical to a per-cluster mean. For d == 1 numpy's mean
over a contiguous column sums pairwise, so there the two can differ in the
last bits (within 1e-12 * max|X|); the labels do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .formats import count

# Entries of a Lloyd block's (b, n, k) distance array (512 KiB of float64)
# up to which the restarts of one call iterate together.
_LLOYD_BLOCK = 1 << 16


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
        count(seed, "seed", 0)
        self.seed = seed
        self.n_init = count(n_init, "n_init", 1)
        self._rngs: list[np.random.Generator] = []  # restarts 0, 1, ... drawn from so far
        self._picks: list[list[int]] = [[] for _ in range(self.n_init)]
        # each restart's squared distances to its nearest pick so far
        self._d2 = np.empty((self.n_init, self.X.shape[0]))

    def centers(self, k: int) -> np.ndarray:
        """The first k seeding centres of each restart kmeans_pp runs for k
        clusters (restart 0 alone when k == 1, else all n_init), as a new
        (restarts, k, d) array."""
        X, picks, d2 = self.X, self._picks, self._d2
        n = X.shape[0]
        restarts = self.n_init if k > 1 else 1
        while len(self._rngs) < restarts:
            self._rngs.append(np.random.default_rng(self.seed + len(self._rngs)))
        for c in range(min(len(p) for p in picks[:restarts]), k):
            rows = [r for r in range(restarts) if len(picks[r]) == c]
            if c == 0:
                new = [int(self._rngs[r].integers(n)) for r in rows]
            else:
                mass = d2[rows]
                totals = mass.sum(axis=1)
                cum = np.cumsum(mass, axis=1)
                new = []
                for i, r in enumerate(rows):
                    rng, total = self._rngs[r], float(totals[i])
                    if total <= 0:
                        # all remaining mass at distance 0: duplicate points
                        idx = int(rng.integers(n))
                    else:
                        idx = int(np.searchsorted(cum[i], rng.random() * total, side="right"))
                        idx = min(idx, n - 1)
                    new.append(idx)
            dist = np.sum((X - X[new][:, None, :]) ** 2, axis=2)
            d2[rows] = dist if c == 0 else np.minimum(mass, dist)
            for r, idx in zip(rows, new):
                picks[r].append(idx)
        return X[np.array([p[:k] for p in picks[:restarts]])]


def _assign(X: np.ndarray, xx_col: np.ndarray,
            centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels (b, n) and the (b, n, k) squared distances to a block's centres.

    Ties go to the lowest centre index. (-2G + xx) + cc is xx - 2G + cc bit
    for bit, built in one buffer; xx_col is the row norms as an (n, 1) view.
    """
    d2 = np.matmul(X, centers.transpose(0, 2, 1))
    d2 *= -2.0
    d2 += xx_col
    d2 += (centers * centers).sum(axis=2)[:, None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2.argmin(axis=2), d2


def _lloyd(X: np.ndarray, xx: np.ndarray, centers: np.ndarray,
           max_iter: int) -> list[Clustering]:
    """Lloyd's iterations from a (b, k, d) block of starting centres: one
    Clustering per restart, in block order."""
    b, k, d = centers.shape
    n = X.shape[0]
    rows = np.arange(n)
    xx_col = xx[:, None]
    # the i-th restart still iterating counts into bins [i*k, (i+1)*k) and
    # weighs its rows by X's columns tiled once per restart, at [i*n, (i+1)*n)
    offsets = (np.arange(b) * k)[:, None]
    weights = np.tile(X.T, (1, b))
    sums = np.empty((b * k, d))
    runs = np.arange(b)  # block index of each restart still iterating
    centers = centers.copy()
    labels, d2 = _assign(X, xx_col, centers)
    done: dict[int, Clustering] = {}
    for n_iter in range(1, max_iter + 1):
        m = len(runs)
        # the first offset is 0: a lone restart's labels are its bins
        bins = labels.ravel() if m == 1 else (labels + offsets[:m]).ravel()
        counts = np.bincount(bins, minlength=m * k)
        block_sums = sums[:m * k]
        for j in range(d):
            block_sums[:, j] = np.bincount(bins, weights=weights[j, :m * n], minlength=m * k)
        flat = centers.reshape(m * k, d)  # a view: centers is contiguous
        if np.count_nonzero(counts) == m * k:
            np.divide(block_sums, counts[:, None], out=flat)
        else:
            full = counts > 0
            flat[full] = block_sums[full] / counts[full, None]
            empty = ~full.reshape(m, k)
            for i in np.flatnonzero(empty.any(axis=1)):
                # respawn every empty cluster at the restart's worst-fit point
                centers[i, empty[i]] = X[int(np.argmax(d2[i, rows, labels[i]]))]
        new_labels, d2 = _assign(X, xx_col, centers)
        moved = (new_labels != labels).any(axis=1)
        labels = new_labels
        if n_iter == max_iter:
            moved[:] = False
        going = np.count_nonzero(moved)
        if going == m:
            continue
        for i in np.flatnonzero(~moved):
            done[int(runs[i])] = Clustering(
                centers=centers[i].copy(),
                labels=labels[i].astype(np.int64),
                inertia=float(d2[i, rows, labels[i]].sum()),
                n_iter=n_iter,
            )
        if not going:
            break
        runs, centers, labels, d2 = runs[moved], centers[moved], labels[moved], d2[moved]
    return [done[r] for r in range(b)]


def kmeans_pp(X, k: int, seed: int = 0, n_init: int = 10, max_iter: int = 100,
              seeds: PlusPlusSeeds | None = None) -> Clustering:
    """Best of n_init seeded runs; strictly lower inertia replaces the incumbent.

    seeds, if given, must have been built from the same X, seed and n_init;
    it lets a sweep over k reuse the seeding of the smaller k.
    """
    X = _points(X)
    n = X.shape[0]
    k = count(k, "k", 1)
    n_init = count(n_init, "n_init", 1)
    max_iter = count(max_iter, "max_iter", 1)
    if n < k:
        raise ConfigError("cannot form %d clusters from %d points" % (k, n))
    if seeds is None:
        seeds = PlusPlusSeeds(X, seed, n_init)
    elif (seeds.seed != seed or seeds.n_init != n_init
          or not (seeds.X is X or np.array_equal(seeds.X, X))):
        raise ConfigError("seeds were built for a different X, seed or n_init")

    xx = np.sum(X * X, axis=1)
    starts = seeds.centers(k)
    block = max(1, _LLOYD_BLOCK // (n * k))
    best: Clustering | None = None
    for lo in range(0, starts.shape[0], block):
        for result in _lloyd(X, xx, starts[lo:lo + block], max_iter):
            if best is None or result.inertia < best.inertia:
                best = result
    assert best is not None
    best.centers.flags.writeable = False
    best.labels.flags.writeable = False
    return best

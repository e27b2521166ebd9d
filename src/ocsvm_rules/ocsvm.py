"""One-class SVM with RBF kernel, trained in the dual.

The dual problem solved here is

    minimize    0.5 * a' Q a
    subject to  0 <= a_i <= 1 / (nu * n),   sum(a) = 1

with Q the RBF Gram matrix. Optimization uses two-coordinate descent with
most-violating-pair selection; ties resolve to the lowest index so training
is deterministic for a fixed input. The rows the solver reads form an
exactly symmetric matrix, so each step reads the two rows of Q it needs in
place of its two columns. The loop keeps the gradient G = Q a as two
penalised views, G or +inf where an alpha cannot grow and G or -inf where
it cannot shrink; they are the only record of which alphas can move. An
infinite minimum of the first means every alpha is at C (nu = 1), and the
loop stops with the dual solved.

Row i of Q is computed on its first read from the one-row product
X[i] @ X.T and kept in a least-recently-used cache of at most
KERNEL_CACHE_BYTES, 8 MiB. A row computed again is bit-identical to the
one evicted, so the budget moves no result, only time and memory: at
5000 rows it holds 209 rows. The loop itself works in buffers allocated
before it starts, and no n x n array is built.

Scoring uses the same kernel routine, _rbf_kernel, on blocks of at most
_KERNEL_BLOCK entries, and scores each distinct row once, so equal rows
always get the same decision value.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import (
    Dataset,
    build_schema,
    encode_matrix,
    ensure_expanded,
    expand_cyclical,
    scale_apply,
    scale_fit,
)
from .errors import ConfigError, SolverConvergenceError
from .formats import (  # noqa: F401 - the labels and KernelParams stay importable from here
    ANOMALOUS, NON_ANOMALOUS, FeatureSchema, KernelParams, ScalingParams, count,
    expand_numeric_names, model_doc, number,
)

# Bytes of kernel rows the solver keeps. Below LIBSVM's default (-m 100, 100
# MiB), which at 5000 rows kept every row the solver read and set the peak
# memory of extract; each row evicted costs one more one-row product.
KERNEL_CACHE_BYTES = 8 * 2**20
# The most rows whose whole 8 * n**2-byte Gram fits in the budget (1024).
# No fit builds that Gram; the name stays only because the benchmark's
# perfbench/run.py reads it to compute ocsvm.gram_mb.
DENSE_KERNEL_LIMIT = math.isqrt(KERNEL_CACHE_BYTES // 8)

# Kernel entries per block of rows that decision_values scores: a 512 KiB
# block stays in cache through the five elementwise passes of _rbf_kernel.
_KERNEL_BLOCK = 1 << 16


def _rbf_kernel(X: np.ndarray, Y: np.ndarray, xx: np.ndarray, yy: np.ndarray,
                gamma: float) -> np.ndarray:
    """RBF kernel block exp(-gamma * ||x - y||^2) between the rows of X and Y.

    xx and yy are the squared norms of the rows of X and Y. The block is
    exp(-gamma * max((xx + yy) - 2 * xy, 0)) built in place in the buffer of
    X @ Y.T; the steps are elementwise, so a row's values depend only on its
    row of the product.
    """
    blk = X @ Y.T
    blk *= 2.0
    np.subtract(xx[:, None] + yy[None, :], blk, out=blk)
    np.maximum(blk, 0.0, out=blk)  # guard tiny negatives from cancellation
    blk *= -gamma
    np.exp(blk, out=blk)
    return blk


class _KernelRows:
    """Row access to the Gram matrix Q within KERNEL_CACHE_BYTES.

    Row i is _rbf_kernel(X[i:i+1], X, ...), computed on its first read,
    and an LRU cache keeps the last max(2, budget // (8 n)) rows read; up
    to 1024 rows that is every row. A one-row product rounds differently
    from the whole X @ X.T, so these rows match the whole-matrix kernel only
    to the last bits, but together they form an exactly symmetric matrix.
    The two rows of a step are the two most recent, so reading the second
    never evicts the first.
    """

    def __init__(self, X: np.ndarray, gamma: float):
        self.X = X
        self.gamma = gamma
        self._xx = np.sum(X * X, axis=1)
        self._cache = OrderedDict()
        self._capacity = max(2, KERNEL_CACHE_BYTES // (8 * X.shape[0]))

    def row(self, i: int) -> np.ndarray:
        """Row i of Q, which the solver reads as column i: Q is symmetric."""
        cache = self._cache
        row = cache.get(i)
        if row is not None:
            cache.move_to_end(i)
            return row[0]
        if len(cache) >= self._capacity:
            cache.popitem(last=False)
        row = cache[i] = _rbf_kernel(self.X[i : i + 1], self.X,
                                     self._xx[i : i + 1], self._xx, self.gamma)
        return row[0]


@dataclass(frozen=True)
class OcsvmModel:
    """Fitted dual solution; only points with alpha > 0 are retained."""

    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    nu: float
    kernel: KernelParams
    n_train: int
    # Preprocessing attached by fit_dataset so the model can score raw rows.
    schema: FeatureSchema | None = field(default=None, compare=False)
    scaling: ScalingParams | None = field(default=None, compare=False)

    @property
    def n_support(self) -> int:
        return int(self.support_vectors.shape[0])


def fit(X, nu: float, kernel: KernelParams, tol: float = 1e-5,
        max_iter: int | None = None) -> OcsvmModel:
    """Solve the one-class dual over the rows of X.

    The default tolerance is tighter than the usual 1e-3: with a wide RBF
    on unit-scaled data the gradient spread is tiny and a loose stop puts
    the offset far enough off to misclassify a big slice of the data.

    Kernel rows take at most KERNEL_CACHE_BYTES, 8 MiB (see _KernelRows),
    or two rows where n exceeds 2**19; beyond them the fit holds X and a
    few vectors of n floats, so no fit builds an n x n array.

    Raises ConfigError unless X is a 2-D matrix of at least 2 rows, nu is a
    number (formats.number: not a bool, finite) in (0, 1] with nu * n >= 1,
    tol a number > 0, and max_iter None or an integer >= 1. Raises
    SolverConvergenceError (carrying the best iterate and the remaining KKT
    violation) if the pair-selection loop hits max_iter, which defaults to
    100 * n.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("training data must be a 2-D matrix")
    n = X.shape[0]
    if n < 2:
        raise ConfigError("need at least 2 training points, got %d" % n)
    number(nu, "nu", above=0, high=1)
    if nu * n < 1:
        raise ConfigError("nu * n must be >= 1 (nu=%r, n=%d)" % (nu, n))
    number(tol, "tol", above=0)
    max_iter = 100 * n if max_iter is None else count(max_iter, "max_iter", 1)

    C = 1.0 / (nu * n)
    kr = _KernelRows(X, kernel.gamma)

    # Feasible start: the first floor(nu*n) points at the upper bound, one
    # fractional entry to make the alphas sum to exactly 1.
    alpha = np.zeros(n, dtype=np.float64)
    n_bound = int(nu * n)
    alpha[:n_bound] = C
    if n_bound < n:
        alpha[n_bound] = 1.0 - n_bound * C

    G = np.zeros(n, dtype=np.float64)
    for i in np.flatnonzero(alpha > 0):
        G += alpha[i] * kr.row(i)

    # Two penalised views of G are the only record of which alphas can move:
    # up is G where alpha can grow and +inf where it cannot; down is G where
    # alpha can shrink and -inf where it cannot. Each alpha can move one way
    # at least (C > 0), so one view holds its G. The selection is the first
    # extremum of G over each set.
    up = np.where(alpha < C, G, np.inf)
    down = np.where(alpha > 0, G, -np.inf)
    del G
    t_i = np.empty(n, dtype=np.float64)
    t_j = np.empty(n, dtype=np.float64)

    for _ in range(max_iter):
        # argmin/argmax return the first extremum: ties go to the lowest index
        i = int(up.argmin())
        g_i = up.item(i)
        if g_i == math.inf:  # every alpha is at C: none can grow
            break
        # finite: some alpha is > 0, as a step keeps alpha[i] + alpha[j] > 0
        j = int(down.argmax())
        violation = down.item(j) - g_i
        if violation <= tol:
            break

        row_i = kr.row(i)
        row_j = kr.row(j)
        # Q_ii + Q_jj - 2 Q_ij with the RBF diagonal taken as 1; a computed
        # Q_ii can fall short of 1 by rounding (1e-15 to 5e-13 measured).
        # The step's scalars are Python floats, cheaper than numpy scalars.
        quad = 2.0 - 2.0 * row_i.item(j)
        if quad <= 0:
            quad = 1e-12
        delta = violation / quad

        old_i, old_j = alpha.item(i), alpha.item(j)
        s = old_i + old_j
        # clip so both coordinates stay in [0, C] with their sum fixed
        new_i = min(old_i + delta, C, s)
        new_i = max(new_i, 0.0, s - C)
        new_j = s - new_i
        alpha[i] = new_i
        alpha[j] = new_j
        # G += (new_i - old_i) * row_i + (new_j - old_j) * row_j, in the same
        # operations and order on both views; a penalty stays infinite
        np.multiply(new_i - old_i, row_i, out=t_i)
        np.multiply(new_j - old_j, row_j, out=t_j)
        t_i += t_j
        up += t_i
        down += t_i
        # only alpha[i] and alpha[j] moved: a view that was infinite takes
        # the G of the other
        for k, a in ((i, new_i), (j, new_j)):
            g = up.item(k)
            if g == math.inf:
                g = down.item(k)
            up[k] = g if a < C else math.inf
            down[k] = g if a > 0 else -math.inf
    else:  # no break in max_iter >= 1 steps, so violation is set
        raise SolverConvergenceError(
            "solver did not converge after %d iterations (KKT violation %.3e)"
            % (max_iter, violation),
            alpha=alpha.copy(),
            kkt_violation=violation,
            iterations=max_iter,
        )

    rho = _estimate_rho(alpha, np.where(up < math.inf, up, down), C)

    sv = alpha > 0
    model = OcsvmModel(
        support_vectors=X[sv].copy(),
        alphas=alpha[sv].copy(),
        rho=rho,
        nu=float(nu),
        kernel=kernel,
        n_train=n,
    )
    model.support_vectors.flags.writeable = False
    model.alphas.flags.writeable = False
    return model


def _estimate_rho(alpha: np.ndarray, G: np.ndarray, C: float) -> float:
    """Offset from KKT: decision value of non-bound support vectors is 0."""
    interior = (alpha > 0) & (alpha < C)
    if interior.any():
        return float(G[interior].mean())
    # none interior: the alphas sum to 1, so some sit at C; rho is their
    # largest G, or its midpoint with the smallest G at 0 if any alpha is 0
    lo = float(G[alpha >= C].max())
    at_zero = alpha <= 0
    return 0.5 * (lo + float(G[at_zero].min())) if at_zero.any() else lo


def fit_dataset(d: Dataset, l_n, l_c, nu: float, kernel: KernelParams,
                tol: float = 1e-5, max_iter: int | None = None,
                cyclical=None) -> OcsvmModel:
    """Scale, one-hot encode, and fit; the returned model can score Datasets.

    ``cyclical`` maps column name to period; those columns are replaced by
    their (sin, cos) pair before scaling.
    """
    d, info = expand_cyclical(d, cyclical or {})
    l_n = expand_numeric_names(l_n, info)
    schema = build_schema(d, l_n, l_c, cyclical=info)
    scaling = scale_fit(d, schema.numerical)
    scaled = scale_apply(d, scaling)
    M = encode_matrix(scaled, schema)
    model = fit(M, nu, kernel, tol=tol, max_iter=max_iter)
    return replace(model, schema=schema, scaling=scaling)


def decision_values(m: OcsvmModel, X) -> np.ndarray:
    """g(x) = sum_i alpha_i k(sv_i, x) - rho for each row x of X.

    Equal rows get one value: the rows are sorted once, each distinct row is
    scored once, and its value is copied to its equals, so no rounding puts
    two of them on opposite sides of 0. The distinct rows are scored in
    blocks of at most _KERNEL_BLOCK kernel entries (one row when there are
    more support vectors than that), so no n x n_SV array is built.

    Raises ConfigError unless the rows have the model's number of features.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    sv = m.support_vectors
    if X.shape[1] != sv.shape[1]:
        raise ConfigError("expected %d features, got %d" % (sv.shape[1], X.shape[1]))
    n = X.shape[0]
    order = np.lexsort(X.T) if X.shape[1] else np.arange(n)
    X = X[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (X[1:] != X[:-1]).any(axis=1)
    X = X[first]
    yy = np.sum(sv * sv, axis=1)
    g = np.empty(X.shape[0])
    step = max(1, _KERNEL_BLOCK // max(1, sv.shape[0]))
    for start in range(0, X.shape[0], step):
        blk = X[start : start + step]
        K = _rbf_kernel(blk, sv, np.sum(blk * blk, axis=1), yy, m.kernel.gamma)
        g[start : start + step] = K @ m.alphas
    g -= m.rho
    out = np.empty(n)
    out[order] = g[np.cumsum(first) - 1]
    return out


def _expanded(m: OcsvmModel, d: Dataset) -> Dataset:
    """d with the model's periodic columns expanded; ConfigError for a bare model."""
    if m.schema is None or m.scaling is None:
        raise ConfigError("model has no attached preprocessing; fit with fit_dataset")
    return ensure_expanded(d, m.schema)


def dataset_decision_values(m: OcsvmModel, d: Dataset) -> np.ndarray:
    scaled = scale_apply(_expanded(m, d), m.scaling)
    return decision_values(m, encode_matrix(scaled, m.schema))


def anomalous_rows(d: Dataset, m: OcsvmModel) -> np.ndarray:
    """Ascending indices of the rows of d that the model predicts anomalous:
    every row whose decision value is not >= 0, so a value of 0 is
    non-anomalous."""
    return np.flatnonzero(~(dataset_decision_values(m, d) >= 0))


def split_by_prediction(d: Dataset, m: OcsvmModel, anomalous=None) -> tuple[Dataset, Dataset]:
    """Partition rows into (anomalous, non-anomalous) per the model.

    anomalous, the indices anomalous_rows gave for d and m, saves scoring
    the rows again. Both halves carry the model's periodic columns as their
    (sin, cos) pairs. Rows that encode equally get one decision value (see
    decision_values), so they land in the same half; scoring holds one block
    of at most _KERNEL_BLOCK kernel entries at a time. Raises ConfigError
    unless every index is an integer in [0, d.rows) (Dataset.row_mask).
    """
    d = _expanded(m, d)
    mask = d.row_mask(anomalous_rows(d, m) if anomalous is None else anomalous)
    return d.take(mask), d.take(~mask)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_from_json(text: str) -> OcsvmModel:
    """Inverse of formats.model_to_json: formats.model_doc checks the text, and
    the support vectors and alphas become read-only float arrays."""
    fields = model_doc(text)
    model = OcsvmModel(**dict(
        fields, support_vectors=np.array(fields["support_vectors"], dtype=np.float64),
        alphas=np.array(fields["alphas"], dtype=np.float64)))
    model.support_vectors.flags.writeable = False
    model.alphas.flags.writeable = False
    return model

"""One-class SVM with RBF kernel, trained in the dual.

The dual problem solved here is

    minimize    0.5 * a' Q a
    subject to  0 <= a_i <= 1 / (nu * n),   sum(a) = 1

with Q the RBF Gram matrix. Optimization uses two-coordinate descent with
most-violating-pair selection; ties resolve to the lowest index so training
is deterministic for a fixed input. Q is exactly symmetric, so each step
reads the two rows of Q it needs, which are contiguous in the dense cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    ColumnScale,
    Dataset,
    FeatureSchema,
    ScalingParams,
    build_schema,
    cyclical_from_doc,
    cyclical_to_doc,
    encode_matrix,
    expand_cyclical,
    expand_numeric_names,
    scale_apply,
    scale_fit,
)
from .errors import ConfigError, SchemaError, SolverConvergenceError

NON_ANOMALOUS = 1
ANOMALOUS = -1

# Above this size the Gram matrix is no longer cached densely; kernel
# rows are recomputed on demand inside the solver loop. The dense cache
# costs 8 * n**2 bytes once (3.2 GB at the limit) and no n x n temporaries.
DENSE_KERNEL_LIMIT = 20_000

# Entries per block while rbf_kernel_matrix finishes its result in place:
# a 512 KiB block stays in cache through the five elementwise passes.
_KERNEL_BLOCK = 1 << 16

MODEL_FORMAT = "ocsvm-model/1"


@dataclass(frozen=True)
class KernelParams:
    gamma: float
    kind: str = "rbf"

    def __post_init__(self):
        if self.kind != "rbf":
            raise ConfigError("only the rbf kernel is supported, got %r" % self.kind)
        if not self.gamma > 0:
            raise ConfigError("gamma must be positive, got %r" % self.gamma)


def rbf_kernel_matrix(X, Y, gamma: float) -> np.ndarray:
    """Pairwise RBF kernel exp(-gamma * ||x - y||^2) between the rows of X and Y.

    The result is built in place in the buffer of ``X @ Y.T``, one block of
    about _KERNEL_BLOCK entries at a time, so the only n x m array is the
    result. ``rbf_kernel_matrix(X, X, gamma)`` is exactly symmetric: numpy
    computes ``X @ X.T`` as one triangle and mirrors it, and every later
    step is elementwise.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ConfigError("kernel arguments differ in dimension: %d vs %d"
                          % (X.shape[1], Y.shape[1]))
    xx = np.sum(X * X, axis=1)
    yy = np.sum(Y * Y, axis=1)
    K = X @ Y.T
    rows = max(1, _KERNEL_BLOCK // max(1, K.shape[1]))
    for start in range(0, K.shape[0], rows):
        blk = K[start : start + rows]
        # exp(-gamma * max((xx + yy) - 2 * xy, 0)) with the same roundings
        # as that whole-matrix expression: blocking changes no float
        blk *= 2.0
        np.subtract(xx[start : start + rows, None] + yy[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)  # guard tiny negatives from cancellation
        blk *= -gamma
        np.exp(blk, out=blk)
    return K


class _KernelRows:
    """Row access to the Gram matrix, dense-cached for small n."""

    def __init__(self, X: np.ndarray, gamma: float):
        self.X = X
        self.gamma = gamma
        self._dense = rbf_kernel_matrix(X, X, gamma) if X.shape[0] <= DENSE_KERNEL_LIMIT else None

    def row(self, i: int) -> np.ndarray:
        """Row i of Q, which is column i: the dense Q is exactly symmetric.

        A row of the C-order dense cache is contiguous; a column would
        touch one cache line per entry.
        """
        if self._dense is not None:
            return self._dense[i]
        return rbf_kernel_matrix(self.X, self.X[i : i + 1], self.gamma)[:, 0]


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

    def with_preprocessing(self, schema: FeatureSchema, scaling: ScalingParams) -> "OcsvmModel":
        return OcsvmModel(
            support_vectors=self.support_vectors,
            alphas=self.alphas,
            rho=self.rho,
            nu=self.nu,
            kernel=self.kernel,
            n_train=self.n_train,
            schema=schema,
            scaling=scaling,
        )


def fit(X, nu: float, kernel: KernelParams, tol: float = 1e-5,
        max_iter: int | None = None) -> OcsvmModel:
    """Solve the one-class dual over the rows of X.

    The default tolerance is tighter than the usual 1e-3: with a wide RBF
    on unit-scaled data the gradient spread is tiny and a loose stop puts
    the offset far enough off to misclassify a big slice of the data.

    Raises SolverConvergenceError (carrying the best iterate and the
    remaining KKT violation) if the pair-selection loop hits max_iter,
    which defaults to 100 * n.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("training data must be a 2-D matrix")
    n = X.shape[0]
    if n < 2:
        raise ConfigError("need at least 2 training points, got %d" % n)
    if not 0 < nu <= 1:
        raise ConfigError("nu must lie in (0, 1], got %r" % nu)
    if nu * n < 1:
        raise ConfigError("nu * n must be >= 1 (nu=%r, n=%d)" % (nu, n))
    if max_iter is None:
        max_iter = 100 * n

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

    converged = False
    violation = np.inf
    for _ in range(max_iter):
        up = alpha < C      # can grow
        down = alpha > 0    # can shrink
        if not up.any() or not down.any():
            converged = True
            violation = 0.0
            break
        neg_G = -G
        # argmax/argmin return the first extremum: ties go to the lowest index
        i = int(np.argmax(np.where(up, neg_G, -np.inf)))
        j = int(np.argmin(np.where(down, neg_G, np.inf)))
        violation = neg_G[i] - neg_G[j]
        if violation <= tol:
            converged = True
            break

        row_i = kr.row(i)
        row_j = kr.row(j)
        # Q_ii + Q_jj - 2 Q_ij; RBF diagonal entries are exactly 1
        quad = 2.0 - 2.0 * row_i[j]
        if quad <= 0:
            quad = 1e-12
        delta = (G[j] - G[i]) / quad

        s = alpha[i] + alpha[j]
        old_i, old_j = alpha[i], alpha[j]
        new_i = old_i + delta
        # clip so both coordinates stay in [0, C] with their sum fixed
        new_i = min(new_i, C, s)
        new_i = max(new_i, 0.0, s - C)
        alpha[i] = new_i
        alpha[j] = s - new_i
        G += (alpha[i] - old_i) * row_i + (alpha[j] - old_j) * row_j

    if not converged:
        raise SolverConvergenceError(
            "solver did not converge after %d iterations (KKT violation %.3e)"
            % (max_iter, violation),
            alpha=alpha.copy(),
            kkt_violation=float(violation),
            iterations=max_iter,
        )

    rho = _estimate_rho(alpha, G, C)

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
    at_upper = alpha >= C
    at_zero = alpha <= 0
    lo = float(G[at_upper].max()) if at_upper.any() else None
    hi = float(G[at_zero].min()) if at_zero.any() else None
    if lo is not None and hi is not None:
        return 0.5 * (lo + hi)
    if lo is not None:
        return lo
    if hi is not None:
        return hi
    return 0.0


def fit_dataset(d: Dataset, l_n, l_c, nu: float, kernel: KernelParams,
                tol: float = 1e-5, max_iter: int | None = None,
                cyclical=None) -> OcsvmModel:
    """Scale, one-hot encode, and fit; the returned model can score Datasets.

    ``cyclical`` maps column name to period; those columns are replaced by
    their (sin, cos) pair before scaling.
    """
    info = {}
    if cyclical:
        d, info = expand_cyclical(d, cyclical)
        l_n = expand_numeric_names(l_n, info)
    schema = build_schema(d, l_n, l_c, cyclical=info)
    scaling = scale_fit(d, schema.numerical) if schema.numerical else ScalingParams(per_column={})
    scaled = scale_apply(d, scaling)
    M = encode_matrix(scaled, schema)
    model = fit(M, nu, kernel, tol=tol, max_iter=max_iter)
    return model.with_preprocessing(schema, scaling)


def ensure_expanded(d: Dataset, schema: FeatureSchema) -> Dataset:
    """Expand periodic columns unless the dataset already carries the pairs."""
    if not schema.cyclical:
        return d
    names = set(d.column_names)
    periods = {}
    for orig, info in schema.cyclical.items():
        if info.sin_col in names and info.cos_col in names:
            continue
        periods[orig] = info.period
    if not periods:
        return d
    expanded, _ = expand_cyclical(d, periods)
    return expanded


def decision_values(m: OcsvmModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != m.support_vectors.shape[1]:
        raise ConfigError("expected %d features, got %d"
                          % (m.support_vectors.shape[1], X.shape[1]))
    K = rbf_kernel_matrix(X, m.support_vectors, m.kernel.gamma)
    return K @ m.alphas - m.rho


def predict_many(m: OcsvmModel, X) -> np.ndarray:
    """+1 non-anomalous, -1 anomalous per row; the zero boundary counts as +1."""
    g = decision_values(m, X)
    return np.where(g >= 0, NON_ANOMALOUS, ANOMALOUS)


def dataset_decision_values(m: OcsvmModel, d: Dataset) -> np.ndarray:
    if m.schema is None or m.scaling is None:
        raise ConfigError("model has no attached preprocessing; fit with fit_dataset")
    scaled = scale_apply(ensure_expanded(d, m.schema), m.scaling)
    return decision_values(m, encode_matrix(scaled, m.schema))


def split_by_prediction(d: Dataset, m: OcsvmModel) -> tuple[Dataset, Dataset]:
    """Partition rows into (anomalous, non-anomalous) per the model."""
    g = dataset_decision_values(m, d)
    anomalous = g < 0
    return d.take(anomalous), d.take(~anomalous)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_json(m: OcsvmModel) -> str:
    if m.schema is None or m.scaling is None:
        raise ConfigError("only models with attached preprocessing serialize")
    doc = {
        "format": MODEL_FORMAT,
        "nu": m.nu,
        "gamma": m.kernel.gamma,
        "rho": m.rho,
        "n_train": m.n_train,
        "alphas": [float(a) for a in m.alphas],
        "support_vectors": [[float(v) for v in row] for row in m.support_vectors],
        "schema": {
            "numerical": list(m.schema.numerical),
            "categorical": list(m.schema.categorical),
            "levels": {c: list(toks) for c, toks in m.schema.levels.items()},
            "cyclical": cyclical_to_doc(m.schema.cyclical),
        },
        "scaling": {
            c: {"min": sc.min, "max": sc.max, "degenerate": sc.degenerate}
            for c, sc in m.scaling.per_column.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> OcsvmModel:
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise SchemaError("unsupported model format: %r" % doc.get("format"))
    schema = FeatureSchema(
        numerical=tuple(doc["schema"]["numerical"]),
        categorical=tuple(doc["schema"]["categorical"]),
        levels={c: tuple(toks) for c, toks in doc["schema"]["levels"].items()},
        cyclical=cyclical_from_doc(doc["schema"].get("cyclical", {})),
    )
    scaling = ScalingParams(per_column={
        c: ColumnScale(min=s["min"], max=s["max"], degenerate=s["degenerate"])
        for c, s in doc["scaling"].items()
    })
    sv = np.array(doc["support_vectors"], dtype=np.float64)
    if sv.size == 0:
        sv = sv.reshape(0, len(schema.feature_names()))
    model = OcsvmModel(
        support_vectors=sv,
        alphas=np.array(doc["alphas"], dtype=np.float64),
        rho=float(doc["rho"]),
        nu=float(doc["nu"]),
        kernel=KernelParams(gamma=float(doc["gamma"])),
        n_train=int(doc["n_train"]),
        schema=schema,
        scaling=scaling,
    )
    model.support_vectors.flags.writeable = False
    model.alphas.flags.writeable = False
    return model

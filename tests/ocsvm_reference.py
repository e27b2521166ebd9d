"""Reference RBF Gram matrix and one-class dual solver, independent of ocsvm_rules.

``rbf_kernel_matrix`` is the whole-matrix formula and ``fit`` the solver
loop that ocsvm_rules.ocsvm used before it built the Gram matrix in place
and read rows instead of columns. The loop, the column access and
``_estimate_rho`` are kept verbatim (the dense cache only) as the oracle
the tests compare the production solver against bit for bit. Nothing here
imports ocsvm_rules.
"""

from __future__ import annotations

import numpy as np


def rbf_kernel_matrix(X, Y, gamma: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(Y * Y, axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.maximum(sq, 0.0, out=sq)  # guard tiny negatives from cancellation
    return np.exp(-gamma * sq)


class _KernelColumns:
    """Column access to the dense Gram matrix."""

    def __init__(self, X: np.ndarray, gamma: float):
        self._dense = rbf_kernel_matrix(X, X, gamma)

    def col(self, i: int) -> np.ndarray:
        return self._dense[:, i]

    def diag2(self, i: int, j: int, qij: float) -> float:
        # RBF diagonal entries are exactly 1
        return 2.0 - 2.0 * qij


def fit(X, nu: float, gamma: float, tol: float = 1e-5):
    """Solve the one-class dual; return (alpha over all rows, rho)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    max_iter = 100 * n

    C = 1.0 / (nu * n)
    kc = _KernelColumns(X, gamma)

    alpha = np.zeros(n, dtype=np.float64)
    n_bound = int(nu * n)
    alpha[:n_bound] = C
    if n_bound < n:
        alpha[n_bound] = 1.0 - n_bound * C

    G = np.zeros(n, dtype=np.float64)
    for i in np.flatnonzero(alpha > 0):
        G += alpha[i] * kc.col(i)

    converged = False
    for _ in range(max_iter):
        up = alpha < C      # can grow
        down = alpha > 0    # can shrink
        if not up.any() or not down.any():
            converged = True
            break
        neg_G = -G
        i = int(np.flatnonzero(up)[np.argmax(neg_G[up])])
        j = int(np.flatnonzero(down)[np.argmin(neg_G[down])])
        violation = neg_G[i] - neg_G[j]
        if violation <= tol:
            converged = True
            break

        col_i = kc.col(i)
        col_j = kc.col(j)
        quad = kc.diag2(i, j, col_i[j])
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
        G += (alpha[i] - old_i) * col_i + (alpha[j] - old_j) * col_j

    if not converged:
        raise RuntimeError("reference solver did not converge")
    return alpha, _estimate_rho(alpha, G, C)


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

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import model_reference
import ocsvm_reference
import qp_oracle
import synth
import ocsvm_rules.ocsvm as oc
from ocsvm_rules.dataset import ColumnScale, FeatureSchema, ScalingParams
from ocsvm_rules.errors import ConfigError, SchemaError, SolverConvergenceError
from ocsvm_rules.ocsvm import (
    ANOMALOUS,
    NON_ANOMALOUS,
    KernelParams,
    dataset_decision_values,
    decision_values,
    fit,
    fit_dataset,
    model_from_json,
    model_to_json,
    predict_dataset,
    rbf_kernel_matrix,
    split_by_prediction,
)
from ocsvm_rules.surrogate import fit_surrogate

finite2d = st.lists(
    st.lists(st.floats(-100, 100), min_size=2, max_size=2),
    min_size=1, max_size=8)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

@given(finite2d, st.floats(0.01, 5.0))
def test_kernel_matrix_symmetric_unit_diagonal(rows, gamma):
    X = np.array(rows)
    K = rbf_kernel_matrix(X, X, gamma)
    # exact: the solver reads rows of Q in place of its columns
    assert np.array_equal(K, K.T)
    assert np.allclose(np.diag(K), 1.0)
    # exp underflows to exactly 0 for far-apart points
    assert (K >= 0).all() and (K <= 1.0 + 1e-15).all()


def test_kernel_matrix_single_pair():
    K = rbf_kernel_matrix([[1.0, 2.0]], [[3.0, -1.0]], 0.3)
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(np.exp(-0.3 * 13.0))


def test_kernel_dimension_mismatch():
    with pytest.raises(ConfigError):
        rbf_kernel_matrix(np.zeros((1, 1)), np.zeros((1, 2)), 0.5)
    with pytest.raises(ConfigError):
        rbf_kernel_matrix(np.zeros((2, 2)), np.zeros((2, 3)), 0.5)


def _kernel_data(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "rounded":
        # many exact ties, so (xx + yy) - 2xy cancels to 0 or just below it
        return np.round(rng.normal(size=(n, 3)), 1)
    if kind == "large_scale":
        return rng.normal(size=(n, 2)) * 1e4 + 1e6
    # one numeric column and a 0/1 one-hot block, like an encoded state
    onehot = np.eye(6)[rng.integers(0, 6, size=n)]
    return np.column_stack([rng.uniform(0.0, 1.0, n), onehot])


@pytest.mark.parametrize("kind", ["rounded", "large_scale", "onehot"])
def test_kernel_matrix_matches_reference(kind):
    X = _kernel_data(kind, 700, seed=1)
    Y = _kernel_data(kind, 300, seed=2)
    gamma = 1e-9 if kind == "large_scale" else 0.7
    for A, B in ((X, X), (X, Y), (Y, X)):
        # several blocks of rows, and a partial last one
        assert A.shape[0] > 2 * (oc._KERNEL_BLOCK // B.shape[0])
        got = rbf_kernel_matrix(A, B, gamma)
        assert np.array_equal(got, ocsvm_reference.rbf_kernel_matrix(A, B, gamma))


def test_kernel_matrix_peak_memory_is_one_result():
    n = 2000
    X = np.random.default_rng(0).normal(size=(n, 5))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        K = rbf_kernel_matrix(X, X, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert K.shape == (n, n)
    assert peak < 1.25 * 8 * n * n


def test_kernel_params_validation():
    with pytest.raises(ConfigError):
        KernelParams(gamma=0.0)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def test_dual_constraints_hold():
    X = synth.gaussian_cloud(200, seed=5)
    m = fit(X, nu=0.2, kernel=KernelParams(gamma=0.5))
    C = 1.0 / (0.2 * 200)
    assert m.alphas.sum() == pytest.approx(1.0, abs=1e-12)
    assert (m.alphas > 0).all()
    assert (m.alphas <= C + 1e-15).all()


def test_nu_property_on_gaussian():
    X = synth.gaussian_cloud(500, seed=0)
    m = fit(X, nu=0.1, kernel=KernelParams(gamma=0.1))
    g = decision_values(m, X)
    frac = float((g < 0).mean())
    assert 0.05 <= frac <= 0.15
    assert m.n_support / m.n_train >= 0.10


def test_training_is_deterministic():
    X = synth.gaussian_cloud(150, seed=9)
    m1 = fit(X, nu=0.1, kernel=KernelParams(gamma=0.4))
    m2 = fit(X, nu=0.1, kernel=KernelParams(gamma=0.4))
    assert np.array_equal(m1.alphas, m2.alphas)
    assert np.array_equal(m1.support_vectors, m2.support_vectors)
    assert m1.rho == m2.rho


def test_interior_support_vectors_sit_on_the_boundary():
    X = synth.gaussian_cloud(300, seed=2)
    nu = 0.15
    m = fit(X, nu=nu, kernel=KernelParams(gamma=0.3))
    C = 1.0 / (nu * 300)
    interior = (m.alphas > 1e-10) & (m.alphas < C - 1e-10)
    if interior.any():
        g = decision_values(m, m.support_vectors[interior])
        assert np.max(np.abs(g)) < 1e-4


def test_predict_boundary_is_non_anomalous():
    X = synth.gaussian_cloud(100, seed=1)
    # identity scaling: a row as a Dataset scores exactly as the matrix row
    names = ("x", "y")
    m = dataclasses.replace(
        fit(X, nu=0.1, kernel=KernelParams(gamma=0.2)),
        schema=FeatureSchema(numerical=names, categorical=(), levels={}),
        scaling=ScalingParams(per_column={c: ColumnScale(min=0.0, max=1.0, degenerate=False)
                                          for c in names}))
    densest = X[np.argmax(decision_values(m, X))][None]
    row = synth.matrix_dataset(densest, names)
    assert predict_dataset(m, row).tolist() == [NON_ANOMALOUS]
    assert decision_values(m, densest)[0] > 0
    # a model whose rho equals the kernel sum at densest puts it on the boundary
    s = rbf_kernel_matrix(densest, m.support_vectors, m.kernel.gamma) @ m.alphas
    on_boundary = dataclasses.replace(m, rho=float(s[0]))
    assert decision_values(on_boundary, densest)[0] == 0.0
    assert dataset_decision_values(on_boundary, row).tolist() == [0.0]
    assert predict_dataset(on_boundary, row).tolist() == [NON_ANOMALOUS]
    X_a, X_na = split_by_prediction(row, on_boundary)
    assert (X_a.rows, X_na.rows) == (0, 1)
    assert fit_surrogate(row, on_boundary)[3].tolist() == [NON_ANOMALOUS]
    labels = predict_dataset(m, synth.matrix_dataset(X, names))
    g = decision_values(m, X)
    assert np.array_equal(labels, np.where(g >= 0, NON_ANOMALOUS, ANOMALOUS))


def test_input_validation():
    with pytest.raises(ConfigError):
        fit(np.zeros((1, 2)), nu=0.5, kernel=KernelParams(gamma=1.0))
    with pytest.raises(ConfigError):
        fit(np.zeros((10, 2)), nu=0.0, kernel=KernelParams(gamma=1.0))
    with pytest.raises(ConfigError):
        fit(np.zeros((10, 2)), nu=1.5, kernel=KernelParams(gamma=1.0))
    with pytest.raises(ConfigError):
        # nu * n < 1 leaves no feasible point
        fit(np.zeros((4, 2)), nu=0.1, kernel=KernelParams(gamma=1.0))
    with pytest.raises(ConfigError):
        fit(np.zeros(5), nu=0.5, kernel=KernelParams(gamma=1.0))


@pytest.mark.parametrize("setting", [
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")},
    {"max_iter": 0}, {"max_iter": -5}, {"max_iter": True},
], ids=["tol-nan", "tol-negative", "tol-inf", "max_iter-0", "max_iter-negative",
        "max_iter-bool"])
def test_stopping_settings_are_checked(setting):
    X = synth.gaussian_cloud(50, seed=4)
    with pytest.raises(ConfigError):
        fit(X, nu=0.2, kernel=KernelParams(gamma=0.2), **setting)


def test_non_convergence_carries_diagnostics():
    X = synth.gaussian_cloud(200, seed=3)
    with pytest.raises(SolverConvergenceError) as ei:
        fit(X, nu=0.1, kernel=KernelParams(gamma=0.5), max_iter=2)
    e = ei.value
    assert e.iterations == 2
    assert e.kkt_violation > 0
    assert e.alpha is not None and e.alpha.shape == (200,)
    assert e.alpha.sum() == pytest.approx(1.0, abs=1e-12)


def test_decision_values_feature_count_checked():
    X = synth.gaussian_cloud(50, seed=4)
    m = fit(X, nu=0.2, kernel=KernelParams(gamma=0.2))
    with pytest.raises(ConfigError):
        decision_values(m, np.zeros((3, 5)))


def _fit_data(kind: str) -> np.ndarray:
    rng = np.random.default_rng(6)
    if kind == "duplicates":
        # each point three times: tied gradients exercise the tie-break
        return np.repeat(synth.gaussian_cloud(150, seed=6), 3, axis=0)
    if kind == "rounded":
        return np.round(rng.normal(size=(500, 2)), 1)
    # two numeric columns and a 0/1 one-hot block, like the encoded states
    onehot = np.eye(8)[rng.integers(0, 8, size=400)]
    return np.column_stack([rng.uniform(0.0, 1.0, (400, 2)), onehot])


@pytest.mark.parametrize("kind,nu,gamma", [
    ("duplicates", 0.1, 0.5),
    ("rounded", 0.05, 2.0),
    ("onehot", 0.05, 2.0),
])
def test_fit_matches_reference(kind, nu, gamma):
    X = _fit_data(kind)
    n = X.shape[0]
    assert n > oc._KERNEL_BLOCK // n  # the Gram matrix spans several blocks
    m = fit(X, nu=nu, kernel=KernelParams(gamma=gamma))
    alpha, rho = ocsvm_reference.fit(X, nu, gamma)
    sv = alpha > 0
    assert np.array_equal(m.alphas, alpha[sv])
    assert np.array_equal(m.support_vectors, X[sv])
    assert m.rho == rho


@st.composite
def _fit_problems(draw):
    """Small rounded matrices drawn from a pool of rows, so rows repeat."""
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, 4))
    pool = draw(st.integers(1, n))
    decimals = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.round(rng.normal(size=(pool, d)), decimals)
    X = rows[rng.integers(0, pool, size=n)]
    nu = draw(st.floats(1.0 / n, 1.0))
    assume(nu * n >= 1)
    return X, nu, draw(st.floats(0.01, 20.0))


@given(_fit_problems())
def test_fit_matches_reference_on_random_matrices(problem):
    # bound flips of many alphas, ties among duplicate rows, quad == 0
    X, nu, gamma = problem
    try:
        alpha, rho = ocsvm_reference.fit(X, nu, gamma)
    except RuntimeError:
        with pytest.raises(SolverConvergenceError):
            fit(X, nu=nu, kernel=KernelParams(gamma=gamma))
        return
    m = fit(X, nu=nu, kernel=KernelParams(gamma=gamma))
    sv = alpha > 0
    assert np.array_equal(m.alphas, alpha[sv])
    assert np.array_equal(m.support_vectors, X[sv])
    assert m.rho == rho


def _assert_matches_reference(X, nu, gamma):
    m = fit(X, nu=nu, kernel=KernelParams(gamma=gamma))
    alpha, rho = ocsvm_reference.fit(X, nu, gamma)
    sv = alpha > 0
    assert np.array_equal(m.alphas, alpha[sv])
    assert np.array_equal(m.support_vectors, X[sv])
    assert m.rho == rho
    return m


def test_fit_with_every_alpha_at_the_bound():
    # nu = 1: every alpha starts at C, so no alpha can grow, the first
    # selection meets the +inf extremum, and rho is the at-C maximum alone
    X = synth.gaussian_cloud(60, seed=9)
    m = _assert_matches_reference(X, 1.0, 0.5)
    assert m.n_support == 60
    assert np.all(m.alphas == 1.0 / 60)
    G = rbf_kernel_matrix(X, X, 0.5) @ np.full(60, 1.0 / 60)
    assert m.rho == pytest.approx(G.max(), abs=1e-12)


@pytest.mark.parametrize("kind", ["cloud", "one-point"])
def test_fit_with_nu_n_one(kind):
    # nu * n = 1 puts C at 1: the start is one alpha at C and the rest at 0;
    # with every row the same the gradient is flat and the start is optimal
    X = synth.gaussian_cloud(40, seed=10)
    if kind == "one-point":
        X = np.repeat(X[:1], 40, axis=0)
    m = _assert_matches_reference(X, 1.0 / 40, 0.5)
    if kind == "one-point":
        assert m.alphas.tolist() == [1.0]


@pytest.mark.parametrize("kind", ["rounded", "onehot"])
def test_kernel_rows_match_the_matrix_in_any_read_order(kind):
    # row i is the one-row product's kernel row, and a row read again must
    # not be transformed again
    X = _kernel_data(kind, 300, seed=3)
    kr = oc._KernelRows(X, 0.7)
    rng = np.random.default_rng(4)
    first = rng.permutation(300)[:150]
    for i in np.concatenate([first, rng.permutation(300)]):
        expected = rbf_kernel_matrix(X[i : i + 1], X, 0.7)[0]
        assert np.array_equal(kr.row(i), expected), i
        assert np.array_equal(kr.row(i), expected), i


@pytest.mark.parametrize("kind", ["rounded", "large_scale", "onehot"])
def test_kernel_rows_form_a_symmetric_matrix(kind):
    # the solver reads row i in place of column i, so Q[i, j] == Q[j, i]
    # must hold exactly for rows built from separate one-row products
    X = _kernel_data(kind, 300, seed=5)
    gamma = 1e-9 if kind == "large_scale" else 0.7
    kr = oc._KernelRows(X, gamma)
    Q = np.array([kr.row(i) for i in range(300)])
    assert np.array_equal(Q, Q.T)


def _full_alphas(X, m) -> np.ndarray:
    alpha = np.zeros(X.shape[0])
    for sv, a in zip(m.support_vectors, m.alphas):
        idx = np.flatnonzero((X == sv).all(axis=1))
        assert idx.size == 1
        alpha[idx[0]] = a
    return alpha


class _WholeGramColumns(ocsvm_reference._KernelColumns):
    """The reference solver's columns taken from the whole X @ X.T Gram."""

    def __init__(self, X, gamma):
        self._K = ocsvm_reference.rbf_kernel_matrix(X, X, gamma)

    def col(self, i):
        return self._K[:, i]


def test_row_cache_eviction_matches_dense(monkeypatch):
    # a 3-row cache for 80 points: rows are evicted and computed again
    X = synth.gaussian_cloud(80, seed=8)
    nu, gamma = 0.1, 0.3
    unbounded = fit(X, nu=nu, kernel=KernelParams(gamma=gamma))
    monkeypatch.setattr(ocsvm_reference, "_KernelColumns", _WholeGramColumns)
    alpha_dense, rho_dense = ocsvm_reference.fit(X, nu, gamma)
    sv = alpha_dense > 0
    dense = dataclasses.replace(unbounded, support_vectors=X[sv],
                                alphas=alpha_dense[sv], rho=rho_dense)
    monkeypatch.setattr(oc, "KERNEL_CACHE_BYTES", 8 * 80 * 3)

    computed = []
    row = oc._KernelRows.row

    def watched_row(self, i):
        assert self._capacity == 3
        if i not in self._cache:
            computed.append(i)
        out = row(self, i)
        assert len(self._cache) <= self._capacity
        return out

    monkeypatch.setattr(oc._KernelRows, "row", watched_row)
    evicting = fit(X, nu=nu, kernel=KernelParams(gamma=gamma))
    assert len(computed) > 2 * len(set(computed))

    # a row computed again is the row computed first, so eviction moves
    # nothing against a cache that holds every row
    assert np.array_equal(evicting.alphas, unbounded.alphas)
    assert np.array_equal(evicting.support_vectors, unbounded.support_vectors)
    assert evicting.rho == unbounded.rho

    # a one-row product X[i] @ X.T rounds differently from the whole
    # X @ X.T, so against the dual solved on the whole Gram only criterion
    # 02's tolerances are promised
    K = rbf_kernel_matrix(X, X, gamma)
    C = 1.0 / (nu * 80)
    obj_dense = qp_oracle.dual_objective(K, alpha_dense)
    obj_evict = qp_oracle.dual_objective(K, _full_alphas(X, evicting))
    assert abs(obj_evict - obj_dense) / obj_dense <= 1e-4
    assert qp_oracle.kkt_violation(K, _full_alphas(X, evicting), C) <= 1e-3
    assert evicting.rho == pytest.approx(dense.rho, abs=1e-4)
    g_dense = decision_values(dense, X)
    g_evict = decision_values(evicting, X)
    assert np.max(np.abs(g_dense - g_evict)) < 1e-4
    # both fits stop within tol, so rows on the margin (|g| of order tol)
    # may take either side; every other row keeps its label
    off_margin = np.abs(g_dense) > 1e-4
    assert off_margin.sum() > 0.8 * 80
    assert np.array_equal(g_dense[off_margin] >= 0, g_evict[off_margin] >= 0)


def test_fit_builds_no_gram(monkeypatch):
    # a budget of n / 8 rows: the kernel rows take at most an eighth of
    # 8 n^2 bytes, and no n x n array is built besides them
    n = 600
    X = synth.gaussian_cloud(n, seed=8)
    monkeypatch.setattr(oc, "KERNEL_CACHE_BYTES", 8 * n * (n // 8))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m = fit(X, nu=0.05, kernel=KernelParams(gamma=2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.n_support > 100
    assert peak < 8 * n * n / 4


# ---------------------------------------------------------------------------
# Dataset-level fitting
# ---------------------------------------------------------------------------

def test_fit_dataset_split_partition(blob_data, blob_model):
    X_a, X_na = split_by_prediction(blob_data, blob_model)
    assert X_a.rows + X_na.rows == blob_data.rows
    g = dataset_decision_values(blob_model, blob_data)
    assert X_a.rows == int((g < 0).sum())


def test_fit_dataset_midpoint_is_flagged(blob_data, blob_model):
    mid = synth.matrix_dataset([[5.0, 5.0]])
    assert predict_dataset(blob_model, mid).tolist() == [ANOMALOUS]


def test_fit_dataset_with_categoricals(grouped_data, grouped_model):
    assert grouped_model.schema.categorical == ("mode",)
    assert grouped_model.support_vectors.shape[1] == 4  # x, y, two levels
    g = dataset_decision_values(grouped_model, grouped_data)
    assert g.shape == (grouped_data.rows,)


def test_fit_dataset_cyclical_roundtrip():
    from ocsvm_rules.dataset import Dataset, NUMERICAL
    rng = np.random.default_rng(12)
    hours = rng.uniform(0, 24, 80)
    vals = rng.normal(5.0, 1.0, 80)
    d = Dataset(columns=(("hour", NUMERICAL), ("v", NUMERICAL)),
                data={"hour": hours, "v": vals}, rows=80)
    m = fit_dataset(d, ["hour", "v"], [], nu=0.1,
                    kernel=KernelParams(gamma=0.5), cyclical={"hour": 24.0})
    assert m.schema.numerical == ("hour_sin", "hour_cos", "v")
    # scoring the raw dataset expands it on the fly
    g = dataset_decision_values(m, d)
    assert g.shape == (80,)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_model_json_roundtrip_preserves_scores(blob_data, blob_model):
    text = model_to_json(blob_model)
    back = model_from_json(text)
    g1 = dataset_decision_values(blob_model, blob_data)
    g2 = dataset_decision_values(back, blob_data)
    assert np.array_equal(g1, g2)
    assert model_to_json(back) == text


def test_model_json_rejects_unknown_format():
    with pytest.raises(Exception):
        model_from_json('{"format": "something-else"}')


def _drop_rho(doc):
    del doc["rho"]


def _drop_alpha(doc):
    doc["alphas"] = doc["alphas"][1:]


def _lengthen_row(doc):
    doc["support_vectors"][0].append(0.0)


def _lengthen_rows(doc):
    for row in doc["support_vectors"]:
        row.append(0.0)


def _infinite_n_train(doc):
    doc["n_train"] = float("inf")


@pytest.mark.parametrize("corrupt", [
    _drop_rho, _drop_alpha, _lengthen_row, _lengthen_rows, _infinite_n_train,
    lambda doc: [doc],
], ids=["missing-key", "alphas-one-short", "row-too-long", "rows-too-long",
        "infinite-n_train", "list-root"])
def test_model_json_rejects_malformed_documents(blob_model, corrupt):
    doc = json.loads(model_to_json(blob_model))
    doc = corrupt(doc) or doc
    with pytest.raises(SchemaError):
        model_from_json(json.dumps(doc))


@pytest.mark.parametrize("n_train", [
    -7, 0, 1, 2.5, True, "12", None, "fewer-than-support",
])
def test_model_json_rejects_an_n_train_that_is_no_row_count(blob_model, n_train):
    doc = json.loads(model_to_json(blob_model))
    doc["n_train"] = len(doc["alphas"]) - 1 if n_train == "fewer-than-support" else n_train
    with pytest.raises(SchemaError, match="n_train"):
        model_from_json(json.dumps(doc))
    doc["n_train"] = len(doc["alphas"])  # as many rows as support vectors is fine
    assert model_from_json(json.dumps(doc)).n_train == len(doc["alphas"])


# A small valid document with every part the reader checks: a periodic
# column's pair, a degenerate column, a categorical column and three rows.
_MODEL_DOC = {
    "format": "ocsvm-model/1", "nu": 0.5, "gamma": 2.0, "rho": 0.25, "n_train": 6,
    "alphas": [0.25, 0.5, 0.25],
    "support_vectors": [[0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0],
                        [-1.0, 0.0, 0.0, 1.0, 0.0]],
    "schema": {"numerical": ["h_sin", "h_cos", "v"], "categorical": ["m"],
               "levels": {"m": ["off", "on"]},
               "cyclical": {"h": {"period": 24, "sin": "h_sin", "cos": "h_cos"}}},
    "scaling": {"h_sin": {"min": -1.0, "max": 1.0, "degenerate": False},
                "h_cos": {"min": -1.0, "max": 1.0, "degenerate": False},
                "v": {"min": 3.0, "max": 3.0, "degenerate": True}},
}

# What a mutation puts in place of a node: non-finite numbers, text, bools,
# null and small integers. A list or object in place of a scaling bound is
# left out: the former reader let numpy judge it (and took a list whose shape
# fit), the new one rejects it as not a number.
_ODD_VALUES = [float("nan"), float("inf"), -float("inf"), "x", "1.5", "", True, False,
               None, 0, -1, 2]


def _paths(node, path=()):
    """Every path from the root to a node of the document, the root excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated_model_docs(draw):
    doc = json.loads(json.dumps(_MODEL_DOC))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "replace", "rows", "n_train"]))
        paths = list(_paths(doc))
        if kind == "delete":
            dict_paths = [p for p in paths if isinstance(_at(doc, p[:-1]), dict)]
            if dict_paths:
                path = draw(st.sampled_from(dict_paths))
                del _at(doc, path[:-1])[path[-1]]
        elif kind == "replace" and paths:
            path = draw(st.sampled_from(paths))
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(_ODD_VALUES))
        elif kind == "rows" and isinstance(doc.get("support_vectors"), list):
            rows = doc["support_vectors"]
            i = draw(st.integers(0, len(rows)))
            change = draw(st.sampled_from(["short", "long", "nest", "scalar", "drop", "add"]))
            if change == "add" or i == len(rows):
                rows.insert(i, draw(st.lists(st.floats(-2, 2), min_size=4, max_size=6)))
            elif change == "drop":
                del rows[i]
            elif change == "scalar":
                rows[i] = draw(st.sampled_from(_ODD_VALUES))
            elif not isinstance(rows[i], list):
                continue
            elif change == "short" and rows[i]:
                rows[i].pop()
            elif change == "long":
                rows[i].append(0.5)
            elif change == "nest":
                rows[i].append([0.5] * draw(st.integers(0, 2)))
        elif kind == "n_train":
            n_sv = len(doc["alphas"]) if isinstance(doc.get("alphas"), list) else 3
            doc["n_train"] = draw(st.sampled_from([
                -1, 0, 1, 2, n_sv - 1, n_sv, n_sv + 1, 2 ** 63, 2.0, 6.5, True, False,
                None, "6", float("inf")]))
    return json.dumps(doc)


def _read(reader, text):
    """(model, None) if reader accepts text, (None, message) if it raises SchemaError."""
    try:
        return reader(text), None
    except SchemaError as e:
        return None, str(e)


@settings(max_examples=400)
@given(_mutated_model_docs())
def test_model_reader_decides_as_the_former_reader(text):
    # model_from_json checks with formats.model_doc, which report also calls
    want, want_msg = _read(model_reference.model_from_json, text)
    got, got_msg = _read(model_from_json, text)
    if want_msg is not None and want_msg.startswith("ufunc 'isfinite' not supported"):
        # numpy's message for a scaling bound that is not a number
        assert got_msg == "scaling holds a value that is not a number"
        return
    assert got_msg == want_msg
    if want is not None:
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
            else:
                assert a == b, f.name


def test_the_unmutated_model_document_reads():
    m = model_from_json(json.dumps(_MODEL_DOC))
    assert m.support_vectors.shape == (3, 5) and m.n_train == 6


def test_model_without_preprocessing_does_not_serialize():
    X = synth.gaussian_cloud(50, seed=6)
    m = fit(X, nu=0.2, kernel=KernelParams(gamma=0.2))
    with pytest.raises(ConfigError):
        model_to_json(m)

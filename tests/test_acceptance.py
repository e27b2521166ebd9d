"""End-to-end acceptance checks.

Each test prints one "[criterion NN] name: PASS/FAIL" line so the run
doubles as a checklist; the assertions carry the actual tolerances.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

import ocsvm_rules as o
from ocsvm_rules.cli import main
from ocsvm_rules.dataset import NUMERICAL, Dataset
from ocsvm_rules.ocsvm import (
    dataset_decision_values,
    decision_values,
    ensure_expanded,
    rbf_kernel_matrix,
    split_by_prediction,
)
from ocsvm_rules.rules import (
    TARGET_ANOMALOUS,
    RuleSet,
    covered_mask,
    extract_rule_sets,
    prune_survivors,
)
from ocsvm_rules.surrogate import fit_tree, predict_tree, tree_stats, tree_to_rules

import categorical_reference
import qp_oracle
import synth


def _announce(capsys, number: int, name: str):
    """Context manager that prints the criterion verdict."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            with capsys.disabled():
                print("[criterion %02d] %s: %s" % (number, name, verdict))
            return False
    return _Ctx()


# ---------------------------------------------------------------------------
# Shared timed pipeline over the skewed two-feature fixture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def seismic_run():
    """Full fit + both extractions, timed as one pipeline run."""
    d = synth.seismic_like()
    t0 = time.perf_counter()
    model = o.fit_dataset(d, ["energy", "pulses"], [], nu=0.1,
                          kernel=o.KernelParams(gamma=0.1))
    split = split_by_prediction(d, model)
    res_na = extract_rule_sets(split, model)
    res_a = extract_rule_sets(split, model, target=TARGET_ANOMALOUS)
    elapsed = time.perf_counter() - t0
    return d, model, res_na, res_a, elapsed


@pytest.fixture(scope="module")
def grouped_run():
    d = synth.grouped_dataset()
    model = o.fit_dataset(d, ["x", "y"], ["mode"], nu=0.05,
                          kernel=o.KernelParams(gamma=15.0))
    return d, model, extract_rule_sets(split_by_prediction(d, model), model)


@pytest.fixture(scope="module")
def blob_run():
    d = synth.two_blobs()
    model = o.fit_dataset(d, ["x", "y"], [], nu=synth.BLOB_NU,
                          kernel=o.KernelParams(gamma=synth.BLOB_GAMMA))
    return d, model, extract_rule_sets(split_by_prediction(d, model), model)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_nu_property(capsys):
    with _announce(capsys, 1, "nu-property on 500-point Gaussian"):
        X = synth.gaussian_cloud(500, seed=0)
        t0 = time.perf_counter()
        m = o.fit(X, nu=0.1, kernel=o.KernelParams(gamma=0.1))
        g = decision_values(m, X)
        elapsed = time.perf_counter() - t0
        frac_anomalous = float(np.mean(g < 0))
        frac_support = m.n_support / len(X)
        assert 0.05 <= frac_anomalous <= 0.15
        assert frac_support >= 0.10
        assert elapsed < 5.0


def test_criterion_02_solver_matches_oracle(capsys):
    with _announce(capsys, 2, "dual solver matches brute-force QP oracle"):
        rng = np.random.default_rng(42)
        t0 = time.perf_counter()
        for trial in range(50):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            nu = float(rng.uniform(max(1.0 / n, 0.2), 1.0))
            gamma = float(rng.uniform(0.05, 5.0))
            m = o.fit(X, nu=nu, kernel=o.KernelParams(gamma=gamma))

            alpha = np.zeros(n)
            for sv, a in zip(m.support_vectors, m.alphas):
                idx = np.flatnonzero((X == sv).all(axis=1))
                assert idx.size == 1
                alpha[idx[0]] = a

            K = rbf_kernel_matrix(X, X, gamma)
            C = 1.0 / (nu * n)
            ref, _ = qp_oracle.solve_qp(K, C)
            assert abs(ref.sum() - 1.0) <= 1e-9
            assert ref.min() >= -1e-12 and ref.max() <= C + 1e-12
            assert qp_oracle.kkt_violation(K, ref, C) <= 1e-9
            obj_mine = qp_oracle.dual_objective(K, alpha)
            obj_ref = qp_oracle.dual_objective(K, ref)
            rel = abs(obj_mine - obj_ref) / max(abs(obj_ref), 1e-12)
            assert rel <= 1e-4, "trial %d: relative gap %g" % (trial, rel)
            assert qp_oracle.kkt_violation(K, alpha, C) <= 1e-3
        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_full_coverage(capsys, seismic_run, grouped_run, blob_run):
    with _announce(capsys, 3, "non-discarded normal points all covered"):
        for d, model, res in (blob_run, grouped_run, seismic_run[:3]):
            _, X_na = split_by_prediction(d, model)
            assert res.stats["coverage_pct"] == 100.0
            kept = np.ones(X_na.rows, dtype=bool)
            if res.discarded_rows:
                kept[list(res.discarded_rows)] = False
            cov = covered_mask(res.ruleset, X_na)
            assert bool(np.all(cov[kept]))


def test_criterion_04_zero_false_admits(capsys, seismic_run, grouped_run, blob_run):
    with _announce(capsys, 4, "no anomalous point satisfies a normal rule"):
        runs = [
            (blob_run[0], blob_run[1], blob_run[2]),
            (grouped_run[0], grouped_run[1], grouped_run[2]),
            (seismic_run[0], seismic_run[1], seismic_run[2]),
        ]
        for d, model, res in runs:
            X_a, _ = split_by_prediction(d, model)
            assert X_a.rows > 0
            assert int(covered_mask(res.ruleset, X_a).sum()) == 0
            X_a_scaled = o.scale_apply(X_a, model.scaling)
            assert int(covered_mask(res.ruleset_scaled, X_a_scaled).sum()) == 0


def _probe_dataset(rs: RuleSet, rng, n_probes: int) -> Dataset:
    lows = np.array([r.lower for r in rs.rules])
    highs = np.array([r.upper for r in rs.rules])
    lo = lows.min(axis=0)
    hi = highs.max(axis=0)
    pad = np.maximum(hi - lo, 1.0) * 0.25
    M = rng.uniform(lo - pad, hi + pad, size=(n_probes, len(rs.columns)))
    cols = [(c, NUMERICAL) for c in rs.columns]
    data = {c: M[:, k].copy() for k, c in enumerate(rs.columns)}
    states = sorted({r.state for r in rs.rules})
    for col in {c for s in states for c, _ in s}:
        tokens = sorted({t for s in states for c, t in s if c == col} | {"other"})
        picks = rng.integers(0, len(tokens), size=n_probes)
        data[col] = tuple(tokens[i] for i in picks)
        cols.append((col, "categorical"))
    return Dataset(columns=tuple(cols), data=data, rows=n_probes)


def test_criterion_05_pruning_soundness(capsys, monkeypatch,
                                        seismic_run, grouped_run, blob_run):
    with _announce(capsys, 5, "pruning never changes covered membership"):
        import ocsvm_rules.rules as rules_mod
        rng = np.random.default_rng(77)
        runs = [
            (blob_run[0], blob_run[1], blob_run[2]),
            (grouped_run[0], grouped_run[1], grouped_run[2]),
            (seismic_run[0], seismic_run[1], seismic_run[2]),
        ]
        for d, model, pruned_res in runs:
            # rerun extraction with pruning disabled to recover the raw set
            with monkeypatch.context() as mp:
                mp.setattr(rules_mod, "prune_survivors",
                           lambda rules: list(range(len(rules))))
                raw_res = extract_rule_sets(split_by_prediction(d, model), model)
            raw = raw_res.ruleset
            assert len(raw.rules) == pruned_res.stats["n_rules_raw"]
            pruned = RuleSet(target=raw.target, scaled=raw.scaled, columns=raw.columns,
                             rules=tuple(raw.rules[i] for i in prune_survivors(raw.rules)),
                             cyclical=raw.cyclical)
            assert len(pruned.rules) == len(pruned_res.ruleset.rules)

            probes = _probe_dataset(raw, rng, 10_000)
            before = covered_mask(raw, probes)
            after = covered_mask(pruned, probes)
            assert int(np.count_nonzero(before != after)) == 0


def test_criterion_06_rule_count_direction(capsys, seismic_run):
    with _announce(capsys, 6, "normal rules outnumber anomalous rules"):
        _, _, res_na, res_a, elapsed = seismic_run
        n_na = len(res_na.ruleset.rules)
        n_a = len(res_a.ruleset.rules)
        assert n_na > n_a
        assert 30 <= n_na <= 267   # within 3x of the reference count 89
        assert 9 <= n_a <= 75      # within 3x of the reference count 25
        assert elapsed < 60.0


def _leaves_by_label(tree):
    out = {}
    def walk(node):
        if node.is_leaf:
            out[node.prediction] = out.get(node.prediction, 0) + 1
            return
        walk(node.left)
        walk(node.right)
    walk(tree)
    return out


def test_criterion_07_surrogate_tree(capsys, grouped_run):
    with _announce(capsys, 7, "surrogate tree overfits and mirrors leaves"):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200)
        t = fit_tree(X, y)
        assert float(np.mean(predict_tree(t, X) == y)) == 1.0

        xor = fit_tree([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        s = tree_stats(xor)
        assert s["depth"] == 2
        assert s["n_leaves"] == 4
        assert predict_tree(xor, [[0, 0], [0, 1], [1, 0], [1, 1]]).tolist() == [0, 1, 1, 0]

        d, model, _ = grouped_run
        tree, names, _, _ = o.fit_surrogate(d, model)
        d_exp = ensure_expanded(d, model.schema)
        y_det = np.where(dataset_decision_values(model, d_exp) >= 0, 1, -1)
        M = o.encode_matrix(d_exp, model.schema)
        assert float(np.mean(predict_tree(tree, M) == y_det)) == 1.0
        for t_, names_ in ((xor, ["a", "b"]), (tree, names)):
            labels = Counter(r.label for r in tree_to_rules(t_, names_))
            assert labels == _leaves_by_label(t_)


def test_criterion_08_two_blob_fixture(capsys, blob_run):
    with _announce(capsys, 8, "two blobs give two exact min/max boxes"):
        d, model, res = blob_run
        assert res.stats["clusters_per_group"] == [2]
        assert len(res.ruleset.rules) == 2

        d_exp = ensure_expanded(d, model.schema)
        X_a, X_na = split_by_prediction(d_exp, model)
        # the planted midpoint is anomalous and no rule admits it
        assert bool(np.any((X_a.data["x"] == 5.0) & (X_a.data["y"] == 5.0)))
        assert not covered_mask(res.ruleset, d_exp)[
            np.flatnonzero((d_exp.data["x"] == 5.0) & (d_exp.data["y"] == 5.0))[0]]

        t_na = synth.plain(X_na)
        for rule in res.ruleset.rules:
            members = [i for i in range(X_na.rows)
                       if categorical_reference.rule_matches_row(rule, t_na, i)]
            assert rule.n_points == len(members)
            for k, c in enumerate(rule.columns):
                vals = X_na.data[c][members]
                assert rule.lower[k] == float(vals.min())
                assert rule.upper[k] == float(vals.max())


def test_criterion_09_pipeline_determinism(capsys, tmp_path):
    with _announce(capsys, 9, "whole pipeline byte-identical across reruns"):
        csv_path = tmp_path / "data.csv"
        synth.write_csv(csv_path, synth.two_blobs())
        outs = []
        for run in ("first", "second"):
            out = tmp_path / run
            cfg = {
                "dataset": "data.csv",
                "columns": {"numerical": ["x", "y"], "categorical": []},
                "ocsvm": {"nu": synth.BLOB_NU, "gamma": synth.BLOB_GAMMA},
                "output_dir": run,
            }
            cfg_path = tmp_path / ("config_%s.json" % run)
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            assert main(["extract", "--config", str(cfg_path), "--target", "both"]) == 0
            assert main(["surrogate", "--config", str(cfg_path)]) == 0
            assert main(["report", "--config", str(cfg_path)]) == 0
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert "model.json" in names and "report.json" in names
        assert "rules_na.json" in names and "rules_a.json" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_criterion_10_minimum_data_gate(capsys, tmp_path):
    with _announce(capsys, 10, "too little data exits with code 3"):
        pts = np.array([[0.0, 0.0], [0.1, 0.1], [10.0, 10.0]])
        synth.write_csv(tmp_path / "tiny.csv", synth.matrix_dataset(pts))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "dataset": "tiny.csv",
            "columns": {"numerical": ["x", "y"], "categorical": []},
            "ocsvm": {"nu": 0.5, "gamma": 0.1},
        }), encoding="utf-8")
        rc = main(["extract", "--config", str(cfg_path)])
        assert rc == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "InsufficientDataError"
        assert doc["exit_code"] == 3

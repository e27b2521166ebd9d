import numpy as np
import pytest
from hypothesis import given, strategies as st

from ocsvm_rules import clustering
from ocsvm_rules.clustering import PlusPlusSeeds, _lloyd, kmeans_pp
from ocsvm_rules.errors import ConfigError

import kmeans_reference
import synth


def test_single_cluster_center_is_mean():
    X = synth.gaussian_cloud(40, seed=1)
    res = kmeans_pp(X, 1, seed=0)
    assert res.k == 1
    assert np.allclose(res.centers[0], X.mean(axis=0))
    assert np.all(res.labels == 0)


@pytest.mark.parametrize("X", [synth.gaussian_cloud(60, seed=3),
                               np.repeat(np.eye(3), [5, 1, 4], axis=0)],
                         ids=["gauss", "duplicates"])
def test_one_cluster_runs_one_restart_like_ten(monkeypatch, X):
    # every restart reaches the same mean in one step, and the first wins ties
    calls = []
    real = clustering._lloyd

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(clustering, "_lloyd", counting)
    got = kmeans_pp(X, 1, seed=4, n_init=10)
    assert len(calls) == 1
    ref = kmeans_reference.kmeans_pp(X, 1, 4, 10)
    assert np.array_equal(got.centers, ref.centers)
    assert np.array_equal(got.labels, ref.labels)
    assert got.inertia == ref.inertia and got.n_iter == ref.n_iter


def test_inertia_matches_definition():
    X = synth.gaussian_cloud(60, seed=2)
    res = kmeans_pp(X, 3, seed=0)
    d = X - res.centers[res.labels]
    assert res.inertia == pytest.approx(float(np.sum(d * d)), rel=1e-12)


def test_separated_blobs_recovered():
    rng = np.random.default_rng(5)
    a = rng.normal((0.0, 0.0), 0.1, (30, 2))
    b = rng.normal((10.0, 0.0), 0.1, (25, 2))
    c = rng.normal((0.0, 10.0), 0.1, (20, 2))
    X = np.vstack([a, b, c])
    res = kmeans_pp(X, 3, seed=0)
    # each true blob maps to exactly one label
    groups = [res.labels[:30], res.labels[30:55], res.labels[55:]]
    seen = set()
    for g in groups:
        assert len(set(g.tolist())) == 1
        seen.add(int(g[0]))
    assert seen == {0, 1, 2}


def test_deterministic_for_fixed_seed():
    X = synth.gaussian_cloud(100, seed=3)
    r1 = kmeans_pp(X, 4, seed=9)
    r2 = kmeans_pp(X, 4, seed=9)
    assert np.array_equal(r1.centers, r2.centers)
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.inertia == r2.inertia


def test_k_equals_n_puts_each_point_alone():
    X = np.arange(6.0).reshape(6, 1)
    res = kmeans_pp(X, 6, seed=0)
    assert res.inertia == 0.0
    assert sorted(res.labels.tolist()) == [0, 1, 2, 3, 4, 5]


def test_duplicate_points_no_crash():
    # k > number of distinct points forces empty-cluster handling
    X = np.array([[0.0], [0.0], [0.0], [5.0]])
    res = kmeans_pp(X, 3, seed=0)
    assert res.k == 3
    assert len(res.labels) == 4
    assert np.isfinite(res.inertia)


def test_more_inits_never_worse():
    X = synth.gaussian_cloud(80, seed=4)
    one = kmeans_pp(X, 5, seed=2, n_init=1)
    many = kmeans_pp(X, 5, seed=2, n_init=10)
    assert many.inertia <= one.inertia + 1e-9


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3))
def test_labels_always_in_range(k, seed):
    X = synth.gaussian_cloud(20, seed=7)
    res = kmeans_pp(X, k, seed=seed)
    assert res.labels.min() >= 0
    assert res.labels.max() < k
    assert res.centers.shape == (k, X.shape[1])


def test_results_read_only():
    X = synth.gaussian_cloud(30, seed=8)
    res = kmeans_pp(X, 2, seed=0)
    with pytest.raises(ValueError):
        res.centers[0, 0] = 99.0
    with pytest.raises(ValueError):
        res.labels[0] = 1


def test_input_validation():
    X = synth.gaussian_cloud(10, seed=9)
    with pytest.raises(ConfigError):
        kmeans_pp(X, 0)
    with pytest.raises(ConfigError):
        kmeans_pp(X, 11)
    with pytest.raises(ConfigError):
        kmeans_pp(X, 2, n_init=0)
    with pytest.raises(ConfigError):
        kmeans_pp(X[0], 2)
    with pytest.raises(ConfigError):
        kmeans_pp(X, 2, seed=-1)
    for bad in (np.nan, np.inf, -np.inf):
        Y = X.copy()
        Y[3, 1] = bad
        with pytest.raises(ConfigError):
            kmeans_pp(Y, 2)


def test_seeds_must_match_input():
    X = synth.gaussian_cloud(10, seed=9)
    seeds = PlusPlusSeeds(X, 4, 3)
    assert kmeans_pp(X.copy(), 2, seed=4, n_init=3, seeds=seeds).k == 2
    with pytest.raises(ConfigError):
        kmeans_pp(X + 1.0, 2, seed=4, n_init=3, seeds=seeds)
    with pytest.raises(ConfigError):
        kmeans_pp(X, 2, seed=5, n_init=3, seeds=seeds)
    with pytest.raises(ConfigError):
        kmeans_pp(X, 2, seed=4, n_init=4, seeds=seeds)
    with pytest.raises(ConfigError):
        PlusPlusSeeds(X, -2, 3)


# ---------------------------------------------------------------------------
# Whole sweeps against the per-k loop reference in kmeans_reference.py
# ---------------------------------------------------------------------------

def _sweep_cases():
    rng = np.random.default_rng(31)
    dup = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.5], [2.0, 0.5], [2.0, 0.5],
                    [-1.0, 3.0], [0.0, 1.0], [-1.0, 3.0], [2.0, 0.5], [0.0, 1.0]])
    return {
        "gauss_d2": (rng.normal(size=(60, 2)), 24),
        "gauss_d3": (rng.normal(size=(45, 3)), 18),
        "rounded_d2": (np.round(rng.uniform(0.0, 1.0, size=(50, 2)), 1), 30),
        # three distinct points: seeding hits the zero-mass branch, Lloyd
        # sees empty clusters
        "duplicates_d2": (dup, 10),
        # k up to n: singleton clusters
        "k_near_n_d2": (rng.uniform(-5.0, 5.0, size=(14, 2)), 14),
        "lognormal_d2": (rng.lognormal(0.0, 2.0, size=(40, 2)), 20),
        "gauss_d1": (rng.normal(size=(50, 1)) * 1e3, 20),
        "rounded_d1": (np.round(rng.uniform(0.0, 10.0, size=(40, 1)), 0), 16),
        "duplicates_d1": (dup[:, :1].copy(), 10),
    }


SWEEP_CASES = _sweep_cases()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_loop_reference(case, seed):
    X, k_top = SWEEP_CASES[case]
    n_init = 4
    seeds = PlusPlusSeeds(X, seed, n_init)
    for k in range(1, k_top + 1):
        got = kmeans_pp(X, k, seed=seed, n_init=n_init, seeds=seeds)
        ref = kmeans_reference.kmeans_pp(X, k, seed=seed, n_init=n_init)
        assert np.array_equal(got.labels, ref.labels), (case, k)
        assert got.n_iter == ref.n_iter, (case, k)
        if X.shape[1] >= 2:
            assert np.array_equal(got.centers, ref.centers), (case, k)
            assert got.inertia == ref.inertia, (case, k)
        else:
            # numpy's mean sums a contiguous column pairwise, bincount in order
            tol = 1e-12 * np.max(np.abs(X), axis=0)
            assert np.all(np.abs(got.centers - ref.centers) <= tol), (case, k)
            assert got.inertia == pytest.approx(ref.inertia, rel=1e-9, abs=1e-9)
        # the shared seeding changes no result, only reuse
        alone = kmeans_pp(X, k, seed=seed, n_init=n_init)
        assert np.array_equal(alone.centers, got.centers)
        assert np.array_equal(alone.labels, got.labels)
        assert alone.inertia == got.inertia and alone.n_iter == got.n_iter


@pytest.mark.parametrize("case", ["gauss_d2", "duplicates_d2"])
def test_seeding_prefix_matches_reference(case):
    # duplicates: once every point sits on a centre, picks draw uniformly
    X, k_top = SWEEP_CASES[case]
    seeds = PlusPlusSeeds(X, 3, 2)
    for k in (5, 2, k_top, k_top, 1):
        for r in range(2):
            ref = kmeans_reference._plusplus_seed(X, k, np.random.default_rng(3 + r))
            assert np.array_equal(seeds.centers(r, k), ref)


def test_lloyd_respawns_every_empty_cluster_like_reference():
    X = np.array([[0.0, 0.0], [0.2, 0.1], [5.0, 0.0], [5.5, 0.3], [9.0, 4.0],
                  [0.1, 0.3], [4.0, 1.0], [9.5, 3.0]])
    # clusters 1 and 2 start empty together, and the two then collide again
    for start in ([0, 0, 0, 2], [2, 2, 2, 2, 4], [4, 0, 4, 4]):
        centers = X[start]
        got = _lloyd(X, np.sum(X * X, axis=1), centers, 100)
        ref = kmeans_reference._lloyd(X, centers, 100)
        assert np.array_equal(got.centers, ref.centers)
        assert np.array_equal(got.labels, ref.labels)
        assert got.inertia == ref.inertia and got.n_iter == ref.n_iter

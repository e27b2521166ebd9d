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
    # one call, on a block of one restart's starting centres
    assert [args[2].shape for args in calls] == [(1, 1, X.shape[1])]
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


@pytest.mark.parametrize("bad", [2.5, True, 0, -1, "2", np.float64(2.0)])
@pytest.mark.parametrize("name", ["k", "n_init", "max_iter"])
def test_counts_must_be_integers_from_one(name, bad):
    X = synth.gaussian_cloud(10, seed=9)
    args = {"k": 2, "n_init": 3, "max_iter": 5, name: bad}
    with pytest.raises(ConfigError, match="^%s must be an integer >= 1" % name):
        kmeans_pp(X, **args)
    if name == "n_init":
        with pytest.raises(ConfigError, match="^n_init must be an integer >= 1"):
            PlusPlusSeeds(X, 0, bad)
    args[name] = np.int64(2)
    assert kmeans_pp(X, **args).k == 2


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


def test_seeds_refuse_zero_points():
    with pytest.raises(ConfigError, match="^cannot seed clusters from 0 points$"):
        PlusPlusSeeds(np.empty((0, 2)), 0, 3)


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
        got = seeds.centers(k)
        # k == 1 runs restart 0 alone
        assert got.shape == (2 if k > 1 else 1, k, X.shape[1])
        for r in range(got.shape[0]):
            ref = kmeans_reference._plusplus_seed(X, k, np.random.default_rng(3 + r))
            assert np.array_equal(got[r], ref)


def _reference_check(got, ref, X):
    assert np.array_equal(got.labels, ref.labels)
    assert got.n_iter == ref.n_iter
    if X.shape[1] >= 2:
        assert np.array_equal(got.centers, ref.centers)
        assert got.inertia == ref.inertia
    else:
        # numpy's mean sums a contiguous column pairwise, bincount in order
        tol = 1e-12 * np.max(np.abs(X), axis=0)
        assert np.all(np.abs(got.centers - ref.centers) <= tol)
        assert got.inertia == pytest.approx(ref.inertia, rel=1e-9, abs=1e-9)


def test_lloyd_respawns_every_empty_cluster_like_reference():
    X = np.array([[0.0, 0.0], [0.2, 0.1], [5.0, 0.0], [5.5, 0.3], [9.0, 4.0],
                  [0.1, 0.3], [4.0, 1.0], [9.5, 3.0]])
    xx = np.sum(X * X, axis=1)
    # clusters 1 and 2 start empty together, and the two then collide again;
    # the last two are the first and third with a fifth centre, so that
    # three starts of five centres also run as one block
    starts = [[0, 0, 0, 2], [2, 2, 2, 2, 4], [4, 0, 4, 4], [0, 0, 0, 2, 2], [4, 0, 4, 4, 4]]
    refs = [kmeans_reference._lloyd(X, X[s], 100) for s in starts]
    for start, ref in zip(starts, refs):
        (got,) = _lloyd(X, xx, X[start][None], 100)
        _reference_check(got, ref, X)
    for size in (4, 5):
        picked = [i for i, s in enumerate(starts) if len(s) == size]
        block = _lloyd(X, xx, X[np.array([starts[i] for i in picked])], 100)
        assert len(block) == len(picked) and len(picked) >= 2
        for got, i in zip(block, picked):
            _reference_check(got, refs[i], X)


def test_lloyd_blocks_stay_within_the_bound(monkeypatch):
    # a call's restarts run in blocks of b with b == 1 or b * n * k <= the bound
    X = synth.gaussian_cloud(700, seed=6)
    blocks = []
    real = clustering._lloyd

    def recording(X, xx, centers, max_iter):
        blocks.append(centers.shape[0])
        return real(X, xx, centers, max_iter)

    monkeypatch.setattr(clustering, "_lloyd", recording)
    for k, sizes in ((1, [1]), (2, [10]), (12, [7, 3]), (47, [1] * 10)):
        blocks.clear()
        kmeans_pp(X, k, seed=0, n_init=10, max_iter=3)
        assert blocks == sizes, k
        assert all(b == 1 or b * len(X) * k <= clustering._LLOYD_BLOCK for b in blocks)


@given(st.data())
def test_lockstep_restarts_match_reference(data):
    # grids with few levels repeat rows: seeding reaches its zero-mass branch
    # and Lloyd respawns empty clusters; a small max_iter makes restarts
    # leave their block at different steps
    d = data.draw(st.integers(1, 3), label="d")
    n = data.draw(st.integers(1, 30), label="n")
    levels = data.draw(st.integers(1, 5), label="levels")
    spread = data.draw(st.sampled_from([0.0, 0.0, 1e-3, 1.0]), label="spread")
    rs = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="data_seed"))
    X = rs.integers(0, levels, size=(n, d)) + spread * rs.normal(size=(n, d))
    k = data.draw(st.integers(1, n), label="k")
    n_init = data.draw(st.integers(1, 10), label="n_init")
    max_iter = data.draw(st.sampled_from([1, 2, 3, 100]), label="max_iter")
    seed = data.draw(st.integers(0, 1000), label="seed")
    ref = kmeans_reference.kmeans_pp(X, k, seed=seed, n_init=n_init, max_iter=max_iter)
    for block in (1, 2 ** 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "_LLOYD_BLOCK", block)
            got = kmeans_pp(X, k, seed=seed, n_init=n_init, max_iter=max_iter)
        _reference_check(got, ref, X)
    # starts that repeat rows: the later copies start empty while other rows
    # sit at positive distances, so each restart respawns at its own
    # worst-fit point
    starts = X[rs.integers(0, n, size=(n_init, k))]
    block = _lloyd(X, np.sum(X * X, axis=1), starts, max_iter)
    for got, start in zip(block, starts):
        _reference_check(got, kmeans_reference._lloyd(X, start, max_iter), X)

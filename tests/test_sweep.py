"""The k-means sweep of rule extraction: the per-k check and the helper process.

The vectorised check must give exactly the former per-cluster loop's boxes,
kept in ``sweep_reference.py``. The helper that runs half of a long sweep
must change no result, whether it runs, never starts or dies, must spare the
parent the counts it computes, must run one at a time and must leave no
child process behind.
"""

import json
import os
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ocsvm_rules as o
import ocsvm_rules.rules as rules_module
from ocsvm_rules.clustering import Clustering, PlusPlusSeeds, kmeans_pp
from ocsvm_rules.dataset import CATEGORICAL, NUMERICAL, Dataset
from ocsvm_rules.errors import ExtractionConvergenceError, InsufficientDataError
from ocsvm_rules.rules import (
    BOX_ALL,
    BOX_FARTHEST,
    TARGET_ANOMALOUS,
    TARGET_NON_ANOMALOUS,
    ExtractionConfig,
    Helper,
    _check_clusters,
    extract_rule_sets,
    ruleset_to_json,
)

import sweep_reference
import synth

TARGETS = [TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS]
NEVER = 10 ** 18


# ---------------------------------------------------------------------------
# The per-k check against the former loop
# ---------------------------------------------------------------------------

def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_box(a, b):
    return (_same_array(a.lower, b.lower) and _same_array(a.upper, b.upper)
            and _same_array(a.members, b.members)
            and _same_array(a.bounds_idx, b.bounds_idx))


@st.composite
def _clusterings(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 3))
    grid = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 0.3333333333333333])
    Xs = np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d),
                                min_size=n, max_size=n)))
    p = draw(st.integers(0, 8))
    Ys = np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d),
                                min_size=p, max_size=p))).reshape(p, d)
    k = draw(st.integers(1, 8))  # more centres than labels used: empty clusters
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    centers = np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d),
                                     min_size=k, max_size=k)))
    cfg = ExtractionConfig(
        box_mode=draw(st.sampled_from([BOX_ALL, BOX_FARTHEST])),
        n_v=draw(st.integers(1, 5)),
        discard_factor=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        literal_cluster_threshold=draw(st.booleans()))
    cl = Clustering(centers=centers, labels=labels, inertia=0.0, n_iter=1)
    return Xs, Ys, cl, cfg, draw(st.sampled_from(TARGETS))


def _signed_zero_case():
    # numpy's min over one axis need not pick the -0.0 a sequential pass picks
    Xs = np.zeros((25, 3))
    Xs[23, 2], Xs[24, 2] = -0.0, 0.25
    cl = Clustering(centers=np.zeros((1, 3)), labels=np.zeros(25, dtype=np.int64),
                    inertia=0.0, n_iter=1)
    return Xs, np.zeros((1, 3)), cl, ExtractionConfig(n_v=1, discard_factor=0.0), \
        TARGET_NON_ANOMALOUS


@given(_clusterings())
@example(case=_signed_zero_case())
def test_check_matches_former_loop(case):
    Xs, Ys, cl, cfg, target = case
    step = _check_clusters(Xs, Ys, cl, cfg, target, cfg.n_v)
    boxes, discard, offending, retry = sweep_reference.check_step(
        Xs, Ys, cl.labels, cl.centers, cl.k, box_mode=cfg.box_mode, n_v=cfg.n_v,
        discard_factor=cfg.discard_factor,
        literal_cluster_threshold=cfg.literal_cluster_threshold, target=target)
    assert bool(step.offending) == retry
    assert len(step.boxes) == len(boxes)
    assert all(_same_box(a, b) for a, b in zip(step.boxes, boxes))
    assert len(step.offending) == len(offending)
    assert all(_same_box(a, b) for a, b in zip(step.offending, offending))
    assert len(step.discard) == len(discard)
    assert all(_same_array(a, b) for a, b in zip(step.discard, discard))


def test_check_tests_containment_in_blocks(monkeypatch):
    # more box-point pairs than one block: the blocks must cover every point
    rng = np.random.default_rng(0)
    Xs = rng.random((200, 2))
    Ys = rng.random((300, 2))
    cl = Clustering(centers=np.zeros((40, 2)), labels=np.arange(200) % 40,
                    inertia=0.0, n_iter=1)
    cfg = ExtractionConfig()
    whole = _check_clusters(Xs, Ys, cl, cfg, TARGET_NON_ANOMALOUS, 4)
    monkeypatch.setattr(rules_module, "_HIT_BLOCK", 7)
    blocked = _check_clusters(Xs, Ys, cl, cfg, TARGET_NON_ANOMALOUS, 4)
    assert bool(blocked.offending) == bool(whole.offending)
    assert [b.lower.tolist() for b in blocked.offending] == \
        [b.lower.tolist() for b in whole.offending]
    assert len(blocked.boxes) == len(whole.boxes)


# ---------------------------------------------------------------------------
# The helper process
# ---------------------------------------------------------------------------

def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """Counts the helper forks; the helper may run on any machine.

    Each fork asserts that every earlier helper is already reaped.
    """
    made = []
    real_fork = os.fork

    def fork():
        assert all(_reaped(pid) for pid in made), "an earlier helper is alive"
        pid = real_fork()
        made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return made


def _outcome(d, model, target, cfg=None):
    """Everything extraction decides, or the error it raised."""
    try:
        res = extract_rule_sets(o.split_by_prediction(d, model), model, target=target, config=cfg)
    except (ExtractionConvergenceError, InsufficientDataError) as e:
        return (type(e).__name__, str(e), getattr(e, "offending_boxes", None))
    return (ruleset_to_json(res.ruleset), ruleset_to_json(res.ruleset_scaled),
            res.ruleset, res.ruleset_scaled, res.discarded_rows, res.stats)


def _serial_and_helped(monkeypatch, d, model, target, cfg=None):
    monkeypatch.setattr(rules_module, "AHEAD_WORK", NEVER)
    serial = _outcome(d, model, target, cfg)
    monkeypatch.setattr(rules_module, "AHEAD_WORK", 0)
    helped = _outcome(d, model, target, cfg)
    return serial, helped


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _groups_with_two_rows(d, model, target):
    """The groups that get a helper at AHEAD_WORK = 0: those of >= 2 target rows."""
    X_a, X_na = o.split_by_prediction(d, model)
    X_t = X_na if target == TARGET_NON_ANOMALOUS else X_a
    cats = model.schema.categorical
    sizes = Counter(zip(*(X_t.data[c].codes.tolist() for c in cats))) if cats \
        else Counter({(): X_t.rows})
    return sum(m >= 2 for m in sizes.values())


def test_helper_streams_every_count_up_to_the_cap(forks):
    # the helper checks no clustering: it sends k0, k0 + 2, ... <= cap, then ends
    Xs = np.random.default_rng(0).random((40, 2))
    cfg = ExtractionConfig()
    seeds = PlusPlusSeeds(Xs, cfg.seed, cfg.n_init)

    def cluster(k):
        return kmeans_pp(Xs, k, seed=cfg.seed, n_init=cfg.n_init,
                         max_iter=cfg.kmeans_max_iter, seeds=seeds)

    helper = Helper(cluster, 3, 8)
    try:
        got = {k: helper.result(k) for k in (3, 5, 7, 9)}
    finally:
        helper.close()
    assert got.pop(9) is None
    for k, cl in got.items():
        ref = kmeans_pp(Xs, k, seed=cfg.seed, n_init=cfg.n_init,
                        max_iter=cfg.kmeans_max_iter)
        assert _same_array(cl.labels, ref.labels)
        assert _same_array(cl.centers, ref.centers)
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("fixture", ["blob", "seismic", "grouped"])
def test_helper_changes_no_result(request, monkeypatch, forks, fixture, target):
    d = request.getfixturevalue(fixture + "_data")
    model = request.getfixturevalue(fixture + "_model")
    serial, helped = _serial_and_helped(monkeypatch, d, model, target)
    assert helped == serial
    helpers = _groups_with_two_rows(d, model, target)
    assert len(forks) == helpers
    if fixture != "grouped":
        assert helpers == 1
    _no_child_left()


def test_parent_leaves_the_helpers_counts_to_it(monkeypatch, forks, seismic_data,
                                                 seismic_model):
    # at AHEAD_WORK = 0 the helper owns counts 2, 4, ...: the parent seeds none
    parent = os.getpid()
    inner = PlusPlusSeeds.centers
    seeded = []

    def centers(self, k):
        if os.getpid() == parent:
            seeded.append(k)
        return inner(self, k)

    monkeypatch.setattr(PlusPlusSeeds, "centers", centers)
    monkeypatch.setattr(rules_module, "AHEAD_WORK", 0)
    res = extract_rule_sets(o.split_by_prediction(seismic_data, seismic_model), seismic_model)
    (n_cl,) = res.stats["clusters_per_group"]
    assert n_cl > 2
    assert seeded == list(range(1, n_cl + 1, 2))
    assert len(forks) == 1
    _no_child_left()


@st.composite
def _state_data(draw):
    n_states = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    sizes = [draw(st.integers(10, 40)) for _ in range(n_states)]
    pts, tokens = [], []
    for s, m in enumerate(sizes):
        pts.append(rng.normal((3.0 * s, 0.0), 0.5, size=(m, 2)))
        tokens += ["s%d" % s] * m
    pts = np.vstack(pts)
    d = Dataset(columns=(("x", NUMERICAL), ("y", NUMERICAL), ("state", CATEGORICAL)),
                data={"x": pts[:, 0].copy(), "y": pts[:, 1].copy(),
                      "state": tuple(tokens)},
                rows=len(pts))
    gamma = draw(st.sampled_from([0.5, 2.0, 8.0]))
    return d, gamma, draw(st.sampled_from(TARGETS))


@settings(max_examples=15)
@given(_state_data())
def test_helper_changes_no_result_on_random_states(case):
    d, gamma, target = case
    model = o.fit_dataset(d, ["x", "y"], ["state"], nu=0.1,
                          kernel=o.KernelParams(gamma=gamma))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        serial, helped = _serial_and_helped(mp, d, model, target)
    assert helped == serial
    _no_child_left()


@pytest.fixture(scope="module")
def seismic_serial(seismic_data, seismic_model):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rules_module, "AHEAD_WORK", NEVER)
        return _outcome(seismic_data, seismic_model, TARGET_NON_ANOMALOUS)


@pytest.mark.parametrize("results_before_exit", [0, 1, 5])
def test_helper_that_dies_changes_no_result(monkeypatch, forks, seismic_data, seismic_model,
                                            seismic_serial, results_before_exit):
    parent = os.getpid()
    inner = rules_module.kmeans_pp
    done = []

    def dying(X, k, **kwargs):
        if os.getpid() != parent:
            if len(done) == results_before_exit:
                os._exit(3)
            done.append(k)
        return inner(X, k, **kwargs)

    monkeypatch.setattr(rules_module, "kmeans_pp", dying)
    monkeypatch.setattr(rules_module, "AHEAD_WORK", 0)
    assert _outcome(seismic_data, seismic_model, TARGET_NON_ANOMALOUS) == seismic_serial
    assert len(forks) == 1
    _no_child_left()


def test_no_child_left_after_convergence_error(monkeypatch, forks, seismic_data,
                                               seismic_model):
    monkeypatch.setattr(rules_module, "AHEAD_WORK", 0)
    with pytest.raises(ExtractionConvergenceError):
        extract_rule_sets(o.split_by_prediction(seismic_data, seismic_model), seismic_model,
                          config=ExtractionConfig(max_clusters=4))
    assert len(forks) == 1
    _no_child_left()


def test_earlier_convergence_error_wins_over_later_group_minimum():
    # state "ring" comes first: the detector rejects some ring points, which
    # lie inside the box of the others, so max_clusters=1 cannot clear it;
    # state "rare" keeps fewer than 2^d points, which per_group_min_check
    # refuses
    angles = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    rare = np.array([[6.0, 6.0], [6.02, 6.0], [6.0, 6.02]])
    pts = np.vstack([ring, rare])
    tokens = ["ring"] * 40 + ["rare"] * 3
    d = Dataset(columns=(("x", NUMERICAL), ("y", NUMERICAL), ("kind", CATEGORICAL)),
                data={"x": pts[:, 0].copy(), "y": pts[:, 1].copy(), "kind": tuple(tokens)},
                rows=len(pts))
    model = o.fit_dataset(d, ["x", "y"], ["kind"], nu=0.1,
                          kernel=o.KernelParams(gamma=2.0))
    split = o.split_by_prediction(d, model)
    with pytest.raises(InsufficientDataError):
        extract_rule_sets(split, model, config=ExtractionConfig(per_group_min_check=True))
    with pytest.raises(ExtractionConvergenceError):
        extract_rule_sets(split, model, config=ExtractionConfig(max_clusters=1))
    with pytest.raises(ExtractionConvergenceError):
        extract_rule_sets(split, model, config=ExtractionConfig(max_clusters=1,
                                                               per_group_min_check=True))


def _refuse_fork():
    raise AssertionError("the helper must not fork here")


def test_no_fork_with_a_second_thread(monkeypatch, grouped_data, grouped_model):
    monkeypatch.setattr(rules_module, "AHEAD_WORK", 0)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        res = extract_rule_sets(o.split_by_prediction(grouped_data, grouped_model), grouped_model)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert res.stats["n_rules"] > 0


@pytest.mark.parametrize("missing", ["", "fork", "sched_getaffinity"])
def test_no_fork_on_one_cpu_or_without_the_calls(monkeypatch, grouped_data,
                                                 grouped_model, missing):
    monkeypatch.setattr(rules_module, "AHEAD_WORK", 0)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if missing:
        monkeypatch.delattr(os, missing)
    res = extract_rule_sets(o.split_by_prediction(grouped_data, grouped_model), grouped_model)
    assert res.stats["n_rules"] > 0


def test_cli_extract_writes_each_line_once(tmp_path):
    # seismic_like's sweep is long enough for the helper without any patch
    synth.write_csv(tmp_path / "data.csv", synth.seismic_like())
    cfg = {
        "dataset": "data.csv",
        "columns": {"numerical": ["energy", "pulses"], "categorical": []},
        "ocsvm": {"nu": 0.1, "gamma": 0.1},
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ocsvm_rules.cli", "extract", "--target", "both",
         "--config", str(tmp_path / "config.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    wrote = [line for line in proc.stderr.splitlines() if line.startswith("wrote ")]
    assert wrote
    assert len(wrote) == len(set(wrote))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        sorted(os.path.basename(line.split(" ", 1)[1]) for line in wrote)

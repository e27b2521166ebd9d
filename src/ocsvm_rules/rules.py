"""Axis-aligned rule boxes that describe a trained detector's regions.

Rules are mined per categorical state: the state's target points are
clustered with k-means, each cluster becomes the bounding box of its
members, and a box that still contains a point of the opposite class
forces a retry with one more cluster. Clusters too small to be worth
splitting are dropped instead (or kept as-is when describing anomalies).
Each surviving box is a conjunction of interval bounds, one pair per
numerical column, plus equality tests on the categorical columns.

Who computes which cluster count. The sweep over k = 1, 2, ... of one group
runs in this process until its work, n times the sum of the counts so far
including the current k, reaches AHEAD_WORK. From then on, if a Helper can
be forked, it runs k-means for counts k + 1, k + 3, ... of that group up to
max_clusters or one below the group's number of distinct rows, whichever is
lower (at that number the clustering is the rows themselves), while this
process computes k, k + 2, ... and decides, for every count, whether to
accept it. Each such group gets its own helper, forked with only that
group's points and killed and reaped when that group's sweep returns or
raises, so at most one helper runs at a time.

Why the output cannot change. The helper is a fork of this process, with
the same data, code and BLAS. It runs the sweep's own clustering step, with
the seeding it inherited by the fork, so its clustering for k is the one
this process would compute. For each k in order, the sweep takes the
helper's clustering if it has one and runs the step itself otherwise.
Acceptance, boxes, discards and errors are decided here only, in the same
order as a serial sweep.

The pipe. The helper checks none of its clusterings. It writes each of its
counts in order on one pipe, as a pickle of (k, clustering), and nothing to
stdout or stderr; it ends with os._exit at the cap. This process reads the
pipe only when its sweep reaches one of the helper's counts.

Fallbacks. Without os.fork or os.sched_getaffinity, with fewer than 2 CPUs
available, or with another thread alive (fork is unsafe then), no helper is
forked and every count is computed here. Once the helper's stream ends
(it reached the cap or died) or brings a count other than the one awaited,
this process computes that count and every later one.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, PlusPlusSeeds, kmeans_pp
from .dataset import Dataset, scale_apply, state_mask, unique_categorical_states
from .errors import ConfigError, ExtractionConvergenceError, InsufficientDataError
from .formats import (  # noqa: F401 - the rule formats stay importable from here
    BOX_ALL, BOX_FARTHEST, TARGET_ANOMALOUS, TARGET_NON_ANOMALOUS, CategoricalState,
    ExtractionConfig, Rule, RuleSet, rule_to_text, ruleset_from_json, ruleset_to_json,
    ruleset_to_text, state_text,
)
from .ocsvm import OcsvmModel


@dataclass(frozen=True)
class ExtractionResult:
    ruleset: RuleSet          # original units, pruned
    ruleset_scaled: RuleSet   # same survivors in scaled units
    discarded_rows: tuple[int, ...]  # indices into the target side of the split
    stats: dict


def bounding_box(points) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ConfigError("bounding_box needs a non-empty 2-D point set")
    return points.min(axis=0), points.max(axis=0)


@dataclass
class _Box:
    lower: np.ndarray
    upper: np.ndarray
    members: np.ndarray      # every point of the originating cluster
    bounds_idx: np.ndarray   # the points whose coordinates set the bounds


def _farthest_members(Xs: np.ndarray, members: np.ndarray, center: np.ndarray,
                      n_v: int) -> np.ndarray:
    """The n_v members farthest from center, ascending; ties go to the lowest index."""
    d2 = np.sum((Xs[members] - center) ** 2, axis=1)
    order = np.argsort(-d2, kind="stable")
    return np.sort(members[order[:n_v]])


# Box-point pairs tested per block by _inside, which bounds its temporaries
# to about this many bytes per column.
_HIT_BLOCK = 1 << 16


def _inside(lower: np.ndarray, upper: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """inside[i, j] is True if row j of Ys lies in the closed box lower[i]..upper[i].

    The result takes m * p bytes for m boxes and p rows; the comparisons
    behind it run over blocks of about _HIT_BLOCK box-row pairs.
    """
    m, p = lower.shape[0], Ys.shape[0]
    inside = np.empty((m, p), dtype=bool)
    step = max(1, _HIT_BLOCK // m)
    lo, hi = lower[:, None, :], upper[:, None, :]
    for s in range(0, p, step):
        Y = Ys[None, s:s + step]
        inside[:, s:s + step] = ((Y >= lo) & (Y <= hi)).all(axis=2)
    return inside


@dataclass
class _Step:
    """Per-k check of one clustering, in cluster order; offending boxes force a retry."""

    boxes: list[_Box]            # clean boxes, and tolerated ones for anomalies
    discard: list[np.ndarray]    # members of small contaminated clusters
    offending: list[_Box]        # contaminated clusters too large to drop


def _check_clusters(Xs: np.ndarray, Ys: np.ndarray, cl, cfg: ExtractionConfig,
                    target: str, n_v: int) -> _Step:
    """Box every non-empty cluster of cl and sort the boxes by contamination.

    A box that contains a point of Ys is contaminated. It forces a retry with
    one more cluster when its cluster has at least n_v members or more than
    discard_factor * n_v (n_clusters, under literal_cluster_threshold);
    otherwise its cluster is dropped, or kept as-is for the anomalous target.
    Members come from one stable argsort of the labels, so each cluster's
    members ascend as np.flatnonzero(labels == c) does. Min and max pick one
    of their inputs, so the boxes equal a per-cluster bounding_box whatever
    the reduction order, except between -0.0 and 0.0, which compare equal:
    when Xs holds a -0.0, every box is taken with bounding_box itself.
    """
    n_cl = cl.k
    order = np.argsort(cl.labels, kind="stable")
    sorted_labels = cl.labels[order]
    starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1))
    ends = np.append(starts[1:], order.size)
    Xo = Xs[order]
    lower = np.minimum.reduceat(Xo, starts, axis=0)
    upper = np.maximum.reduceat(Xo, starts, axis=0)
    signed_zero = bool((np.signbit(Xs) & (Xs == 0)).any())
    boxes = []
    for i, c in enumerate(sorted_labels[starts].tolist()):
        members = idx = order[starts[i]:ends[i]]
        if cfg.box_mode == BOX_FARTHEST and members.size > n_v:
            idx = _farthest_members(Xs, members, cl.centers[c], n_v)
        if idx is not members or signed_zero:
            lower[i], upper[i] = bounding_box(Xs[idx])
        boxes.append(_Box(lower=lower[i], upper=upper[i], members=members, bounds_idx=idx))

    hit = _inside(lower, upper, Ys).any(axis=1)
    sizes = ends - starts
    limit = cfg.discard_factor * (n_cl if cfg.literal_cluster_threshold else n_v)
    big = (sizes >= n_v) | (sizes > limit)
    step = _Step(boxes=[], discard=[], offending=[])
    for box, h, b in zip(boxes, hit.tolist(), big.tolist()):
        if not h:
            step.boxes.append(box)
        elif b:
            step.offending.append(box)
        elif target == TARGET_ANOMALOUS:
            # describing anomalies: a few stray normal points inside the
            # box are tolerated rather than dropping the cluster
            step.boxes.append(box)
        else:
            step.discard.append(box.members)
    return step


def _distinct_rows(Xs: np.ndarray) -> Clustering:
    """Each distinct row of Xs as a cluster of its own, numbered in order of
    first appearance; rows that compare equal (0.0 and -0.0 do) share one."""
    order = np.lexsort(Xs.T)
    Xo = Xs[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (Xo[1:] != Xo[:-1]).any(axis=1)
    # lexsort is stable, so each run of equal rows starts at its lowest index
    starts = order[first]
    rank = np.empty(starts.size, dtype=np.int64)
    rank[np.argsort(starts)] = np.arange(starts.size)
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = rank[np.cumsum(first) - 1]
    return Clustering(centers=Xs[np.sort(starts)], labels=labels, inertia=0.0, n_iter=0)


def _extract_boxes(Xs: np.ndarray, Ys: np.ndarray, cfg: ExtractionConfig,
                   target: str, state: CategoricalState):
    """Cluster-and-check loop over one categorical group, scaled space.

    Returns (boxes, discarded group-local indices, clusters used). Once the
    sweep's work n * (1 + 2 + ... + k) reaches AHEAD_WORK, a Helper computes
    counts k + 1, k + 3, ... while this loop computes the others.

    The sweep ends by the group's number of distinct rows. At that count the
    clustering is the distinct rows themselves, not k-means, whose clusters
    need not separate rows a few ulps apart. Each box is then one point, so
    it stays contaminated only where an opposite row equals a target row.
    """
    n = Xs.shape[0]
    if n == 0:
        return [], np.empty(0, dtype=np.int64), 0
    n_v = cfg.n_v if cfg.n_v is not None else 2 ** Xs.shape[1]
    distinct = _distinct_rows(Xs)
    max_cl = min(cfg.max_clusters or distinct.k, distinct.k)
    last_kmeans = min(max_cl, distinct.k - 1)

    # k-means++ picks do not depend on k: each step extends the same seeding
    seeds = PlusPlusSeeds(Xs, cfg.seed, cfg.n_init)

    def cluster(k):
        if k == distinct.k:
            return distinct
        # kmeans_pp is looked up at call time, so a wrapper set on this module sees each call
        return kmeans_pp(Xs, k, seed=cfg.seed, n_init=cfg.n_init,
                         max_iter=cfg.kmeans_max_iter, seeds=seeds)

    step = None
    work = 0
    helper = None
    try:
        for n_cl in range(1, max_cl + 1):
            work += n * n_cl
            if helper is None and work >= AHEAD_WORK and n_cl < last_kmeans:
                helper = Helper(cluster, n_cl + 1, last_kmeans)
            cl = helper.result(n_cl) if helper is not None else None
            if cl is None:
                cl = cluster(n_cl)
            step = _check_clusters(Xs, Ys, cl, cfg, target, n_v)
            if not step.offending:
                discarded = (np.sort(np.concatenate(step.discard)) if step.discard
                             else np.empty(0, dtype=np.int64))
                return step.boxes, discarded, n_cl
    finally:
        if helper is not None:
            helper.close()

    raise ExtractionConvergenceError(
        "state %r still has %d contaminated clusters at %d clusters"
        % (state_text(state), len(step.offending), max_cl),
        last_n_clusters=max_cl,
        offending_boxes=[(tuple(map(float, b.lower)), tuple(map(float, b.upper)))
                         for b in step.offending],
    )


# Sweep work, sum of n * k over the steps done, from which a group's sweep
# shares its remaining counts with a helper. Below it the fork and the
# helper's speculative steps cost more than they save.
AHEAD_WORK = 50_000


def can_fork() -> bool:
    """fork is unsafe with other threads alive, and useless on one CPU."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


class Helper:
    """A forked process computing cluster(k) for k = k0, k0 + 2, ... cap.

    The constructor forks when it can; otherwise result always returns None.
    close kills and reaps the process.
    """

    def __init__(self, cluster, k0: int, cap: int):
        self._k0 = k0
        self._pid: int | None = None
        self._out = None  # read end of the result pipe, None once it ended
        if not can_fork():
            return
        out_r, out_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(out_r)
            os.close(out_w)
            return
        if pid == 0:
            try:
                os.close(out_r)
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
                with os.fdopen(out_w, "wb") as stream:
                    for k in range(k0, cap + 1, 2):
                        pickle.dump((k, cluster(k)), stream, pickle.HIGHEST_PROTOCOL)
                        stream.flush()
            finally:
                os._exit(0)
        os.close(out_w)
        self._pid, self._out = pid, os.fdopen(out_r, "rb")

    def result(self, k: int):
        """The helper's clustering for count k, or None to compute it here."""
        if self._out is None or (k - self._k0) % 2:
            return None
        try:
            got, cl = pickle.load(self._out)
        except (EOFError, pickle.UnpicklingError):  # the helper ended or died
            got = None
        if got != k:
            self.close()
            return None
        cl.centers.flags.writeable = False
        cl.labels.flags.writeable = False
        return cl

    def close(self) -> None:
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._out is not None:
            self._out.close()
            self._out = None


def extract_rule_sets(split: tuple[Dataset, Dataset], model: OcsvmModel,
                      target: str = TARGET_NON_ANOMALOUS,
                      config: ExtractionConfig | None = None) -> ExtractionResult:
    """Group the target side of split by state, mine boxes, prune.

    split is the (anomalous, non-anomalous) pair from split_by_prediction.
    """
    cfg = config or ExtractionConfig()
    if target not in (TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS):
        raise ConfigError("target must be %r or %r, got %r"
                          % (TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS, target))
    if model.schema is None or model.scaling is None:
        raise ConfigError("model has no attached preprocessing; fit with fit_dataset")
    schema = model.schema
    l_n, l_c = schema.numerical, schema.categorical
    if not l_n:
        raise ConfigError("rule extraction needs at least one numerical column")

    X_a, X_na = split
    X_t, X_o = (X_na, X_a) if target == TARGET_NON_ANOMALOUS else (X_a, X_na)

    if target == TARGET_NON_ANOMALOUS:
        required = (len(l_c) + 1) * (2 ** len(l_n))
        if required > X_t.rows:
            raise InsufficientDataError(
                "need at least %d non-anomalous points for %d numerical and %d "
                "categorical columns, have %d"
                % (required, len(l_n), len(l_c), X_t.rows))
    elif X_t.rows == 0:
        raise InsufficientDataError("no anomalous points to describe")

    states = unique_categorical_states(X_t, l_c)
    # scaling is elementwise, so a group's rows of these equal its own scaled rows
    orig_t = X_t.numeric_matrix(l_n)
    scaled_t = scale_apply(X_t, model.scaling).numeric_matrix(l_n)
    scaled_o = scale_apply(X_o, model.scaling).numeric_matrix(l_n)

    rules_u: list[Rule] = []
    rules_s: list[Rule] = []
    discarded_global: list[int] = []
    clusters_per_group: list[int] = []
    for state in states:
        rows = np.flatnonzero(state_mask(X_t, state))
        if cfg.per_group_min_check and target == TARGET_NON_ANOMALOUS:
            if 2 ** len(l_n) > rows.size:
                raise InsufficientDataError(
                    "state %s has %d points, need at least %d"
                    % (state_text(state), rows.size, 2 ** len(l_n)))
        Xs, Ys = scaled_t[rows], scaled_o[state_mask(X_o, state)]
        boxes, local_discard, n_cl = _extract_boxes(Xs, Ys, cfg, target, state)
        clusters_per_group.append(n_cl)
        discarded_global.extend(int(rows[i]) for i in local_discard)
        for b in boxes:
            # original-unit bounds come from the members' own coordinates
            # so membership is exact in both spaces
            sub = orig_t[rows[b.bounds_idx]]
            rules_u.append(Rule(
                state=state, columns=l_n,
                lower=tuple(float(v) for v in sub.min(axis=0)),
                upper=tuple(float(v) for v in sub.max(axis=0)),
                n_points=int(b.members.size)))
            rules_s.append(Rule(
                state=state, columns=l_n,
                lower=tuple(float(v) for v in b.lower),
                upper=tuple(float(v) for v in b.upper),
                n_points=int(b.members.size)))

    survivors = prune_survivors(rules_u)
    cyc = dict(schema.cyclical)
    rs_u = RuleSet(target=target, scaled=False, columns=l_n,
                   rules=tuple(rules_u[i] for i in survivors), cyclical=cyc)
    rs_s = RuleSet(target=target, scaled=True, columns=l_n,
                   rules=tuple(rules_s[i] for i in survivors), cyclical=cyc)

    discarded_rows = tuple(sorted(discarded_global))
    kept = np.ones(X_t.rows, dtype=bool)
    kept[list(discarded_rows)] = False
    covered = int(np.count_nonzero(covered_mask(rs_u, X_t) & kept))
    denom = X_t.rows - len(discarded_rows)
    stats = {
        "target": target,
        "target_points": X_t.rows,
        "discarded_points": len(discarded_rows),
        "covered_points": covered,
        "coverage_pct": 100.0 * covered / denom if denom else 100.0,
        "anomaly_fraction": X_a.rows / (X_a.rows + X_na.rows),
        "n_rules_raw": len(rules_u),
        "n_rules": len(survivors),
        "n_groups": len(states),
        "clusters_per_group": clusters_per_group,
    }
    return ExtractionResult(ruleset=rs_u, ruleset_scaled=rs_s,
                            discarded_rows=discarded_rows, stats=stats)


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _by_state(rules) -> dict:
    """state -> (rule indices, lower bounds, upper bounds), in rule order."""
    groups: dict = {}
    for i, r in enumerate(rules):
        groups.setdefault(r.state, []).append(i)
    bounds = np.array([(r.lower, r.upper) for r in rules], dtype=np.float64)
    return {state: (idx, bounds[idx, 0], bounds[idx, 1]) for state, idx in groups.items()}


def prune_survivors(rules) -> list[int]:
    """Indices of rules not contained in another rule of the same state.

    Box a contains box b exactly when a holds both of b's corners. A rule
    goes when another rule of its state contains it, unless the two are
    identical (each contains the other) and the other has the higher index.
    Removals never lose coverage: every removed box sits inside a survivor.
    """
    removed = np.zeros(len(rules), dtype=bool)
    for idx, lower, upper in _by_state(rules).values():
        # holds[a, b]: box a contains box b; ~tri[a, b]: a < b
        holds = _inside(lower, upper, lower) & _inside(lower, upper, upper)
        removed[idx] = (holds & (~holds.T | ~np.tri(len(idx), dtype=bool))).any(axis=0)
    return np.flatnonzero(~removed).tolist()


# ---------------------------------------------------------------------------
# Matching and coverage
# ---------------------------------------------------------------------------

def covered_mask(rs: RuleSet, d: Dataset) -> np.ndarray:
    """Rows of d satisfied by at least one rule."""
    out = np.zeros(d.rows, dtype=bool)
    V = d.numeric_matrix(rs.columns)
    for state, (_, lower, upper) in _by_state(rs.rules).items():
        rows = np.flatnonzero(state_mask(d, state))
        out[rows] |= _inside(lower, upper, V[rows]).any(axis=0)
    return out

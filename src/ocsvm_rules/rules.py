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
including the current k, reaches AHEAD_WORK. From then on, if a helper
process can be forked, it runs k-means for counts k + 1, k + 3, ... of that
group up to the cluster cap, while this process computes k, k + 2, ... and
decides, for every count, whether to accept it. Each group whose sweep
reaches AHEAD_WORK gets its own helper, forked with only that group's points
and killed when that group's sweep ends, so at most one helper runs at a
time. The process and its pipe live in sweep_helper.py, which is imported
only then.

Why the output cannot change. The helper is a fork of this process, so it
has the same data, code and BLAS, and calls the same kmeans_pp with the same
arguments; its clustering for k is the one this process would compute. This
process still calls kmeans_pp once per k, in order, and that call returns
the helper's clustering for the helper's counts (through the PlusPlusSeeds
hook). Acceptance, boxes, discards and errors are decided here only, in the
same order as a serial sweep.

Fallbacks. Without os.fork or os.sched_getaffinity, with fewer than 2 CPUs
available, or with another thread alive (fork is unsafe then), no helper is
forked and every count is computed here. Once the helper's stream ends,
because it reached the cap or died, this process computes the count it was
waiting for and every later one. The helper writes nothing to stdout or
stderr, ends with os._exit at the cap, and is killed and reaped before its
group's sweep returns or raises.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .clustering import PlusPlusSeeds, kmeans_pp
from .dataset import (
    CategoricalState,
    Dataset,
    cyclical_decode,
    cyclical_from_doc,
    cyclical_to_doc,
    scale_apply,
    state_mask,
    unique_categorical_states,
)
from .errors import (
    ConfigError,
    ExtractionConvergenceError,
    InsufficientDataError,
    SchemaError,
)
from .ocsvm import OcsvmModel

TARGET_NON_ANOMALOUS = "non_anomalous"
TARGET_ANOMALOUS = "anomalous"

BOX_ALL = "all"
BOX_FARTHEST = "farthest"

RULESET_FORMAT = "rule-set/1"


@dataclass(frozen=True)
class Rule:
    """One box: interval bounds per numerical column under a fixed state."""

    state: CategoricalState
    columns: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_points: int

    def __post_init__(self):
        if not (len(self.columns) == len(self.lower) == len(self.upper)):
            raise ConfigError("rule bounds do not match its columns")
        for col, lo, hi in zip(self.columns, self.lower, self.upper):
            if lo > hi:
                raise ConfigError("rule bound on %r inverted: %r > %r" % (col, lo, hi))


@dataclass(frozen=True)
class RuleSet:
    target: str
    scaled: bool
    columns: tuple[str, ...]
    rules: tuple[Rule, ...]
    cyclical: dict = field(default_factory=dict)  # original column -> CyclicalInfo

    def __post_init__(self):
        if self.target not in (TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS):
            raise ConfigError("unknown rule target %r" % self.target)
        for r in self.rules:
            if r.columns != self.columns:
                raise ConfigError("rule columns differ from rule set columns")


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for the clustering loop.

    n_v defaults to 2**d, the vertex count of a box in d dimensions. A
    contaminated cluster is split further when it has at least n_v points
    or more than discard_factor * n_v; smaller ones are dropped (kept, for
    the anomalous target). literal_cluster_threshold compares against
    discard_factor * n_clusters instead.
    """

    discard_factor: float = 1.0
    box_mode: str = BOX_ALL
    n_v: int | None = None
    max_clusters: int | None = None
    literal_cluster_threshold: bool = False
    per_group_min_check: bool = False
    seed: int = 0
    n_init: int = 10
    kmeans_max_iter: int = 100

    def __post_init__(self):
        if self.box_mode not in (BOX_ALL, BOX_FARTHEST):
            raise ConfigError("box_mode must be %r or %r, got %r"
                              % (BOX_ALL, BOX_FARTHEST, self.box_mode))
        f = self.discard_factor
        if (isinstance(f, bool) or not isinstance(f, numbers.Real)
                or not (math.isfinite(f) and f >= 0)):
            raise ConfigError("discard_factor must be a finite number >= 0, got %r" % (f,))
        for name in ("literal_cluster_threshold", "per_group_min_check"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError("%s must be true or false, got %r" % (name, getattr(self, name)))
        for name, minimum in (("n_v", 1), ("max_clusters", 1), ("seed", 0),
                              ("n_init", 1), ("kmeans_max_iter", 1)):
            v = getattr(self, name)
            if v is None and name in ("n_v", "max_clusters"):
                continue
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < minimum:
                raise ConfigError("%s must be an integer >= %d, got %r" % (name, minimum, v))


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


# Box-point pairs tested per block by _boxes_hit, which bounds its temporaries
# to about this many bytes per column.
_HIT_BLOCK = 1 << 16


def _boxes_hit(lower: np.ndarray, upper: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """hit[i] is True if some row of Ys lies in the closed box lower[i]..upper[i]."""
    m, p = lower.shape[0], Ys.shape[0]
    hit = np.zeros(m, dtype=bool)
    step = max(1, _HIT_BLOCK // m)
    lo, hi = lower[:, None, :], upper[:, None, :]
    for s in range(0, p, step):
        Y = Ys[None, s:s + step]
        hit |= ((Y >= lo) & (Y <= hi)).all(axis=2).any(axis=1)
    return hit


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

    hit = _boxes_hit(lower, upper, Ys)
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


def _extract_boxes(Xs: np.ndarray, Ys: np.ndarray, cfg: ExtractionConfig,
                   target: str, state: CategoricalState):
    """Cluster-and-check loop over one categorical group, scaled space.

    Returns (boxes, discarded group-local indices, clusters used). Once the
    sweep's work n * (1 + 2 + ... + k) reaches AHEAD_WORK, a helper process
    computes counts k + 1, k + 3, ... while this loop computes the others.
    """
    n = Xs.shape[0]
    if n == 0:
        return [], np.empty(0, dtype=np.int64), 0
    n_v = cfg.n_v if cfg.n_v is not None else 2 ** Xs.shape[1]
    max_cl = min(cfg.max_clusters or n, n)

    # k-means++ picks do not depend on k: each step extends the same seeding
    seeds = PlusPlusSeeds(Xs, cfg.seed, cfg.n_init)
    step = None
    work = 0
    helper = None
    try:
        for n_cl in range(1, max_cl + 1):
            work += n * n_cl
            if helper is None and work >= AHEAD_WORK and n_cl < max_cl:
                from .sweep_helper import Helper

                helper = Helper(Xs, cfg, n_cl + 1, max_cl)
                seeds.ahead = helper.result
            cl = kmeans_pp(Xs, n_cl, seed=cfg.seed, n_init=cfg.n_init,
                           max_iter=cfg.kmeans_max_iter, seeds=seeds)
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


def state_text(state: CategoricalState) -> str:
    """The state as "c=t, ..." in its column order; "<none>" for the empty state."""
    return ", ".join("%s=%s" % (c, t) for c, t in state) if state else "<none>"


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

def prune_survivors(rules) -> list[int]:
    """Indices of rules not contained in another rule of the same state.

    A rule goes when some other rule strictly contains it, or is identical
    with a lower index. Removals never lose coverage: every removed box sits
    inside a surviving one.
    """
    keep = []
    for i, a in enumerate(rules):
        removed = False
        for j, b in enumerate(rules):
            if i == j or a.state != b.state:
                continue
            contains = all(bl <= al and au <= bu
                           for al, au, bl, bu in zip(a.lower, a.upper, b.lower, b.upper))
            if not contains:
                continue
            identical = a.lower == b.lower and a.upper == b.upper
            if not identical or j < i:
                removed = True
                break
        if not removed:
            keep.append(i)
    return keep


# ---------------------------------------------------------------------------
# Matching and coverage
# ---------------------------------------------------------------------------

def covered_mask(rs: RuleSet, d: Dataset) -> np.ndarray:
    """Rows of d satisfied by at least one rule."""
    out = np.zeros(d.rows, dtype=bool)
    by_state: dict = {}
    for rule in rs.rules:
        by_state.setdefault(rule.state, []).append(rule)
    V = d.numeric_matrix(rs.columns)
    for state, rules in by_state.items():
        rows = np.flatnonzero(state_mask(d, state))
        Vs = V[rows]
        for rule in rules:
            inside = np.all((Vs >= rule.lower) & (Vs <= rule.upper), axis=1)
            out[rows[inside]] = True
    return out


# ---------------------------------------------------------------------------
# Rendering and serialization
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def _cyclical_display(rule: Rule, cyclical: dict):
    """Per sin-column rendered text plus the set of columns it consumed.

    The displayed interval comes from decoding the box corners, so it is
    approximate; the stored bounds stay in (sin, cos) space.
    """
    rendered, consumed = {}, set()
    idx = {c: k for k, c in enumerate(rule.columns)}
    for orig, info in (cyclical or {}).items():
        if info.sin_col not in idx or info.cos_col not in idx:
            continue
        si, ci = idx[info.sin_col], idx[info.cos_col]
        corners = []
        for s in (rule.lower[si], rule.upper[si]):
            for c in (rule.lower[ci], rule.upper[ci]):
                if s == 0.0 and c == 0.0:
                    continue  # center of the circle decodes to nothing
                corners.append(cyclical_decode(s, c, info.period))
        if not corners:
            continue
        rendered[info.sin_col] = "%s ≈ [%s, %s] (period %s)" % (
            orig, _fmt(min(corners)), _fmt(max(corners)), _fmt(info.period))
        consumed.add(info.sin_col)
        consumed.add(info.cos_col)
    return rendered, consumed


def rule_to_text(rule: Rule, target: str, cyclical: dict | None = None) -> str:
    parts = ["%s = %s" % (col, tok) for col, tok in rule.state]
    rendered, consumed = _cyclical_display(rule, cyclical or {})
    for k, col in enumerate(rule.columns):
        if col in rendered:
            parts.append(rendered[col])
        elif col in consumed:
            continue
        else:
            parts.append("%s ≥ %s" % (col, _fmt(rule.lower[k])))
            parts.append("%s ≤ %s" % (col, _fmt(rule.upper[k])))
    head = "NOT OUTLIER IF " if target == TARGET_NON_ANOMALOUS else "OUTLIER IF "
    return head + " ∧ ".join(parts)


def ruleset_to_text(rs: RuleSet) -> str:
    lines = [rule_to_text(r, rs.target, rs.cyclical) for r in rs.rules]
    return "".join(line + "\n" for line in lines)


def ruleset_to_json(rs: RuleSet) -> str:
    doc = {
        "format": RULESET_FORMAT,
        "target": rs.target,
        "scaled": rs.scaled,
        "columns": list(rs.columns),
        "cyclical": cyclical_to_doc(rs.cyclical),
        "rules": [
            {
                "state": [[c, t] for c, t in r.state],
                "lower": list(r.lower),
                "upper": list(r.upper),
                "n_points": r.n_points,
            }
            for r in rs.rules
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _rule_from_doc(rd: dict, columns: tuple[str, ...]) -> Rule:
    """One rule of a rule-set document: the bounding box of a non-empty cluster.

    SchemaError for a non-finite bound or an n_points that is not an
    integer >= 1.
    """
    lower = tuple(float(v) for v in rd["lower"])
    upper = tuple(float(v) for v in rd["upper"])
    if not all(map(math.isfinite, lower + upper)):
        raise SchemaError("rule bounds hold a non-finite number")
    n_points = rd["n_points"]
    if isinstance(n_points, bool) or not isinstance(n_points, int) or n_points < 1:
        raise SchemaError("n_points must be an integer >= 1, got %r" % (n_points,))
    return Rule(state=tuple((c, t) for c, t in rd["state"]), columns=columns,
                lower=lower, upper=upper, n_points=n_points)


def ruleset_from_json(text: str) -> RuleSet:
    """Inverse of ruleset_to_json; SchemaError for any other text."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SchemaError("expected a JSON object, got %s" % type(doc).__name__)
        if doc.get("format") != RULESET_FORMAT:
            raise SchemaError("unsupported rule set format: %r" % doc.get("format"))
        columns = tuple(doc["columns"])
        rules = tuple(_rule_from_doc(rd, columns) for rd in doc["rules"])
        if not isinstance(doc["scaled"], bool):
            raise SchemaError("scaled must be true or false, got %r" % (doc["scaled"],))
        return RuleSet(target=doc["target"], scaled=doc["scaled"],
                       columns=columns, rules=rules,
                       cyclical=cyclical_from_doc(doc.get("cyclical", {})))
    except KeyError as e:
        raise SchemaError("rule set has no field %s" % e) from None
    except (ValueError, TypeError, AttributeError, OverflowError, ConfigError) as e:
        raise SchemaError(str(e)) from None

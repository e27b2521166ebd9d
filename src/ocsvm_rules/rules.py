"""Axis-aligned rule boxes that describe a trained detector's regions.

Rules are mined per categorical state: the state's target points are
clustered with k-means, each cluster becomes the bounding box of its
members, and a box that still contains a point of the opposite class
forces a retry with one more cluster. Clusters too small to be worth
splitting are dropped instead (or kept as-is when describing anomalies).
Each surviving box is a conjunction of interval bounds, one pair per
numerical column, plus equality tests on the categorical columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .clustering import PlusPlusSeeds, kmeans_pp
from .dataset import (
    CategoricalState,
    CyclicalInfo,
    Dataset,
    cyclical_decode,
    scale_apply,
    state_mask,
    unique_categorical_states,
    unscale_value,
)
from .errors import (
    ConfigError,
    ExplanationError,
    ExtractionConvergenceError,
    InsufficientDataError,
    SchemaError,
)
from .ocsvm import OcsvmModel, ensure_expanded, split_by_prediction

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
    n_v: int | None = None  # box vertex count used during mining; 2^d by default

    def __post_init__(self):
        if self.target not in (TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS):
            raise ConfigError("unknown rule target %r" % self.target)
        for r in self.rules:
            if r.columns != self.columns:
                raise ConfigError("rule columns differ from rule set columns")
        if self.n_v is None:
            object.__setattr__(self, "n_v", 2 ** len(self.columns))
        elif self.n_v < 1:
            raise ConfigError("n_v must be >= 1, got %r" % self.n_v)


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
        if self.discard_factor < 0:
            raise ConfigError("discard_factor must be >= 0, got %r" % self.discard_factor)
        if self.n_v is not None and self.n_v < 1:
            raise ConfigError("n_v must be >= 1, got %r" % self.n_v)
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer, got %r" % (self.seed,))
        if self.max_clusters is not None and self.max_clusters < 1:
            raise ConfigError("max_clusters must be >= 1, got %r" % self.max_clusters)
        if self.n_init < 1:
            raise ConfigError("n_init must be >= 1, got %r" % self.n_init)
        if self.kmeans_max_iter < 1:
            raise ConfigError("kmeans_max_iter must be >= 1, got %r" % self.kmeans_max_iter)


@dataclass(frozen=True)
class ExtractionResult:
    ruleset: RuleSet          # original units, pruned
    ruleset_scaled: RuleSet   # same survivors in scaled units
    target_data: Dataset      # the rows the rules describe, original units
    discarded_rows: tuple[int, ...]  # indices into target_data
    stats: dict


def bounding_box(points) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ConfigError("bounding_box needs a non-empty 2-D point set")
    return points.min(axis=0), points.max(axis=0)


def contains_any(lower, upper, points) -> bool:
    """True if any row of points lies inside the closed box."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        return False
    inside = np.all((points >= np.asarray(lower)) & (points <= np.asarray(upper)), axis=1)
    return bool(inside.any())


@dataclass
class _Box:
    lower: np.ndarray
    upper: np.ndarray
    members: np.ndarray      # every point of the originating cluster
    bounds_idx: np.ndarray   # the points whose coordinates set the bounds


def _box_for_cluster(Xs: np.ndarray, members: np.ndarray, center: np.ndarray,
                     mode: str, n_v: int) -> _Box:
    if mode == BOX_FARTHEST and members.size > n_v:
        d2 = np.sum((Xs[members] - center) ** 2, axis=1)
        order = np.argsort(-d2, kind="stable")  # ties resolve to lowest index
        idx = np.sort(members[order[:n_v]])
    else:
        idx = members
    lo, hi = bounding_box(Xs[idx])
    return _Box(lower=lo, upper=hi, members=members, bounds_idx=idx)


def _extract_boxes(Xs: np.ndarray, Ys: np.ndarray, cfg: ExtractionConfig,
                   target: str, state: CategoricalState):
    """Cluster-and-check loop over one categorical group, scaled space.

    Returns (boxes, discarded group-local indices, clusters used).
    """
    n = Xs.shape[0]
    if n == 0:
        return [], np.empty(0, dtype=np.int64), 0
    n_v = cfg.n_v if cfg.n_v is not None else 2 ** Xs.shape[1]
    max_cl = min(cfg.max_clusters or n, n)

    # k-means++ picks do not depend on k: each step extends the same seeding
    seeds = PlusPlusSeeds(Xs, cfg.seed, cfg.n_init)
    offending: list[_Box] = []
    for n_cl in range(1, max_cl + 1):
        cl = kmeans_pp(Xs, n_cl, seed=cfg.seed, n_init=cfg.n_init,
                       max_iter=cfg.kmeans_max_iter, seeds=seeds)
        boxes: list[_Box] = []
        discard: list[np.ndarray] = []
        offending = []
        retry = False
        for c in range(cl.k):
            members = np.flatnonzero(cl.labels == c)
            if members.size == 0:
                continue
            box = _box_for_cluster(Xs, members, cl.centers[c], cfg.box_mode, n_v)
            if not contains_any(box.lower, box.upper, Ys):
                boxes.append(box)
                continue
            limit = cfg.discard_factor * (n_cl if cfg.literal_cluster_threshold else n_v)
            if members.size >= n_v or members.size > limit:
                retry = True
                offending.append(box)
            elif target == TARGET_ANOMALOUS:
                # describing anomalies: a few stray normal points inside the
                # box are tolerated rather than dropping the cluster
                boxes.append(box)
            else:
                discard.append(members)
        if not retry:
            discarded = (np.sort(np.concatenate(discard)) if discard
                         else np.empty(0, dtype=np.int64))
            return boxes, discarded, n_cl

    raise ExtractionConvergenceError(
        "state %r still has %d contaminated clusters at %d clusters"
        % (_state_text(state), len(offending), max_cl),
        last_n_clusters=max_cl,
        offending_boxes=[(tuple(map(float, b.lower)), tuple(map(float, b.upper)))
                         for b in offending],
    )


def _state_text(state: CategoricalState) -> str:
    return ", ".join("%s=%s" % (c, t) for c, t in state) if state else "<none>"


def extract_rule_sets(d: Dataset, model: OcsvmModel,
                      target: str = TARGET_NON_ANOMALOUS,
                      config: ExtractionConfig | None = None) -> ExtractionResult:
    """Full pipeline: split by prediction, group by state, mine boxes, prune."""
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

    d_exp = ensure_expanded(d, schema)
    X_a, X_na = split_by_prediction(d_exp, model)
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

    states: list[CategoricalState]
    if l_c:
        states = [tuple((str(c), str(t)) for c, t in s)
                  for s in unique_categorical_states(X_t, l_c)]
    else:
        states = [()]

    rules_u: list[Rule] = []
    rules_s: list[Rule] = []
    discarded_global: list[int] = []
    clusters_per_group: list[int] = []
    for state in states:
        if state:
            t_mask = state_mask(X_t, state)
            o_mask = state_mask(X_o, state)
        else:
            t_mask = np.ones(X_t.rows, dtype=bool)
            o_mask = np.ones(X_o.rows, dtype=bool)
        rows = np.flatnonzero(t_mask)
        grp_t = X_t.take(t_mask)
        grp_o = X_o.take(o_mask)
        if cfg.per_group_min_check and target == TARGET_NON_ANOMALOUS:
            if 2 ** len(l_n) > grp_t.rows:
                raise InsufficientDataError(
                    "state %s has %d points, need at least %d"
                    % (_state_text(state), grp_t.rows, 2 ** len(l_n)))
        orig_t = grp_t.numeric_matrix(l_n)
        Xs = scale_apply(grp_t, model.scaling).numeric_matrix(l_n)
        Ys = scale_apply(grp_o, model.scaling).numeric_matrix(l_n)

        boxes, local_discard, n_cl = _extract_boxes(Xs, Ys, cfg, target, state)
        clusters_per_group.append(n_cl)
        discarded_global.extend(int(rows[i]) for i in local_discard)
        for b in boxes:
            # original-unit bounds come from the members' own coordinates so
            # membership is exact in both spaces
            sub = orig_t[b.bounds_idx]
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
    if discarded_rows:
        kept[list(discarded_rows)] = False
    covered = int(np.count_nonzero(covered_mask(rs_u, X_t) & kept))
    denom = X_t.rows - len(discarded_rows)
    stats = {
        "target": target,
        "target_points": X_t.rows,
        "discarded_points": len(discarded_rows),
        "covered_points": covered,
        "coverage_pct": 100.0 * covered / denom if denom else 100.0,
        "anomaly_fraction": X_a.rows / d_exp.rows if d_exp.rows else 0.0,
        "n_rules_raw": len(rules_u),
        "n_rules": len(survivors),
        "n_groups": len(states),
        "clusters_per_group": clusters_per_group,
    }
    return ExtractionResult(ruleset=rs_u, ruleset_scaled=rs_s, target_data=X_t,
                            discarded_rows=discarded_rows, stats=stats)


def extract_rules(d: Dataset, model: OcsvmModel,
                  target: str = TARGET_NON_ANOMALOUS,
                  config: ExtractionConfig | None = None) -> RuleSet:
    """Pruned rules in original units; see extract_rule_sets for the rest."""
    return extract_rule_sets(d, model, target=target, config=config).ruleset


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


def prune_rules(rs: RuleSet) -> RuleSet:
    survivors = prune_survivors(rs.rules)
    return RuleSet(target=rs.target, scaled=rs.scaled, columns=rs.columns,
                   rules=tuple(rs.rules[i] for i in survivors), cyclical=rs.cyclical)


def unscale_rules(rs: RuleSet, scaling) -> RuleSet:
    """Affine inverse of min-max scaling applied to every bound.

    May differ from member-derived bounds by float rounding; the pipeline
    avoids that by deriving original-unit bounds from the points directly.
    """
    if not rs.scaled:
        raise ConfigError("rule set is already in original units")
    out = []
    for r in rs.rules:
        lo = tuple(unscale_value(v, c, scaling) for c, v in zip(r.columns, r.lower))
        hi = tuple(unscale_value(v, c, scaling) for c, v in zip(r.columns, r.upper))
        out.append(Rule(state=r.state, columns=r.columns, lower=lo, upper=hi,
                        n_points=r.n_points))
    return RuleSet(target=rs.target, scaled=False, columns=rs.columns,
                   rules=tuple(out), cyclical=rs.cyclical)


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
# Counterfactuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Counterfactual:
    """Cheapest edit that moves a point inside some rule of the set."""

    rule_index: int
    distance: float                 # L1 over numerical columns only
    moves: tuple                    # (column, from, to) numeric adjustments
    state_changes: tuple            # (column, from, to) categorical edits

    @property
    def satisfied(self) -> bool:
        return self.distance == 0.0 and not self.moves and not self.state_changes


def explain_point(rs: RuleSet, values, state: CategoricalState = ()) -> Counterfactual:
    """Nearest rule by clip distance: clamp each coordinate into the box.

    Rules matching the point's categorical state are preferred; if none
    exist the search widens and the result includes the category edits.
    """
    if not rs.rules:
        raise ExplanationError("rule set is empty")
    if isinstance(values, dict):
        try:
            vec = np.array([float(values[c]) for c in rs.columns])
        except KeyError as e:
            raise ExplanationError("missing value for column %s" % e) from None
    else:
        vec = np.asarray(values, dtype=np.float64)
        if vec.shape != (len(rs.columns),):
            raise ExplanationError(
                "expected %d values, got shape %s" % (len(rs.columns), vec.shape))

    candidates = [i for i, r in enumerate(rs.rules) if r.state == tuple(state)]
    if not candidates:
        candidates = list(range(len(rs.rules)))

    best_i, best_dist = -1, np.inf
    for i in candidates:
        r = rs.rules[i]
        clipped = np.clip(vec, r.lower, r.upper)
        dist = float(np.abs(clipped - vec).sum())
        if dist < best_dist:
            best_i, best_dist = i, dist
    rule = rs.rules[best_i]
    clipped = np.clip(vec, rule.lower, rule.upper)
    moves = tuple((c, float(v), float(t))
                  for c, v, t in zip(rs.columns, vec, clipped) if v != t)
    have = dict(state)
    state_changes = tuple((c, have.get(c), t) for c, t in rule.state
                          if have.get(c) != t)
    return Counterfactual(rule_index=best_i, distance=best_dist, moves=moves,
                          state_changes=state_changes)


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
        "cyclical": {
            orig: {"period": info.period, "sin": info.sin_col, "cos": info.cos_col}
            for orig, info in rs.cyclical.items()
        },
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


def ruleset_from_json(text: str) -> RuleSet:
    doc = json.loads(text)
    if doc.get("format") != RULESET_FORMAT:
        raise SchemaError("unsupported rule set format: %r" % doc.get("format"))
    columns = tuple(doc["columns"])
    cyclical = {
        orig: CyclicalInfo(period=spec["period"], sin_col=spec["sin"], cos_col=spec["cos"])
        for orig, spec in doc.get("cyclical", {}).items()
    }
    rules = tuple(
        Rule(
            state=tuple((c, t) for c, t in rd["state"]),
            columns=columns,
            lower=tuple(float(v) for v in rd["lower"]),
            upper=tuple(float(v) for v in rd["upper"]),
            n_points=int(rd["n_points"]),
        )
        for rd in doc["rules"]
    )
    return RuleSet(target=doc["target"], scaled=bool(doc["scaled"]),
                   columns=columns, rules=rules, cyclical=cyclical)

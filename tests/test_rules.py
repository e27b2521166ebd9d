import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ocsvm_rules as o
import ocsvm_rules.rules as rules_module
from ocsvm_rules.dataset import (
    CATEGORICAL,
    NUMERICAL,
    CyclicalInfo,
    Dataset,
)
from ocsvm_rules.errors import (
    ConfigError,
    ExtractionConvergenceError,
    InsufficientDataError,
    SchemaError,
)
from ocsvm_rules.ocsvm import split_by_prediction
from ocsvm_rules.rules import (
    BOX_FARTHEST,
    TARGET_ANOMALOUS,
    TARGET_NON_ANOMALOUS,
    ExtractionConfig,
    Rule,
    RuleSet,
    _extract_boxes,
    bounding_box,
    covered_mask,
    extract_rule_sets,
    prune_survivors,
    rule_to_text,
    ruleset_from_json,
    ruleset_to_json,
    ruleset_to_text,
)

import categorical_reference
import synth


def _col(vals):
    return np.asarray(vals, dtype=np.float64).reshape(-1, 1)


# ---------------------------------------------------------------------------
# Box primitives
# ---------------------------------------------------------------------------

def test_bounding_box_and_containment():
    lo, hi = bounding_box([[0.0, 5.0], [2.0, 1.0]])
    assert lo.tolist() == [0.0, 1.0]
    assert hi.tolist() == [2.0, 5.0]
    with pytest.raises(ConfigError):
        bounding_box(np.empty((0, 2)))


def test_rule_validation():
    with pytest.raises(ConfigError):
        Rule(state=(), columns=("x",), lower=(1.0,), upper=(0.0,), n_points=1)
    with pytest.raises(ConfigError):
        Rule(state=(), columns=("x", "y"), lower=(0.0,), upper=(1.0,), n_points=1)
    with pytest.raises(ConfigError):
        RuleSet(target="weird", scaled=False, columns=("x",), rules=())


def test_extraction_config_validation():
    with pytest.raises(ConfigError):
        ExtractionConfig(box_mode="vertices")
    with pytest.raises(ConfigError):
        ExtractionConfig(discard_factor=-0.5)
    with pytest.raises(ConfigError):
        ExtractionConfig(n_v=0)
    with pytest.raises(ConfigError):
        ExtractionConfig(max_clusters=0)
    with pytest.raises(ConfigError):
        ExtractionConfig(n_init=0)
    with pytest.raises(ConfigError):
        ExtractionConfig(seed=-3)
    # counts must be integers, as seed must; bool is not a count
    for name in ("n_init", "kmeans_max_iter", "max_clusters", "n_v", "seed"):
        for bad in (2.5, True):
            with pytest.raises(ConfigError):
                ExtractionConfig(**{name: bad})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ExtractionConfig(discard_factor=bad)
    # the two flags take only bools, discard_factor only numbers that are not bools
    for name in ("literal_cluster_threshold", "per_group_min_check"):
        for bad in ("yes", 1, "1"):
            with pytest.raises(ConfigError):
                ExtractionConfig(**{name: bad})
        assert getattr(ExtractionConfig(**{name: True}), name) is True
    for bad in ("yes", "1", True):
        with pytest.raises(ConfigError):
            ExtractionConfig(discard_factor=bad)
    cfg = ExtractionConfig(n_v=np.int64(4), max_clusters=np.int32(9), discard_factor=0)
    assert (cfg.n_v, cfg.max_clusters) == (4, 9)
    assert ExtractionConfig(discard_factor=1).discard_factor == 1


# ---------------------------------------------------------------------------
# The clustering loop on hand-built inputs
# ---------------------------------------------------------------------------

def test_small_contaminated_cluster_discarded_for_normal_target():
    Xs = _col([0.0, 0.001, 0.5])
    Ys = _col([0.5])
    cfg = ExtractionConfig(n_v=2)
    boxes, discard, n_cl = _extract_boxes(Xs, Ys, cfg, TARGET_NON_ANOMALOUS, ())
    assert n_cl == 2
    assert len(boxes) == 1
    assert boxes[0].lower.tolist() == [0.0]
    assert boxes[0].upper.tolist() == [0.001]
    assert discard.tolist() == [2]


def test_small_contaminated_cluster_kept_for_anomalous_target():
    Xs = _col([0.0, 0.001, 0.5])
    Ys = _col([0.5])
    cfg = ExtractionConfig(n_v=2)
    boxes, discard, n_cl = _extract_boxes(Xs, Ys, cfg, TARGET_ANOMALOUS, ())
    assert n_cl == 2
    assert len(boxes) == 2
    assert discard.size == 0


def test_literal_cluster_threshold_changes_retry_decision():
    # clean triple near 0, two contaminated pairs around the opposite point
    pts = [0.0, 0.001, 0.002, 0.4, 0.401, 0.6, 0.601]
    Xs = _col(pts)
    Ys = _col([0.5])

    std = ExtractionConfig(n_v=5)
    boxes, discard, n_cl = _extract_boxes(Xs, Ys, std, TARGET_NON_ANOMALOUS, ())
    assert n_cl == 2
    assert len(boxes) == 1
    assert discard.tolist() == [3, 4, 5, 6]

    lit = ExtractionConfig(n_v=5, literal_cluster_threshold=True)
    boxes, discard, n_cl = _extract_boxes(Xs, Ys, lit, TARGET_NON_ANOMALOUS, ())
    # 4 > discard_factor * n_clusters forces another split, which separates
    # the pairs and clears the contamination
    assert n_cl == 3
    assert len(boxes) == 3
    assert discard.size == 0


def test_unresolvable_contamination_raises():
    Xs = _col([0.0, 1.0])
    Ys = _col([0.0, 1.0])
    cfg = ExtractionConfig(n_v=1)
    with pytest.raises(ExtractionConvergenceError) as ei:
        _extract_boxes(Xs, Ys, cfg, TARGET_NON_ANOMALOUS, ())
    assert ei.value.last_n_clusters == 2
    assert len(ei.value.offending_boxes) == 2


def test_zero_discard_factor_never_discards():
    Xs = _col([0.0, 0.001, 0.5])
    Ys = _col([0.5])
    cfg = ExtractionConfig(n_v=2, discard_factor=0.0)
    with pytest.raises(ExtractionConvergenceError):
        _extract_boxes(Xs, Ys, cfg, TARGET_NON_ANOMALOUS, ())


def test_empty_group_yields_nothing():
    boxes, discard, n_cl = _extract_boxes(
        np.empty((0, 2)), np.empty((0, 2)), ExtractionConfig(),
        TARGET_NON_ANOMALOUS, ())
    assert boxes == [] and discard.size == 0 and n_cl == 0


# ---------------------------------------------------------------------------
# End-to-end extraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("target", [TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS])
def test_integer_tokens_mine_the_same_rules_as_strings(grouped_data, target):
    cat = grouped_data.categorical("mode")
    numbers = [int(c) + 7 for c in cat.codes]

    def rulesets(tokens):
        d = Dataset(columns=(("x", NUMERICAL), ("y", NUMERICAL), ("mode", CATEGORICAL)),
                    data={"x": grouped_data.data["x"], "y": grouped_data.data["y"],
                          "mode": tokens},
                    rows=grouped_data.rows)
        model = o.fit_dataset(d, ["x", "y"], ["mode"], nu=0.05,
                              kernel=o.KernelParams(gamma=15.0))
        res = extract_rule_sets(split_by_prediction(d, model), model, target=target)
        return ruleset_to_json(res.ruleset), ruleset_to_json(res.ruleset_scaled), res

    as_int, as_str = rulesets(numbers), rulesets([str(t) for t in numbers])
    assert as_int[:2] == as_str[:2]
    assert as_int[2].stats["n_rules"] > 0
    assert as_int[2].stats == as_str[2].stats
    assert {r.state for r in as_int[2].ruleset.rules} <= {(("mode", "7"),), (("mode", "8"),)}


def test_two_blobs_give_two_exact_rules(blob_data, blob_model):
    split = split_by_prediction(blob_data, blob_model)
    res = extract_rule_sets(split, blob_model)
    rs = res.ruleset
    assert len(rs.rules) == 2
    assert res.stats["n_groups"] == 1
    assert res.discarded_rows == ()

    _, X_na = split
    t_na = synth.plain(X_na)
    for rule in rs.rules:
        members = [i for i in range(X_na.rows)
                   if categorical_reference.rule_matches_row(rule, t_na, i)]
        assert rule.n_points == len(members)
        for k, c in enumerate(rule.columns):
            vals = X_na.data[c][members]
            assert rule.lower[k] == vals.min()
            assert rule.upper[k] == vals.max()


def test_coverage_is_total_after_discards(grouped_data, grouped_model):
    split = split_by_prediction(grouped_data, grouped_model)
    res = extract_rule_sets(split, grouped_model)
    _, X_na = split
    assert res.stats["coverage_pct"] == 100.0
    kept = np.ones(X_na.rows, dtype=bool)
    if res.discarded_rows:
        kept[list(res.discarded_rows)] = False
    cov = covered_mask(res.ruleset, X_na)
    assert np.all(cov[kept])


@pytest.mark.parametrize("target", [TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS])
def test_sweep_calls_kmeans_once_per_k(grouped_data, grouped_model, monkeypatch, target):
    # the paper's linear sweep, through the module-level name that tracing wraps
    calls = []
    inner = rules_module.kmeans_pp

    def counting(X, k, **kwargs):
        calls.append(k)
        return inner(X, k, **kwargs)

    monkeypatch.setattr(rules_module, "kmeans_pp", counting)
    split = split_by_prediction(grouped_data, grouped_model)
    res = extract_rule_sets(split, grouped_model, target=target)
    per_group = res.stats["clusters_per_group"]
    assert calls == [k for n_cl in per_group for k in range(1, n_cl + 1)]
    assert len(calls) == sum(per_group)


def test_no_anomalous_point_satisfies_normal_rules(grouped_data, grouped_model):
    split = split_by_prediction(grouped_data, grouped_model)
    res = extract_rule_sets(split, grouped_model)
    X_a, _ = split
    assert X_a.rows > 0
    hits = covered_mask(res.ruleset, X_a)
    assert not hits.any()
    hits_scaled = covered_mask(
        res.ruleset_scaled,
        o.scale_apply(X_a, grouped_model.scaling))
    assert not hits_scaled.any()


def test_grouped_rules_carry_states(grouped_data, grouped_model):
    rs = extract_rule_sets(split_by_prediction(grouped_data, grouped_model), grouped_model).ruleset
    states = {r.state for r in rs.rules}
    assert (("mode", "on"),) in states
    assert (("mode", "off"),) in states
    for r in rs.rules:
        assert len(r.state) == 1


def test_anomalous_target_rules(grouped_data, grouped_model):
    split = split_by_prediction(grouped_data, grouped_model)
    res = extract_rule_sets(split, grouped_model, target=TARGET_ANOMALOUS)
    assert res.stats["target"] == TARGET_ANOMALOUS
    assert len(res.ruleset.rules) >= 1
    txt = ruleset_to_text(res.ruleset)
    assert txt.startswith("OUTLIER IF ")
    # every anomalous point is covered; discards never happen for this target
    assert res.discarded_rows == ()
    assert res.stats["coverage_pct"] == 100.0


def test_farthest_boxes_nest_inside_full_boxes(blob_data, blob_model):
    full = extract_rule_sets(split_by_prediction(blob_data, blob_model), blob_model).ruleset_scaled
    far = extract_rule_sets(
        split_by_prediction(blob_data, blob_model), blob_model,
        config=ExtractionConfig(box_mode=BOX_FARTHEST, n_v=4)).ruleset_scaled
    assert len(far.rules) == len(full.rules)
    for fr in far.rules:
        inside = any(
            all(bl <= fl and fu <= bu
                for fl, fu, bl, bu in zip(fr.lower, fr.upper, r.lower, r.upper))
            for r in full.rules)
        assert inside


def test_minimum_data_gate():
    pts = np.array([[0.0, 0.0], [0.1, 0.1], [10.0, 10.0]])
    d = synth.matrix_dataset(pts)
    m = o.fit_dataset(d, ["x", "y"], [], nu=0.5, kernel=o.KernelParams(gamma=0.1))
    # fewer normal points than the 2^d minimum for two numerical columns
    with pytest.raises(InsufficientDataError):
        extract_rule_sets(split_by_prediction(d, m), m)


def test_anomalous_target_needs_anomalies():
    # identical points: every decision value is exactly the boundary, which
    # counts as non-anomalous, so there is nothing to describe
    pts = np.array([[1.0, 2.0]] * 5)
    d = synth.matrix_dataset(pts)
    m = o.fit_dataset(d, ["x", "y"], [], nu=0.2, kernel=o.KernelParams(gamma=0.5))
    split = split_by_prediction(d, m)
    X_a, _ = split
    assert X_a.rows == 0
    with pytest.raises(InsufficientDataError):
        extract_rule_sets(split, m, target=TARGET_ANOMALOUS)


def test_per_group_minimum_check():
    rng = np.random.default_rng(12)
    common = rng.normal((0.0, 0.0), 1.0, size=(40, 2))
    rare = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    pts = np.vstack([common, rare])
    group = ["common"] * 40 + ["rare"] * 3
    d = Dataset(
        columns=(("x", NUMERICAL), ("y", NUMERICAL), ("kind", CATEGORICAL)),
        data={"x": pts[:, 0].copy(), "y": pts[:, 1].copy(), "kind": tuple(group)},
        rows=len(pts))
    m = o.fit_dataset(d, ["x", "y"], ["kind"], nu=0.05,
                      kernel=o.KernelParams(gamma=0.001))

    # the rare state must survive the split but stay under the 2^d minimum
    split = split_by_prediction(d, m)
    _, X_na = split
    n_rare = synth.tokens(X_na, "kind").count("rare")
    assert 1 <= n_rare < 4

    res = extract_rule_sets(split, m)  # default: global minimum only
    assert res.stats["n_groups"] == 2
    with pytest.raises(InsufficientDataError):
        extract_rule_sets(split, m, config=ExtractionConfig(per_group_min_check=True))


def test_extraction_requires_preprocessed_model(blob_data):
    X = np.column_stack([blob_data.data["x"], blob_data.data["y"]])
    bare = o.fit(X, nu=0.1, kernel=o.KernelParams(gamma=0.5))
    with pytest.raises(ConfigError):
        extract_rule_sets(split_by_prediction(blob_data, bare), bare)
    m = o.fit_dataset(blob_data, ["x", "y"], [], nu=0.1,
                      kernel=o.KernelParams(gamma=0.5))
    with pytest.raises(ConfigError):
        extract_rule_sets(split_by_prediction(blob_data, m), m, target="both")


def test_extraction_is_deterministic(grouped_data, grouped_model):
    a = extract_rule_sets(split_by_prediction(grouped_data, grouped_model), grouped_model)
    b = extract_rule_sets(split_by_prediction(grouped_data, grouped_model), grouped_model)
    assert ruleset_to_json(a.ruleset) == ruleset_to_json(b.ruleset)
    assert ruleset_to_json(a.ruleset_scaled) == ruleset_to_json(b.ruleset_scaled)
    assert a.stats == b.stats


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def _box_rule(lo, hi, state=()):
    return Rule(state=state, columns=("x", "y"),
                lower=tuple(lo), upper=tuple(hi), n_points=1)


def test_prune_removes_contained_and_duplicate_rules():
    outer = _box_rule((0, 0), (10, 10))
    inner = _box_rule((2, 2), (3, 3))
    dup = _box_rule((0, 0), (10, 10))
    assert prune_survivors([outer, inner, dup]) == [0]
    assert prune_survivors([inner, outer]) == [1]


def test_prune_chain_keeps_only_outermost():
    a = _box_rule((4, 4), (5, 5))
    b = _box_rule((2, 2), (7, 7))
    c = _box_rule((0, 0), (9, 9))
    assert prune_survivors([a, b, c]) == [2]


def test_prune_respects_states():
    on = _box_rule((0, 0), (10, 10), state=(("m", "on"),))
    off_inner = _box_rule((1, 1), (2, 2), state=(("m", "off"),))
    assert prune_survivors([on, off_inner]) == [0, 1]


def test_prune_keeps_partial_overlaps():
    a = _box_rule((0, 0), (5, 5))
    b = _box_rule((3, 3), (8, 8))
    assert prune_survivors([a, b]) == [0, 1]


def test_pruned_set_covers_same_points():
    rng = np.random.default_rng(21)
    rules = []
    for _ in range(30):
        lo = rng.uniform(0, 8, 2)
        hi = lo + rng.uniform(0, 4, 2)
        rules.append(_box_rule(lo.tolist(), hi.tolist()))
    rs = RuleSet(target=TARGET_NON_ANOMALOUS, scaled=False,
                 columns=("x", "y"), rules=tuple(rules))
    pruned = RuleSet(target=rs.target, scaled=rs.scaled, columns=rs.columns,
                     rules=tuple(rules[i] for i in prune_survivors(rules)))
    assert len(pruned.rules) <= len(rs.rules)
    probes = rng.uniform(-1, 13, size=(2000, 2))
    probe_d = synth.matrix_dataset(probes)
    assert np.array_equal(covered_mask(rs, probe_d), covered_mask(pruned, probe_d))


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def test_covered_mask_agrees_with_row_matching(grouped_data, grouped_model):
    rs = extract_rule_sets(split_by_prediction(grouped_data, grouped_model), grouped_model).ruleset
    mask = covered_mask(rs, grouped_data)
    t = synth.plain(grouped_data)
    for i in range(grouped_data.rows):
        row_hit = any(categorical_reference.rule_matches_row(r, t, i) for r in rs.rules)
        assert mask[i] == row_hit


@st.composite
def _rules_and_rows(draw):
    n = draw(st.integers(0, 20))
    grid = st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n)
    data = {"x": np.array(draw(grid)), "y": np.array(draw(grid))}
    cat = [c for c in ("k", "m") if draw(st.booleans())]
    for c in cat:
        data[c] = draw(st.lists(st.sampled_from(["p", "q", ""]), min_size=n, max_size=n))
    columns = (("x", NUMERICAL), ("y", NUMERICAL)) + tuple((c, CATEGORICAL) for c in cat)
    d = Dataset(columns=columns, data=data, rows=n)
    rules = []
    for _ in range(draw(st.integers(0, 8))):
        state = tuple((c, draw(st.sampled_from(["p", "q", "", "unseen"]))) for c in cat)
        lo = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
        hi = tuple(a + draw(st.integers(0, 2)) for a in lo)
        rules.append(Rule(state=state, columns=("x", "y"), lower=tuple(map(float, lo)),
                          upper=tuple(map(float, hi)), n_points=1))
    return d, RuleSet(target=TARGET_NON_ANOMALOUS, scaled=False, columns=("x", "y"),
                      rules=tuple(rules))


@given(_rules_and_rows())
def test_covered_mask_matches_row_reference(case):
    # several rules per state, shared states, and states on no row
    d, rs = case
    t = synth.plain(d)
    want = [any(categorical_reference.rule_matches_row(r, t, i) for r in rs.rules)
            for i in range(d.rows)]
    assert covered_mask(rs, d).tolist() == want


# ---------------------------------------------------------------------------
# Rendering and serialization
# ---------------------------------------------------------------------------

def test_rule_text_plain():
    r = Rule(state=(), columns=("x",), lower=(0.5,), upper=(1.5,), n_points=3)
    assert rule_to_text(r, TARGET_NON_ANOMALOUS) == "NOT OUTLIER IF x ≥ 0.5 ∧ x ≤ 1.5"
    assert rule_to_text(r, TARGET_ANOMALOUS) == "OUTLIER IF x ≥ 0.5 ∧ x ≤ 1.5"


def test_rule_text_includes_state_first():
    r = Rule(state=(("mode", "on"),), columns=("x",), lower=(0.0,),
             upper=(2.0,), n_points=1)
    assert rule_to_text(r, TARGET_NON_ANOMALOUS) == (
        "NOT OUTLIER IF mode = on ∧ x ≥ 0.0 ∧ x ≤ 2.0")


def test_rule_text_decodes_cyclical_pairs():
    cyc = {"hour": CyclicalInfo(period=24.0, sin_col="hour_sin", cos_col="hour_cos")}
    r = Rule(state=(), columns=("hour_sin", "hour_cos", "v"),
             lower=(0.0, 0.0, 1.0), upper=(1.0, 1.0, 2.0), n_points=4)
    text = rule_to_text(r, TARGET_NON_ANOMALOUS, cyc)
    assert text == ("NOT OUTLIER IF hour ≈ [0.0, 6.0] (period 24.0)"
                    " ∧ v ≥ 1.0 ∧ v ≤ 2.0")


def test_ruleset_text_one_line_per_rule(grouped_data, grouped_model):
    rs = extract_rule_sets(split_by_prediction(grouped_data, grouped_model), grouped_model).ruleset
    txt = ruleset_to_text(rs)
    lines = txt.splitlines()
    assert len(lines) == len(rs.rules)
    assert txt.endswith("\n")
    assert all(line.startswith("NOT OUTLIER IF ") for line in lines)


def test_ruleset_json_roundtrip(grouped_data, grouped_model):
    rs = extract_rule_sets(split_by_prediction(grouped_data, grouped_model), grouped_model).ruleset
    text = ruleset_to_json(rs)
    again = ruleset_from_json(text)
    assert again == rs
    assert ruleset_to_json(again) == text


def test_ruleset_json_roundtrip_with_cyclical():
    cyc = {"hour": CyclicalInfo(period=24.0, sin_col="hour_sin", cos_col="hour_cos")}
    rs = RuleSet(
        target=TARGET_ANOMALOUS, scaled=True,
        columns=("hour_sin", "hour_cos"),
        rules=(Rule(state=(("day", "mon"),), columns=("hour_sin", "hour_cos"),
                    lower=(-1.0, -1.0), upper=(1.0, 1.0), n_points=7),),
        cyclical=cyc)
    again = ruleset_from_json(ruleset_to_json(rs))
    assert again == rs


def test_ruleset_json_rejects_unknown_format():
    with pytest.raises(SchemaError):
        ruleset_from_json('{"format": "rule-set/9", "rules": []}')


def _one_rule_doc() -> dict:
    rs = RuleSet(target=TARGET_ANOMALOUS, scaled=False, columns=("x",),
                 rules=(Rule(state=(), columns=("x",), lower=(0.0,), upper=(1.0,),
                             n_points=3),))
    return json.loads(ruleset_to_json(rs))


def test_ruleset_json_rejects_an_infinite_count():
    doc = _one_rule_doc()
    doc["rules"][0]["n_points"] = float("inf")
    with pytest.raises(SchemaError):
        ruleset_from_json(json.dumps(doc))


@pytest.mark.parametrize("field,value", [
    ("lower", [float("nan")]), ("upper", [float("inf")]),
    ("lower", [float("-inf")]), ("n_points", -7), ("n_points", 0),
    ("n_points", True), ("n_points", 2.5), ("n_points", "3"),
], ids=["lower-nan", "upper-inf", "lower-minus-inf", "n_points-negative",
        "n_points-zero", "n_points-bool", "n_points-fraction", "n_points-string"])
def test_ruleset_json_rejects_what_no_cluster_gives(field, value):
    # every box is the bounding box of a non-empty cluster: finite bounds
    # and at least one point
    doc = _one_rule_doc()
    assert ruleset_from_json(json.dumps(doc)).rules[0].n_points == 3
    doc["rules"][0][field] = value
    with pytest.raises(SchemaError):
        ruleset_from_json(json.dumps(doc))

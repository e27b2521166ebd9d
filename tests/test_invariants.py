"""The paper's guarantees on random small data sets, both targets.

Each example draws 20-160 rows of 1-3 numeric columns (normal, small-integer
grid or rounded values, so ties and duplicate rows occur), an optional
categorical column of 1-3 states, an optional period-24 column, and random
nu, gamma and k-means seed. For every extraction it checks:
- every kept target row is covered, in original units;
- no anomalous row lies in a non-anomalous rule, in either unit system;
- the scaled rule set is the original-unit one with each bound scaled, and
  it admits every row of both halves the original-unit one admits. It also
  admits a few rows more where the scaling rounds two distinct values onto
  one float (integer hours 1 and 23 give cosines 2 ulps apart that scale to
  the same number); the test counts those rows and prints the count;
- pruning never changes coverage (the rules mined with pruning off, and the
  survivors pruning keeps of them, cover the same rows and probes);
- coverage_pct is 100 and n_rules <= n_rules_raw;
- the same input twice gives the same rule-set JSON.
A target with too little data (InsufficientDataError) is skipped; the test
prints how many were, and fails if most were. Equal rows get one decision
value, so the two halves of the split share no row, and any other error
fails the test.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import ocsvm_rules.rules as rules_module
from ocsvm_rules.dataset import CATEGORICAL, NUMERICAL, Dataset, scale_apply
from ocsvm_rules.errors import InsufficientDataError
from ocsvm_rules.ocsvm import KernelParams, fit_dataset, split_by_prediction
from ocsvm_rules.rules import (
    TARGET_ANOMALOUS,
    TARGET_NON_ANOMALOUS,
    ExtractionConfig,
    RuleSet,
    covered_mask,
    extract_rule_sets,
    prune_survivors,
    ruleset_to_json,
)

import synth


@st.composite
def _cases(draw):
    """(dataset, numerical names, categorical names, cyclical, nu, gamma, config)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(20, 160))
    columns, data, numerical = [], {}, []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["normal", "grid", "rounded"]))
        v = (rng.normal(0.0, 1.0, n) if kind == "normal"
             else rng.integers(0, 6, n).astype(np.float64) if kind == "grid"
             else np.round(rng.normal(0.0, 2.0, n), 1))
        name = "x%d" % k
        columns.append((name, NUMERICAL))
        data[name] = v
        numerical.append(name)
    cyclical = None
    if draw(st.booleans()):
        columns.append(("hour", NUMERICAL))
        data["hour"] = rng.integers(0, 24, n).astype(np.float64)
        numerical.append("hour")
        cyclical = {"hour": 24.0}
    categorical = []
    n_states = draw(st.integers(0, 3))
    if n_states:
        columns.append(("mode", CATEGORICAL))
        data["mode"] = tuple("s%d" % i for i in rng.integers(0, n_states, n))
        categorical.append("mode")
    d = Dataset(columns=tuple(columns), data=data, rows=n)
    nu = draw(st.floats(0.05, 0.5))
    gamma = draw(st.floats(0.05, 5.0))
    config = ExtractionConfig(seed=draw(st.integers(0, 3)))
    return d, numerical, categorical, cyclical, nu, gamma, config


def _pruned(raw: RuleSet) -> RuleSet:
    return RuleSet(target=raw.target, scaled=raw.scaled, columns=raw.columns,
                   rules=tuple(raw.rules[i] for i in prune_survivors(raw.rules)),
                   cyclical=raw.cyclical)


def _bounds(rs: RuleSet, scaling=None) -> np.ndarray:
    """Each rule's lower and upper bounds as two rows, through scaling if given."""
    B = np.array([b for r in rs.rules for b in (r.lower, r.upper)]).reshape(-1, len(rs.columns))
    if scaling is None:
        return B
    return scale_apply(synth.matrix_dataset(B, rs.columns), scaling).numeric_matrix(rs.columns)


def _rows(half, schema) -> set:
    """The half's rows as (numbers, state tokens) pairs."""
    M = half.numeric_matrix(schema.numerical)
    tokens = [synth.tokens(half, c) for c in schema.categorical]
    return {(tuple(M[i]), tuple(t[i] for t in tokens)) for i in range(half.rows)}


def _check(split, model, target, config, rng, tally):
    X_a, X_na = split
    X_t = X_na if target == TARGET_NON_ANOMALOUS else X_a
    res = extract_rule_sets(split, model, target=target, config=config)
    rs, rs_s = res.ruleset, res.ruleset_scaled
    halves = (X_a, X_na)
    scaled = tuple(scale_apply(h, model.scaling) for h in halves)

    kept = np.ones(X_t.rows, dtype=bool)
    kept[list(res.discarded_rows)] = False
    assert covered_mask(rs, X_t)[kept].all()
    if target == TARGET_NON_ANOMALOUS:
        assert not covered_mask(rs, X_a).any()
        assert not covered_mask(rs_s, scaled[0]).any()
    assert np.array_equal(_bounds(rs_s), _bounds(rs, model.scaling))
    for h, h_s in zip(halves, scaled):
        admits, admits_s = covered_mask(rs, h), covered_mask(rs_s, h_s)
        assert not (admits & ~admits_s).any()
        tally["scaled_only"] += int(np.count_nonzero(admits_s & ~admits))
    assert res.stats["coverage_pct"] == 100.0
    assert res.stats["n_rules"] <= res.stats["n_rules_raw"]

    with mock.patch.object(rules_module, "prune_survivors",
                           lambda rules: list(range(len(rules)))):
        raw = extract_rule_sets(split, model, target=target, config=config).ruleset
    assert len(raw.rules) == res.stats["n_rules_raw"]
    assert _pruned(raw) == rs
    if raw.rules:
        probes = synth.probe_dataset(raw, rng, 2000)
        for rows in (*halves, probes):
            assert np.array_equal(covered_mask(raw, rows), covered_mask(rs, rows))

    again = extract_rule_sets(split, model, target=target, config=config)
    assert ruleset_to_json(again.ruleset) == ruleset_to_json(rs)
    assert ruleset_to_json(again.ruleset_scaled) == ruleset_to_json(rs_s)


def test_paper_invariants_on_random_data(capsys):
    tally = Counter()

    @settings(max_examples=100, deadline=None, database=None)
    @given(_cases())
    def check(case):
        d, numerical, categorical, cyclical, nu, gamma, config = case
        model = fit_dataset(d, numerical, categorical, nu, KernelParams(gamma=gamma),
                            cyclical=cyclical)
        split = split_by_prediction(d, model)
        assert not (_rows(split[0], model.schema) & _rows(split[1], model.schema))
        rng = np.random.default_rng(0)
        checked = 0
        for target in (TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS):
            try:
                _check(split, model, target, config, rng, tally)
            except InsufficientDataError:
                tally["skipped"] += 1
                continue
            checked += 1
        tally["checked"] += checked
        assume(checked > 0)

    check()
    with capsys.disabled():
        print("\ninvariants: %d extractions checked, %d skipped for too little data, "
              "%d rows admitted in scaled units only"
              % (tally["checked"], tally["skipped"], tally["scaled_only"]))
    assert tally["skipped"] < tally["checked"]


def test_equal_rows_near_the_boundary_extract():
    # 147 rows of one integer column 0-3, nu 0.05, gamma 1: the 42 rows
    # x = 3 score within rounding of 0 (0.0 or -1.1e-16 when scored apart),
    # and split across both halves no box could separate them
    rng = np.random.default_rng(2359)
    n = rng.integers(20, 160)
    ncol = rng.integers(1, 3)
    X = rng.integers(0, rng.integers(3, 8), size=(n, ncol))
    nu = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
    gamma = float(rng.choice([0.1, 1.0, 5.0, 20.0]))
    names = tuple("x%d" % k for k in range(ncol))
    d = synth.matrix_dataset(X, names)
    model = fit_dataset(d, names, [], nu, KernelParams(gamma=gamma))
    split = split_by_prediction(d, model)
    assert not (_rows(split[0], model.schema) & _rows(split[1], model.schema))
    rng = np.random.default_rng(0)
    for target in (TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS):
        _check(split, model, target, ExtractionConfig(), rng, Counter())

"""The shared value checks (formats.number, count, strings), the JSON
layout, the rule-set and split readers on random documents and the text of
periodic columns."""

import copy
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocsvm_rules.errors import ConfigError, SchemaError
from ocsvm_rules.formats import (
    TARGET_ANOMALOUS,
    TARGET_NON_ANOMALOUS,
    CyclicalInfo,
    Rule,
    RuleSet,
    _ARC_TOL,
    count,
    json_text,
    number,
    rule_to_text,
    ruleset_from_json,
    ruleset_to_json,
    ruleset_to_text,
    split_from_json,
    split_to_json,
    strings,
)


# ---------------------------------------------------------------------------
# number, count, strings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v", [0, 2, -1.5, 1e300, np.float64(0.25), np.float32(2.0),
                               np.int64(3), Fraction(1, 4), 10 ** 300],
                         ids=["zero", "int", "float", "large", "float64", "float32",
                              "int64", "fraction", "large-int"])
def test_number_takes_finite_reals_as_floats(v):
    got = number(v, "x")
    assert type(got) is float and got == float(v)


@pytest.mark.parametrize("v, message", [
    (True, "x holds True, which is not a number"),
    (False, "x holds False, which is not a number"),
    ("0.5", "x holds '0.5', which is not a number"),
    (None, "x holds None, which is not a number"),
    ([0.5], "x holds [0.5], which is not a number"),
    ({}, "x holds {}, which is not a number"),
    (float("nan"), "x holds a non-finite number"),
    (float("-inf"), "x holds a non-finite number"),
    (10 ** 400, "x holds a non-finite number"),  # beyond the float range
], ids=["true", "false", "text", "null", "list", "object", "nan", "minus-inf", "huge-int"])
def test_number_refuses_what_is_no_finite_number(v, message):
    with pytest.raises(ConfigError) as e:
        number(v, "x")
    assert str(e.value) == message


def test_number_bounds():
    assert number(0, "x", low=0) == 0.0
    assert number(1, "x", above=0, high=1) == 1.0
    for v, bounds, message in [
        (-1, {"low": 0}, "x must be >= 0, got -1.0"),
        (0, {"above": 0}, "x must be > 0, got 0.0"),
        (1.5, {"above": 0, "high": 1}, "x must be > 0 and <= 1, got 1.5"),
        (0.0, {"above": 0, "high": 1}, "x must be > 0 and <= 1, got 0.0"),
    ]:
        with pytest.raises(ConfigError) as e:
            number(v, "x", **bounds)
        assert str(e.value) == message


def test_count_takes_integers_from_the_minimum():
    assert count(np.int64(3), "n", 1) == 3 and type(count(np.int64(3), "n", 1)) is int
    assert count(0, "n", 0) == 0
    assert count(2 ** 80, "n", 2) == 2 ** 80
    for bad in (True, 2.0, "3", None, np.float64(3.0), 0):
        with pytest.raises(ConfigError, match=r"^n must be an integer >= 1, got "):
            count(bad, "n", 1)


def test_strings_takes_lists_of_text():
    assert strings(["a", "b"], "c") == ["a", "b"]
    assert strings(["a", "b"], "c", 2) == ["a", "b"]
    for bad in ("ab", ("a",), ["a", 1], None, ["a"]):
        with pytest.raises(ConfigError, match="^c must be a list of 2 strings"):
            strings(bad, "c", 2)


# ---------------------------------------------------------------------------
# Rule-set documents
# ---------------------------------------------------------------------------

_CYCLICAL = {"h": CyclicalInfo(period=24.0, sin_col="h_sin", cos_col="h_cos")}
_RULESET = RuleSet(
    target=TARGET_NON_ANOMALOUS, scaled=False, columns=("h_sin", "h_cos", "v"),
    rules=(Rule(state=(("m", "on"), ("site", "a")), columns=("h_sin", "h_cos", "v"),
                lower=(-1.0, 0.0, 2.5), upper=(0.5, 1.0, 3.0), n_points=4),
           Rule(state=(("m", "off"), ("site", "a")), columns=("h_sin", "h_cos", "v"),
                lower=(0.0, -0.5, 1.0), upper=(1.0, 0.5, 1.0), n_points=1)),
    cyclical=_CYCLICAL)

# what a mutation puts in place of a node
_ODD_VALUES = [float("nan"), float("inf"), "x", "0.5", "", True, False, None, 0, -1, 2,
               0.75, [], [0.5], ["m", "on"], {}]
# each draw is a copy: a later mutation inside a drawn list or object must not
# change the pool, or replaying an example would draw a different document
_odd_values = st.sampled_from(_ODD_VALUES).map(copy.deepcopy)


def _paths(node, path=()):
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_slot(path) -> bool:
    """Whether the reader needs a number at path: a bound, a count or a period."""
    return (len(path) == 4 and path[0] == "rules" and path[2] in ("lower", "upper")
            or len(path) == 3 and path[0] == "rules" and path[2] == "n_points"
            or len(path) == 3 and path[0] == "cyclical" and path[2] == "period")


@st.composite
def _mutated_ruleset_docs(draw):
    doc = json.loads(ruleset_to_json(_RULESET))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if draw(st.booleans()):
            paths = [p for p in paths if _is_slot(p)] or paths
        if draw(st.integers(0, 3)) == 0:
            path = draw(st.sampled_from([p for p in paths
                                         if isinstance(_at(doc, p[:-1]), dict)] or paths))
            node = _at(doc, path[:-1])
            if isinstance(node, dict):
                del node[path[-1]]
        else:
            path = draw(st.sampled_from(paths))
            _at(doc, path[:-1])[path[-1]] = draw(_odd_values)
    return doc


def _holds_a_non_number(doc) -> bool:
    return any(type(_at(doc, p)) not in (int, float) for p in _paths(doc) if _is_slot(p))


@settings(max_examples=300)
@given(_mutated_ruleset_docs())
def test_ruleset_reader_takes_only_well_typed_documents(doc):
    text = json.dumps(doc)
    try:
        rs = ruleset_from_json(text)
    except SchemaError:
        return
    assert not _holds_a_non_number(doc)
    assert type(rs.scaled) is bool
    assert all(type(c) is str for c in rs.columns)
    for r in rs.rules:
        assert all(type(v) is float and math.isfinite(v) for v in r.lower + r.upper)
        assert type(r.n_points) is int and r.n_points >= 1
        assert all(len(pair) == 2 and all(type(x) is str for x in pair) for pair in r.state)
    assert ruleset_from_json(ruleset_to_json(rs)) == rs


_names = st.text(min_size=1, max_size=4)


@st.composite
def _rulesets(draw):
    columns = tuple(draw(st.lists(_names, min_size=1, max_size=3, unique=True)))
    state_columns = draw(st.lists(_names, max_size=2, unique=True))
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        ends = [sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=2, max_size=2))) for _ in columns]
        rules.append(Rule(state=tuple((c, draw(_names)) for c in state_columns),
                          columns=columns, lower=tuple(lo for lo, _ in ends),
                          upper=tuple(hi for _, hi in ends),
                          n_points=draw(st.integers(1, 10 ** 6))))
    cyclical = {}
    if len(columns) >= 2 and draw(st.booleans()):
        cyclical[draw(_names)] = CyclicalInfo(
            period=draw(st.floats(1e-3, 1e6)), sin_col=columns[0], cos_col=columns[1])
    return RuleSet(target=draw(st.sampled_from([TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS])),
                   scaled=draw(st.booleans()), columns=columns, rules=tuple(rules),
                   cyclical=cyclical)


@given(_rulesets())
def test_ruleset_json_round_trip(rs):
    text = ruleset_to_json(rs)
    back = ruleset_from_json(text)
    assert back == rs
    assert ruleset_to_json(back) == text


# ---------------------------------------------------------------------------
# Periodic columns in rule text
# ---------------------------------------------------------------------------

HOUR = {"hour": CyclicalInfo(period=24.0, sin_col="hour_sin", cos_col="hour_cos")}


def _hour_box(hours, period=24.0):
    """The rule over (hour_sin, hour_cos) that bounds these values, encoded
    as dataset.expand_cyclical encodes them."""
    angles = 2.0 * np.pi * np.asarray(hours, dtype=np.float64) / period
    s, c = np.sin(angles), np.cos(angles)
    return Rule(state=(), columns=("hour_sin", "hour_cos"),
                lower=(float(s.min()), float(c.min())),
                upper=(float(s.max()), float(c.max())), n_points=len(angles))


def _admitted(rule, values, period, tol=0.0):
    angles = 2.0 * np.pi * np.asarray(values, dtype=np.float64) / period
    s, c = np.sin(angles), np.cos(angles)
    return ((s >= rule.lower[0] - tol) & (s <= rule.upper[0] + tol)
            & (c >= rule.lower[1] - tol) & (c <= rule.upper[1] + tol))


def _printed(text):
    return [(float(lo), float(hi)) for lo, hi in re.findall(r"\[([^,\]]+), ([^\]]+)\]", text)]


def _ends(hours):
    text = rule_to_text(_hour_box(hours), TARGET_NON_ANOMALOUS, HOUR)
    return [v for interval in _printed(text) for v in interval]


def test_periodic_text_prints_the_arcs_the_box_admits():
    # hours 22 to 2 pass midnight: two intervals, not their complement
    text = rule_to_text(_hour_box([22, 23, 0, 1, 2]), TARGET_NON_ANOMALOUS, HOUR)
    assert re.fullmatch(r"NOT OUTLIER IF hour ≈ \[\S+, \S+\] ∪ \[\S+, \S+\] \(period 24\.0\)",
                        text)
    assert _ends([22, 23, 0, 1, 2]) == pytest.approx([0.0, 2.0, 22.0, 24.0], abs=1e-12)
    # hours 3 and 21 share their cos, so the box holds just those two; with
    # hour 0 it spans the arc from 21 through midnight to 3
    assert _ends([3, 21]) == pytest.approx([3.0, 3.0, 21.0, 21.0], abs=1e-12)
    assert _ends([3, 21, 0]) == pytest.approx([0.0, 3.0, 21.0, 24.0], abs=1e-12)
    # one hour, and every hour
    assert _ends([5]) == pytest.approx([5.0, 5.0], abs=1e-12)
    assert _ends([0, 6, 12, 18]) == [0.0, 24.0]


def test_periodic_text_keeps_raw_bounds_of_a_box_off_the_circle():
    r = Rule(state=(), columns=("hour_sin", "hour_cos"), lower=(0.9, 0.9),
             upper=(1.0, 1.0), n_points=1)
    assert rule_to_text(r, TARGET_NON_ANOMALOUS, HOUR) == (
        "NOT OUTLIER IF hour_sin ≥ 0.9 ∧ hour_sin ≤ 1.0 ∧ hour_cos ≥ 0.9 ∧ hour_cos ≤ 1.0")


def test_scaled_rule_text_prints_periodic_bounds_as_they_are():
    # min-max-scaled sin and cos are no sin and cos: decoding them as an angle
    # described other hours than the rule admits
    r = Rule(state=(), columns=("hour_sin", "hour_cos"), lower=(0.0, 0.0),
             upper=(1.0, 0.5), n_points=3)
    scaled = RuleSet(target=TARGET_NON_ANOMALOUS, scaled=True, columns=r.columns,
                     rules=(r,), cyclical=HOUR)
    assert ruleset_to_text(scaled) == (
        "NOT OUTLIER IF hour_sin ≥ 0.0 ∧ hour_sin ≤ 1.0 ∧ hour_cos ≥ 0.0 ∧ hour_cos ≤ 0.5\n")
    unscaled = RuleSet(target=TARGET_NON_ANOMALOUS, scaled=False, columns=r.columns,
                       rules=(r,), cyclical=HOUR)
    assert ruleset_to_text(unscaled).startswith("NOT OUTLIER IF hour ≈ [")


@st.composite
def _periodic_clusters(draw):
    period = draw(st.sampled_from([24.0, 7.0, 60.0, 365.0, 1.0]))
    whole = st.integers(0, int(period) - 1).map(float)
    real = st.floats(0.0, period, exclude_max=True)
    values = draw(st.lists(whole | real, min_size=1, max_size=8))
    return period, values


@given(_periodic_clusters())
def test_periodic_text_covers_every_admitted_value(case):
    period, values = case
    rule = _hour_box(values, period)
    info = {"hour": CyclicalInfo(period=period, sin_col="hour_sin", cos_col="hour_cos")}
    intervals = _printed(rule_to_text(rule, TARGET_NON_ANOMALOUS, info))
    assert intervals and all(0.0 <= lo <= hi <= period for lo, hi in intervals)
    assert all(a[1] < b[0] for a, b in zip(intervals, intervals[1:]))
    # near the top or bottom of a sin or cos, a bound within rounding of 1
    # fixes the angle only to about sqrt(2 * _ARC_TOL) radians
    slack = math.sqrt(2.0 * _ARC_TOL) * period / (2.0 * math.pi)
    probes = np.concatenate([values, np.arange(0.0, period, period / 480.0)])
    for v in probes[_admitted(rule, probes, period)]:
        assert any(lo - slack <= v <= hi + slack for lo, hi in intervals), (v, intervals)
    # the midpoint of every printed interval is admitted, up to the
    # rounding of the printed ends back to an angle
    mids = [(lo + hi) / 2.0 for lo, hi in intervals]
    assert _admitted(rule, mids, period, tol=4 * _ARC_TOL).all(), intervals


_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=8))
_json_docs = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300)
@given(_json_docs)
def test_json_text_is_the_layout_of_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_text_writes_keys_and_scalars_as_json_dumps_does():
    doc = {1: [np.float64(0.1), math.inf, -math.inf, math.nan], True: None, 2.5: "é\n",
           None: {"b": (), "a": {}}}
    # json.dumps sorts keys of one type only; these differ in type
    for key, value in doc.items():
        part = {key: value}
        assert json_text(part) == json.dumps(part, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError):
        json_text({"x": object()})


def test_split_round_trip():
    text = split_to_json("ab" * 32, 5, [0, 3])
    assert split_from_json(text) == {"data_sha256": "ab" * 32, "rows": 5, "anomalous": [0, 3]}
    assert json_text(json.loads(text)) == text


# test_cli.py runs a broken document, a wrong format tag and bool, negative,
# out-of-range and unsorted indices through plot
@pytest.mark.parametrize("change", [
    {"data_sha256": 7}, {"rows": -1}, {"rows": True}, {"anomalous": "0"},
    {"anomalous": [3, 3]}, {"anomalous": [1.0]}, {"data_sha256": None, "rows": None},
], ids=lambda change: "%s=%r" % next(iter(change.items())))
def test_split_reader_refuses_a_malformed_document(change):
    doc = dict(json.loads(split_to_json("ab" * 32, 5, [0, 3])), **change)
    with pytest.raises(SchemaError):
        split_from_json(json.dumps({k: v for k, v in doc.items() if v is not None}))

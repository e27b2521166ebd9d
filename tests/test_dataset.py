import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ocsvm_rules.dataset import (
    CATEGORICAL,
    NUMERICAL,
    Dataset,
    build_schema,
    encode_matrix,
    expand_cyclical,
    load_csv,
    scale_apply,
    scale_fit,
    state_mask,
    unique_categorical_states,
)
from ocsvm_rules.errors import ConfigError, ParseError, SchemaError
from ocsvm_rules.formats import expand_numeric_names

import categorical_reference as ref
import synth


def make(rows_x, rows_cat=None):
    cols = [("x", NUMERICAL)]
    data = {"x": np.asarray(rows_x, dtype=np.float64)}
    if rows_cat is not None:
        cols.append(("c", CATEGORICAL))
        data["c"] = tuple(rows_cat)
    return Dataset(columns=tuple(cols), data=data, rows=len(rows_x))


# ---------------------------------------------------------------------------
# Dataset construction
# ---------------------------------------------------------------------------

def test_duplicate_column_names_rejected():
    with pytest.raises(SchemaError):
        Dataset(columns=(("x", NUMERICAL), ("x", NUMERICAL)),
                data={"x": np.zeros(2)}, rows=2)


def test_row_count_mismatch_rejected():
    with pytest.raises(SchemaError):
        Dataset(columns=(("x", NUMERICAL),), data={"x": np.zeros(3)}, rows=2)


def test_non_finite_rejected():
    with pytest.raises(SchemaError):
        make([1.0, math.nan])
    with pytest.raises(SchemaError):
        make([1.0, math.inf])


def test_numeric_arrays_read_only():
    d = make([1.0, 2.0])
    with pytest.raises(ValueError):
        d.data["x"][0] = 5.0


def test_take_with_mask_and_index():
    d = make([1.0, 2.0, 3.0], ["a", "b", "c"])
    sub = d.take(np.array([True, False, True]))
    assert list(sub.data["x"]) == [1.0, 3.0]
    assert synth.tokens(sub, "c") == ("a", "c")
    sub2 = d.take(np.array([2, 0]))
    assert list(sub2.data["x"]) == [3.0, 1.0]
    assert sub2.rows == 2


@pytest.mark.parametrize("empty", [[], (), np.zeros(0, dtype=int), np.zeros(0, dtype=bool)],
                         ids=["list", "tuple", "int-array", "bool-array"])
def test_take_nothing_gives_zero_rows(empty):
    d = make([1.0, 2.0, 3.0], ["a", "b", "c"])
    sub = d.take(empty)
    assert sub.rows == 0
    assert sub.data["x"].shape == (0,)
    assert synth.tokens(sub, "c") == ()
    assert sub.numeric_matrix(["x"]).shape == (0, 1)


def test_numeric_matrix_column_order():
    d = Dataset(columns=(("a", NUMERICAL), ("b", NUMERICAL)),
                data={"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, rows=2)
    M = d.numeric_matrix(["b", "a"])
    assert M.tolist() == [[3.0, 1.0], [4.0, 2.0]]


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,c,ignored\n1.5,on,zzz\n2.5,off,zzz\n", encoding="utf-8")
    d = load_csv(p, ["x"], ["c"])
    assert d.rows == 2
    assert list(d.data["x"]) == [1.5, 2.5]
    assert synth.tokens(d, "c") == ("on", "off")
    assert "ignored" not in d.column_names


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x\n1\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_csv(p, ["x", "y"], [])


def test_load_csv_bad_number_has_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x\n1\nfoo\n", encoding="utf-8")
    with pytest.raises(ParseError) as ei:
        load_csv(p, ["x"], [])
    assert "row 2" in str(ei.value)
    assert "'x'" in str(ei.value)


def test_load_csv_non_finite_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x\ninf\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_csv(p, ["x"], [])


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_csv(p, ["x"], [])


def test_load_csv_duplicate_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,x\n1,2\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_csv(p, ["x"], [])


def test_load_csv_short_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(ParseError) as ei:
        load_csv(p, ["x", "y"], [])
    assert "row 2" in str(ei.value)


def test_load_csv_skips_blank_records(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x\n1\n\n2\n", encoding="utf-8")
    assert load_csv(p, ["x"], []).rows == 2


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

def test_scale_maps_to_unit_interval():
    d = make([2.0, 4.0, 6.0])
    p = scale_fit(d, ["x"])
    s = scale_apply(d, p)
    assert list(s.data["x"]) == [0.0, 0.5, 1.0]


def test_degenerate_column_scales_to_zero_and_unscales_to_min():
    d = make([3.0, 3.0])
    p = scale_fit(d, ["x"])
    assert p.per_column["x"].degenerate
    assert list(scale_apply(d, p).data["x"]) == [0.0, 0.0]
    assert p.per_column["x"].min == 3.0


@given(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=30).filter(
    lambda v: min(v) < max(v)))
def test_scale_value_stays_in_unit_interval_on_training_range(vals):
    d = make(vals)
    p = scale_fit(d, ["x"])
    for sv in scale_apply(d, p).data["x"]:
        assert 0.0 <= sv <= 1.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20).filter(
    lambda v: min(v) < max(v)),
    st.floats(-1e6, 1e6))
def test_scale_is_weakly_monotone(vals, probe):
    d = make(vals)
    p = scale_fit(d, ["x"])
    lo, hi = min(vals), max(vals)
    # any value between two training values scales between their images
    if lo <= probe <= hi:
        s_lo, s_probe, s_hi = scale_apply(make([lo, probe, hi]), p).data["x"]
        assert s_lo <= s_probe <= s_hi


def test_scale_unknown_column():
    p = scale_fit(make([1.0, 2.0]), ["x"])
    other = Dataset(columns=(("nope", NUMERICAL),), data={"nope": np.array([0.5])}, rows=1)
    with pytest.raises(SchemaError):
        scale_apply(other, p)


# ---------------------------------------------------------------------------
# Cyclical encoding
# ---------------------------------------------------------------------------

@given(st.floats(0, 1000), st.floats(0.1, 500))
def test_cyclical_roundtrip_modulo_period(v, period):
    e, _ = expand_cyclical(make([v]), {"x": period})
    angle = 2.0 * math.pi * v / period
    assert e.data["x_sin"][0] == pytest.approx(math.sin(angle), abs=1e-12)
    assert e.data["x_cos"][0] == pytest.approx(math.cos(angle), abs=1e-12)


def test_cyclical_bad_period():
    with pytest.raises(ConfigError):
        expand_cyclical(make([1.0]), {"x": 0.0})


def test_expand_cyclical_replaces_column_in_place():
    d = Dataset(columns=(("h", NUMERICAL), ("x", NUMERICAL)),
                data={"h": np.array([0.0, 6.0]), "x": np.array([1.0, 2.0])}, rows=2)
    e, info = expand_cyclical(d, {"h": 24.0})
    assert e.column_names == ("h_sin", "h_cos", "x")
    assert info["h"].period == 24.0
    assert e.data["h_cos"][0] == pytest.approx(1.0)
    assert e.data["h_sin"][1] == pytest.approx(1.0)
    assert expand_numeric_names(["h", "x"], info) == ("h_sin", "h_cos", "x")


def test_expand_cyclical_collision():
    d = Dataset(columns=(("h", NUMERICAL), ("h_sin", NUMERICAL)),
                data={"h": np.zeros(1), "h_sin": np.zeros(1)}, rows=1)
    with pytest.raises(SchemaError):
        expand_cyclical(d, {"h": 24.0})


def test_expand_cyclical_unknown_column():
    d = make([1.0])
    with pytest.raises(SchemaError):
        expand_cyclical(d, {"nope": 7.0})


@pytest.mark.parametrize("call, message", [
    (lambda d: d.kind_of("nope"), "unknown column 'nope'"),
    (lambda d: d.numeric_matrix(["x", "c"]), "column 'c' is not numerical"),
    (lambda d: scale_fit(d, ["c"]), "cannot fit scaling on non-numerical column 'c'"),
    (lambda d: scale_fit(d.take([]), ["x"]), "cannot fit scaling on empty column 'x'"),
    (lambda d: expand_cyclical(d, {"c": 24.0}), "cyclical column 'c' must be numerical"),
], ids=["kind_of", "numeric_matrix", "scale_fit-categorical", "scale_fit-empty",
        "expand_cyclical-categorical"])
def test_column_refusals_name_the_column(call, message):
    with pytest.raises(SchemaError) as e:
        call(make([1.0, 2.0], ["a", "b"]))
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# Categorical states
# ---------------------------------------------------------------------------

def test_unique_states_first_appearance_order():
    d = make([1.0, 2.0, 3.0, 4.0], ["b", "a", "b", "c"])
    states = unique_categorical_states(d, ["c"])
    assert states == [(("c", "b"),), (("c", "a"),), (("c", "c"),)]


def test_state_mask_and_filter():
    d = make([1.0, 2.0, 3.0], ["a", "b", "a"])
    m = state_mask(d, (("c", "a"),))
    assert m.tolist() == [True, False, True]


def test_unique_states_requires_categorical():
    d = make([1.0], ["a"])
    with pytest.raises(SchemaError):
        unique_categorical_states(d, ["x"])
    # no categorical column: every row is in the one empty state
    assert unique_categorical_states(d, []) == [()]


# '' and non-ASCII tokens, one with a trailing NUL, and orders where sorted
# order differs from first appearance; "unseen" is never a token
TOKENS = ["", "a", "b", "B", "z", "\u00e9", "\u03a9", "\u65e5\u672c", "a\x00", " a", "10", "9"]


def _case(x, cat_columns, fit_rows, index):
    columns = [("x", NUMERICAL)] + [(c, CATEGORICAL) for c in cat_columns]
    data = {"x": np.asarray(x, dtype=np.float64), **cat_columns}
    return tuple(columns), data, len(x), np.asarray(fit_rows, dtype=bool), \
        np.asarray(index, dtype=np.intp)


@st.composite
def categorical_cases(draw):
    n = draw(st.integers(0, 24))
    x = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    cat_columns = {}
    for j in range(draw(st.integers(0, 3))):
        alphabet = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5, unique=True))
        cat_columns["c%d" % j] = draw(st.lists(st.sampled_from(alphabet),
                                               min_size=n, max_size=n))
    # the levels are fitted on fit_rows, so the other rows may hold unseen tokens
    fit_rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    index = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    return _case(x, cat_columns, fit_rows, index)


@given(categorical_cases())
@example(_case([], {"c0": [], "c1": []}, [], []))
@example(_case([1.0, 2.0, 3.0], {"c0": ["z", "", "z"]}, [True, True, False], [2, 0, 2]))
@example(_case([1.0, 2.0, 3.0, 4.0], {"c0": ["\u03a9", "\u00e9", "b", "\u00e9"],
                                      "c1": ["q", "q", "q", "q"]},
               [False, True, False, True], [3, 1]))
def test_categorical_ops_match_token_reference(case):
    columns, data, n, fit_rows, index = case
    d = Dataset(columns=columns, data=data, rows=n)
    t = ref.Table(columns=columns, rows=n, data={
        c: data[c] if k == NUMERICAL else tuple(data[c]) for c, k in columns})
    l_c = [c for c, k in columns if k == CATEGORICAL]

    for sel in (fit_rows, index):
        got, want = d.take(sel), ref.take(t, sel)
        assert got.rows == want.rows
        assert np.array_equal(got.data["x"], want.data["x"])
        for c in l_c:
            assert synth.tokens(got, c) == want.data[c]

    fit, t_fit = d.take(fit_rows), ref.take(t, fit_rows)
    probes = [()]
    if l_c:
        for cols in (l_c, l_c[::-1], l_c[-1:]):
            states = unique_categorical_states(d, cols)
            assert states == ref.unique_categorical_states(t, cols)
            assert unique_categorical_states(fit, cols) == \
                ref.unique_categorical_states(t_fit, cols)
            probes += states + [s[:1] + tuple((c, "unseen") for c in cols[1:]) for s in states]
        probes.append(((l_c[0], "unseen"),))
    # fit holds every level of d, some of them on no row
    for dd, tt in ((d, t), (fit, t_fit)):
        for s in probes:
            assert np.array_equal(state_mask(dd, s), ref.state_mask(tt, s))

    schema = build_schema(fit, ["x"], l_c)
    assert schema.levels == ref.schema_levels(t_fit, l_c)
    for dd, tt in ((d, t), (fit, t_fit)):
        got, want = encode_matrix(dd, schema), ref.encode_matrix(tt, schema)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Schema and encoding
# ---------------------------------------------------------------------------

def test_encode_matrix_layout_and_levels_sorted():
    d = make([1.0, 3.0], ["z", "a"])
    schema = build_schema(d, ["x"], ["c"])
    assert schema.levels["c"] == ("a", "z")
    assert schema.feature_names() == ["x", "c=a", "c=z"]
    M = encode_matrix(d, schema)
    assert M.tolist() == [[1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]


def test_encode_matrix_unseen_token_all_zeros():
    train = make([1.0], ["a"])
    schema = build_schema(train, ["x"], ["c"])
    other = make([2.0], ["mystery"])
    M = encode_matrix(other, schema)
    assert M.tolist() == [[2.0, 0.0]]


def test_build_schema_kind_mismatch():
    d = make([1.0], ["a"])
    with pytest.raises(SchemaError):
        build_schema(d, ["c"], [])
    with pytest.raises(SchemaError):
        build_schema(d, ["x"], ["x"])

"""The artifact and input formats, in pure Python: the CSV dataset's columns,
rule sets and their JSON and text, the model document and its checks, the
split document (which rows the detector predicts anomalous), the
preprocessing a model carries (``FeatureSchema``, ``ScalingParams``,
``CyclicalInfo`` and the (sin, cos) columns of a periodic one) and the
extraction settings (``ExtractionConfig``). No numpy here, so ``report`` and
``plot``, which only read files, start without it; the computing modules
import these back.

This module owns the value checks every reader and API entry point shares:
``number`` (a finite real number within bounds), ``count`` (an integer from a
minimum) and ``strings`` (a list of strings). Configs, artifacts and the fitting
functions call them, so one value is judged the same way everywhere. Every
JSON artifact gets its layout from ``json_text``. Modules that a command
needs only sometimes (csv, hashlib) are imported by the function that uses
them, so importing this module stays cheap.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError, SchemaError

TARGET_NON_ANOMALOUS = "non_anomalous"
TARGET_ANOMALOUS = "anomalous"

BOX_ALL = "all"
BOX_FARTHEST = "farthest"

RULESET_FORMAT = "rule-set/1"
MODEL_FORMAT = "ocsvm-model/1"
SPLIT_FORMAT = "split/1"


def _scalar(v) -> str:
    """The JSON text of a str, None, bool, int or float, as json.dumps writes it."""
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    if isinstance(v, str):
        return json.encoder.encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError("Object of type %s is not JSON serializable" % type(v).__name__)


def json_text(doc) -> str:
    """The text of a JSON artifact: doc with sorted keys, indented by 2, and a
    final newline, byte for byte json.dumps(doc, indent=2, sort_keys=True)
    plus "\\n".

    The layout comes from an explicit stack of what is left to write, not
    from recursion, so a document nests to any depth: a surrogate tree grown
    as one chain of splits nests once per split. doc must be a tree of dicts,
    lists, tuples and scalars; a container holding itself would never end.
    """
    out: list[str] = []
    # what is left to write, the next last: text, or (value, "\n" + its indent)
    todo: list = [(doc, "\n")]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, newline = item
        if isinstance(v, dict):
            opening, closing = "{", "}"
            # a key that is no string is written as the string of its JSON text
            entries = [(_scalar(k if isinstance(k, str) else _scalar(k)) + ": ", value)
                       for k, value in sorted(v.items())]
        elif isinstance(v, (list, tuple)):
            opening, closing = "[", "]"
            entries = [("", value) for value in v]
        else:
            out.append(_scalar(v))
            continue
        inner = newline + "  "
        if not entries:
            out.append(opening + closing)
        elif not any(isinstance(value, (dict, list, tuple)) for _, value in entries):
            # no container inside (a support vector, say): one piece
            out.append(opening + inner + ("," + inner).join(
                key + _scalar(value) for key, value in entries) + newline + closing)
        else:
            todo.append(newline + closing)
            for k in range(len(entries) - 1, -1, -1):
                key, value = entries[k]
                todo += [(value, inner), ("," if k else opening) + inner + key]
    return "".join(out) + "\n"


def number(v, what: str, *, low=None, above=None, high=None) -> float:
    """v as a float; ConfigError naming what unless v is a real number, not a
    bool, finite (an int too large for a float is not), and low <= v,
    above < v and v <= high for each bound given."""
    if type(v) is not float:  # the common case skips the abstract-class check
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ConfigError("%s holds %r, which is not a number" % (what, v))
        try:
            v = float(v)
        except OverflowError:
            v = math.inf
    if not math.isfinite(v):
        raise ConfigError("%s holds a non-finite number" % what)
    if ((low is not None and v < low) or (above is not None and v <= above)
            or (high is not None and v > high)):
        bounds = " and ".join("%s %r" % (op, b) for op, b in
                              ((">=", low), (">", above), ("<=", high)) if b is not None)
        raise ConfigError("%s must be %s, got %r" % (what, bounds, v))
    return v


def count(v, what: str, minimum: int) -> int:
    """v as an int; ConfigError naming what unless v is an integer (numpy's
    register as numbers.Integral), not a bool, and >= minimum."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
        raise ConfigError("%s must be an integer >= %d, got %r" % (what, minimum, v))
    return int(v)


def strings(v, what: str, size: int | None = None) -> list:
    """v as given; ConfigError naming what unless v is a list of strings, of
    length size if one is given. Text is not a list: "x" is not ["x"]."""
    if (not isinstance(v, list) or not all(isinstance(s, str) for s in v)
            or (size is not None and len(v) != size)):
        raise ConfigError("%s must be a list of %sstrings, got %r"
                          % (what, "" if size is None else "%d " % size, v))
    return v


# ---------------------------------------------------------------------------
# The CSV dataset
# ---------------------------------------------------------------------------

def read_csv_table(path, numerical, categorical) -> tuple[int, dict, dict]:
    """(rows, numerical values, categorical tokens) of a CSV file with a header row.

    Each dict maps a declared column, in the order given, to its cells in row
    order: floats for a numerical column, the raw text for a categorical one.
    Other file columns are ignored and blank records skipped. Raises
    SchemaError for a column declared twice, a duplicate header name or a
    declared column the header lacks, and ParseError for an empty file, a
    short row or a numerical cell that is not a finite number. OSError and
    UnicodeDecodeError from reading the file propagate.
    """
    import csv

    numerical = list(numerical)
    categorical = list(categorical)
    declared = numerical + categorical
    if len(set(declared)) != len(declared):
        raise SchemaError("columns declared twice: %r" % sorted(
            {c for c in declared if declared.count(c) > 1}))

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: %s" % path) from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise SchemaError("duplicate header names %r in %s" % (dupes, path))
        missing = [c for c in declared if c not in header]
        if missing:
            raise SchemaError("declared columns missing from %s: %r" % (path, missing))
        pos = {c: header.index(c) for c in declared}

        num_vals = {c: [] for c in numerical}
        cat_vals = {c: [] for c in categorical}
        rows = 0
        for i, record in enumerate(reader, start=1):
            if not record:
                continue
            if len(record) < len(header):
                raise ParseError("row %d of %s has %d fields, header has %d"
                                 % (i, path, len(record), len(header)))
            for c in numerical:
                token = record[pos[c]].strip()
                try:
                    v = float(token)
                except ValueError:
                    raise ParseError(
                        "row %d, column %r: cannot parse %r as a number" % (i, c, token)
                    ) from None
                if not math.isfinite(v):
                    raise ParseError(
                        "row %d, column %r: non-finite value %r" % (i, c, token))
                num_vals[c].append(v)
            for c in categorical:
                cat_vals[c].append(record[pos[c]])
            rows += 1
    return rows, num_vals, cat_vals


def file_sha256(path) -> str:
    """The hex sha256 of the file's bytes."""
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# A categorical state is an ordered tuple of (column, token) pairs, one pair
# per categorical column; () is the one state of data with no categorical
# column. States compare by exact token equality.
CategoricalState = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ColumnScale:
    min: float
    max: float
    degenerate: bool  # true iff min == max


@dataclass(frozen=True)
class ScalingParams:
    """Per-column min/max fitted on training data."""

    per_column: dict  # name -> ColumnScale


@dataclass(frozen=True)
class CyclicalInfo:
    period: float
    sin_col: str
    cos_col: str


def cyclical_columns(values, period: float) -> tuple[list, list]:
    """The sin and cos columns that replace a periodic column: for each value
    v, math.sin and math.cos of the angle 2 pi v / period."""
    angles = [2.0 * math.pi * v / period for v in values]
    return [math.sin(a) for a in angles], [math.cos(a) for a in angles]


def expand_numeric_names(l_n, info: dict) -> tuple[str, ...]:
    """Numeric column list with each periodic column (a key of info, an
    original-name -> CyclicalInfo map) replaced by its (sin, cos) pair."""
    out = []
    for name in l_n:
        if name in info:
            out.append(info[name].sin_col)
            out.append(info[name].cos_col)
        else:
            out.append(name)
    return tuple(out)


def cyclical_to_doc(cyclical: dict) -> dict:
    """The JSON form of an original-name -> CyclicalInfo map."""
    return {name: {"period": info.period, "sin": info.sin_col, "cos": info.cos_col}
            for name, info in cyclical.items()}


def cyclical_from_doc(doc: dict) -> dict:
    """Inverse of cyclical_to_doc; ConfigError unless each period is a finite
    number > 0, SchemaError unless each column name is a string."""
    out = {}
    for name, spec in doc.items():
        period, sin_col, cos_col = spec["period"], spec["sin"], spec["cos"]
        number(period, "period of cyclical column %r" % name, above=0)
        if not isinstance(sin_col, str) or not isinstance(cos_col, str):
            raise SchemaError("malformed cyclical entry %r: %r" % (name, spec))
        out[name] = CyclicalInfo(period=period, sin_col=sin_col, cos_col=cos_col)
    return out


@dataclass(frozen=True)
class FeatureSchema:
    """Column roles plus one-hot levels, fixed at fit time.

    ``numerical`` reflects any cyclical expansion already applied. Levels are
    sorted so the encoded feature order does not depend on row order.
    """

    numerical: tuple[str, ...]
    categorical: tuple[str, ...]
    levels: dict  # categorical column -> tuple of tokens, sorted
    cyclical: dict = field(default_factory=dict)  # original column -> CyclicalInfo

    def feature_names(self) -> list[str]:
        names = list(self.numerical)
        for c in self.categorical:
            names.extend("%s=%s" % (c, tok) for tok in self.levels[c])
        return names


@dataclass(frozen=True)
class KernelParams:
    gamma: float

    def __post_init__(self):
        number(self.gamma, "gamma", above=0)


# ---------------------------------------------------------------------------
# The model document
# ---------------------------------------------------------------------------

def model_to_json(m) -> str:
    """The ocsvm-model document of m, an OcsvmModel fitted with its preprocessing."""
    if m.schema is None or m.scaling is None:
        raise ConfigError("only models with attached preprocessing serialize")
    return json_text({
        "format": MODEL_FORMAT,
        "nu": m.nu,
        "gamma": m.kernel.gamma,
        "rho": m.rho,
        "n_train": m.n_train,
        "alphas": [float(a) for a in m.alphas],
        "support_vectors": [[float(v) for v in row] for row in m.support_vectors],
        "schema": {
            "numerical": list(m.schema.numerical),
            "categorical": list(m.schema.categorical),
            "levels": {c: list(toks) for c, toks in m.schema.levels.items()},
            "cyclical": cyclical_to_doc(m.schema.cyclical),
        },
        "scaling": {
            c: {"min": sc.min, "max": sc.max, "degenerate": sc.degenerate}
            for c, sc in m.scaling.per_column.items()
        },
    })


def model_doc(text: str) -> dict:
    """The checked fields of an ocsvm-model document; SchemaError for any other text.

    A number here is a JSON int or float, not a bool, and finite: rho, nu,
    gamma (> 0), each alpha, each support-vector entry and each scaling
    bound must be one. The numerical and categorical columns and each
    column's levels are lists of strings. The alphas are a non-empty list,
    the support vectors one list of n_features numbers per alpha, and
    n_train an integer >= 2 and >= the support-vector count. The scaling
    holds exactly the numerical columns, each degenerate exactly when
    min == max. The checks run in the former numpy reader's order, so a
    document it refused for any other fault gets the same message. The
    result holds OcsvmModel's fields, the support vectors and alphas as the
    document's lists.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SchemaError("expected a JSON object, got %s" % type(doc).__name__)
        if doc.get("format") != MODEL_FORMAT:
            raise SchemaError("unsupported model format: %r" % doc.get("format"))
        sd = doc["schema"]
        schema = FeatureSchema(
            numerical=tuple(strings(sd["numerical"], "schema.numerical")),
            categorical=tuple(strings(sd["categorical"], "schema.categorical")),
            levels={c: tuple(strings(toks, "levels of %r" % c))
                    for c, toks in sd["levels"].items()},
            cyclical=cyclical_from_doc(sd.get("cyclical", {})),
        )
        scaling = ScalingParams(per_column={
            c: ColumnScale(min=s["min"], max=s["max"], degenerate=s["degenerate"])
            for c, s in doc["scaling"].items()
        })
        n_features = len(schema.feature_names())
        sv, alphas = doc["support_vectors"], doc["alphas"]
        if not (isinstance(alphas, list) and alphas and isinstance(sv, list)
                and len(sv) == len(alphas)
                and all(isinstance(row, list) and len(row) == n_features for row in sv)):
            raise SchemaError("alphas must be a non-empty list and support_vectors one "
                              "list of %d numbers per alpha" % n_features)
        n_train = doc["n_train"]
        try:
            count(n_train, "n_train", max(2, len(alphas)))
        except ConfigError:
            raise SchemaError("n_train must be an integer >= 2 and >= the %d support "
                              "vectors, got %r" % (len(alphas), n_train)) from None
        rho, nu = doc["rho"], doc["nu"]
        bounds = [v for sc in scaling.per_column.values() for v in (sc.min, sc.max)]
        for what, values in (("rho", [rho]), ("nu", [nu]), ("alphas", alphas),
                             ("support_vectors", [v for row in sv for v in row]),
                             ("scaling", bounds)):
            for v in values:
                number(v, what)
        if set(scaling.per_column) != set(schema.numerical):
            raise SchemaError("scaling covers %s, not the numerical columns %s"
                              % (sorted(scaling.per_column), list(schema.numerical)))
        for c, sc in scaling.per_column.items():
            if sc.degenerate is not (sc.min == sc.max):
                raise SchemaError("scaling of %r: degenerate must be %s, got %r"
                                  % (c, sc.min == sc.max, sc.degenerate))
        kernel = KernelParams(gamma=number(doc["gamma"], "gamma"))
    except KeyError as e:
        raise SchemaError("model has no field %s" % e) from None
    except (ValueError, TypeError, AttributeError, OverflowError, ConfigError) as e:
        raise SchemaError(str(e)) from None
    return {"support_vectors": sv, "alphas": alphas, "rho": float(rho), "nu": float(nu),
            "kernel": kernel, "n_train": n_train, "schema": schema, "scaling": scaling}


# ---------------------------------------------------------------------------
# The split document
# ---------------------------------------------------------------------------

def split_to_json(data_sha256: str, rows: int, anomalous) -> str:
    """The split document: of the rows of the dataset whose bytes have the
    sha256 data_sha256, the ascending indices the detector predicts anomalous."""
    return json_text({"format": SPLIT_FORMAT, "data_sha256": data_sha256, "rows": rows,
                      "anomalous": list(anomalous)})


def split_from_json(text: str) -> dict:
    """The fields of a split document; SchemaError for any other text.

    data_sha256 is a string, rows an integer >= 0 and anomalous a list of
    integers (a JSON int, not a bool), strictly ascending within [0, rows).
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SchemaError("expected a JSON object, got %s" % type(doc).__name__)
        if doc.get("format") != SPLIT_FORMAT:
            raise SchemaError("unsupported split format: %r" % doc.get("format"))
        digest, rows, anomalous = doc["data_sha256"], doc["rows"], doc["anomalous"]
        if not isinstance(digest, str):
            raise SchemaError("data_sha256 must be a string, got %r" % (digest,))
        count(rows, "rows", 0)
        if not isinstance(anomalous, list):
            raise SchemaError("anomalous must be a list of row indices, got %r"
                              % (anomalous,))
        last = -1
        for i in anomalous:
            if type(i) is not int or not last < i < rows:
                raise SchemaError("anomalous rows must be integers ascending within "
                                  "[0, %d), got %r after %r" % (rows, i, last))
            last = i
    except KeyError as e:
        raise SchemaError("split has no field %s" % e) from None
    except (ValueError, ConfigError) as e:
        raise SchemaError(str(e)) from None
    return {"data_sha256": digest, "rows": rows, "anomalous": anomalous}


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
        number(self.discard_factor, "discard_factor", low=0)
        for name in ("literal_cluster_threshold", "per_group_min_check"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError("%s must be true or false, got %r" % (name, getattr(self, name)))
        for name, minimum in (("n_v", 1), ("max_clusters", 1), ("seed", 0),
                              ("n_init", 1), ("kmeans_max_iter", 1)):
            v = getattr(self, name)
            if not (v is None and name in ("n_v", "max_clusters")):
                count(v, name, minimum)


def state_text(state: CategoricalState) -> str:
    """The state as "c=t, ..." in its column order; "<none>" for the empty state."""
    return ", ".join("%s=%s" % (c, t) for c, t in state) if state else "<none>"


# ---------------------------------------------------------------------------
# Rendering and serialization
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


# How far a sin or cos value may lie outside a bound and still count as in
# it: the rounding of math.sin, cos, asin and acos, a few ulps of 1.0.
_ARC_TOL = 4 * math.ulp(1.0)


def _cyclical_arcs(s_lo: float, s_hi: float, c_lo: float, c_hi: float,
                   period: float) -> list:
    """The [start, end] intervals of values in [0, period] whose (sin, cos)
    pair lies in the box, ascending, each with start <= end.

    The circle is cut at 0 and wherever sin or cos meets a bound. Between
    two cuts every bound holds everywhere or nowhere, so a piece is in the
    box when its midpoint is; each cut point is tested on its own, which
    keeps a single value such as one hour. Neighbouring pieces and points in
    the box merge, and the cut at 0 splits an arc that passes 0.
    """
    turn = 2.0 * math.pi
    cuts = {0.0}
    for b in (s_lo, s_hi):
        if -1.0 <= b <= 1.0:
            cuts.update((math.asin(b), math.pi - math.asin(b)))
    for b in (c_lo, c_hi):
        if -1.0 <= b <= 1.0:
            cuts.update((math.acos(b), -math.acos(b)))
    # a hair under 0 wraps to a full turn, which is the cut at 0 again
    cuts = sorted({a % turn for a in cuts} - {turn})
    arcs: list = []
    for a, b in zip(cuts, cuts[1:] + [turn]):
        for lo, hi in ((a, a), (a, b)):  # the cut point, then the piece after it
            mid = (lo + hi) / 2.0
            if not (s_lo - _ARC_TOL <= math.sin(mid) <= s_hi + _ARC_TOL
                    and c_lo - _ARC_TOL <= math.cos(mid) <= c_hi + _ARC_TOL):
                continue
            if arcs and arcs[-1][1] == lo:
                arcs[-1][1] = hi
            else:
                arcs.append([lo, hi])
    return [(lo / turn * period, hi / turn * period) for lo, hi in arcs]


def _cyclical_display(rule: Rule, cyclical: dict):
    """Per sin-column rendered text plus the set of columns it consumed.

    A periodic column's (sin, cos) bounds print as the intervals of values
    in [0, period] whose pair lies in the box, ascending: "hour ≈ [0.0, 2.0]
    ∪ [22.0, 24.0]" for a box around midnight. A pair counts as in the box
    up to _ARC_TOL, a few ulps, so each printed end lies within rounding of
    a value the box admits. A box that admits no value keeps its raw sin and
    cos bounds; the stored bounds stay in (sin, cos) space.
    """
    rendered, consumed = {}, set()
    idx = {c: k for k, c in enumerate(rule.columns)}
    for orig, info in (cyclical or {}).items():
        if info.sin_col not in idx or info.cos_col not in idx:
            continue
        si, ci = idx[info.sin_col], idx[info.cos_col]
        arcs = _cyclical_arcs(rule.lower[si], rule.upper[si], rule.lower[ci],
                              rule.upper[ci], info.period)
        if not arcs:
            continue
        rendered[info.sin_col] = "%s ≈ %s (period %s)" % (orig, " ∪ ".join(
            "[%s, %s]" % (_fmt(lo), _fmt(hi)) for lo, hi in arcs), _fmt(info.period))
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
    """One rule_to_text line per rule. Only an original-unit set decodes its
    periodic pairs: a scaled set's bounds are min-max-scaled, not sin and cos,
    so it prints them as they are."""
    cyclical = {} if rs.scaled else rs.cyclical
    lines = [rule_to_text(r, rs.target, cyclical) for r in rs.rules]
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
    return json_text(doc)


def _rule_from_doc(rd: dict, columns: tuple[str, ...]) -> Rule:
    """One rule of a rule-set document: the bounding box of a non-empty cluster.

    Raises unless the state is a list of [column, token] string pairs, each
    bound a number and n_points an integer >= 1; ruleset_from_json reports
    each refusal as a SchemaError.
    """
    state = rd["state"]
    if not isinstance(state, list):
        raise SchemaError("state must be a list of [column, token] pairs, got %r" % (state,))
    return Rule(state=tuple(tuple(strings(pair, "state pair", 2)) for pair in state),
                columns=columns,
                lower=tuple(number(v, "rule bound") for v in rd["lower"]),
                upper=tuple(number(v, "rule bound") for v in rd["upper"]),
                n_points=count(rd["n_points"], "n_points", 1))


def ruleset_from_json(text: str) -> RuleSet:
    """Inverse of ruleset_to_json; SchemaError for any other text.

    A number here is a JSON int or float, not a bool, and finite: each rule
    bound must be one. columns is a list of strings, each state a list of
    [column, token] string pairs, n_points an integer >= 1 and scaled a bool.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SchemaError("expected a JSON object, got %s" % type(doc).__name__)
        if doc.get("format") != RULESET_FORMAT:
            raise SchemaError("unsupported rule set format: %r" % doc.get("format"))
        columns = tuple(strings(doc["columns"], "columns"))
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

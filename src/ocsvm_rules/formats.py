"""The artifact and config formats, in pure Python: rule sets and their JSON
and text, the model document's checks, the preprocessing a model carries
(``FeatureSchema``, ``ScalingParams``, ``CyclicalInfo``) and the extraction
settings (``ExtractionConfig``). No numpy here, so ``report``, which only
reads artifacts, starts without it; the computing modules import these back.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from .errors import ConfigError, SchemaError

TARGET_NON_ANOMALOUS = "non_anomalous"
TARGET_ANOMALOUS = "anomalous"

BOX_ALL = "all"
BOX_FARTHEST = "farthest"

RULESET_FORMAT = "rule-set/1"
MODEL_FORMAT = "ocsvm-model/1"

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


def cyclical_decode(s: float, c: float, period: float) -> float:
    """The value whose expand_cyclical pair is (s, c); result lies in [0, period)."""
    if period <= 0:
        raise ConfigError("cyclical period must be positive, got %r" % period)
    if s == 0.0 and c == 0.0:
        raise ConfigError("cannot decode (0, 0): angle undefined")
    frac = math.atan2(s, c) / (2.0 * math.pi)
    out = (frac % 1.0) * period
    # a hair under a full turn can round up to the period itself
    return 0.0 if out >= period else out


@dataclass(frozen=True)
class CyclicalInfo:
    period: float
    sin_col: str
    cos_col: str


def cyclical_to_doc(cyclical: dict) -> dict:
    """The JSON form of an original-name -> CyclicalInfo map."""
    return {name: {"period": info.period, "sin": info.sin_col, "cos": info.cos_col}
            for name, info in cyclical.items()}


def cyclical_from_doc(doc: dict) -> dict:
    """Inverse of cyclical_to_doc; SchemaError unless each period is a finite
    number > 0 and each column name a string."""
    out = {}
    for name, spec in doc.items():
        period, sin_col, cos_col = spec["period"], spec["sin"], spec["cos"]
        if (isinstance(period, bool) or not isinstance(period, (int, float))
                or not 0 < period < math.inf or not isinstance(sin_col, str)
                or not isinstance(cos_col, str)):
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
        if not 0 < self.gamma < math.inf:
            raise ConfigError("gamma must be positive and finite, got %r" % self.gamma)


# ---------------------------------------------------------------------------
# The model document
# ---------------------------------------------------------------------------

def _float_array(value) -> tuple[tuple[int, ...], list[float]]:
    """(shape, floats in C order) of np.array(value, dtype=np.float64): lists
    nest as numpy finds them, None is nan, any other leaf goes through float().
    A ragged nesting raises numpy's ValueError before any leaf is converted."""
    shape: list[int] = []
    ragged = reached = False  # reached: a leaf or an empty list fixed the depth

    def walk(x, depth: int, max_dims: int) -> int:
        nonlocal ragged, reached
        if not isinstance(x, list):
            ragged |= depth > max_dims or (depth < max_dims and reached)
            reached = True
            return min(max_dims, depth)
        if depth + 1 > max_dims or (reached and shape[depth] != len(x)):
            ragged = True
            return min(max_dims, depth)
        if not reached:
            shape[depth:] = [len(x)]
        if not x:
            reached = True
            return depth + 1
        for item in x:
            max_dims = walk(item, depth + 1, max_dims)
        return max_dims

    ndim = walk(value, 0, 64)
    if ragged:
        raise ValueError("setting an array element with a sequence. The requested array "
                         "has an inhomogeneous shape after %d dimensions. The detected "
                         "shape was %s + inhomogeneous part." % (ndim, tuple(shape[:ndim])))
    leaves = [value]
    for _ in range(ndim):
        leaves = [v for x in leaves for v in x]
    return tuple(shape[:ndim]), [math.nan if v is None else float(v) for v in leaves]


def model_doc(text: str) -> dict:
    """The checked fields of an ocsvm-model document; SchemaError for any other text.

    Every number the model scores with (rho, nu, gamma, the alphas, the
    support vectors and the scaling bounds) must be finite, and n_train must
    be an integer >= 2 and >= the support-vector count. The scaling holds
    exactly the numerical columns, each degenerate exactly when min == max.
    The result holds OcsvmModel's fields, the support vectors and alphas as
    the document's lists.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SchemaError("expected a JSON object, got %s" % type(doc).__name__)
        if doc.get("format") != MODEL_FORMAT:
            raise SchemaError("unsupported model format: %r" % doc.get("format"))
        schema = FeatureSchema(
            numerical=tuple(doc["schema"]["numerical"]),
            categorical=tuple(doc["schema"]["categorical"]),
            levels={c: tuple(toks) for c, toks in doc["schema"]["levels"].items()},
            cyclical=cyclical_from_doc(doc["schema"].get("cyclical", {})),
        )
        scaling = ScalingParams(per_column={
            c: ColumnScale(min=s["min"], max=s["max"], degenerate=s["degenerate"])
            for c, s in doc["scaling"].items()
        })
        n_features = len(schema.feature_names())
        sv_shape, sv = _float_array(doc["support_vectors"])
        alphas_shape, alphas = _float_array(doc["alphas"])
        if len(alphas_shape) != 1 or sv_shape != (len(alphas), n_features):
            raise SchemaError("support vectors of shape %s do not match %d alphas "
                              "and %d features" % (sv_shape, len(alphas), n_features))
        n_train = doc["n_train"]
        if (isinstance(n_train, bool) or not isinstance(n_train, int)
                or n_train < max(2, len(alphas))):
            raise SchemaError("n_train must be an integer >= 2 and >= the %d support "
                              "vectors, got %r" % (len(alphas), n_train))
        rho, nu = float(doc["rho"]), float(doc["nu"])
        bounds = [v for sc in scaling.per_column.values() for v in (sc.min, sc.max)]
        for what, values in (("rho", [rho]), ("nu", [nu]), ("alphas", alphas),
                             ("support_vectors", sv), ("scaling", bounds)):
            if not all(isinstance(v, (int, float)) for v in values):
                raise SchemaError("%s holds a value that is not a number" % what)
            if not all(map(math.isfinite, values)):
                raise SchemaError("%s holds a non-finite number" % what)
        if set(scaling.per_column) != set(schema.numerical):
            raise SchemaError("scaling covers %s, not the numerical columns %s"
                              % (sorted(scaling.per_column), list(schema.numerical)))
        for c, sc in scaling.per_column.items():
            if sc.degenerate is not (sc.min == sc.max):
                raise SchemaError("scaling of %r: degenerate must be %s, got %r"
                                  % (c, sc.min == sc.max, sc.degenerate))
        kernel = KernelParams(gamma=float(doc["gamma"]))
    except KeyError as e:
        raise SchemaError("model has no field %s" % e) from None
    except (ValueError, TypeError, AttributeError, OverflowError, ConfigError) as e:
        raise SchemaError(str(e)) from None
    return {"support_vectors": doc["support_vectors"], "alphas": doc["alphas"],
            "rho": rho, "nu": nu, "kernel": kernel, "n_train": n_train,
            "schema": schema, "scaling": scaling}


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
            # numpy's integer types register as numbers.Integral
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
                raise ConfigError("%s must be an integer >= %d, got %r" % (name, minimum, v))


def state_text(state: CategoricalState) -> str:
    """The state as "c=t, ..." in its column order; "<none>" for the empty state."""
    return ", ".join("%s=%s" % (c, t) for c, t in state) if state else "<none>"


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

"""Columnar dataset handling: CSV ingestion, typing, scaling, encodings.

A ``Dataset`` keeps numerical columns as read-only float arrays and each
categorical column as a ``Categorical``: read-only int32 codes into the
column's sorted levels. The constructor takes a categorical column as a
sequence of tokens and encodes it once; row subsets keep the codes and share
the levels. Tokens come back only where they leave the program: states,
one-hot level names and the JSON formats. All operations return new objects;
nothing mutates in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, SchemaError
from .formats import (
    CategoricalState, ColumnScale, CyclicalInfo, FeatureSchema, ScalingParams, count,
    cyclical_columns, number, read_csv_table,
)

NUMERICAL = "numerical"
CATEGORICAL = "categorical"


@dataclass(frozen=True, eq=False)
class Categorical:
    """One categorical column: a read-only int32 code per row into levels.

    ``levels`` is sorted and distinct. A row subset keeps its parent's
    levels, so a level need not occur in any row.
    """

    codes: np.ndarray
    levels: tuple

    def __post_init__(self):
        self.codes.flags.writeable = False

    @classmethod
    def from_tokens(cls, tokens) -> "Categorical":
        """Encode each token as the string str(token)."""
        tokens = [str(t) for t in tokens]
        levels = tuple(sorted(set(tokens)))
        code = {t: k for k, t in enumerate(levels)}
        return cls(np.fromiter((code[t] for t in tokens), dtype=np.int32,
                               count=len(tokens)), levels)

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def _code(self) -> dict:
        return {t: k for k, t in enumerate(self.levels)}

    def code_of(self, token) -> int:
        """The token's code, or -1 (which no row has) if it is not a level."""
        return self._code.get(token, -1)


@dataclass(frozen=True)
class Dataset:
    """Typed columnar table. Numerical cells are finite floats."""

    columns: tuple[tuple[str, str], ...]  # (name, kind) in declaration order
    data: dict = field(repr=False)  # name -> ndarray (numerical) | Categorical
    rows: int

    def __post_init__(self):
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names: %r" % (sorted(names),))
        data = dict(self.data)
        object.__setattr__(self, "data", data)
        for name, kind in self.columns:
            col = data[name]
            if kind == CATEGORICAL and not isinstance(col, Categorical):
                col = data[name] = Categorical.from_tokens(col)
            if len(col) != self.rows:
                raise SchemaError(
                    "column %r has %d entries, expected %d" % (name, len(col), self.rows)
                )
            if kind == NUMERICAL:
                if not np.all(np.isfinite(col)):
                    raise SchemaError("column %r contains non-finite values" % name)
                col.flags.writeable = False

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.columns)

    def kind_of(self, name: str) -> str:
        for n, k in self.columns:
            if n == name:
                return k
        raise SchemaError("unknown column %r" % name)

    def categorical(self, name: str) -> Categorical:
        if self.kind_of(name) != CATEGORICAL:
            raise SchemaError("column %r is not categorical" % name)
        return self.data[name]

    def numeric_matrix(self, cols) -> np.ndarray:
        """Rows-by-columns float matrix over the given numerical columns."""
        for c in cols:
            if self.kind_of(c) != NUMERICAL:
                raise SchemaError("column %r is not numerical" % c)
        if not cols:
            return np.empty((self.rows, 0), dtype=np.float64)
        return np.column_stack([self.data[c] for c in cols]).astype(np.float64, copy=False)

    def take(self, mask_or_index) -> "Dataset":
        """Row subset preserving order; accepts a bool mask or index array."""
        idx = np.asarray(mask_or_index)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        elif idx.size == 0:
            idx = np.zeros(0, dtype=np.intp)  # np.asarray([]) is float64
        new = {}
        for name, kind in self.columns:
            col = self.data[name]
            if kind == NUMERICAL:
                new[name] = col[idx]
            else:
                new[name] = Categorical(col.codes[idx], col.levels)
        return Dataset(columns=self.columns, data=new, rows=int(len(idx)))

    def row_mask(self, rows) -> np.ndarray:
        """Bool mask over the rows, True at each index in rows; ConfigError unless
        every index is an integer (not a bool) in [0, self.rows): none wraps around."""
        mask = np.zeros(self.rows, dtype=bool)
        for i in rows:
            if count(i, "row index", 0) >= self.rows:
                raise ConfigError("row index %r is out of range for %d rows" % (i, self.rows))
            mask[i] = True
        return mask


def load_csv(path, numerical, categorical, data=None) -> Dataset:
    """Read a CSV file with a header row into a typed Dataset.

    ``numerical`` and ``categorical`` list the columns to ingest; other file
    columns are ignored. Numerical cells must parse as finite numbers.
    formats.read_csv_table reads and checks the file, or data, its bytes
    if already read.
    """
    rows, num_vals, cat_vals = read_csv_table(path, numerical, categorical, data)
    columns = tuple([(c, NUMERICAL) for c in num_vals] + [(c, CATEGORICAL) for c in cat_vals])
    data = {c: np.array(v, dtype=np.float64) for c, v in num_vals.items()}
    data.update((c, Categorical.from_tokens(v)) for c, v in cat_vals.items())
    return Dataset(columns=columns, data=data, rows=rows)


# ---------------------------------------------------------------------------
# Min-max scaling
# ---------------------------------------------------------------------------

def scale_fit(d: Dataset, l_n) -> ScalingParams:
    per = {}
    for c in l_n:
        if d.kind_of(c) != NUMERICAL:
            raise SchemaError("cannot fit scaling on non-numerical column %r" % c)
        col = d.data[c]
        if len(col) == 0:
            raise SchemaError("cannot fit scaling on empty column %r" % c)
        lo = float(col.min())
        hi = float(col.max())
        per[c] = ColumnScale(min=lo, max=hi, degenerate=lo == hi)
    return ScalingParams(per_column=per)


def scale_apply(d: Dataset, p: ScalingParams) -> Dataset:
    """Map the fitted columns to [0, 1]; degenerate columns map to 0."""
    data = dict(d.data)
    for c, sc in p.per_column.items():
        if c not in d.data or d.kind_of(c) != NUMERICAL:
            raise SchemaError("scaling params reference column %r not numerical in dataset" % c)
        col = d.data[c]
        if sc.degenerate:
            data[c] = np.zeros_like(col)
        else:
            data[c] = (col - sc.min) / (sc.max - sc.min)
    return Dataset(columns=d.columns, data=data, rows=d.rows)


# ---------------------------------------------------------------------------
# Cyclical encoding
# ---------------------------------------------------------------------------

def expand_cyclical(d: Dataset, periods: dict) -> tuple[Dataset, dict]:
    """Replace each periodic column with its (sin, cos) pair, the values of
    formats.cyclical_columns.

    Returns the expanded dataset and a map original-name -> CyclicalInfo for
    later display decoding.
    """
    info = {}
    columns = []
    data = {}
    for name, kind in d.columns:
        if name in periods:
            if kind != NUMERICAL:
                raise SchemaError("cyclical column %r must be numerical" % name)
            period = number(periods[name], "cyclical period for %r" % name, above=0)
            sin_name = name + "_sin"
            cos_name = name + "_cos"
            if sin_name in d.data or cos_name in d.data:
                raise SchemaError("cyclical expansion of %r collides with existing column" % name)
            columns.append((sin_name, NUMERICAL))
            columns.append((cos_name, NUMERICAL))
            sin, cos = cyclical_columns(d.data[name].tolist(), period)
            data[sin_name] = np.array(sin, dtype=np.float64)
            data[cos_name] = np.array(cos, dtype=np.float64)
            info[name] = CyclicalInfo(period=period, sin_col=sin_name, cos_col=cos_name)
        else:
            columns.append((name, kind))
            data[name] = d.data[name]
    unknown = set(periods) - {n for n, _ in d.columns}
    if unknown:
        raise SchemaError("cyclical columns not in dataset: %r" % sorted(unknown))
    return Dataset(columns=tuple(columns), data=data, rows=d.rows), info


def ensure_expanded(d: Dataset, schema: FeatureSchema) -> Dataset:
    """Expand periodic columns unless the dataset already carries the pairs."""
    names = set(d.column_names)
    periods = {}
    for orig, info in schema.cyclical.items():
        if info.sin_col in names and info.cos_col in names:
            continue
        periods[orig] = info.period
    if not periods:
        return d
    expanded, _ = expand_cyclical(d, periods)
    return expanded


# ---------------------------------------------------------------------------
# Categorical states
# ---------------------------------------------------------------------------

def unique_categorical_states(d: Dataset, l_c) -> list[CategoricalState]:
    """Distinct combinations of categorical values, in first-appearance order.

    With no columns, every row is in the one state ().
    """
    l_c = list(l_c)
    cols = [d.categorical(c) for c in l_c]
    key = np.zeros(d.rows, dtype=np.int64)
    for col in cols:
        # renumber the key densely first, so packing one more column cannot overflow
        key = np.unique(key, return_inverse=True)[1] * len(col.levels) + col.codes
    first = np.sort(np.unique(key, return_index=True)[1])
    return [tuple((c, col.levels[col.codes[i]]) for c, col in zip(l_c, cols))
            for i in first]


def state_mask(d: Dataset, state: CategoricalState) -> np.ndarray:
    """Boolean mask of rows matching the state on every listed column."""
    mask = np.ones(d.rows, dtype=bool)
    for col, token in state:
        cat = d.categorical(col)
        mask &= cat.codes == cat.code_of(token)
    return mask


# ---------------------------------------------------------------------------
# Feature schema and model-matrix encoding
# ---------------------------------------------------------------------------

def build_schema(d: Dataset, l_n, l_c, cyclical=None) -> FeatureSchema:
    levels = {}
    for c in l_c:
        cat = d.categorical(c)
        # bincount, not np.unique: the first np.unique imports numpy.ma (1.4 MB)
        present = np.bincount(cat.codes, minlength=len(cat.levels))
        levels[c] = tuple(t for t, n in zip(cat.levels, present) if n)
    for c in l_n:
        if d.kind_of(c) != NUMERICAL:
            raise SchemaError("column %r is not numerical" % c)
    return FeatureSchema(
        numerical=tuple(l_n),
        categorical=tuple(l_c),
        levels=levels,
        cyclical=dict(cyclical or {}),
    )


def encode_matrix(d: Dataset, schema: FeatureSchema) -> np.ndarray:
    """Numerical columns followed by 0/1 one-hot indicators per level.

    Tokens unseen at fit time encode as all-zeros for that column.
    """
    blocks = [d.numeric_matrix(schema.numerical)]
    for c in schema.categorical:
        cat = d.categorical(c)
        fitted = schema.levels[c]
        pos = {t: k for k, t in enumerate(fitted)}
        # row k of the table is level k's indicators; the last row, all zeros,
        # stands for every token that was not a level at fit time
        table = np.eye(len(fitted) + 1, len(fitted))
        column_of = np.array([pos.get(t, len(fitted)) for t in cat.levels], dtype=np.intp)
        blocks.append(table[column_of[cat.codes]])
    return np.hstack(blocks)

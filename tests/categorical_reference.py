"""Reference categorical handling: the tuple-of-token versions the dataset used.

``state_mask``, ``unique_categorical_states``, ``take``, ``encode_matrix``,
``schema_levels`` and ``rule_matches_row`` (with ``rule_contains_vector``)
are the former loops over tuples of string tokens, kept verbatim as a slow,
obviously-correct oracle for the integer-code representation. They work on
a ``Table``: numerical columns as float arrays and categorical columns as
plain sequences of tokens. ``take`` was a ``Dataset`` method and
``schema_levels`` the level line of ``build_schema``; the schema and rule
arguments are only read through their attributes, so the module imports
nothing from ``ocsvm_rules``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NUMERICAL = "numerical"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Table:
    columns: tuple  # (name, kind) in declaration order
    data: dict = field(repr=False)  # name -> ndarray (numerical) | tuple of tokens
    rows: int

    def kind_of(self, name: str) -> str:
        for n, k in self.columns:
            if n == name:
                return k
        raise ValueError("unknown column %r" % name)

    def numeric_matrix(self, cols) -> np.ndarray:
        for c in cols:
            if self.kind_of(c) != NUMERICAL:
                raise ValueError("column %r is not numerical" % c)
        if not cols:
            return np.empty((self.rows, 0), dtype=np.float64)
        return np.column_stack([self.data[c] for c in cols]).astype(np.float64)


def take(self: Table, mask_or_index) -> Table:
    """Row subset preserving order; accepts a bool mask or index array."""
    idx = np.asarray(mask_or_index)
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    new = {}
    for name, kind in self.columns:
        col = self.data[name]
        if kind == NUMERICAL:
            new[name] = np.array(col)[idx]
        else:
            new[name] = tuple(col[i] for i in idx)
    return Table(columns=self.columns, data=new, rows=int(len(idx)))


def unique_categorical_states(d: Table, l_c) -> list:
    """Distinct combinations of categorical values, in first-appearance order."""
    l_c = list(l_c)
    if not l_c:
        raise ValueError("unique_categorical_states requires at least one categorical column")
    for c in l_c:
        if d.kind_of(c) != CATEGORICAL:
            raise ValueError("column %r is not categorical" % c)
    seen = {}
    for i in range(d.rows):
        state = tuple((c, d.data[c][i]) for c in l_c)
        if state not in seen:
            seen[state] = True
    return list(seen)


def state_mask(d: Table, state) -> np.ndarray:
    """Boolean mask of rows matching the state on every listed column."""
    mask = np.ones(d.rows, dtype=bool)
    for col, token in state:
        values = d.data[col]
        mask &= np.fromiter((v == token for v in values), dtype=bool, count=d.rows)
    return mask


def schema_levels(d: Table, l_c) -> dict:
    return {c: tuple(sorted(set(d.data[c]))) for c in l_c}


def encode_matrix(d: Table, schema) -> np.ndarray:
    """Numerical columns followed by 0/1 one-hot indicators per level.

    Tokens unseen at fit time encode as all-zeros for that column.
    """
    blocks = [d.numeric_matrix(schema.numerical)]
    for c in schema.categorical:
        tokens = d.data[c]
        for level in schema.levels[c]:
            blocks.append(
                np.fromiter((1.0 if t == level else 0.0 for t in tokens),
                            dtype=np.float64, count=d.rows).reshape(-1, 1))
    return np.hstack(blocks) if blocks else np.empty((d.rows, 0))


def rule_contains_vector(rule, vec) -> bool:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (len(rule.columns),):
        raise ValueError("expected %d values, got %s" % (len(rule.columns), vec.shape))
    return bool(np.all((vec >= np.asarray(rule.lower)) & (vec <= np.asarray(rule.upper))))


def rule_matches_row(rule, d: Table, i: int) -> bool:
    for col, token in rule.state:
        if d.data[col][i] != token:
            return False
    return rule_contains_vector(rule, [d.data[c][i] for c in rule.columns])

"""Deterministic synthetic datasets shared across the test suite."""

import csv

import numpy as np

from ocsvm_rules.dataset import CATEGORICAL, NUMERICAL, Dataset

import categorical_reference


def matrix_dataset(pts, names=("x", "y")) -> Dataset:
    pts = np.asarray(pts, dtype=np.float64)
    cols = tuple((n, NUMERICAL) for n in names)
    data = {n: pts[:, i].copy() for i, n in enumerate(names)}
    return Dataset(columns=cols, data=data, rows=pts.shape[0])


def gaussian_cloud(n: int = 500, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2))


def two_blobs(seed: int = 7):
    """Two tight blobs at (0,0) and (10,10) plus one point midway.

    With nu=0.02 and gamma=20 the midpoint is the clear outlier and each
    blob yields exactly one box.
    """
    rng = np.random.default_rng(seed)
    blob1 = rng.normal((0, 0), 0.5, size=(60, 2))
    blob2 = rng.normal((10, 10), 0.5, size=(60, 2))
    pts = np.vstack([blob1, blob2, [[5.0, 5.0]]])
    return matrix_dataset(pts)


BLOB_NU = 0.02
BLOB_GAMMA = 20.0


def hourly(seed: int = 17) -> Dataset:
    """80 rows of an hour of day (a periodic column) and a value, whose
    first two rows are unambiguous outliers."""
    rng = np.random.default_rng(seed)
    hours = rng.integers(0, 24, size=80).astype(np.float64)
    v = rng.normal(0.0, 1.0, size=80)
    v[:2] = 40.0
    return matrix_dataset(np.column_stack([hours, v]), names=("hour", "v"))


HOURLY_COLUMNS = {"numerical": ["hour", "v"], "categorical": [], "cyclical": {"hour": 24}}
HOURLY_OCSVM = {"nu": 0.05, "gamma": 0.5}


def seismic_like(seed: int = 11) -> Dataset:
    """669 rows of two heavily skewed features: three dense log-normal
    modes, three sparse far clumps, and uniform scatter between them."""
    rng = np.random.default_rng(seed)
    bulk1 = np.exp(rng.normal([7.0, 2.2], [0.45, 0.35], size=(305, 2)))
    bulk2 = np.exp(rng.normal([8.6, 3.6], [0.4, 0.3], size=(203, 2)))
    bulk3 = np.exp(rng.normal([7.8, 4.4], [0.35, 0.2], size=(121, 2)))
    c1 = rng.normal([4.0e4, 900.0], [6e3, 150.0], size=(8, 2))
    c2 = rng.normal([2.8e4, 300.0], [4e3, 60.0], size=(8, 2))
    c3 = rng.normal([1.5e4, 1400.0], [2.5e3, 120.0], size=(8, 2))
    sc = np.column_stack([rng.uniform(5e3, 5e4, 16), rng.uniform(1.0, 2000.0, 16)])
    pts = np.abs(np.vstack([bulk1, bulk2, bulk3, c1, c2, c3, sc]))
    return matrix_dataset(pts, names=("energy", "pulses"))


def grouped_dataset(seed: int = 3) -> Dataset:
    """Two categorical groups with distinct numeric ranges plus outliers."""
    rng = np.random.default_rng(seed)
    a = rng.normal((2, 2), 0.4, size=(80, 2))
    b = rng.normal((8, 8), 0.4, size=(80, 2))
    out = np.array([[5.0, 5.0], [5.2, 4.8], [-3.0, 9.0], [11.0, -1.0]])
    pts = np.vstack([a, b, out])
    group = ["on"] * 80 + ["off"] * 80 + ["on", "off", "on", "off"]
    return Dataset(
        columns=(("x", NUMERICAL), ("y", NUMERICAL), ("mode", CATEGORICAL)),
        data={"x": pts[:, 0].copy(), "y": pts[:, 1].copy(), "mode": tuple(group)},
        rows=len(pts))


def states_matrix(seed: int = 5, rows: int = 5000) -> np.ndarray:
    """An encoded matrix shaped like the states benchmark input (rows x 18):
    one Gaussian blob (sigma 0.4) per (site, shift) state on a grid of
    spacing 3, min-max scaled, beside the one-hot columns of 12 sites and 4
    shifts."""
    rng = np.random.default_rng(seed)
    site, shift = rng.integers(0, 12, rows), rng.integers(0, 4, rows)
    pts = np.column_stack([3.0 * site, 3.0 * shift]) + rng.normal(0.0, 0.4, (rows, 2))
    pts = (pts - pts.min(axis=0)) / np.ptp(pts, axis=0)
    return np.column_stack([pts, np.eye(12)[site], np.eye(4)[shift]])


def tokens(d: Dataset, name: str) -> tuple:
    """The tokens of a categorical column, one per row."""
    col = d.data[name]
    return tuple(col.levels[k] for k in col.codes)


def plain(d: Dataset) -> categorical_reference.Table:
    """The same rows as a reference table with categorical columns as tokens."""
    data = {n: tokens(d, n) if k == CATEGORICAL else d.data[n] for n, k in d.columns}
    return categorical_reference.Table(columns=d.columns, data=data, rows=d.rows)


def write_csv(path, d: Dataset):
    t = plain(d)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        names = list(d.column_names)
        w.writerow(names)
        for i in range(d.rows):
            row = []
            for n in names:
                v = t.data[n][i]
                row.append(repr(float(v)) if d.kind_of(n) == NUMERICAL else v)
            w.writerow(row)


def probe_dataset(rs, rng, n_probes: int) -> Dataset:
    """n_probes rows drawn uniformly around the rule set's boxes, padded by a
    quarter of each span, with a random state of the rules' (or "other")."""
    lows = np.array([r.lower for r in rs.rules])
    highs = np.array([r.upper for r in rs.rules])
    lo = lows.min(axis=0)
    hi = highs.max(axis=0)
    pad = np.maximum(hi - lo, 1.0) * 0.25
    M = rng.uniform(lo - pad, hi + pad, size=(n_probes, len(rs.columns)))
    cols = [(c, NUMERICAL) for c in rs.columns]
    data = {c: M[:, k].copy() for k, c in enumerate(rs.columns)}
    states = sorted({r.state for r in rs.rules})
    for col in {c for s in states for c, _ in s}:
        tokens = sorted({t for s in states for c, t in s if c == col} | {"other"})
        picks = rng.integers(0, len(tokens), size=n_probes)
        data[col] = tuple(tokens[i] for i in picks)
        cols.append((col, CATEGORICAL))
    return Dataset(columns=tuple(cols), data=data, rows=n_probes)

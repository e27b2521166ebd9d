"""The per-k cluster check as it was before it was vectorised.

``check_step`` is the body of the former loop in ``rules._extract_boxes``,
copied verbatim apart from taking the configuration as arguments: for each
cluster it takes the members with ``np.flatnonzero``, builds the box, and
asks ``contains_any`` whether a point of the other class lies inside. It
imports nothing from ``ocsvm_rules``, so tests can hold the vectorised check
in ``rules._check_clusters`` to exactly these results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TARGET_ANOMALOUS = "anomalous"
BOX_FARTHEST = "farthest"


def bounding_box(points) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("bounding_box needs a non-empty 2-D point set")
    return points.min(axis=0), points.max(axis=0)


def contains_any(lower, upper, points) -> bool:
    """True if any row of points lies inside the closed box."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        return False
    inside = np.all((points >= np.asarray(lower)) & (points <= np.asarray(upper)), axis=1)
    return bool(inside.any())


@dataclass
class Box:
    lower: np.ndarray
    upper: np.ndarray
    members: np.ndarray      # every point of the originating cluster
    bounds_idx: np.ndarray   # the points whose coordinates set the bounds


def box_for_cluster(Xs: np.ndarray, members: np.ndarray, center: np.ndarray,
                    mode: str, n_v: int) -> Box:
    if mode == BOX_FARTHEST and members.size > n_v:
        d2 = np.sum((Xs[members] - center) ** 2, axis=1)
        order = np.argsort(-d2, kind="stable")  # ties resolve to lowest index
        idx = np.sort(members[order[:n_v]])
    else:
        idx = members
    lo, hi = bounding_box(Xs[idx])
    return Box(lower=lo, upper=hi, members=members, bounds_idx=idx)


def check_step(Xs, Ys, labels, centers, n_cl, *, box_mode, n_v, discard_factor,
               literal_cluster_threshold, target):
    """(boxes, discard, offending, retry) for one clustering with n_cl centres."""
    boxes: list[Box] = []
    discard: list[np.ndarray] = []
    offending = []
    retry = False
    for c in range(n_cl):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            continue
        box = box_for_cluster(Xs, members, centers[c], box_mode, n_v)
        if not contains_any(box.lower, box.upper, Ys):
            boxes.append(box)
            continue
        limit = discard_factor * (n_cl if literal_cluster_threshold else n_v)
        if members.size >= n_v or members.size > limit:
            retry = True
            offending.append(box)
        elif target == TARGET_ANOMALOUS:
            # describing anomalies: a few stray normal points inside the
            # box are tolerated rather than dropping the cluster
            boxes.append(box)
        else:
            discard.append(members)
    return boxes, discard, offending, retry

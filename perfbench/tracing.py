"""Spans around the calls into each package module, from outside the package.

The modules import names by value, so each wrapper replaces a name where its
caller looks it up: ``rules.kmeans_pp`` is the k-means that rule extraction
calls, ``cli.load_csv`` the loader the commands call, and so on. Spans stay
in memory (name, start, end, parent, run id and what the call returned) and
are written out when the benchmark ends. ``installed`` puts the original
functions back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self, run: int = 0):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.run = run

    @contextlib.contextmanager
    def span(self, name: str):
        s = {"id": len(self.spans), "name": name, "run": self.run,
             "parent": self._stack[-1]["id"] if self._stack else None,
             "start": time.perf_counter(), "end": None}
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if observe is not None:
                    s.update(observe(args, out))
                return out
        return traced


def _prune_pairs(args, keep) -> dict:
    # the survivor test compares every pair of rules of one state: sum of m^2
    return {"pairs": sum(m * m for m in Counter(r.state for r in args[0]).values())}


def _targets():
    """(owner, attribute, span name, observe) for every wrapped call."""
    from ocsvm_rules import cli, dataset, ocsvm, rules, surrogate

    serialise = [(cli, f, "cli.serialise", None) for f in
                 ("model_to_json", "ruleset_to_json", "ruleset_to_text", "tree_to_json")]
    encode = [(m, "encode_matrix", "dataset.encode_matrix", None)
              for m in (ocsvm, surrogate, cli)]
    return [
        (cli, "load_csv", "dataset.load_csv", lambda a, d: {"rows": d.rows}),
        (dataset.Dataset, "take", "dataset.take", None),
        (rules, "state_mask", "dataset.state_mask", None),
        (rules, "unique_categorical_states", "dataset.unique_categorical_states", None),
        *encode,
        (ocsvm, "fit", "ocsvm.fit",
         lambda a, m: {"n_train": m.n_train, "n_support": m.n_support}),
        (ocsvm, "decision_values", "ocsvm.decision_values", lambda a, g: {"rows": len(g)}),
        (rules, "kmeans_pp", "clustering.kmeans_pp", lambda a, c: {"k": c.k, "n_iter": c.n_iter}),
        (cli, "extract_rule_sets", "rules.extract_rule_sets",
         lambda a, r: {"n_rules_raw": r.stats["n_rules_raw"], "n_groups": r.stats["n_groups"]}),
        (rules, "prune_survivors", "rules.prune_survivors", _prune_pairs),
        (rules, "covered_mask", "rules.covered_mask", None),
        (surrogate, "fit_tree", "surrogate.fit_tree", lambda a, t: surrogate.tree_stats(t)),
        (cli, "scatter_rules_svg", "plotting.scatter_rules_svg",
         lambda a, svg: {"bytes": len(svg.encode("utf-8"))}),
        *serialise,
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, observe in _targets():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, observe))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


CATEGORICAL = {"dataset.take", "dataset.state_mask", "dataset.unique_categorical_states",
               "dataset.encode_matrix"}


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def busy(spans: list, names) -> float:
    """Time inside spans named in names, each instant counted once."""
    names = {names} if isinstance(names, str) else set(names)
    by_id = {s["id"]: s for s in spans}

    def outermost(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] in names:
                return False
            p = by_id[p]["parent"]
        return True

    return sum(_dur(s) for s in spans if s["name"] in names and outermost(s))


def self_time(spans: list, name: str) -> float:
    """Duration of the spans named name minus their direct children's."""
    ids = {s["id"] for s in spans if s["name"] == name}
    return (sum(_dur(s) for s in spans if s["id"] in ids)
            - sum(_dur(s) for s in spans if s["parent"] in ids))


def layer_metrics(spans: list, dense_limit: int) -> dict:
    """Per-layer values, as (value, unit), for the spans of one traced pipeline."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    fits, scores, kms = named("ocsvm.fit"), named("ocsvm.decision_values"), \
        named("clustering.kmeans_pp")
    extracts, trees = named("rules.extract_rule_sets"), named("surrogate.fit_tree")
    loads, svgs = named("dataset.load_csv"), named("plotting.scatter_rules_svg")
    groups = sum(s["n_groups"] for s in extracts)
    return {
        "dataset.load_s": (busy(spans, "dataset.load_csv"), "s"),
        "dataset.rows": (loads[-1]["rows"] if loads else 0, "count"),
        "dataset.categorical_s": (busy(spans, CATEGORICAL), "s"),
        "dataset.categorical_calls": (sum(s["name"] in CATEGORICAL for s in spans), "count"),
        "ocsvm.fit_calls": (len(fits), "count"),
        "ocsvm.fit_s": (busy(spans, "ocsvm.fit"), "s"),
        "ocsvm.n_train": (max((s["n_train"] for s in fits), default=0), "count"),
        "ocsvm.n_support": (max((s["n_support"] for s in fits), default=0), "count"),
        # computed, not measured: the dense Gram's 8 * n^2 bytes
        "ocsvm.gram_mb": (max((8 * s["n_train"] ** 2 / 1e6 for s in fits
                               if s["n_train"] <= dense_limit), default=0.0), "MB"),
        "ocsvm.score_calls": (len(scores), "count"),
        "ocsvm.score_rows": (sum(s["rows"] for s in scores), "count"),
        "ocsvm.score_s": (busy(spans, "ocsvm.decision_values"), "s"),
        "clustering.kmeans_calls": (len(kms), "count"),
        "clustering.k_sum": (sum(s["k"] for s in kms), "count"),
        "clustering.k_max": (max((s["k"] for s in kms), default=0), "count"),
        "clustering.kmeans_s": (busy(spans, "clustering.kmeans_pp"), "s"),
        # n_iter of the winning restart only; the other restarts are not returned
        "clustering.lloyd_iters": (sum(s["n_iter"] for s in kms), "count"),
        "rules.extract_s": (busy(spans, "rules.extract_rule_sets"), "s"),
        "rules.extract_self_s": (self_time(spans, "rules.extract_rule_sets"), "s"),
        "rules.sweep_accept_ratio": (groups / len(kms) if kms else 0.0, "ratio"),
        "rules.n_rules_raw": (sum(s["n_rules_raw"] for s in extracts), "count"),
        "rules.prune_s": (busy(spans, "rules.prune_survivors"), "s"),
        "rules.prune_pairs": (sum(s["pairs"] for s in named("rules.prune_survivors")), "count"),
        "rules.cover_s": (busy(spans, "rules.covered_mask"), "s"),
        "surrogate.fit_tree_s": (busy(spans, "surrogate.fit_tree"), "s"),
        "surrogate.n_nodes": (trees[-1]["n_nodes"] if trees else 0, "count"),
        "surrogate.depth": (trees[-1]["depth"] if trees else 0, "count"),
        "plotting.svg_s": (busy(spans, "plotting.scatter_rules_svg"), "s"),
        "plotting.svg_bytes": (sum(s["bytes"] for s in svgs), "bytes"),
        "cli.serialise_s": (busy(spans, "cli.serialise"), "s"),
        "trace.spans": (len(spans), "count"),
    }


def medians(per_run: list) -> dict:
    """Median of every timing over the traced runs; the first run's counts."""
    return {name: (statistics.median(m[name][0] for m in per_run) if unit == "s" else value,
                   unit)
            for name, (value, unit) in per_run[0].items()}

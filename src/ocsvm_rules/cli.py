"""Command line front end.

Subcommands: extract (fit the detector, write it to model.json, record its
split of the rows in split.json and mine rule boxes), surrogate (fit the
mimic tree), report (summarize written artifacts), plot (SVG scatter with
rule boxes). extract is the only command that fits or scores the detector;
surrogate and plot read split.json. Both refuse a model.json that does not
match the config or the dataset, and a split.json written for other dataset
bytes (their sha256 differs), so a dataset changed since extract, even with
as many rows, exits 2. All artifacts are deterministic: rerunning a command
over the same inputs rewrites byte-identical files. Progress and timings go
to stderr; stdout carries only the error object on failure.

Exit codes: 0 success, 2 bad configuration or input files, a config key
that names no setting (a misspelt "ocsvm.gama") included, 3 not enough data
to mine rules, 4 an iterative stage failed to converge. On exit 4 from
rule extraction the error object also carries last_n_clusters and
offending_boxes: one [lower, upper] pair per box still contaminated at that
count, in scaled units and in the rule set's column order.

Imports. Importing this module loads the standard library, errors and the
numpy-free formats module only. Each command binds the names it calls when
it starts: extract from the dataset, ocsvm and rules modules; surrogate from
the dataset and surrogate modules only, so it loads neither the detector nor
the k-means code. plot binds only the numpy-free plotting module: it reads
the dataset with formats.read_csv_table, so it never loads numpy, which
would be most of its run time as a process. Neither does report, which
reads only the JSON artifacts, with the rule text of each rule set rendered
from its rules_*.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import (
    ConfigError, ExtractionConvergenceError, InsufficientDataError, ParseError,
    SchemaError, SolverConvergenceError,
)
from .formats import (
    BOX_ALL, BOX_FARTHEST, TARGET_ANOMALOUS, TARGET_NON_ANOMALOUS, ExtractionConfig,
    KernelParams, count, cyclical_columns, expand_numeric_names, json_text, model_doc,
    model_to_json, number, read_csv_table, read_document, ruleset_from_json,
    ruleset_to_json, ruleset_to_text, split_from_json, split_to_json, state_text, strings,
)

# The names the commands call from modules loaded on demand, all but plotting
# backed by numpy. _bind puts a module's names in this module's globals, where
# the commands look them up, and keeps a name already there: a wrapper set on
# cli before main runs sees every call. encode_matrix is not called here, but
# perfbench/tracing.py wraps it here.
_LAZY = {
    "dataset": ("encode_matrix", "ensure_expanded", "load_csv"),
    "ocsvm": ("anomalous_rows", "fit_dataset", "split_by_prediction"),
    "plotting": ("scatter_rules_svg",),
    "rules": ("extract_rule_sets",),
    "surrogate": ("fit_surrogate", "tree_rule_to_text", "tree_stats", "tree_to_json",
                  "tree_to_rules"),
}


def _bind(*modules):
    g = globals()
    for module in modules:
        mod = importlib.import_module("." + module, __package__)
        for name in _LAZY[module]:
            g.setdefault(name, getattr(mod, name))


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# Each target's short name: --target and extraction.targets take it, files carry it
_SUFFIX = {TARGET_NON_ANOMALOUS: "na", TARGET_ANOMALOUS: "a"}
# The config keys that set ExtractionConfig fields: each kmeans key maps to
# one, and each extraction key names one of the others.
_KMEANS_KEYS = {"seed": "seed", "n_init": "n_init", "max_iter": "kmeans_max_iter"}
_EXTRACTION_KEYS = tuple(f.name for f in fields(ExtractionConfig)
                         if f.name not in _KMEANS_KEYS.values())
# Every key a config may hold, per section; load_config refuses any other.
_SECTION_KEYS = {
    "columns": ("numerical", "categorical", "cyclical"),
    "ocsvm": ("nu", "gamma", "tol", "max_iter"),
    "kmeans": tuple(_KMEANS_KEYS),
    "extraction": _EXTRACTION_KEYS + ("targets",),
    "plot": ("columns", "width", "height"),
}
_TOP_KEYS = ("dataset", "output_dir") + tuple(_SECTION_KEYS)
_TARGET_ALIASES = {**{t: t for t in _SUFFIX}, **{s: t for t, s in _SUFFIX.items()}}


@dataclass
class RunConfig:
    dataset: Path
    numerical: list
    categorical: list
    cyclical: dict
    nu: float
    gamma: float
    tol: float
    max_iter: int | None
    targets: list
    extraction: ExtractionConfig
    output_dir: Path
    plot_columns: list | None
    plot_width: int
    plot_height: int


def _expect(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _known_keys(doc: dict, known, prefix: str = ""):
    for key in doc:
        _expect(key in known, "unknown config key %r" % (prefix + key))


def _section(raw: dict, key: str) -> dict:
    v = raw.get(key, {})
    _expect(isinstance(v, dict), "config section %r must be an object" % key)
    _known_keys(v, _SECTION_KEYS[key], key + ".")
    return v


def _number(sec: dict, section: str, key: str, default, *, minimum=None, **bounds):
    """sec[key], or default, checked by formats.count if a minimum is given,
    else by formats.number within bounds."""
    v, what = sec.get(key, default), "%s.%s" % (section, key)
    return number(v, what, **bounds) if minimum is None else count(v, what, minimum)


def load_config(path: str, *, target: str | None = None, out: str | None = None,
                discard_factor: float | None = None,
                box_mode: str | None = None) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path) from None
    except json.JSONDecodeError as e:
        raise ConfigError("config is not valid JSON: %s" % e) from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("cannot read config: %s" % e) from None
    _expect(isinstance(raw, dict), "config root must be an object")
    _known_keys(raw, _TOP_KEYS)
    base = p.parent

    dataset = raw.get("dataset")
    _expect(isinstance(dataset, str) and dataset, "config needs a 'dataset' path")

    columns = _section(raw, "columns")
    numerical = strings(columns.get("numerical", []), "columns.numerical")
    categorical = strings(columns.get("categorical", []), "columns.categorical")
    _expect(len(numerical) > 0, "columns.numerical must name at least one column")
    cyc_raw = columns.get("cyclical", {})
    _expect(isinstance(cyc_raw, dict), "columns.cyclical must map column to period")
    cyclical = {}
    for c, period in cyc_raw.items():
        cyclical[c] = number(period, "columns.cyclical[%r]" % c, above=0)
        _expect(c in numerical, "cyclical column %r must also be in columns.numerical" % c)

    oc = _section(raw, "ocsvm")
    nu = _number(oc, "ocsvm", "nu", 0.1, above=0, high=1)
    gamma = _number(oc, "ocsvm", "gamma", 0.1, above=0)
    tol = _number(oc, "ocsvm", "tol", 1e-5, above=0)
    max_iter = (None if oc.get("max_iter") is None
                else _number(oc, "ocsvm", "max_iter", None, minimum=1))

    km = _section(raw, "kmeans")
    ex = _section(raw, "extraction")
    if target is not None:
        names = list(_SUFFIX) if target == "both" else [target]
    else:
        names = ex.get("targets", [TARGET_NON_ANOMALOUS])
        _expect(isinstance(names, list) and names,
                "extraction.targets must be a non-empty list")
    targets = []
    for t in names:
        _expect(isinstance(t, str) and t in _TARGET_ALIASES,
                "unknown extraction target %r" % (t,))
        canonical = _TARGET_ALIASES[t]
        if canonical not in targets:
            targets.append(canonical)

    # ExtractionConfig holds the defaults of the settings left out, and checks
    # every setting given
    settings = {key: ex[key] for key in _EXTRACTION_KEYS if key in ex}
    settings.update({field: km[key] for key, field in _KMEANS_KEYS.items() if key in km})
    if discard_factor is not None:
        settings["discard_factor"] = discard_factor
    if box_mode:
        settings["box_mode"] = box_mode
    extraction = ExtractionConfig(**settings)

    plot = _section(raw, "plot")
    plot_columns = plot.get("columns")
    if plot_columns is not None:
        strings(plot_columns, "plot.columns", 2)
    width = _number(plot, "plot", "width", 640, minimum=200)
    height = _number(plot, "plot", "height", 480, minimum=200)

    output_dir = raw.get("output_dir", "out")
    _expect(isinstance(output_dir, str) and output_dir,
            "config 'output_dir' must be a non-empty string")
    out_dir = Path(out) if out else base / output_dir

    return RunConfig(
        dataset=base / dataset,
        numerical=numerical,
        categorical=categorical,
        cyclical=cyclical,
        nu=nu,
        gamma=gamma,
        tol=tol,
        max_iter=max_iter,
        targets=targets,
        extraction=extraction,
        output_dir=out_dir,
        plot_columns=plot_columns,
        plot_width=width,
        plot_height=height,
    )


def _read_dataset(cfg: RunConfig, read):
    """(read(the dataset's path, its numerical and categorical columns,
    data=its bytes), the sha256 of the bytes parsed), from one read;
    ConfigError if the file cannot be read."""
    import hashlib

    try:
        data = cfg.dataset.read_bytes()
        return (read(cfg.dataset, cfg.numerical, cfg.categorical, data=data),
                hashlib.sha256(data).hexdigest())
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("cannot read dataset: %s" % e) from None


def _fit_model(cfg: RunConfig, d):
    t0 = time.perf_counter()
    model = fit_dataset(d, cfg.numerical, cfg.categorical, cfg.nu,
                        KernelParams(gamma=cfg.gamma), tol=cfg.tol,
                        max_iter=cfg.max_iter, cyclical=cfg.cyclical or None)
    print("fit: %.2fs, %d support vectors of %d points"
          % (time.perf_counter() - t0, model.n_support, model.n_train),
          file=sys.stderr)
    return model


def _parse_artifact(path: Path, parse):
    """parse(text of path, a file that extract wrote), with "malformed <path>"
    before its SchemaError; ConfigError if the file cannot be read."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError("missing %s; run extract first" % path) from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("cannot read %s: %s" % (path, e)) from None
    try:
        return parse(text)
    except SchemaError as e:
        raise SchemaError("malformed %s: %s" % (path, e)) from None


def _extracted(cfg: RunConfig, rows: int, digest: str) -> tuple:
    """(schema, anomalous row indices) that extract wrote to <out>/model.json
    and <out>/split.json, the model checked against cfg and the dataset's
    row count, the split against the dataset's sha256 digest and row count."""
    path = cfg.output_dir / "model.json"
    m = _parse_artifact(path, model_doc)
    schema = m["schema"]
    periods = {c: info.period for c, info in schema.cyclical.items()}
    for what, saved, wanted in (
            ("ocsvm.nu", m["nu"], cfg.nu),
            ("ocsvm.gamma", m["kernel"].gamma, cfg.gamma),
            ("columns.cyclical", periods, cfg.cyclical),
            ("columns.numerical", schema.numerical,
             expand_numeric_names(cfg.numerical, schema.cyclical)),
            ("columns.categorical", schema.categorical, tuple(cfg.categorical)),
            ("dataset rows", m["n_train"], rows)):
        _expect(saved == wanted, "%s was fitted with %s %r, not %r; run extract again"
                % (path, what, saved, wanted))
    print("model: loaded %s, %d support vectors of %d points"
          % (path, len(m["alphas"]), m["n_train"]), file=sys.stderr)
    path = cfg.output_dir / "split.json"
    split = _parse_artifact(path, split_from_json)
    for what, saved, wanted in (
            ("dataset sha256", split["data_sha256"], digest),
            ("dataset rows", split["rows"], rows)):
        _expect(saved == wanted, "%s was written for %s %r, not %r; run extract again"
                % (path, what, saved, wanted))
    return schema, split["anomalous"]


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print("wrote %s" % path, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    cfg = load_config(args.config, target=args.target, out=args.out,
                      discard_factor=args.discard_factor, box_mode=args.box_mode)
    _bind("dataset", "ocsvm", "rules")
    d, digest = _read_dataset(cfg, load_csv)
    model = _fit_model(cfg, d)
    _write(cfg.output_dir / "model.json", model_to_json(model))
    d = ensure_expanded(d, model.schema)  # once, for the split and its halves
    anomalous = anomalous_rows(d, model)
    _write(cfg.output_dir / "split.json",
           split_to_json(digest, d.rows, anomalous.tolist()))
    split = split_by_prediction(d, model, anomalous)
    stats = {}
    for target in cfg.targets:
        t0 = time.perf_counter()
        result = extract_rule_sets(split, model, target=target, config=cfg.extraction)
        for name, rs in ((_SUFFIX[target], result.ruleset),
                         (_SUFFIX[target] + "_scaled", result.ruleset_scaled)):
            _write(cfg.output_dir / ("rules_%s.json" % name), ruleset_to_json(rs))
            _write(cfg.output_dir / ("rules_%s.txt" % name), ruleset_to_text(rs))
        stats[target] = result.stats
        print("extract %s: %.2fs, %d rules" % (target, time.perf_counter() - t0,
                                               result.stats["n_rules"]),
              file=sys.stderr)
    _write(cfg.output_dir / "extract_stats.json", json_text(stats))
    return 0


def cmd_surrogate(args) -> int:
    cfg = load_config(args.config, out=args.out)
    _bind("dataset", "surrogate")
    d, digest = _read_dataset(cfg, load_csv)
    schema, anomalous = _extracted(cfg, d.rows, digest)
    t0 = time.perf_counter()
    tree, names = fit_surrogate(d, schema, anomalous)
    st = tree_stats(tree)
    print("surrogate: %.2fs, depth %d, %d leaves, accuracy %.4f"
          % (time.perf_counter() - t0, st["depth"], st["n_leaves"],
             st["training_accuracy"]), file=sys.stderr)
    _write(cfg.output_dir / "tree.json", tree_to_json(tree, names))
    _write(cfg.output_dir / "tree_rules.txt",
           "".join(tree_rule_to_text(r) + "\n" for r in tree_to_rules(tree, names)))
    _write(cfg.output_dir / "surrogate_stats.json", json_text(st))
    return 0


def _summarise(path: Path, name: str, summarise, parse=None):
    """(report entry, text lines) for one JSON artifact. Never raises.

    ``summarise`` maps what ``parse`` reads from the file's text to its entry
    and lines; without ``parse`` it gets the JSON object the file holds, of
    any format. A missing file becomes status "missing"; text ``parse``
    rejects, or a document ``summarise`` cannot read, becomes "unreadable: ...".
    """
    try:
        text = path.read_text(encoding="utf-8")
        return summarise(parse(text) if parse else read_document(text, dict, name, None))
    except FileNotFoundError:
        err = "missing"
    except Exception as e:  # noqa: broad on purpose, report must not die
        err = "unreadable: %s" % e
    return {"status": err}, ["%s: %s" % (name, err)]


def _model_summary(m: dict):
    """Entry and line for the fields formats.model_doc read from model.json."""
    n_support = len(m["alphas"])
    summary = {
        "nu": m["nu"],
        "gamma": m["kernel"].gamma,
        "rho": m["rho"],
        "n_support": n_support,
        "n_train": m["n_train"],
        "support_fraction": n_support / m["n_train"],
    }
    return summary, ["model: nu=%g gamma=%g rho=%r support=%d/%d"
                     % (m["nu"], m["kernel"].gamma, m["rho"], n_support, m["n_train"])]


def _extraction_summary(doc: dict):
    lines = []
    for target in sorted(doc):
        s = doc[target]
        lines.append(
            "extraction %s: %d rules (%d before pruning), coverage %.1f%% "
            "(%d/%d covered, %d discarded)"
            % (target, s.get("n_rules", 0), s.get("n_rules_raw", 0),
               s.get("coverage_pct", 0.0), s.get("covered_points", 0),
               s.get("target_points", 0) - s.get("discarded_points", 0),
               s.get("discarded_points", 0)))
    return doc, lines


def _rules_summary(name: str, rs):
    """Entry and lines for a rule set: its counts, then its rules as text."""
    per_state: dict = {}
    for r in rs.rules:
        key = state_text(r.state)
        per_state[key] = per_state.get(key, 0) + 1
    entry = {"n_rules": len(rs.rules), "columns": list(rs.columns), "per_state": per_state}
    head = "%s: %d rules over %s" % (name, len(rs.rules), ", ".join(rs.columns))
    return entry, [head] + ["  " + line for line in ruleset_to_text(rs).splitlines()]


def _surrogate_summary(doc: dict):
    return doc, ["surrogate: depth=%d leaves=%d accuracy=%.4f"
                 % (doc.get("depth", 0), doc.get("n_leaves", 0),
                    doc.get("training_accuracy", 0.0))]


def cmd_report(args) -> int:
    cfg = load_config(args.config, out=args.out)
    out = cfg.output_dir
    report: dict = {}
    lines: list[str] = []

    report["model"], section = _summarise(out / "model.json", "model", _model_summary,
                                          model_doc)
    lines += section
    report["extraction"], section = _summarise(out / "extract_stats.json",
                                               "extraction", _extraction_summary)
    lines += section

    report["rules"] = {}
    for suffix in _SUFFIX.values():
        name = "rules " + suffix
        report["rules"][suffix], section = _summarise(
            out / ("rules_%s.json" % suffix), name,
            lambda rs: _rules_summary(name, rs), ruleset_from_json)
        lines += section

    report["surrogate"], section = _summarise(out / "surrogate_stats.json",
                                              "surrogate", _surrogate_summary)
    lines += section

    _write(out / "report.json", json_text(report))
    _write(out / "report.txt", "".join(line + "\n" for line in lines))
    return 0


def cmd_plot(args) -> int:
    cfg = load_config(args.config, target=args.target, out=args.out)
    _bind("plotting")
    (rows, values, _), digest = _read_dataset(cfg, read_csv_table)
    schema, split = _extracted(cfg, rows, digest)
    anomalous = [False] * rows
    for i in split:
        anomalous[i] = True
    for name, info in schema.cyclical.items():
        values[info.sin_col], values[info.cos_col] = cyclical_columns(values.pop(name),
                                                                      info.period)
    for target in cfg.targets:
        suffix = _SUFFIX[target]
        path = cfg.output_dir / ("rules_%s.json" % suffix)
        rs = _parse_artifact(path, ruleset_from_json)
        cols = cfg.plot_columns or list(rs.columns[:2])
        _expect(len(cols) == 2, "plotting needs two numerical columns")
        try:
            ix = [rs.columns.index(c) for c in cols]
        except ValueError:
            raise ConfigError("plot.columns %r not all present in the rules"
                              % (cols,)) from None
        for c in cols:
            if c not in values:
                raise SchemaError("%s has column %r, which is no numerical column of "
                                  "%s; run extract again" % (path, c, cfg.dataset))
        points = ([], [])  # non-anomalous, anomalous
        for xy, a in zip(zip(values[cols[0]], values[cols[1]]), anomalous):
            points[a].append(xy)
        boxes = [((r.lower[ix[0]], r.lower[ix[1]]), (r.upper[ix[0]], r.upper[ix[1]]))
                 for r in rs.rules]
        svg = scatter_rules_svg(
            points[0], points[1], boxes,
            labels=(cols[0], cols[1]), width=cfg.plot_width,
            height=cfg.plot_height,
            title="non-anomalous rules" if target == TARGET_NON_ANOMALOUS
            else "anomalous rules")
        _write(cfg.output_dir / ("plot_%s.svg" % suffix), svg)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ocsvm-rules",
        description="Anomaly detection with box-rule explanations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_target=False):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides the config)")
        if with_target:
            p.add_argument("--target", choices=[*_SUFFIX.values(), "both"],
                           help="which prediction class to describe")

    pe = sub.add_parser("extract", help="fit the detector and mine rule boxes")
    common(pe, with_target=True)
    pe.add_argument("--discard-factor", type=float,
                    help="contaminated-cluster drop threshold factor")
    pe.add_argument("--box-mode", choices=[BOX_ALL, BOX_FARTHEST],
                    help="which cluster points define each box")
    pe.set_defaults(func=cmd_extract)

    ps = sub.add_parser("surrogate", help="fit the mimic decision tree to the "
                        "split that extract recorded")
    common(ps)
    ps.set_defaults(func=cmd_surrogate)

    pr = sub.add_parser("report", help="summarize artifacts written so far")
    common(pr)
    pr.set_defaults(func=cmd_report)

    pp = sub.add_parser("plot", help="SVG scatter of points, split as extract "
                        "recorded, and rule boxes")
    common(pp, with_target=True)
    pp.set_defaults(func=cmd_plot)
    return ap


def _emit_error(e: Exception, code: int):
    doc = {"error": type(e).__name__, "message": str(e), "exit_code": code}
    for attr in ("kkt_violation", "iterations", "last_n_clusters", "offending_boxes"):
        v = getattr(e, attr, None)
        if v is not None:
            doc[attr] = v
    print(json.dumps(doc, sort_keys=True))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ParseError, ConfigError) as e:
        _emit_error(e, 2)
        return 2
    except InsufficientDataError as e:
        _emit_error(e, 3)
        return 3
    except (SolverConvergenceError, ExtractionConvergenceError) as e:
        _emit_error(e, 4)
        return 4


if __name__ == "__main__":
    sys.exit(main())

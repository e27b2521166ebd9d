"""Command line front end.

Subcommands: extract (fit the detector, write it to model.json and mine
rule boxes), surrogate (fit the mimic tree), report (summarize written
artifacts), plot (SVG scatter with rule boxes). extract is the only command
that fits the detector: surrogate and plot read the model.json it wrote and
refuse one that does not match the config or the dataset. All artifacts are
deterministic: rerunning a command over the same inputs rewrites
byte-identical files. Progress and timings go to stderr; stdout carries
only the error object on failure.

Exit codes: 0 success, 2 bad configuration or input files, 3 not enough
data to mine rules, 4 an iterative stage failed to converge. On exit 4 from
rule extraction the error object also carries last_n_clusters and
offending_boxes: one [lower, upper] pair per box still contaminated at that
count, in scaled units and in the rule set's column order.

Imports. Importing this module loads the standard library, errors and the
numpy-free formats module only. extract, surrogate and plot need numpy: each
binds the names it calls from the dataset, ocsvm and rules, surrogate or
plotting modules when it starts, so surrogate and plot never load the
k-means code. report reads JSON and text and never loads numpy, which would
be most of its run time as a process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    ConfigError, ExtractionConvergenceError, InsufficientDataError, ParseError,
    SchemaError, SolverConvergenceError,
)
from .formats import (
    BOX_ALL, TARGET_ANOMALOUS, TARGET_NON_ANOMALOUS, ExtractionConfig, KernelParams,
    model_doc, ruleset_from_json, ruleset_to_json, ruleset_to_text, state_text,
)

# The names the commands call from numpy-backed modules. _bind puts a module's
# names in this module's globals, where the commands look them up, and keeps
# a name already there: a wrapper set on cli before main runs sees every call.
# encode_matrix is not called here, but perfbench/tracing.py wraps it here.
_LAZY = {
    "dataset": ("encode_matrix", "expand_numeric_names", "load_csv"),
    "ocsvm": ("fit_dataset", "model_from_json", "model_to_json", "split_by_prediction"),
    "plotting": ("scatter_rules_svg",),
    "rules": ("extract_rule_sets",),
    "surrogate": ("fit_surrogate", "training_accuracy", "tree_rule_to_text",
                  "tree_stats", "tree_to_json", "tree_to_rules"),
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


_SUFFIX = {TARGET_NON_ANOMALOUS: "na", TARGET_ANOMALOUS: "a"}
_TARGET_ALIASES = {
    "na": TARGET_NON_ANOMALOUS,
    "a": TARGET_ANOMALOUS,
    TARGET_NON_ANOMALOUS: TARGET_NON_ANOMALOUS,
    TARGET_ANOMALOUS: TARGET_ANOMALOUS,
}


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


def _section(raw: dict, key: str) -> dict:
    v = raw.get(key, {})
    _expect(isinstance(v, dict), "config section %r must be an object" % key)
    return v


def _finite(v) -> bool:
    """v is a JSON number, not a bool, that is a finite float.

    json reads Infinity, NaN and an overflowing literal such as 1e400 as
    non-finite floats, and an integer literal of any length as an int.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _number(sec: dict, section: str, key: str, default, *, minimum=None,
            positive=False, integer=False, nullable=False):
    v = sec.get(key, default)
    if v is None and nullable:
        return None
    where = "%s.%s" % (section, key)
    if integer:
        _expect(isinstance(v, int) and not isinstance(v, bool),
                "%s must be an integer" % where)
    else:
        _expect(_finite(v), "%s must be a finite number" % where)
        v = float(v)
    if positive:
        _expect(v > 0, "%s must be positive" % where)
    if minimum is not None:
        _expect(v >= minimum, "%s must be >= %r" % (where, minimum))
    return v


def _name_list(sec: dict, section: str, key: str) -> list:
    v = sec.get(key, [])
    _expect(isinstance(v, list) and all(isinstance(c, str) for c in v),
            "%s.%s must be a list of column names" % (section, key))
    return v


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
    base = p.parent

    dataset = raw.get("dataset")
    _expect(isinstance(dataset, str) and dataset, "config needs a 'dataset' path")

    columns = _section(raw, "columns")
    numerical = _name_list(columns, "columns", "numerical")
    categorical = _name_list(columns, "columns", "categorical")
    _expect(len(numerical) > 0, "columns.numerical must name at least one column")
    cyc_raw = columns.get("cyclical", {})
    _expect(isinstance(cyc_raw, dict), "columns.cyclical must map column to period")
    cyclical = {}
    for c, period in cyc_raw.items():
        _expect(_finite(period) and period > 0,
                "columns.cyclical[%r] must be a positive finite period" % c)
        _expect(c in numerical, "cyclical column %r must also be in columns.numerical" % c)
        cyclical[c] = float(period)

    oc = _section(raw, "ocsvm")
    nu = _number(oc, "ocsvm", "nu", 0.1, positive=True)
    _expect(nu <= 1, "ocsvm.nu must be in (0, 1]")
    gamma = _number(oc, "ocsvm", "gamma", 0.1, positive=True)
    tol = _number(oc, "ocsvm", "tol", 1e-5, positive=True)
    max_iter = _number(oc, "ocsvm", "max_iter", None, integer=True, minimum=1,
                       nullable=True)

    km = _section(raw, "kmeans")
    ex = _section(raw, "extraction")
    if target is not None:
        names = [TARGET_NON_ANOMALOUS, TARGET_ANOMALOUS] if target == "both" else [target]
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

    # ExtractionConfig checks every one of these settings
    extraction = ExtractionConfig(
        discard_factor=(ex.get("discard_factor", 1.0) if discard_factor is None
                        else discard_factor),
        box_mode=box_mode or ex.get("box_mode", BOX_ALL),
        n_v=ex.get("n_v"),
        max_clusters=ex.get("max_clusters"),
        literal_cluster_threshold=ex.get("literal_cluster_threshold", False),
        per_group_min_check=ex.get("per_group_min_check", False),
        seed=km.get("seed", 0),
        n_init=km.get("n_init", 10),
        kmeans_max_iter=km.get("max_iter", 100),
    )

    plot = _section(raw, "plot")
    plot_columns = plot.get("columns")
    if plot_columns is not None:
        _expect(isinstance(plot_columns, list) and len(plot_columns) == 2
                and all(isinstance(c, str) for c in plot_columns),
                "plot.columns must list exactly two column names")
    width = _number(plot, "plot", "width", 640, integer=True, minimum=200)
    height = _number(plot, "plot", "height", 480, integer=True, minimum=200)

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


def _load_dataset(cfg: RunConfig):
    try:
        return load_csv(cfg.dataset, cfg.numerical, cfg.categorical)
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


def _read_artifact(path: Path) -> str:
    """Text of a file that extract wrote; ConfigError if it cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError("missing %s; run extract first" % path) from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("cannot read %s: %s" % (path, e)) from None


def _parse_artifact(path: Path, parse):
    """parse(text of path), with "malformed <path>" before its SchemaError."""
    text = _read_artifact(path)
    try:
        return parse(text)
    except SchemaError as e:
        raise SchemaError("malformed %s: %s" % (path, e)) from None


def _load_model(cfg: RunConfig, d):
    """The model extract wrote to <out>/model.json, checked against cfg and d."""
    path = cfg.output_dir / "model.json"
    model = _parse_artifact(path, model_from_json)
    schema = model.schema
    periods = {c: info.period for c, info in schema.cyclical.items()}
    for what, saved, wanted in (
            ("ocsvm.nu", model.nu, cfg.nu),
            ("ocsvm.gamma", model.kernel.gamma, cfg.gamma),
            ("columns.cyclical", periods, cfg.cyclical),
            ("columns.numerical", schema.numerical,
             expand_numeric_names(cfg.numerical, schema.cyclical)),
            ("columns.categorical", schema.categorical, tuple(cfg.categorical)),
            ("dataset rows", model.n_train, d.rows)):
        _expect(saved == wanted, "%s was fitted with %s %r, not %r; run extract again"
                % (path, what, saved, wanted))
    print("model: loaded %s, %d support vectors of %d points"
          % (path, model.n_support, model.n_train), file=sys.stderr)
    return model


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
    d = _load_dataset(cfg)
    model = _fit_model(cfg, d)
    _write(cfg.output_dir / "model.json", model_to_json(model))
    split = split_by_prediction(d, model)
    stats = {}
    for target in cfg.targets:
        t0 = time.perf_counter()
        result = extract_rule_sets(split, model, target=target, config=cfg.extraction)
        suffix = _SUFFIX[target]
        _write(cfg.output_dir / ("rules_%s.json" % suffix),
               ruleset_to_json(result.ruleset))
        _write(cfg.output_dir / ("rules_%s.txt" % suffix),
               ruleset_to_text(result.ruleset))
        _write(cfg.output_dir / ("rules_%s_scaled.json" % suffix),
               ruleset_to_json(result.ruleset_scaled))
        _write(cfg.output_dir / ("rules_%s_scaled.txt" % suffix),
               ruleset_to_text(result.ruleset_scaled))
        stats[target] = result.stats
        print("extract %s: %.2fs, %d rules" % (target, time.perf_counter() - t0,
                                               result.stats["n_rules"]),
              file=sys.stderr)
    _write(cfg.output_dir / "extract_stats.json",
           json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_surrogate(args) -> int:
    cfg = load_config(args.config, out=args.out)
    _bind("dataset", "ocsvm", "surrogate")
    d = _load_dataset(cfg)
    model = _load_model(cfg, d)
    t0 = time.perf_counter()
    tree, names, M, y = fit_surrogate(d, model)
    acc = training_accuracy(tree, M, y)
    st = tree_stats(tree)
    rules = tree_to_rules(tree, names)
    per_class = {}
    for r in rules:
        per_class[str(r.label)] = per_class.get(str(r.label), 0) + 1
    print("surrogate: %.2fs, depth %d, %d leaves, accuracy %.4f"
          % (time.perf_counter() - t0, st["depth"], st["n_leaves"], acc),
          file=sys.stderr)
    _write(cfg.output_dir / "tree.json", tree_to_json(tree, names))
    _write(cfg.output_dir / "tree_rules.txt",
           "".join(tree_rule_to_text(r) + "\n" for r in rules))
    doc = dict(st)
    doc["training_accuracy"] = acc
    doc["rules_per_class"] = per_class
    _write(cfg.output_dir / "surrogate_stats.json",
           json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _json_object(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object, got %s" % type(doc).__name__)
    return doc


def _summarise(path: Path, name: str, summarise, parse=_json_object):
    """(report entry, text lines) for one JSON artifact. Never raises.

    ``summarise`` maps what ``parse`` reads from the file's text to its entry
    and lines. A missing file becomes status "missing"; text ``parse``
    rejects, or a document ``summarise`` cannot read, becomes "unreadable: ...".
    """
    try:
        return summarise(parse(path.read_text(encoding="utf-8")))
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
    for suffix in ("na", "a"):
        path = out / ("rules_%s.json" % suffix)
        try:
            rs = ruleset_from_json(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            report["rules"][suffix] = {"status": "missing"}
            continue
        except Exception as e:
            report["rules"][suffix] = {"status": "unreadable: %s" % e}
            lines.append("rules %s: unreadable (%s)" % (suffix, e))
            continue
        per_state: dict = {}
        for r in rs.rules:
            key = state_text(r.state)
            per_state[key] = per_state.get(key, 0) + 1
        report["rules"][suffix] = {
            "n_rules": len(rs.rules),
            "columns": list(rs.columns),
            "per_state": per_state,
        }
        lines.append("rules %s: %d rules over %s"
                     % (suffix, len(rs.rules), ", ".join(rs.columns)))
        try:
            text = (out / ("rules_%s.txt" % suffix)).read_text(encoding="utf-8")
        except OSError:
            continue
        except UnicodeDecodeError as e:
            report["rules"][suffix]["text"] = "unreadable: %s" % e
            lines.append("rules %s text: unreadable (%s)" % (suffix, e))
            continue
        lines += ["  " + line for line in text.splitlines()]

    report["surrogate"], section = _summarise(out / "surrogate_stats.json",
                                              "surrogate", _surrogate_summary)
    lines += section

    _write(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write(out / "report.txt", "".join(line + "\n" for line in lines))
    return 0


def cmd_plot(args) -> int:
    cfg = load_config(args.config, target=args.target, out=args.out)
    _bind("dataset", "ocsvm", "plotting")
    d = _load_dataset(cfg)
    model = _load_model(cfg, d)
    X_a, X_na = split_by_prediction(d, model)
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
        boxes = [((r.lower[ix[0]], r.lower[ix[1]]), (r.upper[ix[0]], r.upper[ix[1]]))
                 for r in rs.rules]
        svg = scatter_rules_svg(
            X_na.numeric_matrix(cols), X_a.numeric_matrix(cols), boxes,
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
            p.add_argument("--target", choices=["na", "a", "both"],
                           help="which prediction class to describe")

    pe = sub.add_parser("extract", help="fit the detector and mine rule boxes")
    common(pe, with_target=True)
    pe.add_argument("--discard-factor", type=float,
                    help="contaminated-cluster drop threshold factor")
    pe.add_argument("--box-mode", choices=["all", "farthest"],
                    help="which cluster points define each box")
    pe.set_defaults(func=cmd_extract)

    ps = sub.add_parser("surrogate", help="fit the mimic decision tree to the "
                        "model.json that extract wrote")
    common(ps)
    ps.set_defaults(func=cmd_surrogate)

    pr = sub.add_parser("report", help="summarize artifacts written so far")
    common(pr)
    pr.set_defaults(func=cmd_report)

    pp = sub.add_parser("plot", help="SVG scatter of points, split by the "
                        "model.json that extract wrote, and rule boxes")
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

"""Output checks: the paper's invariants, read back from the written files.

Each check returns a list of problems, one string each, for one command of
one pipeline run; an empty list means the command's outputs hold. The
program's own functions read the files back, so the checks need ``src`` on
the import path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ocsvm_rules.dataset import load_csv
from ocsvm_rules.errors import OcsvmRulesError
from ocsvm_rules.ocsvm import ensure_expanded, model_from_json, split_by_prediction
from ocsvm_rules.rules import covered_mask, ruleset_from_json

TARGETS = {"na": "non_anomalous", "a": "anomalous"}

# Files that must be byte-identical across every run of a set, by command.
DETERMINISTIC = {
    "extract": ("model.json", "rules_na.json", "rules_a.json",
                "rules_na_scaled.json", "rules_a_scaled.json"),
    "surrogate": ("tree.json",),
}


def digests(out: Path) -> dict:
    """sha256 of every file that must repeat, by command."""
    return {cmd: {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in names if (out / name).exists()}
            for cmd, names in DETERMINISTIC.items()}


def check_extract(out: Path, csv_path: Path, columns: dict) -> list:
    problems = []
    model = model_from_json((out / "model.json").read_text(encoding="utf-8"))
    d = load_csv(csv_path, columns["numerical"], columns["categorical"])
    rows_a, rows_na = split_by_prediction(ensure_expanded(d, model.schema), model)
    stats = json.loads((out / "extract_stats.json").read_text(encoding="utf-8"))
    for suffix, target in TARGETS.items():
        rs = ruleset_from_json((out / ("rules_%s.json" % suffix)).read_text(encoding="utf-8"))
        st = stats[target]
        rows_t = rows_na if suffix == "na" else rows_a
        if suffix == "na":
            admitted = int(covered_mask(rs, rows_a).sum())
            if admitted:
                problems.append("%d anomalous rows covered by non-anomalous rules"
                                % admitted)
        covered = int(covered_mask(rs, rows_t).sum())
        if st["target_points"] != rows_t.rows:
            problems.append("%s: target_points %d, the model predicts %d"
                            % (target, st["target_points"], rows_t.rows))
        if st["covered_points"] + st["discarded_points"] != st["target_points"]:
            problems.append("%s: covered %d + discarded %d != target %d"
                            % (target, st["covered_points"], st["discarded_points"],
                               st["target_points"]))
        if covered != st["covered_points"]:
            problems.append("%s: rules cover %d rows, stats say %d"
                            % (target, covered, st["covered_points"]))
        if st["n_rules"] != len(rs.rules):
            problems.append("%s: %d rules written, stats say %d"
                            % (target, len(rs.rules), st["n_rules"]))
    return problems


def check_surrogate(out: Path) -> list:
    acc = json.loads((out / "surrogate_stats.json").read_text(encoding="utf-8"))[
        "training_accuracy"]
    return [] if acc == 1.0 else ["surrogate training accuracy %r, not 1.0" % acc]


def check_plot(out: Path) -> list:
    return ["%s is not an SVG document" % name
            for name in ("plot_na.svg", "plot_a.svg")
            if "<svg" not in (out / name).read_text(encoding="utf-8")[:512]]


def check_report(out: Path) -> list:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return [] if report.get("extraction", {}).get("status") is None else [
        "report could not read extract_stats.json"]


def check_command(cmd: str, out: Path, csv_path: Path, columns: dict) -> list:
    """Problems with cmd's outputs; a file that is missing or unreadable is one."""
    try:
        if cmd == "extract":
            return check_extract(out, csv_path, columns)
        if cmd == "surrogate":
            return check_surrogate(out)
        if cmd == "plot":
            return check_plot(out)
        return check_report(out)
    except (OSError, ValueError, KeyError, TypeError, OcsvmRulesError) as e:
        return ["%s outputs unreadable: %s: %s" % (cmd, type(e).__name__, e)]

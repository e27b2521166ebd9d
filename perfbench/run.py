"""Benchmark of the ocsvm-rules command line flow, run from a source checkout.

    python3 perfbench/run.py --workload seismic --seed 0 --seconds 50 --trace 0

With ``--trace 0`` each pipeline run is the user's flow, one fresh process per
command: ``extract --target both``, ``surrogate``, ``plot --target both``,
``report``. Load comes from this one process with one child at a time.
Pipeline runs repeat until ``--seconds`` is spent (at least two, so that each
can be compared byte for byte with another). A command is timed again, right
away, until its samples in that pipeline run add up to MIN_COMMAND_S. Each
command's time is the median of all its samples, ``pipeline_s`` the sum of
the four, and ``setup_s`` the median of several fresh interpreters that
import ``ocsvm_rules.cli`` and exit.

With ``--trace 1`` the four commands run in this process through
``ocsvm_rules.cli.main``, once plain and once with spans around the calls
into each module (see tracing.py); the per-layer values are medians over the
traced runs and the spans go to ``.perfbench_runs/``.

Every run's outputs are checked (checks.py); a command that exits non-zero or
fails a check is a failed op, and any failed op makes the exit code 1. The
last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import os

# Before numpy loads anywhere: one BLAS thread here and in every child, so
# that load comes from one thread at a time and float results repeat.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
COMMANDS = (("extract", ["--target", "both"]), ("surrogate", []),
            ("plot", ["--target", "both"]), ("report", []))
SETUP_SAMPLES = 9
MIN_COMMAND_S = 3.0
MAX_REPEATS = 12
DEADLINE_S = 170.0  # children still running this long after the start are killed


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list, env: dict, log: Path | None, deadline: float):
    """Run one child; (wall seconds, ru_maxrss in KiB, exit code).

    The child is killed at the deadline and then reads as failed.
    """
    with open(log, "ab") if log else contextlib.nullcontext(subprocess.DEVNULL) as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                             stdout=out, stderr=out)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), p.kill)
        killer.start()
        # wait without reaping, so that the pid cannot be reused before the
        # timer is stopped
        os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        killer.cancel()
        killer.join()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, p.returncode


class Ops:
    """Commands attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, code: int, problems: list):
        self.attempted += 1
        if code != 0:
            problems = ["exit code %d" % code] + problems
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (label, p) for p in problems)


def check_run(ops: Ops, label: str, codes: dict, out: Path, inputs: Path,
              columns: dict, reference: dict):
    """Check one pipeline run's outputs; the first run's digests are the reference."""
    from checks import check_command, digests

    seen = digests(out)
    reference.setdefault("digests", seen)
    for cmd, _ in COMMANDS:
        problems = check_command(cmd, out, inputs / "data.csv", columns) \
            if codes[cmd] == 0 else []
        for name, h in seen.get(cmd, {}).items():
            if reference["digests"][cmd].get(name) != h:
                problems.append("%s differs from the first run" % name)
        ops.record("%s %s" % (label, cmd), codes[cmd], problems)


def bench_cli(args, w, inputs: Path, ops: Ops) -> tuple[dict, dict]:
    """Untraced runs; (metrics, record)."""
    env = child_env()
    config = str(inputs / "config.json")
    start = time.monotonic()
    deadline = start + DEADLINE_S
    py = sys.executable
    spawn([py, "-c", "import ocsvm_rules.cli"], env, None, deadline)  # bytecode cache
    setup = [spawn([py, "-c", "import ocsvm_rules.cli"], env, None, deadline)[0]
             for _ in range(SETUP_SAMPLES)]
    runs, reference = [], {}
    while True:
        r = len(runs)
        t0 = time.monotonic()
        out = inputs / ("out%d" % r)
        row, codes, rss = {}, {}, []
        for cmd, extra in COMMANDS:
            # A short command is mostly interpreter start, whose time swings
            # by a third between samples on a shared machine; running it again
            # rewrites the same files.
            samples = []
            while not samples or (codes[cmd] == 0 and sum(samples) < MIN_COMMAND_S
                                  and len(samples) < MAX_REPEATS):
                wall, maxrss, codes[cmd] = spawn(
                    [py, "-m", "ocsvm_rules.cli", cmd, "--config", config, "--out",
                     str(out)] + extra, env, inputs / ("run%d.log" % r), deadline)
                samples.append(wall)
                rss.append(maxrss)
            row[cmd] = samples
        check_run(ops, "run %d" % r, codes, out, inputs, w.columns, reference)
        row["peak_rss_mb"] = max(rss) * 1024 / 1e6
        if codes["extract"] == 0:
            stats = json.loads((out / "extract_stats.json").read_text(encoding="utf-8"))
            target = sum(s["target_points"] for s in stats.values())
            row["n_rules"] = sum(s["n_rules"] for s in stats.values())
            row["kept_pct"] = 100.0 * (
                target - sum(s["discarded_points"] for s in stats.values())) / target
        runs.append(row)
        now = time.monotonic()
        took = now - t0
        if now + took > deadline or (len(runs) >= 2 and now - start + took > args.seconds):
            break

    def median(values, unit):
        return (statistics.median(values), unit) if values else None

    def per_run(key):
        return [row[key] for row in runs if key in row]

    command_s = {cmd: statistics.median(v for row in runs for v in row[cmd])
                 for cmd, _ in COMMANDS}
    metrics = {
        "setup_s": median(setup, "s"),
        "pipeline_s": (sum(command_s.values()), "s"),
        **{cmd + "_s": (command_s[cmd], "s") for cmd in ("extract", "surrogate", "plot")},
        "peak_rss_mb": median(per_run("peak_rss_mb"), "MB"),
        "n_rules": median(per_run("n_rules"), "count"),
        "kept_pct": median(per_run("kept_pct"), "%"),
    }
    return {k: v for k, v in metrics.items() if v}, {"setup_s": setup, "runs": runs}


def run_inprocess(config: str, out: Path, tracer=None) -> tuple[dict, float]:
    """The four commands through cli.main in this process; (exit codes, seconds).

    With a tracer each command is a root span.
    """
    from ocsvm_rules import cli

    codes = {}
    t0 = time.perf_counter()
    for cmd, extra in COMMANDS:
        with tracer.span("cli." + cmd) if tracer else contextlib.nullcontext():
            try:
                codes[cmd] = cli.main([cmd, "--config", config, "--out", str(out)] + extra)
            except Exception:  # noqa: BLE001 - a crash is a failed op, not the end
                traceback.print_exc()
                codes[cmd] = -1
    return codes, time.perf_counter() - t0


def bench_traced(args, w, inputs: Path, ops: Ops) -> tuple[dict, dict]:
    """Plain and traced in-process pipelines in turn; (metrics, record)."""
    from ocsvm_rules import ocsvm

    config = str(inputs / "config.json")
    start = time.monotonic()
    per_run, totals, spans, reference = [], [], [], {}
    while True:
        t0 = time.monotonic()
        r = len(per_run)
        tracer = tracing.Tracer(run=r)
        took = {}
        # alternate which goes first so that neither always runs warm
        for kind in (("plain", "traced") if r % 2 == 0 else ("traced", "plain")):
            out = inputs / ("%s%d" % (kind, r))
            if kind == "traced":
                with tracing.installed(tracer):
                    codes, took[kind] = run_inprocess(config, out, tracer)
            else:
                codes, took[kind] = run_inprocess(config, out)
            check_run(ops, "%s run %d" % (kind, r), codes, out, inputs, w.columns, reference)
        m = tracing.layer_metrics(tracer.spans, ocsvm.DENSE_KERNEL_LIMIT)
        m["cli.bytes_written"] = (sum(f.stat().st_size for f in
                                      (inputs / ("traced%d" % r)).iterdir()), "bytes")
        m["trace.total_s"] = (took["traced"], "s")
        # the same four calls without wrappers: what tracing itself costs
        m["trace.overhead_s"] = (took["traced"] - took["plain"], "s")
        per_run.append(m)
        totals.append(took)
        spans.extend(tracer.spans)
        now = time.monotonic()
        if now - start + (now - t0) > min(args.seconds, DEADLINE_S):
            break
    RUNS.mkdir(exist_ok=True)
    path = RUNS / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    path.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in spans),
                    encoding="utf-8")
    return tracing.medians(per_run), {"runs": totals, "spans": str(path.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="draws the column units")
    ap.add_argument("--seconds", type=int, required=True, help="time to measure for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int,
                    help="draws the sample; defaults to the workload's own")
    args = ap.parse_args(argv)
    if not (SRC / "ocsvm_rules" / "cli.py").is_file():
        print("no program source at %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    data_seed = w.data_seed if args.data_seed is None else args.data_seed
    inputs = RUNS / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(inputs, ignore_errors=True)
    write_inputs(w, inputs, args.seed, data_seed)

    ops = Ops()
    bench = bench_traced if args.trace else bench_cli
    metrics, record = bench(args, w, inputs, ops)
    record.update(workload=args.workload, seed=args.seed, data_seed=data_seed,
                  trace=args.trace, seconds=args.seconds, machine=machine_facts(),
                  attempted=ops.attempted, failed=ops.failed, problems=ops.problems)

    for p in ops.problems:
        print("FAILED %s" % p, file=sys.stderr)
    print("%s seed %d (data seed %d), %d ops, failed_ops %d; %s" % (
        args.workload, args.seed, data_seed, ops.attempted, ops.failed,
        ", ".join("%s=%s" % kv for kv in record["machine"].items())), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, unit), file=sys.stderr)
    RUNS.mkdir(exist_ok=True)
    (RUNS / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(dict(record, metrics=metrics), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    if not ops.failed:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

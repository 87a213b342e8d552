"""smellscore benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-files --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed under
``perfbench/.work/``, then repeats the workload's timed CLI calls in a closed
loop, one client and one fresh process per repetition, until ``--seconds``
have passed.  Every repetition's output tree is checked against the oracles
in oracle.py.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured without tracing; their times are wall times converted to the
reference speed of worker.py's pace probes, so that the host's changing
speed does not read as a change of the program.  With ``--trace 1`` repetitions alternate between
untraced and traced (spans.py), and the metrics are the per-layer ones.  The
exit code is 0 only when every output matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = Path("perfbench") / ".work"

SMELL_TYPES = (
    "inconsistent-naming", "excessive-complexity", "redundancy", "incompleteness",
    "improper-alignment", "magic-number", "dead-code", "resource-handling", "documentation",
    "modularity", "encapsulation", "hierarchy", "abstraction",
)
RUN_SCENARIOS = ("all", "topic", "source")
RUN_RULESETS = ("all", "implementation", "design")
GRID_SCENARIOS = (
    "all", "topic", "source", "complexity:cyclomatic", "complexity:cognitive",
    "complexity:loc", "correctness:m1", "correctness:m2",
)
GRID_RULESETS = ("all", "implementation", "design", *(f"type:{t}" for t in SMELL_TYPES))

# Spans the timed calls must record (spans.py); spans.RULES stands for every rule.
ANALYSIS_SPANS = (
    "corpus.load_manifest", "java_syntax.lexer.tokenize", "java_syntax.parser.parse", spans.RULES,
    spans.READ, "smell_engine.detect_corpus", "smell_engine.detect_file",
    "scoreboard.partition", "scoreboard.score_scenario", "cli.run_analyze", "cli.run_score", "cli.run_report",
)
GRID_SPANS = (
    "corpus.load_manifest", "smell_engine.load_report_store", "scoreboard.partition",
    "scoreboard.score_scenario", "cli.run_score", "cli.run_report",
)

MIN_REPS = 3  # untraced repetitions; a traced run also makes MIN_REPS traced ones
SETUP_SAMPLES = 5  # extra import-only processes for setup_s
DEADLINE_S = 150.0  # stop repeating before the run could pass 180 s
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The program crashed or could not be run."""


def flags(name: str, values: tuple[str, ...]) -> list[str]:
    return [arg for value in values for arg in (f"--{name}", value)]


def spawn(spec: dict) -> dict:
    """Run worker.py in a fresh process.

    Adds the process's set-up time, as wall seconds (``setup_wall_s``) and
    at the reference speed of the pace probes (``setup_s``, see worker.py).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(spec), cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {e.timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - started
    result["setup_s"] = (result["setup_wall_s"] - result["setup_pace_s"]) * result["setup_speed"]
    return result


def summary_field(result: dict, key: str) -> int | None:
    """Sum of one field over the CLI summaries a repetition printed."""
    try:
        return sum(json.loads(text)[key] for text in result["outputs"])
    except (ValueError, KeyError, TypeError):
        return None


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

@dataclass
class Workload:
    argv: list[list[str]]  # CLI calls timed together in one repetition
    out: Path  # the output tree they write
    files: int  # input files the timed calls read
    lines: int  # source lines of those files
    expects: tuple[str, ...]  # spans the timed calls must record
    check: Callable[[], list[str]]  # oracle on the output tree
    reset: Callable[[], None] = lambda: None  # before each repetition
    check_each: Callable[[dict], list[str]] = lambda result: []
    reference: dict[str, str] | None = None  # digest every tree must equal
    ops: int = 0  # operations per repetition: source files, or scorecards

    def cold_reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def small_files(work: Path, seed: int) -> Workload:
    corpus = workloads.replicated_corpus(work / "corpus", seed, workloads.SMALL_COPIES)
    out = work / "out"
    argv = ["run", "--corpus", str(corpus.root), "--out", str(out),
            *flags("scenario", RUN_SCENARIOS), *flags("ruleset", RUN_RULESETS)]

    def check() -> list[str]:
        return (
            oracle.check_replicated_reports(out, corpus.origin)
            + oracle.check_vs_oracle(out, workloads.SMALL_COPIES)
            + oracle.check_derived_cards(out, corpus.origin, RUN_SCENARIOS)
            + oracle.check_card_identities(out)
        )

    w = Workload([argv], out, corpus.files, corpus.lines, ANALYSIS_SPANS, check, ops=corpus.files)
    w.reset = w.cold_reset
    return w


def rerun(work: Path, seed: int) -> Workload:
    w = small_files(work, seed)
    # Fill the output tree once, untimed, and hold every rerun to it.
    w.cold_reset()
    spawn({"mode": "verbs", "argv": w.argv})
    problems = w.check()
    if problems:
        raise BenchError("cold run before rerun: " + "; ".join(problems[:5]))
    w.reference = oracle.tree_digest(w.out)
    w.reset = lambda: None

    def check_each(result: dict) -> list[str]:
        changed = summary_field(result, "recomputed")
        return [] if changed == 0 else [f"rerun recomputed {changed} files, expected 0"]

    w.check_each = check_each
    return w


def long_files(work: Path, seed: int) -> Workload:
    corpus = workloads.long_corpus(work / "corpus", seed)
    out = work / "out"
    argv = ["run", "--corpus", str(corpus.root), "--out", str(out)]
    w = Workload(
        [argv], out, corpus.files, corpus.lines, ANALYSIS_SPANS,
        lambda: oracle.check_planted(out, corpus.planted), ops=corpus.files,
    )
    w.reset = w.cold_reset
    return w


def score_grid(work: Path, seed: int) -> Workload:
    corpus = workloads.replicated_corpus(work / "corpus", seed, workloads.GRID_COPIES)
    mini_out = work / "mini"
    spawn({"mode": "verbs", "argv": [["analyze", "--corpus", str(workloads.MINI.relative_to(ROOT)), "--out", str(mini_out)]]})
    problems = oracle.check_replicated_reports(mini_out, {t["task_id"]: t["task_id"] for t in workloads.mini_manifest()})
    if problems:
        raise BenchError("mini-corpus analysis for the report store: " + "; ".join(problems[:5]))
    out = work / "out"
    stored = spawn({"mode": "store", "mini_out": str(mini_out), "origin": corpus.origin, "out": str(out)})["written"]
    grid = [*flags("scenario", GRID_SCENARIOS), *flags("ruleset", GRID_RULESETS)]
    argv = [["score", "--corpus", str(corpus.root), "--out", str(out), *grid],
            ["report", "--corpus", str(corpus.root), "--out", str(out), *grid]]

    def check() -> list[str]:
        return (
            oracle.check_vs_oracle(out, workloads.GRID_COPIES)
            + oracle.check_derived_cards(out, corpus.origin, ("all", "topic", "source"))
            + oracle.check_card_identities(out)
        )

    def reset() -> None:
        for sub in ("scores", "heatmaps"):
            shutil.rmtree(out / sub, ignore_errors=True)

    return Workload(argv, out, stored, corpus.lines, GRID_SPANS, check, reset)


WORKLOADS = {
    "small-files": small_files,
    "long-files": long_files,
    "rerun": rerun,
    "score-grid": score_grid,
}


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

@dataclass
class Run:
    untraced: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)  # at reference speed
    setup_wall: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cards: int = 0


def measure(w: Workload, seconds: float, trace: bool, trace_out: Path, rules: list[str], began: float) -> Run:
    run = Run()
    start = time.monotonic()
    while True:
        traced = trace and len(run.untraced) > len(run.traced)
        w.reset()
        result = spawn({
            "mode": "verbs", "argv": w.argv, "trace": traced,
            "trace_out": str(trace_out), "rule_ids": rules, "expects": list(w.expects),
        })
        (run.traced if traced else run.untraced).append(result)
        run.setup.append(result["setup_s"])
        run.setup_wall.append(result["setup_wall_s"])

        problems = w.check() + w.check_each(result)
        digest = oracle.tree_digest(w.out)
        if w.reference is None:
            w.reference = digest
            w.ops = w.ops or oracle.count_cards(w.out)
        else:
            problems += oracle.digest_mismatches(w.reference, digest)
        run.attempted += w.ops
        run.failed += min(len(problems), w.ops)
        run.problems += problems

        done = len(run.untraced) >= MIN_REPS and (not trace or len(run.traced) >= MIN_REPS)
        now = time.monotonic()
        if done and now - start >= seconds:
            break
        if now - began + result["run_s"] + 2 * result["setup_wall_s"] > DEADLINE_S:
            break
    run.cards = oracle.count_cards(w.out)
    for _ in range(SETUP_SAMPLES):
        result = spawn({"mode": "setup"})
        run.setup.append(result["setup_s"])
        run.setup_wall.append(result["setup_wall_s"])
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paced_run_s(result: dict) -> float:
    """A repetition's time at the pace probes' reference speed (worker.py)."""
    return (result["run_s"] - result["run_pace_s"]) * result["run_speed"]


def end_to_end(w: Workload, run: Run) -> tuple[dict[str, float], list[str]]:
    times = [paced_run_s(r) for r in run.untraced]
    q1, run_s, q3 = quartiles(times)
    n = len(times)
    values = {
        "run_s": run_s,
        "files_per_s": w.files / run_s,
        "lines_per_s": w.lines / run_s,
        "cards_per_s": run.cards / run_s,
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in run.untraced),
        "setup_s": statistics.median(run.setup),
    }
    wall = [r["run_s"] for r in run.untraced]
    notes = [
        f"run_s median {run_s:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, n={n} repetitions (reference speed)",
        f"wall time of the timed calls: median {statistics.median(wall):.4f} s, min {min(wall):.4f}, max {max(wall):.4f};"
        f" host speed {statistics.median(r['run_speed'] for r in run.untraced):.3f} of the reference",
        f"inputs: {w.files} files, {w.lines} lines; outputs: {run.cards} scorecards",
        f"setup_s median of {len(run.setup)} fresh processes (reference speed); wall median {statistics.median(run.setup_wall):.4f} s",
    ]
    return values, notes


def per_layer(run: Run, names: list[str], trace_out: Path) -> tuple[dict[str, float], list[str]]:
    unmeasured: dict[str, str] = {}
    for r in run.traced:
        for metric, reason in r["unmeasured"].items():
            unmeasured.setdefault(metric, reason)
    values = {}
    for name in names:
        if name not in unmeasured and all(name in r["layers"] for r in run.traced):
            values[name] = statistics.median(r["layers"][name] for r in run.traced)
    changed = [summary_field(r, "recomputed") for r in run.traced]
    if None in changed:
        unmeasured["cli.files_changed"] = "the CLI summary has no 'recomputed' count"
    else:
        values["cli.files_changed"] = statistics.median(changed)
    values["process.cpu_s"] = statistics.median(r["cpu_s"] - r["run_pace_s"] for r in run.untraced)
    traced_s = statistics.median(r["run_s"] for r in run.traced)
    values["trace.overhead_s"] = traced_s - statistics.median(r["run_s"] - r["run_pace_s"] for r in run.untraced)
    by_reason: dict[str, list[str]] = {}
    for metric, reason in sorted(unmeasured.items()):
        by_reason.setdefault(reason, []).append(metric)
    notes = [f"unmeasured {', '.join(metrics)}: {reason}" for reason, metrics in by_reason.items()]
    notes.append(f"{len(run.traced)} traced and {len(run.untraced)} untraced repetitions; spans of the last traced one in {trace_out}")
    return values, notes


def rule_ids(spec: dict) -> list[str]:
    """The rule ids of the per-rule metrics rules.<id>.check_s in BENCHMARK.json."""
    return [
        m["name"][len("rules."):-len(".check_s")] for m in spec["per_layer"]
        if m["name"].startswith("rules.") and m["name"].endswith(".check_s") and m["name"] != "rules.check_s"
    ]


def main(argv: list[str] | None = None) -> int:
    began = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smellscore" / "cli.py").is_file():
        print("no smellscore sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_defs}
    rules = rule_ids(spec)

    work = WORK / f"run-{args.workload}-{args.seed}"
    trace_out = WORK / f"trace-{args.workload}-{args.seed}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spawn({"mode": "setup"})  # compiles bytecode once, outside every measurement
        w = WORKLOADS[args.workload](work, args.seed)
        os.sync()  # write the generated inputs back now, not during timed repetitions
        run = measure(w, args.seconds, bool(args.trace), trace_out, rules, began)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, notes = per_layer(run, list(units), trace_out)
    else:
        values, notes = end_to_end(w, run)
    error_rate = run.failed / run.attempted
    notes.append(f"error_rate {error_rate:.6f} ({run.failed} of {run.attempted} operations failed)")
    print(f"# {args.workload} seed {args.seed}")
    for note in notes:
        print(f"# {note}")
    for problem in run.problems[:20]:
        print(f"# MISMATCH {problem}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

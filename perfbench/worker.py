"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/worker.py < spec.json  (PYTHONPATH=src)

The spec names a mode:

* ``setup``: import ``smellscore.cli`` and report when it was ready.
* ``verbs``: run the CLI calls in ``argv`` one after another, timing them
  together; with ``trace`` the calls run under spans.py's hooks.
* ``store``: write the score-grid report store by replicating analysed
  mini-corpus reports with ``ViolationReport.to_json``.

The process prints one JSON object.  ``ready`` is the CLOCK_MONOTONIC time
at which ``smellscore.cli`` had been imported (and with it the rule
registry built); the parent subtracts its spawn time to get set-up time.

Pace probes.  From its first line until its timed calls end (until the
import ends, on a traced repetition) the process times a fixed
probe every ``PACE_INTERVAL_S`` of wall time, from a SIGALRM handler.  The
probe does the same work every time, so its duration tracks how fast the
host runs this process at that moment.  For each timed window the process
reports the summed probe time (``*_pace_s``, spent inside the window and
subtracted from it by the parent) and the mean host speed
``PACE_REF_S / probe time`` over the window's probes (``*_speed``).  A
window's wall time minus its probe time, times its mean speed, is its
duration at the reference speed: the time it would take on a host that runs
the probe in ``PACE_REF_S``.
"""

import json
import re
import signal
import time
from fractions import Fraction

PACE_INTERVAL_S = 0.010
PACE_REF_S = 300e-6  # about the probe's duration on an idle core of the baseline host
_paces: list[float] = []

# The probe mixes the kinds of work smellscore does (dicts and strings, a
# regex scan of Java text, a JSON round trip, exact fractions) without
# calling it, so that a change to the program cannot change the probe.
_WORDS = tuple(f"w{i}" for i in range(37))
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_JAVA = "public int sum(int[] values, String label) { int total = 0; for (int i = 0; i < values.length; i++) total += values[i]; }\n" * 2
_DOC = json.dumps({
    "subject": ["T01", "m1"], "parse_ok": True,
    "per_rule_counts": {f"rule-{i}": i for i in range(20)},
    "violations": [{"rule_id": "line-length", "line": i, "col": 3, "message": "x" * 20} for i in range(8)],
}, indent=2, sort_keys=True)


def _probe_work() -> int:
    counts: dict[str, int] = {}
    parts = []
    for i in range(300):
        word = _WORDS[i % 37]
        counts[word] = counts.get(word, 0) + i
        parts.append(word.upper())
    for match in _IDENT.finditer(_JAVA):
        counts[match.group()] = counts.get(match.group(), 0) + 1
    doc = json.dumps(json.loads(_DOC), indent=2, sort_keys=True)
    total = sum((Fraction(i * 7 + 1, i * 3 + 2) for i in range(1, 25)), Fraction(0))
    return len("".join(parts)) + len(counts) + len(doc) + total.numerator


def _pace(signum=None, frame=None) -> None:
    start = time.perf_counter()
    _probe_work()
    _paces.append(time.perf_counter() - start)


def _window(first: int) -> tuple[float, float]:
    """(probe seconds, mean speed) of the probes taken since index first."""
    _pace()  # every window ends with one probe, however short it was
    probes = _paces[first:]
    return sum(probes[:-1]), sum(PACE_REF_S / p for p in probes) / len(probes)


signal.signal(signal.SIGALRM, _pace)
signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)

import smellscore.cli  # noqa: E402  set-up ends when this import returns

READY = time.monotonic()
SETUP_PACE = _window(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _stop_probes() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def run_verbs(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        _stop_probes()  # spans time the program alone
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    outputs = []
    first = len(_paces)
    start_cpu = time.process_time()
    start = time.perf_counter()
    for argv in spec["argv"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = smellscore.cli.main(argv)
        if code != 0:
            raise SystemExit(f"smellscore {' '.join(argv)} exited with {code}")
        outputs.append(buf.getvalue())
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - start_cpu
    _stop_probes()
    pace_s, speed = _window(first)
    result = {"run_s": run_s, "cpu_s": cpu_s, "run_pace_s": pace_s, "run_speed": speed, "outputs": outputs}
    if tracer is not None:
        from spans import layer_metrics

        Path(spec["trace_out"]).write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
        result["layers"], result["unmeasured"] = layer_metrics(tracer, spec["rule_ids"], spec["expects"])
    return result


def build_store(spec: dict) -> dict:
    from smellscore.rules.model import ViolationReport

    mini = Path(spec["mini_out"]) / "reports"
    written = 0
    for subject_dir in sorted(p for p in mini.iterdir() if p.is_dir()):
        out_dir = Path(spec["out"]) / "reports" / subject_dir.name
        out_dir.mkdir(parents=True, exist_ok=True)
        originals = {
            p.stem: json.loads(p.read_text(encoding="utf-8"))
            for p in subject_dir.glob("*.json")
            if p.name != "_failures.json"
        }
        for task_id, original in sorted(spec["origin"].items()):
            if original not in originals:
                continue
            report = ViolationReport.from_json(originals[original])
            report.subject = (task_id, subject_dir.name)
            text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
            (out_dir / f"{task_id}.json").write_text(text, encoding="utf-8")
            written += 1
    return {"written": written}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    if spec["mode"] != "verbs":
        _stop_probes()
    src = Path.cwd().resolve() / "src"
    if src not in Path(smellscore.cli.__file__).resolve().parents:
        print(f"smellscore was imported from {smellscore.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if spec["mode"] == "verbs":
        result = run_verbs(spec)
    elif spec["mode"] == "store":
        result = build_store(spec)
    else:
        result = {}
    result["ready"] = READY
    result["setup_pace_s"], result["setup_speed"] = SETUP_PACE
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into smellscore's public functions, for the traced run.

Tracing is installed from outside the program: every binding of a hooked
function inside the loaded ``smellscore`` modules (module globals and
module-level dicts such as a checker registry) is replaced by a wrapper that
records a span.  A hook whose function has moved or whose parameters differ
from the ones listed here is not installed; every metric computed from its
span is then reported as unmeasured instead of failing the run, and so is a
metric whose span the workload should record but never did.

A span carries a name, start, end, parent and trace id.  Calls made while a
source file is analyzed (one ``detect_file`` call) share that file's trace
id; everything else carries trace id 0.  Each thread keeps its own stack of
open spans, so a span's parent is the innermost open span of the thread
that called it.  Spans stay in memory and are written out when the traced
repetition ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, function, parameter names).  A span is named after its module,
# without the package prefix, and its function.
HOOKS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("smellscore.corpus", "load_manifest", ("path",)),
    ("smellscore.java_syntax.lexer", "tokenize", ("source",)),
    ("smellscore.java_syntax.parser", "parse", ("source",)),
    ("smellscore.smell_engine", "detect_corpus", ("corpus", "subjects", "rules", "out_dir", "jobs")),
    ("smellscore.smell_engine", "detect_file", ("source", "subject", "rules", "outcome")),
    ("smellscore.smell_engine", "load_report_store", ("out_dir",)),
    ("smellscore.scoreboard", "partition", ("corpus", "selector")),
    ("smellscore.scoreboard", "score_scenario", ("corpus", "reports", "scenario", "ruleset", "subjects")),
    ("smellscore.cli", "run_analyze", ("config", "summary")),
    ("smellscore.cli", "run_score", ("config", "summary", "reports")),
    ("smellscore.cli", "run_report", ("config", "summary")),
)
CHECKER_MODULES = ("smellscore.rules.implementation", "smellscore.rules.design")
CHECKER_PARAMS = ("ctx", "rule")
READ = "smell_engine.read"  # recorded between two detect_file calls of detect_corpus


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    trace_id: int = 0
    count: int = 0  # work done: tokens, nodes, violations, cards, tasks
    failed: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    unmeasured: dict[str, str] = field(default_factory=dict)  # span name -> why it has no hook
    hooked: set[str] = field(default_factory=set)  # span names whose hook is installed
    off_main: bool = False  # a file was analyzed off the main thread
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _files: int = 0
    _restore: list[tuple[dict, str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # recording

    def _open(self) -> list[int]:
        """The calling thread's stack of open spans."""
        if not hasattr(self._local, "open"):
            self._local.open = []
        return self._local.open

    def _enter(self, name: str) -> int:
        stack = self._open()
        parent = stack[-1] if stack else -1
        with self._lock:
            trace_id = self.spans[parent].trace_id if parent >= 0 else 0
            now = time.perf_counter()
            if name == "smell_engine.detect_file":
                self._files += 1
                trace_id = self._files
                if threading.current_thread() is not threading.main_thread():
                    self.off_main = True
                elif parent >= 0 and self.spans[parent].name == "smell_engine.detect_corpus":
                    # Everything the corpus loop did since its previous file (read
                    # plus SourceFile.from_text today) belongs to this file.
                    since = self._last_child_end(parent)
                    self.spans.append(Span(READ, since, now, parent, trace_id))
            self.spans.append(Span(name, now, 0.0, parent, trace_id))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _last_child_end(self, parent: int) -> float:
        for span in reversed(self.spans):
            if span.parent == parent and span.name == "smell_engine.detect_file":
                return span.end
        return self.spans[parent].start

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open().pop()

    def wrap(self, name: str, fn: Callable, counter: Callable[[Any, Span], None] | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):  # a lazy result does its work when consumed
                    result = list(result)
            finally:
                self._exit(index)
            if counter is not None:
                counter(result, self.spans[index])
            return result

        return traced

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        for module, name, params in HOOKS:
            span_name = f"{module.removeprefix('smellscore.')}.{name}"
            fn = _lookup(module, name, params)
            if isinstance(fn, str):
                self.unmeasured.setdefault(span_name, fn)
                continue
            self._replace(fn, self.wrap(span_name, fn, _COUNTERS.get(name)))
            self.hooked.add(span_name)
        if {"smell_engine.detect_corpus", "smell_engine.detect_file"} <= self.hooked:
            self.hooked.add(READ)
        for module in CHECKER_MODULES:
            mod = importlib.import_module(module)
            for name, fn in vars(mod).items():
                if not (name.startswith("check_") and inspect.isfunction(fn) and fn.__module__ == module):
                    continue
                span_name = "rules." + name.removeprefix("check_").replace("_", "-")
                if tuple(inspect.signature(fn).parameters) != CHECKER_PARAMS:
                    self.unmeasured.setdefault(span_name, f"{module}.{name} changed signature")
                    continue
                self._replace(fn, self.wrap(span_name, fn, _count_len))
                self.hooked.add(span_name)

    def _replace(self, fn: Callable, wrapper: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("smellscore") or mod is None:
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._restore.append((namespace, key, value))
                    namespace[key] = wrapper
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._restore.append((value, k, v))
                            value[k] = wrapper

    def uninstall(self) -> None:
        for mapping, key, value in reversed(self._restore):
            mapping[key] = value
        self._restore.clear()

    # ------------------------------------------------------------------
    # export

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def to_json(self) -> dict[str, Any]:
        own = self.self_times()
        return {
            "unmeasured": self.unmeasured,
            "spans": [
                {**dataclasses.asdict(s), "self": own[i]} for i, s in enumerate(self.spans)
            ],
        }


def _lookup(module: str, name: str, params: tuple[str, ...]) -> Callable | str:
    """The function, or the reason it cannot be hooked."""
    try:
        fn = getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return f"{module}.{name} not found"
    if not callable(fn):
        return f"{module}.{name} is not callable"
    try:
        actual = tuple(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return f"{module}.{name} has no signature"
    if actual != params:
        return f"{module}.{name} parameters are {actual}, expected {params}"
    return fn


def _count_len(result: Any, span: Span) -> None:
    span.count = len(result)


def _count_parse(result: Any, span: Span) -> None:
    if getattr(result, "ok", False):
        span.count = count_nodes(result.ast)
    else:
        span.failed = 1


def _count_tasks(result: Any, span: Span) -> None:
    span.count = len(result.tasks)


_COUNTERS = {
    "tokenize": _count_len,
    "parse": _count_parse,
    "score_scenario": _count_len,
    "load_manifest": _count_tasks,
}


def count_nodes(root: Any) -> int:
    """Number of AST nodes below root, found through dataclass fields."""
    node_type = type(root).__mro__[-2]  # the common Node base class
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, node_type):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, node_type))
    return count


# --------------------------------------------------------------------------
# Per-layer metrics from one traced repetition
# --------------------------------------------------------------------------

RULES = "rules.*"  # stands for every hooked checker

# metric -> the span names it is computed from.  rules.<id>.check_s comes
# from span rules.<id>; cli.files_changed, process.cpu_s and
# trace.overhead_s are not span metrics and are computed by run.py.
SOURCES: dict[str, tuple[str, ...]] = {
    "java_syntax.lexer.tokenize_s": ("java_syntax.lexer.tokenize",),
    "java_syntax.lexer.tokens": ("java_syntax.lexer.tokenize",),
    "java_syntax.lexer.tokens_per_s": ("java_syntax.lexer.tokenize",),
    "java_syntax.parser.parse_s": ("java_syntax.parser.parse",),
    "java_syntax.parser.nodes": ("java_syntax.parser.parse",),
    "java_syntax.parser.failures": ("java_syntax.parser.parse",),
    "rules.check_s": (RULES,),
    "rules.violations": (RULES,),
    "smell_engine.read_s": (READ,),
    "smell_engine.detect_file_s": ("smell_engine.detect_file",),
    "smell_engine.overhead_s": ("smell_engine.detect_file", RULES),
    "smell_engine.file_p50_ms": (READ, "smell_engine.detect_file"),
    "smell_engine.file_p99_ms": (READ, "smell_engine.detect_file"),
    "smell_engine.store_load_s": ("smell_engine.load_report_store",),
    "cli.analyze_s": ("cli.run_analyze",),
    "cli.score_s": ("cli.run_score",),
    "cli.report_s": ("cli.run_report",),
    "cli.write_s": ("cli.run_analyze", "smell_engine.detect_corpus"),
    "corpus.load_manifest_s": ("corpus.load_manifest",),
    "corpus.tasks": ("corpus.load_manifest",),
    "scoreboard.score_scenario_s": ("scoreboard.score_scenario",),
    "scoreboard.partition_s": ("scoreboard.partition",),
    "scoreboard.cards": ("scoreboard.score_scenario",),
}


def layer_metrics(tracer: Tracer, rule_ids: list[str], expects: list[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics, and the metrics that could not be measured.

    ``expects`` names the spans the workload must record (RULES for every
    rule in ``rule_ids``).  A metric is unmeasured when one of its source
    spans has no installed hook, or is expected but was never recorded, or
    (for the read span) when files were analyzed off the main thread, where
    the time between two files no longer belongs to one of them.
    """
    own = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    count: dict[str, int] = {}
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    files: dict[int, float] = {}
    rules_s = 0.0
    violations = 0
    for i, s in enumerate(tracer.spans):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + own[i]
        count[s.name] = count.get(s.name, 0) + s.count
        calls[s.name] = calls.get(s.name, 0) + 1
        failed[s.name] = failed.get(s.name, 0) + s.failed
        if s.name in (READ, "smell_engine.detect_file"):
            files[s.trace_id] = files.get(s.trace_id, 0.0) + s.duration
        if s.name.startswith("rules.") and not (s.parent >= 0 and tracer.spans[s.parent].name.startswith("rules.")):
            rules_s += s.duration
            violations += s.count

    sources = dict(SOURCES, **{f"rules.{r}.check_s": (f"rules.{r}",) for r in rule_ids})
    rule_spans = [name for name in tracer.hooked if name.startswith("rules.")]
    required = {name for name in expects if name != RULES}
    if RULES in expects:
        required |= {f"rules.{r}" for r in rule_ids}

    def why_unmeasured(name: str) -> str | None:
        if name == RULES:
            if not rule_spans:
                return "no check_* function could be hooked"
            if RULES in expects and not any(calls.get(n) for n in rule_spans):
                return "no checker was called"
            return None
        if name not in tracer.hooked:
            return tracer.unmeasured.get(name, f"no hook records span {name}")
        if name == READ and tracer.off_main:
            return "files were analyzed off the main thread"
        if name in required and not calls.get(name):
            return f"span {name} was never recorded"
        return None

    unmeasured = {}
    for metric, names in sources.items():
        reasons = [r for r in map(why_unmeasured, names) if r]
        if reasons:
            unmeasured[metric] = reasons[0]

    tokenize_s = total.get("java_syntax.lexer.tokenize", 0.0)
    tokens = count.get("java_syntax.lexer.tokenize", 0)
    latencies = sorted(files.values())
    values = {
        "java_syntax.lexer.tokenize_s": tokenize_s,
        "java_syntax.lexer.tokens": tokens,
        "java_syntax.lexer.tokens_per_s": tokens / tokenize_s if tokenize_s else 0.0,
        "java_syntax.parser.parse_s": self_total.get("java_syntax.parser.parse", 0.0),
        "java_syntax.parser.nodes": count.get("java_syntax.parser.parse", 0),
        "java_syntax.parser.failures": failed.get("java_syntax.parser.parse", 0),
        "rules.check_s": rules_s,
        "rules.violations": violations,
        **{f"rules.{r}.check_s": total.get(f"rules.{r}", 0.0) for r in rule_ids},
        "smell_engine.read_s": total.get(READ, 0.0),
        "smell_engine.detect_file_s": total.get("smell_engine.detect_file", 0.0),
        "smell_engine.overhead_s": total.get("smell_engine.detect_file", 0.0) - rules_s,
        "smell_engine.file_p50_ms": 1000 * _quantile(latencies, 0.50),
        "smell_engine.file_p99_ms": 1000 * _quantile(latencies, 0.99),
        "smell_engine.store_load_s": total.get("smell_engine.load_report_store", 0.0),
        "cli.analyze_s": total.get("cli.run_analyze", 0.0),
        "cli.score_s": total.get("cli.run_score", 0.0),
        "cli.report_s": total.get("cli.run_report", 0.0),
        "cli.write_s": self_total.get("cli.run_analyze", 0.0),
        "corpus.load_manifest_s": total.get("corpus.load_manifest", 0.0),
        "corpus.tasks": count.get("corpus.load_manifest", 0) // max(1, calls.get("corpus.load_manifest", 0)),
        "scoreboard.score_scenario_s": self_total.get("scoreboard.score_scenario", 0.0),
        "scoreboard.partition_s": total.get("scoreboard.partition", 0.0),
        "scoreboard.cards": count.get("scoreboard.score_scenario", 0),
    }
    return {k: v for k, v in values.items() if k not in unmeasured}, unmeasured


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]

"""Score formulas against hand-worked oracles, partition behavior, the
descriptive statistics, and the algebraic properties of the score."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smellscore import cli, scoreboard
from smellscore.corpus import CodingTask, ComplexityTriple, Corpus, GeneratedSolution, load_manifest
from smellscore.java_syntax.lexer import Span
from smellscore.rules.catalog import catalog, rule_types
from smellscore.rules.model import ALL_TYPES, Violation, ViolationReport
from smellscore.scoreboard import (
    DegenerateInputError,
    EmptyScenarioError,
    ReportCounts,
    RuleSetSelector,
    ScenarioSelector,
    UndefinedBaselineError,
    _tally,
    compute_increase,
    compute_vs,
    dispersion,
    partition,
    pearson,
    load_scorecards,
    rank_topics,
    write_scorecards,
    score_scenario,
    ScoreCard,
)
from smellscore.smell_engine import BASELINE, detect_corpus, load_report_store, read_report

RULE_IDS = [r.rule_id for r in catalog()]
TYPES = rule_types()


def report(counts: dict[str, int], subject=("t", "m"), parse_ok=True) -> ViolationReport:
    violations = []
    line = 1
    for rule_id, count in counts.items():
        for _ in range(count):
            violations.append(
                Violation(rule_id=rule_id, file="f.java", span=Span(line, 1, line, 2), message="", snippet="")
            )
            line += 1
    return ViolationReport.build(subject, parse_ok=parse_ok, violations=violations, rule_types=TYPES)


def rules(*ids: str) -> set[str]:
    return set(ids)


def task(task_id: str, topic="String", source="textbook", cyclomatic=1, cognitive=0, loc=5,
         solutions=()) -> CodingTask:
    return CodingTask(
        task_id=task_id,
        source=source,
        topic=topic,
        description=f"task {task_id}",
        input_length=2,
        complexity=ComplexityTriple(cyclomatic=cyclomatic, cognitive=cognitive, loc=loc),
        reference_path="refs/x.java",
        solutions=tuple(solutions),
    )


def corpus(tasks) -> Corpus:
    models = frozenset(s.model_id for t in tasks for s in t.solutions)
    return Corpus(root=Path("."), tasks=tuple(tasks), models=models)


class TestScoreFormulas:
    def test_two_task_two_rule_example(self):
        # t1 counts (3, 1), t2 counts (0, 2) over rules s1=magic-number, s2=line-length
        reports = [
            report({"magic-number": 3, "line-length": 1}),
            report({"magic-number": 0, "line-length": 2}),
        ]
        assert compute_vs(reports, rules("magic-number", "line-length")) == Fraction(3)

    def test_zero_violations(self):
        assert compute_vs([report({}), report({})], rules("magic-number")) == 0

    def test_baseline_hand_example(self):
        reference = [report({"magic-number": 1}), report({"magic-number": 1})]
        assert compute_vs(reference, rules("magic-number", "line-length")) == Fraction(1)

    def test_parse_failures_leave_both_sides_of_the_ratio(self):
        reports = [report({"magic-number": 4}), report({"magic-number": 100}, parse_ok=False)]
        assert compute_vs(reports, rules("magic-number")) == Fraction(4)

    def test_empty_scenario_raises(self):
        with pytest.raises(EmptyScenarioError):
            compute_vs([report({}, parse_ok=False)], rules("magic-number"))

    def test_increase_identity_and_doubling(self):
        b = Fraction(13, 5)
        assert compute_increase(b, b) == 0
        assert compute_increase(2 * b, b) == 1

    def test_increase_undefined_on_zero_baseline(self):
        with pytest.raises(UndefinedBaselineError):
            compute_increase(Fraction(1), Fraction(0))

    def test_recorded_score_pairs_share_one_baseline(self):
        # two recorded (score, increase) pairs back-solve to the same baseline
        pairs = [(Fraction("27.571"), Fraction("0.4228")), (Fraction("35.844"), Fraction("0.8497"))]
        baselines = [vs / (1 + inc) for vs, inc in pairs]
        assert abs(float(baselines[0] - baselines[1])) < 0.005
        for (vs, inc), b in zip(pairs, baselines):
            assert compute_increase(vs, b) == inc
        assert abs(float(sum(baselines) / 2) - 19.378) < 0.005

    def test_recorded_worst_subject_score(self):
        # 35,844 violations over 1000 analyzed solutions scores 35.844
        per_report = [35844 // 1000 + (1 if i < 35844 % 1000 else 0) for i in range(1000)]
        reports = [report({"magic-number": c}) for c in per_report]
        assert compute_vs(reports, rules("magic-number")) == Fraction("35.844")


class TestPartition:
    def test_by_topic(self):
        c = corpus([task("t1", topic="A"), task("t2", topic="A"), task("t3", topic="B")])
        parts = partition(c, ScenarioSelector.parse("topic"))
        assert [(label, [t.task_id for t in ts]) for label, ts in parts] == [
            ("A", ["t1", "t2"]),
            ("B", ["t3"]),
        ]

    def test_by_complexity_unit_buckets(self):
        c = corpus([task(f"t{i}", cyclomatic=i) for i in range(1, 7)])
        parts = partition(c, ScenarioSelector.parse("complexity:cyclomatic"))
        assert [label for label, _ in parts] == ["1", "2", "3", "4", "5", "6"]
        assert all(len(ts) == 1 for _, ts in parts)

    def test_by_complexity_width_buckets(self):
        c = corpus([task("a", loc=3), task("b", loc=9), task("c", loc=17)])
        parts = partition(c, ScenarioSelector.parse("complexity:loc"))
        assert [(label, len(ts)) for label, ts in parts] == [("0-9", 2), ("10-19", 1)]

    def test_by_source_covers_corpus(self):
        tasks = [task("t1"), task("t2", source="stackoverflow"), task("t3")]
        parts = partition(corpus(tasks), ScenarioSelector.parse("source"))
        seen = [t.task_id for _, ts in parts for t in ts]
        assert sorted(seen) == ["t1", "t2", "t3"]

    def test_by_correctness_excludes_unknown(self):
        tasks = [
            task("t1", solutions=[GeneratedSolution("m1", "s/1.java", correct=True)]),
            task("t2", solutions=[GeneratedSolution("m1", "s/2.java", correct=False)]),
            task("t3", solutions=[GeneratedSolution("m1", "s/3.java", correct=None)]),
        ]
        parts = dict(partition(corpus(tasks), ScenarioSelector.parse("correctness:m1")))
        assert [t.task_id for t in parts["correct"]] == ["t1"]
        assert [t.task_id for t in parts["incorrect"]] == ["t2"]


class TestStatistics:
    def test_pearson_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-9)

    def test_pearson_reversal(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-9)

    def test_pearson_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-9)

    def test_pearson_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            pearson([1], [2])

    @given(
        xs=st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=12),
        a=st.fractions(min_value="1/10", max_value=10),
        b=st.fractions(min_value=-50, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_pearson_affine_invariance(self, xs, a, b):
        ys = list(range(len(xs)))
        if len(set(xs)) < 2:
            return  # zero variance is the degenerate case, tested separately
        base = pearson(xs, ys)
        shifted = pearson([float(a * x + b) for x in xs], ys)
        assert shifted == pytest.approx(base, abs=1e-9)
        negated = pearson([-x for x in xs], ys)
        assert negated == pytest.approx(-base, abs=1e-9)

    def test_dispersion_values(self):
        assert dispersion({"a": 3, "b": 3, "c": 3}) == 0
        assert dispersion({"a": 2, "b": 4}) == pytest.approx(1.0)
        assert dispersion({str(i): i for i in range(1, 6)}) == pytest.approx(1.4142, abs=1e-4)

    def test_dispersion_needs_two_labels(self):
        with pytest.raises(DegenerateInputError):
            dispersion({"a": 1})


def card(topic: str, vs, increase=None) -> ScoreCard:
    return ScoreCard(
        subject="m1",
        scenario=f"topic/{topic}",
        ruleset="all",
        n_tasks=1,
        n_analyzed=1,
        total_violations=int(vs),
        vs=Fraction(vs),
        baseline_vs=Fraction(1),
        increase_rate=None if increase is None else Fraction(increase),
    )


class TestRankings:
    def test_best_and_worst(self):
        cards = [card("A", 1), card("B", 5), card("C", 3)]
        ranked = rank_topics(cards, k=1)
        assert ranked.best == [("A", Fraction(1))]
        assert ranked.worst == [("B", Fraction(5))]

    def test_improved_and_worsened(self):
        cards = [card("A", 1, increase="-0.1"), card("B", 1, increase="0.4")]
        ranked = rank_topics(cards, k=1)
        assert ranked.most_improved[0][0] == "A"
        assert ranked.most_worsened[0][0] == "B"

    def test_k3_over_five_topics(self):
        values = {"Alpha": 4, "Beta": 2, "Gamma": 9, "Delta": 2, "Echo": 6}
        ranked = rank_topics([card(t, v) for t, v in values.items()], k=3)
        # ties break lexicographically: Beta before Delta at vs=2
        assert [t for t, _ in ranked.best] == ["Beta", "Delta", "Alpha"]
        assert [t for t, _ in ranked.worst] == ["Gamma", "Echo", "Alpha"]


class TestScorecardStore:
    def test_identical_rewrite_leaves_file_alone(self, tmp_path):
        cards = [card("Inheritance", 3, increase=2), card("String", 1)]
        assert write_scorecards([("topic", "all", cards)], tmp_path) == 1
        path = tmp_path / "scores" / "topic" / "all.json"
        before = path.stat().st_mtime_ns
        assert write_scorecards([("topic", "all", list(reversed(cards)))], tmp_path) == 0
        assert path.stat().st_mtime_ns == before
        assert load_scorecards(path) == cards
        assert write_scorecards([("topic", "all", cards[:1]), ("all", "all", cards)], tmp_path) == 2

    def test_unknown_smell_type_is_rejected_when_parsed(self):
        assert RuleSetSelector.parse("type:magic-number").smell_types == ("magic-number",)
        with pytest.raises(ValueError, match="unknown smell type"):
            RuleSetSelector.parse("type:nope")


class TestPerTypeConsistency:
    def test_uniform_fixture_mean_of_type_increases_matches_overall(self):
        """With equal baseline weight on every smell type, the overall
        increase equals the arithmetic mean of the per-type increases."""
        one_rule_per_type = {t: next(r.rule_id for r in catalog() if r.smell_type == t) for t in ALL_TYPES}
        baseline = [report({rule_id: 1 for rule_id in one_rule_per_type.values()}) for _ in range(4)]
        subject_counts = {t: i + 1 for i, t in enumerate(ALL_TYPES)}
        subject = [report({one_rule_per_type[t]: subject_counts[t] for t in ALL_TYPES}) for _ in range(4)]

        per_type_increase = []
        for t in ALL_TYPES:
            s = rules(one_rule_per_type[t])
            inc = compute_increase(compute_vs(subject, s), compute_vs(baseline, s))
            per_type_increase.append(inc)
        mean_increase = sum(per_type_increase) / len(per_type_increase)

        all_rules = rules(*one_rule_per_type.values())
        overall = compute_increase(compute_vs(subject, all_rules), compute_vs(baseline, all_rules))
        assert overall == mean_increase


RULESETS = ["all", "implementation", "design", *(f"type:{t}" for t in ALL_TYPES)]
# Each scenario form with its label and the (label, task count) of each part
# of the mini corpus's partition.
SCENARIOS = {
    "all": ("all", [("all", 10)]),
    "topic": ("topic", [
        ("Array", 1), ("Collections", 1), ("ControlFlow", 1), ("Encapsulation", 1), ("Exceptions", 1),
        ("Inheritance", 1), ("InputOutput", 1), ("Interfaces", 1), ("OOP", 1), ("String", 1),
    ]),
    "source": ("source", [("stackoverflow", 4), ("textbook", 6)]),
    "complexity:cyclomatic": ("complexity-cyclomatic", [("1", 5), ("2", 1), ("3", 1), ("4", 1), ("5", 1), ("6", 1)]),
    "complexity:cognitive": ("complexity-cognitive", [("0-4", 9), ("5-9", 1)]),
    "complexity:loc": ("complexity-loc", [("0-9", 3), ("10-19", 7)]),
    "correctness:m1": ("correctness-m1", [("correct", 6), ("incorrect", 3)]),
}
MINI = Path(__file__).parent / "data" / "mini_corpus"


def rule_ids_of(label: str) -> set[str]:
    """The ids of the catalog rules a rule set's label names: all of them, one
    category's, or one smell type's (``type-<name>``)."""
    if label == "all":
        return set(RULE_IDS)
    if label.startswith("type-"):
        return {r.rule_id for r in catalog() if r.smell_type == label.removeprefix("type-")}
    return {r.rule_id for r in catalog() if r.category == label}


def _write_mini_store(out: Path) -> Corpus:
    mini = load_manifest(MINI)
    detect_corpus(mini, [BASELINE, *sorted(mini.models)], out_dir=out)
    return mini


@pytest.fixture(scope="module")
def mini_store(tmp_path_factory):
    """The mini corpus and its full reports, each read back from a written
    store with read_report."""
    out = tmp_path_factory.mktemp("mini")
    mini = _write_mini_store(out)
    reports = {
        subject_dir.name: {
            path.stem: read_report(path) for path in sorted(subject_dir.glob("*.json")) if path.name != "_failures.json"
        }
        for subject_dir in sorted((out / "reports").iterdir())
    }
    return mini, reports


class TestScoreFromTypeCounts:
    """Cards are summed from per-type counts; they must equal the rule-id tally."""

    @pytest.mark.parametrize("text", RULESETS)
    def test_ruleset_is_the_union_of_its_smell_types(self, text):
        selector = RuleSetSelector.parse(text)
        assert selector.label == text.replace(":", "-")
        assert len(set(selector.smell_types)) == len(selector.smell_types)
        from_types = {r.rule_id for r in catalog() if r.smell_type in selector.smell_types}
        assert from_types == rule_ids_of(selector.label)

    @pytest.mark.parametrize("scenario_text", SCENARIOS)
    def test_cards_equal_the_rule_tally(self, mini_store, scenario_text):
        mini, reports = mini_store
        scenario = ScenarioSelector.parse(scenario_text)
        parts = [(label, len(tasks)) for label, tasks in partition(mini, scenario)]
        assert (scenario.label, parts) == SCENARIOS[scenario_text]
        subjects = sorted(reports)
        for ruleset_text in RULESETS:
            ruleset = RuleSetSelector.parse(ruleset_text)
            rule_ids = rule_ids_of(ruleset.label)
            expected = {}
            for label, tasks in partition(mini, scenario):
                tallies = {
                    subject: _tally([reports[subject][t.task_id] for t in tasks if t.task_id in reports[subject]], rule_ids)
                    for subject in subjects
                }
                base_total, base_analyzed = tallies[BASELINE]
                baseline_vs = Fraction(base_total, base_analyzed) if base_analyzed else None
                for subject, (total, analyzed) in tallies.items():
                    if analyzed:
                        expected[(f"{scenario.label}/{label}", subject)] = (total, analyzed, baseline_vs)
            cards = score_scenario(mini, ReportCounts(mini, reports), scenario, ruleset, subjects)
            got = {(c.scenario, c.subject): (c.total_violations, c.n_analyzed, c.baseline_vs) for c in cards}
            assert got == expected
            assert len(cards) == len(expected)


def _tallied_cards(mini, reports, scenario, ruleset, subjects):
    """(scenario, subject) -> (total, analyzed, baseline_vs, increase_rate),
    worked out from the rule tally of each label's reports."""
    rule_ids = rule_ids_of(ruleset.label)
    expected = {}
    for label, tasks in partition(mini, scenario):
        def tally(subject):
            by_task = reports.get(subject, {})
            return _tally([by_task[t.task_id] for t in tasks if t.task_id in by_task], rule_ids)

        base_total, base_analyzed = tally(BASELINE)
        baseline_vs = Fraction(base_total, base_analyzed) if base_analyzed else None
        for subject in subjects:
            total, analyzed = tally(subject)
            if analyzed:
                vs = Fraction(total, analyzed)
                increase = compute_increase(vs, baseline_vs) if baseline_vs else None
                expected[(f"{scenario.label}/{label}", subject)] = (total, analyzed, baseline_vs, increase)
    return expected


class TestCountTable:
    """Cards from the count table against the rule tally, on stores that
    lack reports, baselines, tasks or parse-clean solutions."""

    @staticmethod
    def cards(mini, reports, subjects, scenario="topic", ruleset="all"):
        """Scores every rule set of the scenario through one shared table, so
        label sums left over from another rule set would show; returns the
        cards of ``ruleset``."""
        scenario = ScenarioSelector.parse(scenario)
        counts = ReportCounts(mini, reports)
        by_ruleset = {}
        for text in RULESETS:
            selector = RuleSetSelector.parse(text)
            cards = score_scenario(mini, counts, scenario, selector, subjects)
            got = {(c.scenario, c.subject): (c.total_violations, c.n_analyzed, c.baseline_vs, c.increase_rate) for c in cards}
            assert len(cards) == len(got)
            assert got == _tallied_cards(mini, reports, scenario, selector, subjects), text
            by_ruleset[text] = got
        return by_ruleset[ruleset]

    def test_subject_without_reports_gets_no_cards(self, mini_store):
        mini, reports = mini_store
        got = self.cards(mini, reports, ["m1", "ghost"])
        assert {subject for _, subject in got} == {"m1"}

    def test_store_without_baseline_has_no_baseline_or_increase(self, mini_store):
        mini, reports = mini_store
        without = {subject: by_task for subject, by_task in reports.items() if subject != BASELINE}
        got = self.cards(mini, without, ["m1", "m2"], scenario="all", ruleset="implementation")
        assert got and all(baseline is None and increase is None for _, _, baseline, increase in got.values())

    def test_report_for_a_task_outside_the_manifest_is_ignored(self, mini_store):
        mini, reports = mini_store
        extra = {**reports, "m1": {**reports["m1"], "T99": report({"magic-number": 5}, subject=("T99", "m1"))}}
        assert self.cards(mini, extra, ["m1", "m2"]) == self.cards(mini, reports, ["m1", "m2"])

    def test_label_whose_solutions_all_failed_to_parse_has_no_card(self, mini_store):
        mini, reports = mini_store
        label, tasks = partition(mini, ScenarioSelector.parse("topic"))[0]
        failed = {t.task_id for t in tasks}
        m1 = {task_id: replace(r, parse_ok=False) if task_id in failed else r for task_id, r in reports["m1"].items()}
        got = self.cards(mini, {**reports, "m1": m1}, ["m1", "m2"])
        assert (f"topic/{label}", "m1") not in got
        assert (f"topic/{label}", "m2") in got

    def test_task_without_a_solution_by_one_model(self, mini_store):
        mini, reports = mini_store
        m2 = dict(reports["m2"])
        del m2["T01"]
        got = self.cards(mini, {**reports, "m2": m2}, ["m1", "m2"], scenario="all")
        full = self.cards(mini, reports, ["m1", "m2"], scenario="all")
        assert got[("all/all", "m2")][1] == full[("all/all", "m2")][1] - 1

    def test_stored_counts_give_the_table_of_the_full_reports(self, mini_store, tmp_path):
        mini, reports = mini_store
        _write_mini_store(tmp_path)
        stored = load_report_store(tmp_path)
        assert {s: by_task.keys() for s, by_task in stored.items()} == {s: by_task.keys() for s, by_task in reports.items()}
        from_store, from_reports = ReportCounts(mini, stored), ReportCounts(mini, reports)
        assert (from_store.columns, from_store.clean) == (from_reports.columns, from_reports.clean)

    def test_one_run_score_builds_one_table(self, tmp_path, monkeypatch):
        built = []

        class Counted(ReportCounts):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cli, "ReportCounts", Counted)
        config = cli.RunConfig(
            corpus_path=MINI,
            out_dir=tmp_path,
            scenarios=[ScenarioSelector.parse(s) for s in SCENARIOS],
            rulesets=[RuleSetSelector.parse(r) for r in RULESETS],
        )
        summary = cli.RunSummary()
        cli.run_analyze(config, summary)
        cards = cli.run_score(config, summary)
        assert len(SCENARIOS) * len(RULESETS) == 7 * 16
        assert cards and len(built) == 1

    def test_one_run_score_partitions_each_scenario_once(self, tmp_path, monkeypatch):
        config = cli.RunConfig(
            corpus_path=MINI,
            out_dir=tmp_path,
            scenarios=[ScenarioSelector.parse(s) for s in SCENARIOS],
            rulesets=[RuleSetSelector.parse(r) for r in RULESETS],
        )
        summary = cli.RunSummary()
        cli.run_analyze(config, summary)
        partitioned = []

        def counted(corpus, selector):
            partitioned.append(selector)
            return partition(corpus, selector)

        monkeypatch.setattr(scoreboard, "partition", counted)
        cards = cli.run_score(config, summary)
        assert cards and sorted(map(repr, partitioned)) == sorted(map(repr, config.scenarios))


COUNT_STRATEGY = st.dictionaries(
    st.sampled_from(RULE_IDS[:10]), st.integers(min_value=0, max_value=9), max_size=5
)


class TestScoreProperties:
    @given(counts=st.lists(COUNT_STRATEGY, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rule_set_additivity(self, counts):
        reports = [report(c) for c in counts]
        s1 = rules("magic-number", "line-length")
        s2 = rules("unused-import", "need-braces")
        combined = compute_vs(reports, s1 | s2)
        assert combined == compute_vs(reports, s1) + compute_vs(reports, s2)

    @given(
        left=st.lists(COUNT_STRATEGY, min_size=1, max_size=5),
        right=st.lists(COUNT_STRATEGY, min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixture_identity(self, left, right):
        s = rules("magic-number", "line-length", "unused-import")
        left_reports = [report(c) for c in left]
        right_reports = [report(c) for c in right]
        merged = compute_vs(left_reports + right_reports, s)
        expected = (len(left) * compute_vs(left_reports, s) + len(right) * compute_vs(right_reports, s)) / (
            len(left) + len(right)
        )
        assert merged == expected

    @given(
        base=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8),
        scale=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_violations_preserves_increase_rate(self, base, scale):
        baseline = [report({"magic-number": 1}) for _ in base]
        subject = [report({"magic-number": c}) for c in base]
        scaled = [report({"magic-number": c * scale}) for c in base]
        s = rules("magic-number")
        b = compute_vs(baseline, s)
        inc = compute_increase(compute_vs(subject, s), b)
        inc_scaled = compute_increase(compute_vs(scaled, s), b * scale)
        assert inc == inc_scaled

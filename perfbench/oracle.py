"""Output checks that do not come from smellscore itself.

The expected values come from the hand-audited mini-corpus CSVs (scaled by
replication, which keeps every ratio), from the counts the long-file
generator planted, and from exact identities between score files.  Every
check returns a list of problems, one per failed operation; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import DATA, mini_manifest

BASELINE = "baseline"


def oracle_rows() -> dict[tuple[str, str], tuple[bool, int]]:
    """(subject, mini task id) -> (parse_ok, total violations)."""
    with open(DATA / "mini_corpus_oracle.csv", newline="", encoding="utf-8") as fh:
        return {
            (row["subject"], row["task_id"]): (row["parse_ok"] == "true", int(row["total_violations"]))
            for row in csv.DictReader(fh)
        }


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _card_value(value) -> Fraction | None:
    """A scorecard number: {"fraction": "a/b", ...}, or None when undefined."""
    if isinstance(value, dict):
        return _frac(value["fraction"])
    return None


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def digest_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return [
        f"{rel}: differs from the first repetition"
        for rel in sorted(expected.keys() | actual.keys())
        if expected.get(rel) != actual.get(rel)
    ]


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def check_replicated_reports(out: Path, origin: dict[str, str]) -> list[str]:
    """Every replica report carries its original's oracle row."""
    rows = oracle_rows()
    problems = []
    for subject in sorted({s for s, _ in rows}):
        expected_failures = []
        for task_id, original in sorted(origin.items()):
            if (subject, original) not in rows:
                continue
            parse_ok, total = rows[(subject, original)]
            if not parse_ok:
                expected_failures.append(task_id)
            path = out / "reports" / subject / f"{task_id}.json"
            if not path.is_file():
                problems.append(f"{subject}/{task_id}: report missing")
                continue
            doc = _load(path)
            got = sum(doc["per_rule_counts"].values())
            if doc["parse_ok"] != parse_ok or got != total:
                problems.append(
                    f"{subject}/{task_id}: parse_ok={doc['parse_ok']} violations={got}, "
                    f"oracle {parse_ok}/{total} (as {original})"
                )
        failures_path = out / "reports" / subject / "_failures.json"
        listed = sorted(f["task_id"] for f in _load(failures_path)) if failures_path.is_file() else None
        if listed != expected_failures:
            problems.append(f"{subject}/_failures.json lists {listed}, oracle {expected_failures}")
    return problems


def check_planted(out: Path, planted: dict[str, dict[str, int]]) -> list[str]:
    """Each long file reports exactly the violations its generator planted."""
    problems = []
    for key, counts in sorted(planted.items()):
        path = out / "reports" / f"{key}.json"
        if not path.is_file():
            problems.append(f"{key}: report missing")
            continue
        doc = _load(path)
        got = {rule: doc["per_rule_counts"].get(rule, 0) for rule in counts}
        if not doc["parse_ok"] or got != counts:
            problems.append(f"{key}: parse_ok={doc['parse_ok']} counts {got}, planted {counts}")
    return problems


# --------------------------------------------------------------------------
# Scorecards
# --------------------------------------------------------------------------

def expected_cards(origin: dict[str, str], scenario: str) -> dict[tuple[str, str], dict]:
    """Cards of the `all` rule set for scenario all, topic or source.

    Keyed by (scenario label, subject); derived from the oracle CSV and the
    replica -> original mapping alone.
    """
    rows = oracle_rows()
    meta = {t["task_id"]: t for t in mini_manifest()}
    groups: dict[str, list[str]] = {}
    for task_id, original in origin.items():
        if scenario == "all":
            label = "all/all"
        else:
            label = f"{scenario}/{meta[original][scenario]}"
        groups.setdefault(label, []).append(original)

    subjects = sorted({s for s, _ in rows})
    cards = {}
    for label, originals in groups.items():
        sums = {}
        for subject in subjects:
            analyzed = [rows[(subject, o)][1] for o in originals if rows.get((subject, o), (False, 0))[0]]
            if analyzed:
                sums[subject] = (len(analyzed), sum(analyzed))
        baseline = Fraction(sums[BASELINE][1], sums[BASELINE][0]) if BASELINE in sums else None
        for subject, (n_analyzed, total) in sums.items():
            vs = Fraction(total, n_analyzed)
            cards[(label, subject)] = {
                "n_tasks": len(originals),
                "n_analyzed": n_analyzed,
                "total_violations": total,
                "vs": vs,
                "baseline_vs": baseline,
                "increase_rate": (vs - baseline) / baseline if baseline else None,
            }
    return cards


def check_vs_oracle(out: Path, copies: int) -> list[str]:
    """all/all cards against mini_corpus_vs_oracle.csv, scaled by replication."""
    cards = {c["subject"]: c for c in _load(out / "scores" / "all" / "all.json")}
    problems = []
    with open(DATA / "mini_corpus_vs_oracle.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            card = cards.get(row["subject"])
            expected = (
                int(row["n_tasks"]) * copies,
                int(row["n_analyzed"]) * copies,
                int(row["total_violations"]) * copies,
                _frac(row["vs_fraction"]),
                _frac(row["increase_fraction"]),
            )
            got = None
            if card is not None:
                got = (
                    card["n_tasks"],
                    card["n_analyzed"],
                    card["total_violations"],
                    _card_value(card["vs"]),
                    _card_value(card["increase_rate"]),
                )
            if got != expected:
                problems.append(f"all/all {row['subject']}: {got}, oracle {expected}")
    return problems


def check_derived_cards(out: Path, origin: dict[str, str], scenarios: tuple[str, ...]) -> list[str]:
    """The `all` rule-set cards of each scenario equal the derived fractions."""
    problems = []
    for scenario in scenarios:
        expected = expected_cards(origin, scenario)
        got = {}
        for card in _load(out / "scores" / scenario / "all.json"):
            got[(card["scenario"], card["subject"])] = {
                "n_tasks": card["n_tasks"],
                "n_analyzed": card["n_analyzed"],
                "total_violations": card["total_violations"],
                "vs": _card_value(card["vs"]),
                "baseline_vs": _card_value(card["baseline_vs"]),
                "increase_rate": _card_value(card["increase_rate"]),
            }
        for key in sorted(expected.keys() | got.keys()):
            if expected.get(key) != got.get(key):
                problems.append(f"{scenario} {key}: {got.get(key)}, oracle {expected.get(key)}")
    return problems


def check_card_identities(out: Path) -> list[str]:
    """implementation + design = all, and the type-* sets sum to all.

    Holds exactly for every card because the catalog's rules split into the
    two categories and into the smell types without overlap.
    """
    problems = []
    for scenario_dir in sorted(p for p in (out / "scores").iterdir() if p.is_dir()):
        sets = {p.stem: _load(p) for p in scenario_dir.glob("*.json")}
        if "all" not in sets:
            problems.append(f"{scenario_dir.name}: no all.json")
            continue
        base = {(c["scenario"], c["subject"]): c for c in sets["all"]}
        splits = [("implementation+design", ("implementation", "design"))]
        types = tuple(sorted(name for name in sets if name.startswith("type-")))
        if types:
            splits.append(("type-*", types))
        for label, parts in splits:
            if not all(p in sets for p in parts):
                continue
            totals: dict[tuple[str, str], int] = {}
            for part in parts:
                for card in sets[part]:
                    key = (card["scenario"], card["subject"])
                    totals[key] = totals.get(key, 0) + card["total_violations"]
            for key, card in base.items():
                if totals.get(key) != card["total_violations"]:
                    problems.append(f"{scenario_dir.name} {key}: {label} = {totals.get(key)}, all = {card['total_violations']}")
    return problems


def count_cards(out: Path) -> int:
    return sum(len(_load(p)) for p in (out / "scores").rglob("*.json"))

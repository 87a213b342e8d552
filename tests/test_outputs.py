"""outputs.py: the canonical JSON text, the batch writer of every output file
and the JSON reader."""

from __future__ import annotations

import enum
import json
import math
import os
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smellscore import outputs
from smellscore.cli import main
from smellscore.outputs import json_text, read_json, write_files

MINI = Path(__file__).parent / "data" / "mini_corpus"


def canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def refuse(*args, **kwargs):
    raise AssertionError("json's indenting encoder was used")


# ---------------------------------------------------------------------------
# json_text
# ---------------------------------------------------------------------------

TEXT = st.text(
    st.characters(exclude_categories=())  # control characters and non-ASCII text
    | st.characters(categories=["Cs"]),  # lone surrogates
    max_size=8,
)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
INTS = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
# One key kind per object: json sorts the keys, and a str never compares with
# a number, nor None with anything.  Ints, floats and bools compare with each
# other, so they share one.
NUMBER_KEYS = st.booleans() | INTS | FLOATS


def documents():
    return st.recursive(
        SCALARS,
        lambda children: (
            st.lists(children, max_size=4)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(NUMBER_KEYS, children, max_size=4)
            | st.dictionaries(st.none(), children, max_size=1)
        ),
        max_leaves=24,
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(documents())
def test_json_text_is_json_dumps_without_its_indenting_encoder(doc):
    expected = canonical(doc)
    with mock.patch.object(json.encoder, "_make_iterencode", refuse):
        assert json_text(doc) == expected


@pytest.mark.parametrize("doc", [
    {}, [], "", 0, None, True, [[], {}], {"a": [{}]},
    (1, (2, 3)),  # a tuple is a list, as json writes it
    {"a": [1.5, -0.0, math.nan, math.inf]},
    {1: "int", 2.5: "float", False: "bool"},  # False and 0 are one key
    {None: [True, False, None]},
])
def test_json_text_pins(doc):
    assert json_text(doc) == canonical(doc)


def test_json_text_writes_subclasses_as_json_does():
    class Level(enum.IntEnum):
        LOW = 1

    class Label(str):
        pass

    for doc in ({Label("b"): Level.LOW, "a": [Label("xé"), Level.LOW, 2.5]}, {Level.LOW: Label("y"), 2: None}):
        assert json_text(doc) == canonical(doc)


@pytest.mark.parametrize("make", [
    lambda: (lambda d: d.setdefault("self", d))({}),
    lambda: (lambda items: items.append(items) or items)([1]),
    lambda: (lambda d: d.setdefault("k", [d]) and d)({}),
])
def test_json_text_refuses_a_cyclic_document(make):
    with pytest.raises(ValueError, match="Circular reference detected"):
        json_text(make())


def test_json_text_writes_a_shared_container_each_time_it_occurs():
    shared = [1, {"x": 2}]
    doc = {"a": shared, "b": shared, "c": [shared, shared]}
    assert json_text(doc) == canonical(doc)


@pytest.mark.parametrize("doc", [{(1, 2): 3}, {"a": {1, 2}}, [object()], {"a": b"x"}, {1: 0, "a": 0}])
def test_json_text_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as expected:
        canonical(doc)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# write_files
# ---------------------------------------------------------------------------

class Calls:
    """Counts the opens, stats and directory creations of outputs.py, and
    records which thread opened each file for writing."""

    def __init__(self, monkeypatch):
        self.opens: list[str] = []
        self.mkdirs: list[Path] = []
        self.exists = 0
        self.writers: dict[Path, threading.Thread] = {}
        real_open, real_mkdir, real_exists = open, Path.mkdir, Path.exists

        def counting_open(path, mode="r", *args, **kwargs):
            self.opens.append(mode)
            if mode == "wb":
                self.writers[path] = threading.current_thread()
            return real_open(path, mode, *args, **kwargs)

        def counting_mkdir(path, *args, **kwargs):
            self.mkdirs.append(path)
            return real_mkdir(path, *args, **kwargs)

        def counting_exists(path):
            self.exists += 1
            return real_exists(path)

        monkeypatch.setattr(outputs, "open", counting_open, raising=False)
        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        monkeypatch.setattr(Path, "exists", counting_exists)


def cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def refuse_threads(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)


def test_unchanged_file_costs_one_open(tmp_path, monkeypatch):
    path = tmp_path / "a" / "b.json"
    assert write_files([(path, "text\n")]) == 1
    calls = Calls(monkeypatch)
    stat = path.stat()
    assert write_files([(path, "text\n")]) == 0
    assert (calls.opens, calls.mkdirs, calls.exists) == (["rb"], [], 0)
    assert path.stat().st_mtime_ns == stat.st_mtime_ns


def test_changed_file_is_rewritten_without_making_its_directory(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_bytes(b"old\n")
    calls = Calls(monkeypatch)
    assert write_files([(path, "new é\n")]) == 1
    assert path.read_bytes() == "new é\n".encode("utf-8")
    assert (calls.opens, calls.mkdirs, calls.exists) == (["rb", "wb"], [], 0)


def test_new_file_makes_its_directory_only_when_missing(tmp_path, monkeypatch):
    calls = Calls(monkeypatch)
    assert write_files([(tmp_path / "x" / "y" / "1.json", "1\n")]) == 1
    assert calls.mkdirs[0] == tmp_path / "x" / "y"  # mkdir(parents=True) then makes x
    made = len(calls.mkdirs)
    assert write_files([(tmp_path / "x" / "y" / "2.json", "2\n")]) == 1
    assert len(calls.mkdirs) == made
    assert (tmp_path / "x" / "y" / "2.json").read_text(encoding="utf-8") == "2\n"


def batch(root: Path, dirs: int, per_dir: int) -> list[tuple[Path, str]]:
    return [(root / f"d{d}" / f"{i}.txt", f"{d}.{i}\n") for d in range(dirs) for i in range(per_dir)]


def test_only_changed_files_are_written_in_contiguous_runs(tmp_path, monkeypatch):
    """One run per usable CPU, no more than directories; the calling thread
    writes the first run."""
    cpus(monkeypatch, 4)
    files = batch(tmp_path, 3, 5)
    (tmp_path / "d0").mkdir()
    for path, text in files[:2]:
        path.write_text(text, encoding="utf-8")
    calls = Calls(monkeypatch)
    assert write_files(files) == 13
    assert [path.read_text(encoding="utf-8") for path, _ in files] == [text for _, text in files]
    written = [path for path, _ in files[2:]]
    assert set(calls.writers) == set(written)  # the two unchanged files are not rewritten
    threads = [calls.writers[path] for path in written]
    assert len(set(threads)) == 3  # min(4 CPUs, 3 directories)
    runs = [threads[i] for i in range(len(threads)) if i == 0 or threads[i] != threads[i - 1]]
    assert len(runs) == 3 and runs[0] is threading.current_thread()
    assert [threads.count(t) for t in runs] == [5, 4, 4]


def test_more_workers_than_cores_write_every_file(tmp_path, monkeypatch):
    cpus(monkeypatch, 8)
    files = batch(tmp_path, 8, 25)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert write_files(files) == 200
    finally:
        sys.setswitchinterval(interval)
    assert [path.read_text(encoding="utf-8") for path, _ in files] == [text for _, text in files]
    assert write_files(files) == 0


def test_one_cpu_starts_no_thread(tmp_path, monkeypatch):
    cpus(monkeypatch, 1)
    refuse_threads(monkeypatch)
    assert write_files(batch(tmp_path, 3, 2)) == 6


def test_without_cpu_affinity_the_cpu_count_is_used(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    refuse_threads(monkeypatch)
    assert write_files(batch(tmp_path, 2, 2)) == 4


def test_the_run_tree_does_not_depend_on_the_cpus(tmp_path, monkeypatch, capsys):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    argv = ["run", "--corpus", str(MINI), "--scenario", "all", "--scenario", "topic", "--ruleset", "all",
            "--ruleset", "design"]
    trees = []
    for n in (1, 4):
        cpus(monkeypatch, n)
        assert main([*argv, "--out", str(tmp_path / f"cpus{n}")]) == 0
        trees.append(tree(tmp_path / f"cpus{n}"))
        assert bool(started) == (n > 1)
    assert trees[0] == trees[1]


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_rerun_that_changes_nothing_starts_no_thread(tmp_path, monkeypatch, capsys):
    cpus(monkeypatch, 4)
    argv = ["run", "--corpus", str(MINI), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    before = tree(tmp_path / "out")
    capsys.readouterr()
    refuse_threads(monkeypatch)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["recomputed"] == 0
    assert tree(tmp_path / "out") == before


def test_a_parent_that_is_a_file_is_an_os_error(tmp_path):
    """The CLI prints it as one 'i/o error:' line."""
    (tmp_path / "x").write_bytes(b"")
    with pytest.raises(OSError):
        write_files([(tmp_path / "x" / "1.json", "1\n")])


def test_the_earliest_failing_file_is_raised_once_every_thread_is_joined(tmp_path, monkeypatch):
    cpus(monkeypatch, 4)
    files = batch(tmp_path, 4, 3)
    for d in (2, 3):  # the parents of the last two runs are files
        (tmp_path / f"d{d}").write_bytes(b"")
    threads = threading.active_count()
    with pytest.raises(OSError) as e:
        write_files(files)
    assert threading.active_count() == threads
    assert e.value.filename == str(tmp_path / "d2" / "0.txt")
    assert [(tmp_path / "d1" / f"{i}.txt").read_text(encoding="utf-8") for i in range(3)] == ["1.0\n", "1.1\n", "1.2\n"]


def test_a_failing_write_in_a_late_run_is_one_io_error_line(tmp_path, monkeypatch, capsys):
    cpus(monkeypatch, 4)
    out = tmp_path / "out"
    (out / "reports").mkdir(parents=True)
    (out / "reports" / "m2").write_bytes(b"")
    threads = threading.active_count()
    assert main(["run", "--corpus", str(MINI), "--out", str(out)]) == 2
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert str(out / "reports" / "m2" / "T01.json") in err


# ---------------------------------------------------------------------------
# read_json
# ---------------------------------------------------------------------------

class Refused(Exception):
    pass


def read_error(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    with pytest.raises(Refused) as e:
        read_json(path, {"a": [int]}, Refused)
    return str(e.value)


@pytest.mark.parametrize("data", [
    b'{"a": [1,\n 2,\n]}',
    b'{"a":\n"x\ny"}',
    b'{"a": [1],\n "b": 2}',
    b'{\n"a": [1]\n}\nx',
])
def test_read_json_reads_cr_and_cr_lf_as_lf(tmp_path, data):
    """A message names the place its LF twin names, as when the file was read in text mode."""
    lf = read_error(tmp_path / "lf.json", data)
    assert read_error(tmp_path / "crlf.json", data.replace(b"\n", b"\r\n")) == lf.replace("lf.json", "crlf.json")
    assert read_error(tmp_path / "cr.json", data.replace(b"\n", b"\r")) == lf.replace("lf.json", "cr.json")


def test_read_json_decodes_strict_utf8(tmp_path):
    path = tmp_path / "bad.json"
    message = read_error(path, b'{"a": [1], "\xff": 2}')
    assert message == f"{path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"
    path.write_bytes('{"a": [1]}\r\n'.encode("utf-8"))
    assert read_json(path, {"a": [int]}, Refused) == {"a": [1]}


def test_read_json_leaves_a_missing_file_to_the_caller(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "none.json", {"a": [int]}, Refused)

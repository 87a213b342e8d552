"""outputs.py: the canonical JSON text, the write-if-changed store writer and
the JSON reader."""

from __future__ import annotations

import enum
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smellscore import outputs
from smellscore.outputs import json_text, read_json, write_if_changed


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
# write_if_changed
# ---------------------------------------------------------------------------

class Calls:
    """Counts the opens, stats and directory creations of outputs.py."""

    def __init__(self, monkeypatch):
        self.opens: list[str] = []
        self.mkdirs: list[Path] = []
        self.exists = 0
        real_open, real_mkdir, real_exists = open, Path.mkdir, Path.exists

        def counting_open(path, mode="r", *args, **kwargs):
            self.opens.append(mode)
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


def test_unchanged_file_costs_one_open(tmp_path, monkeypatch):
    path = tmp_path / "a" / "b.json"
    assert write_if_changed(path, "text\n")
    calls = Calls(monkeypatch)
    stat = path.stat()
    assert not write_if_changed(path, "text\n")
    assert (calls.opens, calls.mkdirs, calls.exists) == (["rb"], [], 0)
    assert path.stat().st_mtime_ns == stat.st_mtime_ns


def test_changed_file_is_rewritten_without_making_its_directory(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_bytes(b"old\n")
    calls = Calls(monkeypatch)
    assert write_if_changed(path, "new é\n")
    assert path.read_bytes() == "new é\n".encode("utf-8")
    assert (calls.opens, calls.mkdirs, calls.exists) == (["rb", "wb"], [], 0)


def test_new_file_makes_its_directory_only_when_missing(tmp_path, monkeypatch):
    calls = Calls(monkeypatch)
    assert write_if_changed(tmp_path / "x" / "y" / "1.json", "1\n")
    assert calls.mkdirs[0] == tmp_path / "x" / "y"  # mkdir(parents=True) then makes x
    made = len(calls.mkdirs)
    assert write_if_changed(tmp_path / "x" / "y" / "2.json", "2\n")
    assert len(calls.mkdirs) == made
    assert (tmp_path / "x" / "y" / "2.json").read_text(encoding="utf-8") == "2\n"


def test_a_parent_that_is_a_file_is_an_os_error(tmp_path):
    """The CLI prints it as one 'i/o error:' line."""
    (tmp_path / "x").write_bytes(b"")
    with pytest.raises(OSError):
        write_if_changed(tmp_path / "x" / "1.json", "1\n")


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

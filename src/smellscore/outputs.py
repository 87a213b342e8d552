"""Deterministic output files shared by the report store, the scorecards and
the heat maps: canonical JSON text, and one batch writer that writes a file
only when its bytes change, so a rerun over unchanged inputs leaves every
file (and its mtime) untouched.

Every JSON document smellscore reads is first held to a spec by ``check``:
  * a JSON type (``str``, ``int``, ``float``, ``bool``, ``type(None)``,
    ``list``, ``dict``), matched exactly, so a bool is no int;
  * a tuple of alternatives, no two of the same JSON type;
  * ``[spec]`` for a list, ``[spec] * n`` for a list of n items;
  * ``{key: spec}`` for an object with exactly these keys, of which those
    made ``optional`` may be absent;
  * ``{str: spec}`` for an object that maps any key to a value of one spec.
"""

from __future__ import annotations

import json
import os
import threading
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Any, Iterable

_int_text = int.__repr__  # how json writes an int, bool aside


def json_text(doc: Any) -> str:
    """The canonical text of a document: exactly ``json.dumps(doc, indent=2,
    sort_keys=True)`` and a line end, built without json's indenting encoder,
    which is pure Python and yields one piece at a time."""
    out: list[str] = []
    _emit(doc, "\n", out, set())
    out.append("\n")
    return "".join(out)


def _emit(value: Any, newline: str, out: list[str], open_ids: set[int]) -> None:
    """Append the text of ``value`` to ``out``, each nested line starting with
    ``newline`` plus two spaces.  ``open_ids`` holds the containers being
    written, so a cyclic document raises ValueError as json.dumps does."""
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(_int_text(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        if id(value) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(value))
        inner = newline + "  "
        if isinstance(value, dict):
            sep = "{" + inner
            for key, item in sorted(value.items()):
                out.append(sep + _escape(key if type(key) is str else _key_text(key)) + ": ")
                _emit(item, inner, out, open_ids)
                sep = "," + inner
            out.append(newline + "}")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _emit(item, inner, out, open_ids)
                sep = "," + inner
            out.append(newline + "]")
        open_ids.discard(id(value))
    else:  # a float, or a subclass of str or int, as json writes it; else json's TypeError
        out.append(json.dumps(value))


def _key_text(key: Any) -> str:
    """An object key that is not a str, converted as json converts it."""
    if isinstance(key, str):
        return key
    if isinstance(key, (float, bool)) or key is None:
        return json.dumps(key)
    if isinstance(key, int):
        return _int_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def write_files(files: Iterable[tuple[Path, str]]) -> int:
    """Write each (path, text) pair, given in canonical order, whose bytes
    differ from the file's; returns how many files changed.

    The compares run on the calling thread: an unchanged file costs one open
    and one read.  The files that differ are split into contiguous runs of
    the canonical list, one per worker: as many as there are usable CPUs, but
    no more than distinct directories.  The calling thread writes the first
    run and one thread each of the others, since creating a file is system
    time spent outside the GIL; with one worker no thread starts.  Runs are
    contiguous so that two threads seldom create files in one directory,
    whose lock would serialise them.  A directory is made only when a write
    finds it missing.  Once every thread is joined, the error of the earliest
    failing file in canonical order is raised.
    """
    pending: list[tuple[Path, bytes]] = []
    for path, text in files:
        data = text.encode("utf-8")
        try:
            with open(path, "rb") as f:
                if f.read() == data:
                    continue
        except (FileNotFoundError, NotADirectoryError):  # no such file: its write will say why, if it fails
            pass
        pending.append((path, data))
    if not pending:
        return 0
    workers = min(_usable_cpus(), len({path.parent for path, _ in pending}))
    size, extra = divmod(len(pending), workers)
    bounds = [i * size + min(i, extra) for i in range(workers + 1)]
    errors: list[BaseException | None] = [None] * workers
    threads = [
        threading.Thread(target=_write_run, args=(pending[bounds[i]:bounds[i + 1]], errors, i))
        for i in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    _write_run(pending[:bounds[1]], errors, 0)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return len(pending)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _write_run(run: list[tuple[Path, bytes]], errors: list[BaseException | None], index: int) -> None:
    """Write each file of ``run`` in order; the first error stops the run and
    is kept as ``errors[index]``."""
    try:
        for path, data in run:
            try:
                file = open(path, "wb")
            except FileNotFoundError:  # the first file of a new directory
                path.parent.mkdir(parents=True, exist_ok=True)
                file = open(path, "wb")
            with file:
                file.write(data)
    except BaseException as e:  # re-raised by write_files once every thread is joined
        errors[index] = e


class DocumentError(Exception):
    """A stored report or scorecard file is malformed; the message names it."""


def read_json(path: str | Path, spec: Any, error: type[Exception]) -> Any:
    """The JSON document in the file at ``path``.  A file that is not UTF-8
    JSON, nests deeper than the decoder's stack, or does not fit ``spec``,
    raises ``error`` with the file's name."""
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
        if "\r" in text:  # CR LF and CR read as LF: a decoder's line and column are those of the LF twin
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
        check(doc, spec)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError, JSONDecodeError, SpecError; too deep
        raise error(f"{path}: {e}") from e
    return doc


class SpecError(ValueError):
    """A JSON document that does not fit its spec; the message is '<json path>:
    <reason>', say "$.tasks[3].solutions[0]: unknown key 'corect'"."""


class optional(str):
    """An object key that may be absent."""


def check(doc: Any, spec: Any, at: tuple | None = None) -> None:
    """Return if ``doc`` fits ``spec``, else raise SpecError at the first misfit.
    ``at`` is where ``doc`` lies in the document: None for the root, else (the
    container's ``at``, the key or index)."""
    kind = type(spec)
    if kind is tuple:
        for alternative in spec:
            if type(doc) is _json_type(alternative):
                return check(doc, alternative, at)
        raise SpecError(f"{_path(at)}: must be {_describe(spec)}, got {_show(doc)}")
    if type(doc) is not (spec if kind is type else kind):
        raise SpecError(f"{_path(at)}: must be {_describe(spec)}, got {_show(doc)}")
    # A container recurses only into a value that is not exactly of a scalar
    # spec's type, so the many scalar leaves of a report store cost no call.
    if kind is dict and str not in spec:
        for key, value in doc.items():
            sub = spec.get(key)
            if sub is None:
                raise SpecError(f"{_path(at)}: unknown key {key!r}")
            if type(value) is not sub:
                check(value, sub, (at, key))
        if len(doc) < len(spec):
            for key in spec:
                if key not in doc and type(key) is not optional:
                    raise SpecError(f"{_path(at)}: missing key {key!r}")
    elif kind is dict or kind is list:
        if len(spec) > 1 and len(doc) != len(spec):
            raise SpecError(f"{_path(at)}: must hold {len(spec)} items, got {len(doc)}")
        item = spec[str] if kind is dict else spec[0]
        for step, value in doc.items() if kind is dict else enumerate(doc):
            if type(value) is not item:
                check(value, item, (at, step))


def _path(at: tuple | None) -> str:
    steps = []
    while at is not None:
        at, step = at
        steps.append(f"[{step}]" if type(step) is int else f".{step}" if step.isidentifier() else f"[{step!r}]")
    return "$" + "".join(reversed(steps))


_NAMES = {str: "a string", int: "an integer", float: "a float", bool: "a boolean", type(None): "null",
          list: "a list", dict: "an object"}


def _json_type(spec: Any) -> type:
    return spec if type(spec) is type else type(spec)


def _describe(spec: Any) -> str:
    return " or ".join(map(_describe, spec)) if type(spec) is tuple else _NAMES[_json_type(spec)]


def _show(value: Any) -> str:
    return _NAMES[type(value)] if type(value) in (list, dict) else json.dumps(value, ensure_ascii=False)

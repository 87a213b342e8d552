"""Deterministic output files shared by the report store, the scorecards and
the heat maps: canonical JSON text, written only when its bytes change, so a
rerun over unchanged inputs leaves every file (and its mtime) untouched.

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
from pathlib import Path
from typing import Any


def json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_if_changed(path: Path, text: str) -> bool:
    """Write only when bytes differ; returns True when the file changed."""
    data = text.encode("utf-8")
    if path.exists() and path.read_bytes() == data:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return True


class DocumentError(Exception):
    """A stored report or scorecard file is malformed; the message names it."""


def read_json(path: str | Path, spec: Any, error: type[Exception]) -> Any:
    """The JSON document in the file at ``path``.  A file that is not UTF-8
    JSON, nests deeper than the decoder's stack, or does not fit ``spec``,
    raises ``error`` with the file's name."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.loads(f.read())
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

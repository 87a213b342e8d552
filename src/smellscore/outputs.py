"""Deterministic output files shared by the report store, the scorecards and
the heat maps: canonical JSON text, written only when its bytes change, so a
rerun over unchanged inputs leaves every file (and its mtime) untouched.
Reading them back, ``typed`` checks each field's exact JSON type."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def typed(doc: dict[str, Any], key: str, kind: type) -> Any:
    """``doc[key]`` when its type is exactly ``kind`` (so a bool is no count),
    else KeyError or TypeError."""
    value = doc[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return value


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

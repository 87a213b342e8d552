"""Optional corpus-population tool.

Submits task descriptions to a configurable HTTP chat/completion endpoint,
pulls the Java code out of the textual response, and grows the corpus
append-only: existing solution files are never rewritten, and every write is
temp-file-then-rename so concurrent readers never see partial files.

The wire protocol is a minimal JSON POST shaped by a request template whose
string values may contain {model} and {prompt} placeholders; the reply text
is located by a dotted response path (e.g. "text" or
"choices.0.message.content"), so vendor APIs are bridged by configuration
alone.
"""

from __future__ import annotations

import json
import os
import re
import socket
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .corpus import load_manifest, require_plain_name
from .outputs import SpecError, check, json_text, optional
from .java_syntax import parse_text
from .java_syntax.lexer import LINE_END

STATUS_OK = "ok"
STATUS_NO_CODE = "no_code_found"
STATUS_TRANSPORT_ERROR = "transport_error"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class GenerationRequest:
    task_id: str
    prompt: str
    model_id: str
    endpoint: str
    timeout: float = 60.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class GenerationRecord:
    task_id: str
    model_id: str
    raw_response: str
    extracted_code: str | None
    status: str

    def __post_init__(self) -> None:
        has_code = bool(self.extracted_code)
        if (self.status == STATUS_OK) != has_code:
            raise ValueError("status must be ok exactly when extracted code is present")

    def to_json(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "model_id": self.model_id,
            "raw_response": self.raw_response,
            "extracted_code": self.extracted_code,
            "status": self.status,
        }


@dataclass
class EndpointConfig:
    url: str
    api_key_env: str | None = None
    request_template: dict[str, Any] = field(
        default_factory=lambda: {"model": "{model}", "prompt": "{prompt}"}
    )
    response_path: str = "text"
    delay_seconds: float = 0.0

    @classmethod
    def from_json(cls, doc: Any) -> "EndpointConfig":
        """The config a JSON document describes; one that does not fit
        _ENDPOINT_SPEC (a missing url, an unknown key, a field of another type)
        raises SpecError."""
        check(doc, _ENDPOINT_SPEC)
        delay = doc.get("delay_seconds", 0)
        if not 0 <= delay <= MAX_DELAY_SECONDS:  # NaN fails too; time.sleep overflows on an infinite delay
            raise SpecError(f"$.delay_seconds: must be from 0 to {MAX_DELAY_SECONDS}, got {json.dumps(delay)}")
        return cls(**doc)


MAX_DELAY_SECONDS = 86400  # a day


_ENDPOINT_SPEC = {
    "url": str, optional("api_key_env"): (str, type(None)), optional("request_template"): dict,
    optional("response_path"): str, optional("delay_seconds"): (int, float),
}


_FENCE = re.compile(r"```([^\n`]*)\n(.*?)```", re.DOTALL)


def extract_code(response_text: str) -> str | None:
    """Pull Java source out of a chat-style response.

    Precedence: every block fenced as java (concatenated, one blank line
    apart), else the largest untagged fenced block, else the whole text when
    it already parses as Java, else nothing.  Line ends (CR LF, CR or LF)
    come out as LF, so a reply gives the code of its LF twin.
    """
    response_text = LINE_END.sub("\n", response_text)
    java_blocks: list[str] = []
    untagged: list[str] = []
    for m in _FENCE.finditer(response_text):
        tag = m.group(1).strip().lower()
        body = m.group(2).strip("\n")
        if tag == "java":
            java_blocks.append(body)
        elif tag == "":
            untagged.append(body)
    if java_blocks:
        return "\n\n".join(java_blocks)
    if untagged:
        return max(untagged, key=len)
    if response_text.strip() and parse_text("response.java", response_text).ok:
        return response_text
    return None


def _render_template(template: Any, model: str, prompt: str) -> Any:
    """A copy of the JSON template with {model} and {prompt} filled into every
    string, built over an explicit stack."""
    root = [template]
    todo: list[tuple[Any, Any]] = [(root, 0)]  # (container, key) of each value left to render
    while todo:
        container, key = todo.pop()
        value = container[key]
        if isinstance(value, str):
            container[key] = value.replace("{model}", model).replace("{prompt}", prompt)
        elif isinstance(value, (dict, list)):
            container[key] = value = value.copy()
            todo += ((value, k) for k in (value if isinstance(value, dict) else range(len(value))))
    return root[0]


def _pluck(doc: Any, path: str) -> str:
    current = doc
    for seg in path.split("."):
        if isinstance(current, list):
            try:
                index = int(seg)
            except ValueError:  # a list holds no key that is not a number
                raise KeyError(path) from None
            current = current[index]
        else:
            current = current[seg]
    if not isinstance(current, str):
        raise KeyError(path)
    return current


def _http_post(url: str, payload: bytes, headers: dict[str, str], timeout: float) -> str:
    req = urllib.request.Request(url, data=payload, headers=headers, method="POST")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def generate_solution(
    request: GenerationRequest,
    config: EndpointConfig | None = None,
    transport: Callable[[str, bytes, dict[str, str], float], str] | None = None,
) -> GenerationRecord:
    """Query the endpoint once per attempt until success or retries run out.

    Never raises for transport problems; every failure mode is encoded in the
    record status so batch runs survive flaky endpoints.
    """
    config = config or EndpointConfig(url=request.endpoint)
    transport = transport or _http_post

    headers = {"Content-Type": "application/json"}
    if config.api_key_env:
        key = os.environ.get(config.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
    payload = json.dumps(_render_template(config.request_template, request.model_id, request.prompt)).encode("utf-8")

    def failed(status: str, raw: str = "") -> GenerationRecord:
        return GenerationRecord(
            task_id=request.task_id, model_id=request.model_id, raw_response=raw, extracted_code=None, status=status
        )

    for attempt in range(request.max_retries + 1):
        try:
            raw = transport(request.endpoint, payload, headers, request.timeout)
            break
        except UnicodeDecodeError:  # a reply that is not UTF-8 text: asking again gets the same bytes
            return failed(STATUS_TRANSPORT_ERROR)
        except (socket.timeout, TimeoutError):
            failure = STATUS_TIMEOUT
        except (urllib.error.URLError, ConnectionError, OSError):
            failure = STATUS_TRANSPORT_ERROR
        if attempt == request.max_retries:
            return failed(failure)
    else:  # pragma: no cover - loop always breaks or returns
        raise AssertionError

    try:
        doc = json.loads(raw)
        text = _pluck(doc, config.response_path)
    except (json.JSONDecodeError, RecursionError, KeyError, IndexError, TypeError):
        return failed(STATUS_TRANSPORT_ERROR, raw)

    code = extract_code(text)
    return GenerationRecord(
        task_id=request.task_id,
        model_id=request.model_id,
        raw_response=text,
        extracted_code=code,
        status=STATUS_OK if code else STATUS_NO_CODE,
    )


# --------------------------------------------------------------------------
# Batch driver
# --------------------------------------------------------------------------

def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run_generation_batch(
    corpus_root: str | Path,
    model_id: str,
    config: EndpointConfig,
    timeout: float = 60.0,
    max_retries: int = 2,
    transport: Callable[[str, bytes, dict[str, str], float], str] | None = None,
) -> list[GenerationRecord]:
    """Generate solutions for every task that does not yet have one.

    Solutions land in solutions/<model_id>/<task_id>.java relative to the
    corpus root; the manifest gains one entry per success, and every record is
    appended to generation.log.jsonl.  Sequential by design: rate limits
    dominate, and ordering keeps the log reproducible.  A model id that
    require_plain_name refuses (it would leave that directory or name no file)
    raises ValueError, and a manifest that load_manifest rejects raises its
    error, before any request is made.
    """
    require_plain_name("model id", model_id)
    root = Path(corpus_root)
    manifest_path = root / "corpus.json"
    load_manifest(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))  # each success extends and rewrites it
    log_path = root / "generation.log.jsonl"

    records: list[GenerationRecord] = []
    for task in manifest["tasks"]:
        existing = {s["model_id"] for s in task.get("solutions", [])}
        if model_id in existing:
            continue
        rel_path = f"solutions/{model_id}/{task['task_id']}.java"
        target = root / rel_path
        if target.exists():
            continue  # append-only: never touch files already on disk

        request = GenerationRequest(
            task_id=task["task_id"],
            prompt=task["description"],
            model_id=model_id,
            endpoint=config.url,
            timeout=timeout,
            max_retries=max_retries,
        )
        record = generate_solution(request, config, transport)
        records.append(record)
        with log_path.open("a", encoding="utf-8") as log:
            log.write(json.dumps(record.to_json(), sort_keys=True) + "\n")

        if record.status == STATUS_OK and record.extracted_code:
            target.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write(target, record.extracted_code + "\n")
            task.setdefault("solutions", []).append({"model_id": model_id, "path": rel_path})
            _atomic_write(manifest_path, json_text(manifest))

        if config.delay_seconds > 0:
            time.sleep(config.delay_seconds)
    return records

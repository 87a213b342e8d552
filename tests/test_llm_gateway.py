"""Code extraction precedence, retry accounting against a stub server, and
append-only corpus growth."""

from __future__ import annotations

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from smellscore.llm_gateway import (
    STATUS_NO_CODE,
    STATUS_OK,
    STATUS_TRANSPORT_ERROR,
    EndpointConfig,
    GenerationRecord,
    GenerationRequest,
    extract_code,
    generate_solution,
    run_generation_batch,
)

from test_corpus import make_task, write_manifest


class TestExtractCode:
    def test_single_java_fence(self):
        assert extract_code("```java\nclass A {}\n```") == "class A {}"

    def test_two_java_fences_concatenated(self):
        text = "First:\n```java\nclass A {}\n```\nThen:\n```java\nclass B {}\n```\n"
        assert extract_code(text) == "class A {}\n\nclass B {}"

    def test_prose_only(self):
        assert extract_code("Here is the idea: use a loop.") is None

    def test_largest_untagged_fence_wins(self):
        text = "```\nshort\n```\nand\n```\nclass Longer { void m() { } }\n```"
        assert extract_code(text) == "class Longer { void m() { } }"

    def test_tagged_java_beats_untagged(self):
        text = "```\nclass Untagged {}\n```\n```java\nclass Tagged {}\n```"
        assert extract_code(text) == "class Tagged {}"

    def test_whole_text_that_parses_as_java(self):
        assert extract_code("class A { }\n") == "class A { }\n"

    def test_non_java_fence_tag_is_ignored(self):
        assert extract_code("```python\nprint('hi')\n```") is None

    def test_idempotent_on_refenced_output(self):
        original = "Use this:\n```java\nclass A {\n    int x;\n}\n```"
        first = extract_code(original)
        assert first is not None
        assert extract_code(f"```java\n{first}\n```") == first

    @pytest.mark.parametrize("line_end", ["\r", "\r\n"], ids=["cr", "crlf"])
    @pytest.mark.parametrize("reply", [
        "```java\nclass A {}\n```",
        "First:\n```java\nclass A {\n    int x;\n}\n```\nThen:\n```java\nclass B {}\n```\n",
        "```\nshort\n```\nand\n```\nclass Longer {\n    void m() { }\n}\n```",
        "class A {\n    int x;\n}\n",
    ], ids=["java-fence", "two-java-fences", "untagged-fence", "whole-text"])
    def test_a_reply_gives_the_code_of_its_line_feed_twin(self, reply, line_end):
        code = extract_code(reply)
        assert code is not None
        assert extract_code(reply.replace("\n", line_end)) == code


class TestGenerationRecordInvariant:
    def test_ok_requires_code(self):
        with pytest.raises(ValueError):
            GenerationRecord("t", "m", "raw", None, STATUS_OK)
        with pytest.raises(ValueError):
            GenerationRecord("t", "m", "raw", "class A {}", STATUS_NO_CODE)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest("t", "", "m", "http://x", timeout=5)
        with pytest.raises(ValueError):
            GenerationRequest("t", "p", "m", "http://x", timeout=0)


class TestEndpointConfig:
    def test_misspelled_key_is_rejected_not_defaulted(self):
        with pytest.raises(ValueError, match="unknown key 'delay_second'"):
            EndpointConfig.from_json({"url": "http://x", "delay_second": 5})

    def test_every_documented_key_is_accepted(self):
        config = EndpointConfig.from_json({
            "url": "http://x", "api_key_env": None, "request_template": {"q": "{prompt}"},
            "response_path": "out.text", "delay_seconds": 1.5,
        })
        assert (config.response_path, config.delay_seconds) == ("out.text", 1.5)


class _StubHandler(BaseHTTPRequestHandler):
    responses: list[str | bytes] = []  # a reply text, or bytes sent as the whole body
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        _StubHandler.requests_seen.append(body)
        text = _StubHandler.responses[min(len(_StubHandler.requests_seen), len(_StubHandler.responses)) - 1]
        payload = text if isinstance(text, bytes) else json.dumps({"text": text}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.responses = ["```java\nclass Gen {\n}\n```"]
    _StubHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()


class TestGenerateSolution:
    def test_ok_path_against_stub_server(self, stub_server):
        url, handler = stub_server
        record = generate_solution(
            GenerationRequest("T1", "Write a class", "m1", url, timeout=5),
            EndpointConfig(url=url),
        )
        assert record.status == STATUS_OK
        assert record.extracted_code == "class Gen {\n}"
        assert handler.requests_seen == [{"model": "m1", "prompt": "Write a class"}]

    def test_no_code_found(self, stub_server):
        url, handler = stub_server
        handler.responses = ["No code, just advice."]
        record = generate_solution(
            GenerationRequest("T1", "Write a class", "m1", url, timeout=5),
            EndpointConfig(url=url),
        )
        assert record.status == STATUS_NO_CODE
        assert record.extracted_code is None

    def test_unreachable_endpoint_attempts_exactly_retries_plus_one(self):
        attempts = []

        def failing_transport(url, payload, headers, timeout):
            attempts.append(url)
            raise urllib.error.URLError("connection refused")

        record = generate_solution(
            GenerationRequest("T1", "p", "m1", "http://127.0.0.1:1", timeout=1, max_retries=2),
            transport=failing_transport,
        )
        assert record.status == STATUS_TRANSPORT_ERROR
        assert len(attempts) == 3

    def test_custom_response_path(self, stub_server):
        url, handler = stub_server

        def transport(u, payload, headers, timeout):
            return json.dumps({"choices": [{"message": {"content": "```java\nclass C {}\n```"}}]})

        record = generate_solution(
            GenerationRequest("T1", "p", "m1", url, timeout=5),
            EndpointConfig(url=url, response_path="choices.0.message.content"),
            transport=transport,
        )
        assert record.status == STATUS_OK
        assert record.extracted_code == "class C {}"

    def test_deeply_nested_response_is_a_transport_error(self):
        record = generate_solution(
            GenerationRequest("T1", "p", "m1", "http://127.0.0.1:1", timeout=5),
            transport=lambda *args: "[" * 100_000 + "]" * 100_000,
        )
        assert record.status == STATUS_TRANSPORT_ERROR

    def test_a_list_segment_that_is_no_number_is_a_transport_error(self):
        reply = json.dumps({"choices": [{"text": "```java\nclass C {}\n```"}]})
        record = generate_solution(
            GenerationRequest("T1", "p", "m1", "http://127.0.0.1:1", timeout=5),
            EndpointConfig(url="http://127.0.0.1:1", response_path="choices.first.text"),
            transport=lambda *args: reply,
        )
        assert (record.status, record.raw_response, record.extracted_code) == (STATUS_TRANSPORT_ERROR, reply, None)

    def test_a_reply_that_is_not_utf8_is_a_transport_error_without_retries(self, stub_server):
        url, handler = stub_server
        handler.responses = [b'{"text": "class \xff {}"}']
        record = generate_solution(GenerationRequest("T1", "p", "m1", url, timeout=5, max_retries=2), EndpointConfig(url=url))
        assert (record.status, record.raw_response, record.extracted_code) == (STATUS_TRANSPORT_ERROR, "", None)
        assert len(handler.requests_seen) == 1


class TestGenerationBatch:
    def test_batch_writes_files_manifest_and_log(self, tmp_path, stub_server):
        url, handler = stub_server
        write_manifest(tmp_path, [make_task(tmp_path, "T1", models=()), make_task(tmp_path, "T2", models=())])
        records = run_generation_batch(tmp_path, "m9", EndpointConfig(url=url), timeout=5)
        assert [r.status for r in records] == [STATUS_OK, STATUS_OK]

        solution = tmp_path / "solutions" / "m9" / "T1.java"
        assert solution.read_text(encoding="utf-8") == "class Gen {\n}\n"

        manifest = json.loads((tmp_path / "corpus.json").read_text(encoding="utf-8"))
        entries = [s for t in manifest["tasks"] for s in t["solutions"] if s["model_id"] == "m9"]
        assert len(entries) == 2

        log_lines = (tmp_path / "generation.log.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(log_lines) == 2
        assert json.loads(log_lines[0])["status"] == STATUS_OK

    def test_a_reply_that_is_not_utf8_ends_its_task_not_the_batch(self, tmp_path, stub_server):
        url, handler = stub_server
        handler.responses = [b"\xff\xfe", "```java\nclass Gen {\n}\n```"]
        write_manifest(tmp_path, [make_task(tmp_path, "T1", models=()), make_task(tmp_path, "T2", models=())])
        records = run_generation_batch(tmp_path, "m9", EndpointConfig(url=url), timeout=5)
        assert [(r.task_id, r.status) for r in records] == [("T1", STATUS_TRANSPORT_ERROR), ("T2", STATUS_OK)]
        assert sorted(p.name for p in (tmp_path / "solutions" / "m9").iterdir()) == ["T2.java"]
        log = [json.loads(line) for line in (tmp_path / "generation.log.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [entry["status"] for entry in log] == [STATUS_TRANSPORT_ERROR, STATUS_OK]

    @pytest.mark.parametrize("model_id", ["", "../../x", "a/b", "a\\b", ".."])
    def test_model_id_that_leaves_solutions_is_refused(self, tmp_path, model_id):
        write_manifest(tmp_path, [make_task(tmp_path, "T1", models=())])

        def transport(url, payload, headers, timeout):
            pytest.fail("a request was made")

        with pytest.raises(ValueError, match="^model id must be a plain name"):
            run_generation_batch(tmp_path, model_id, EndpointConfig(url="http://127.0.0.1:1"), transport=transport)
        assert not (tmp_path / "generation.log.jsonl").exists()

    def test_existing_solutions_never_rewritten(self, tmp_path, stub_server):
        url, handler = stub_server
        write_manifest(tmp_path, [make_task(tmp_path, "T1", models=())])
        target = tmp_path / "solutions" / "m9" / "T1.java"
        target.parent.mkdir(parents=True)
        target.write_text("class Original {\n}\n", encoding="utf-8")
        records = run_generation_batch(tmp_path, "m9", EndpointConfig(url=url), timeout=5)
        assert records == []
        assert target.read_text(encoding="utf-8") == "class Original {\n}\n"

"""Message model, canonical hashing, and the three backends."""

import contextlib
import hashlib
import http.server
import json
import random
import socket
import sys
import threading
import time
import urllib.request

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

from marco.errors import GatewayError
from marco.gateway import (
    ChatMessage,
    CompletionRequest,
    HttpBackend,
    MockBackend,
    ReplayBackend,
    ScriptMatcher,
    ToolCallRequest,
    ToolSpecs,
    canonical_hash,
    canonical_json,
    canonical_request,
    parse_tool_arguments,
    read_json,
    read_script_file,
    spec_to_openai,
)


def req(*messages: ChatMessage, model: str = "m", temperature: float = 0.0) -> CompletionRequest:
    return CompletionRequest(model_ref=model, messages=messages, temperature=temperature)


def sys_msg(text: str = "be helpful") -> ChatMessage:
    return ChatMessage(role="system", content=text)


def user(text: str) -> ChatMessage:
    return ChatMessage(role="user", content=text)


def assistant(text: str) -> ChatMessage:
    return ChatMessage(role="assistant", content=text)


class TestMessageModel:
    def test_tool_calls_on_assistant_only(self):
        call = ToolCallRequest(id="c1", tool_name="t")
        with pytest.raises(ValueError):
            ChatMessage(role="user", content="x", tool_calls=(call,))

    def test_tool_call_id_exactly_on_tool_role(self):
        with pytest.raises(ValueError):
            ChatMessage(role="tool", content="x")
        with pytest.raises(ValueError):
            ChatMessage(role="user", content="x", tool_call_id="c1")
        msg = ChatMessage(role="tool", content="x", tool_call_id="c1")
        assert msg.tool_call_id == "c1"

    def test_duplicate_call_ids_rejected(self):
        calls = (ToolCallRequest(id="c1", tool_name="a"), ToolCallRequest(id="c1", tool_name="b"))
        with pytest.raises(ValueError):
            ChatMessage(role="assistant", tool_calls=calls)

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            ChatMessage(role="narrator", content="x")

    def test_round_trip(self):
        msg = ChatMessage(
            role="assistant",
            content="use the tool",
            tool_calls=(ToolCallRequest(id="c1", tool_name="t", arguments={"k": 1}),),
        )
        assert ChatMessage.from_dict(msg.to_dict()) == msg

    def test_request_needs_messages(self):
        with pytest.raises(ValueError):
            CompletionRequest(model_ref="m", messages=())

    def test_request_first_message_system(self):
        with pytest.raises(ValueError):
            req(user("hi"))

    def test_assistant_turns(self):
        r = req(sys_msg(), user("a"), assistant("b"), user("c"), assistant("d"))
        assert r.assistant_turns() == 2
        assert r.last_message().content == "d"


class TestCanonicalHash:
    def test_map_order_invariance(self):
        call_a = ToolCallRequest(id="c", tool_name="t", arguments={"x": 1, "y": 2})
        call_b = ToolCallRequest(id="c", tool_name="t", arguments={"y": 2, "x": 1})
        ra = req(sys_msg(), ChatMessage(role="assistant", tool_calls=(call_a,)))
        rb = req(sys_msg(), ChatMessage(role="assistant", tool_calls=(call_b,)))
        assert canonical_hash(ra) == canonical_hash(rb)

    def test_temperature_included(self):
        base = (sys_msg(), user("q"))
        assert canonical_hash(req(*base)) != canonical_hash(req(*base, temperature=0.5))

    def test_content_whitespace_preserved(self):
        assert canonical_hash(req(sys_msg(), user("a b"))) != canonical_hash(req(sys_msg(), user("a  b")))

    def test_thousand_distinct_requests_distinct_digests(self):
        digests = {canonical_hash(req(sys_msg(), user(f"query {i}"))) for i in range(1000)}
        assert len(digests) == 1000

    def test_canonical_json_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_canonical_request_shape(self):
        r = req(sys_msg("s"), user("u"))
        payload = canonical_request(r)
        assert payload["model_ref"] == "m"
        assert payload["temperature"] == 0.0
        assert [m["role"] for m in payload["messages"]] == ["system", "user"]

    @pytest.mark.parametrize("seed", range(20))
    def test_single_field_mutations_change_digest(self, seed):
        rng = random.Random(seed)
        base = req(sys_msg("base"), user("question"), assistant("answer"), user("follow"))
        digest = canonical_hash(base)
        idx = rng.randrange(len(base.messages))
        mutated_messages = list(base.messages)
        mutated_messages[idx] = ChatMessage(
            role=base.messages[idx].role,
            content=base.messages[idx].content + "!",
            tool_call_id=base.messages[idx].tool_call_id,
        )
        assert canonical_hash(req(*mutated_messages)) != digest


def pinned_request() -> CompletionRequest:
    """A request with non-ASCII text, nested tool-call arguments, a tool reply,
    two tool specs and a non-zero temperature."""
    call = ToolCallRequest(
        id="call_0",
        tool_name="find_rc_mismatch_pairs",
        arguments={"report": "ss.txt", "filters": {"stages": [2, 1], "paths": ["p5"], "ratio": 5.0}},
    )
    return CompletionRequest(
        model_ref="rec",
        messages=(
            sys_msg("Analysez le rapport — «slack» négatif ≤ 0 ns, 時間"),
            user("Task node: t1\nGoal: find the worst path\n"),
            ChatMessage(role="assistant", tool_calls=(call,)),
            ChatMessage(role="tool", content="p5: R mismatch 1-2 (measure 12.5)\n", tool_call_id="call_0"),
        ),
        tool_specs=(
            {
                "name": "write_artifact",
                "description": "Store a text artifact.",
                "params": [{"name": "key", "kind": "string", "required": True, "doc": "Declared key."}],
            },
            {
                "name": "find_rc_mismatch_pairs",
                "description": "Pairs with an R or C ratio ≥ threshold.",
                "params": [
                    {"name": "report", "kind": "string", "required": True, "doc": ""},
                    {"name": "ratio_threshold", "kind": "number", "required": False, "doc": "> 1"},
                ],
            },
        ),
        temperature=0.7,
    )


class TestDigestBytes:
    def test_pinned_digest(self):
        # computed by hashing canonical_json(canonical_request(...)) whole; a
        # change here orphans every recorded cache entry
        digest = "08e47cc92fa128674c23cfbc507c9445ab2eb67b3bd3c915abb274086941cfef"
        assert canonical_hash(pinned_request()) == digest

    def test_message_serialized_on_first_hash_only(self):
        r = pinned_request()
        assert all("canonical_utf8" not in m.__dict__ for m in r.messages)
        assert "canonical_utf8" not in r.tool_specs.__dict__
        first = canonical_hash(r)
        assert all("canonical_utf8" in m.__dict__ for m in r.messages)
        assert canonical_hash(r) == first

    def test_a_built_spec_set_is_kept(self):
        specs = ToolSpecs([{"name": "t", "params": []}])
        assert req(sys_msg()).tool_specs == ()
        kept = CompletionRequest(model_ref="m", messages=(sys_msg(),), tool_specs=specs)
        assert kept.tool_specs is specs
        copied = CompletionRequest(model_ref="m", messages=(sys_msg(),), tool_specs=[{"name": "t", "params": []}])
        assert type(copied.tool_specs) is ToolSpecs and copied.tool_specs == specs


class TestReadJson:
    def test_bytes_and_file(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_bytes('{"k": ["\u00e9", 1]}'.encode("utf-8"))
        assert read_json(path) == read_json(path.read_bytes()) == {"k": ["\u00e9", 1]}

    @pytest.mark.parametrize(
        "raw, reason",
        [
            pytest.param(b"\xff\xfe{}", "'utf-8' codec can't decode", id="utf16_bom"),
            pytest.param('{"k": 1}'.encode("utf-16"), "'utf-8' codec can't decode", id="utf16"),
            pytest.param(b"[" * 100_000, "maximum recursion depth exceeded", id="too_deep"),
            pytest.param(b"{not json", "Expecting property name", id="not_json"),
        ],
    )
    def test_each_failure_is_one_value_error(self, raw, reason):
        with pytest.raises(ValueError) as exc:
            read_json(raw)
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith(reason)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            read_json(tmp_path / "ghost.json")
        assert type(exc.value) is ValueError
        assert "No such file or directory" in str(exc.value)

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["utf16_bom", "too_deep"])
    def test_script_file_gives_one_problem(self, tmp_path, raw):
        path = tmp_path / "script.json"
        path.write_bytes(raw)
        scripts, problems = read_script_file(path)
        assert scripts == []
        assert len(problems) == 1
        assert problems[0].startswith(f"script file {str(path)!r} is not readable JSON: ")


class TestMockBackend:
    def test_ping_pong(self):
        backend = MockBackend()
        backend.register_script(ScriptMatcher("substring", "ping"), [assistant("pong")])
        reply = backend.complete(req(sys_msg(), user("ping")))
        assert reply.content == "pong"

    def test_registration_order_priority(self):
        backend = MockBackend()
        backend.register_script(ScriptMatcher("always"), [assistant("first")])
        backend.register_script(ScriptMatcher("always"), [assistant("second")])
        assert backend.complete(req(sys_msg(), user("x"))).content == "first"

    def test_sequence_exhaustion(self):
        backend = MockBackend()
        backend.register_script(ScriptMatcher("always"), [assistant("one"), assistant("two")])
        r = req(sys_msg(), user("x"))
        assert backend.complete(r).content == "one"
        assert backend.complete(r).content == "two"
        with pytest.raises(GatewayError) as exc:
            backend.complete(r)
        assert exc.value.code == "NO_SCRIPT_MATCH"

    def test_no_match(self):
        backend = MockBackend()
        backend.register_script(ScriptMatcher("substring", "absent"), [assistant("x")])
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("other")))
        assert exc.value.code == "NO_SCRIPT_MATCH"

    def test_turn_index_matcher(self):
        backend = MockBackend()
        backend.register_script(ScriptMatcher("turn_index", 2), [assistant("at two")])
        backend.register_script(ScriptMatcher("always"), [assistant("fallback")] * 4)
        transcript: list[ChatMessage] = [sys_msg(), user("go")]
        seen = []
        for _ in range(4):
            reply = backend.complete(CompletionRequest(model_ref="m", messages=tuple(transcript)))
            seen.append(reply.content)
            transcript.append(reply)
            transcript.append(user("continue"))
        # fires exactly on the request carrying 2 assistant messages
        assert seen == ["fallback", "fallback", "at two", "fallback"]

    def test_empty_script_rejected(self):
        backend = MockBackend()
        with pytest.raises(ValueError):
            backend.register_script(ScriptMatcher("always"), [])

    def test_non_assistant_response_rejected(self):
        backend = MockBackend()
        with pytest.raises(ValueError):
            backend.register_script(ScriptMatcher("always"), [user("nope")])

    def test_unknown_matcher_kind(self):
        with pytest.raises(ValueError):
            ScriptMatcher("regex", "x")

    def test_from_script_file(self, tmp_path):
        script = [
            {
                "matcher": {"kind": "substring", "value": "hello"},
                "responses": [{"content": "hi there"}],
            }
        ]
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        backend = MockBackend.from_script_file(path)
        assert backend.complete(req(sys_msg(), user("hello"))).content == "hi there"


class TestReplayBackend:
    def test_record_then_replay_identical(self, tmp_path):
        inner = MockBackend()
        inner.register_script(ScriptMatcher("always"), [assistant("recorded")])
        recorder = ReplayBackend(tmp_path, inner=inner, record=True)
        r = req(sys_msg(), user("q"))
        first = recorder.complete(r)
        replayer = ReplayBackend(tmp_path, inner=None, record=False)
        assert replayer.complete(r) == first

    def test_cache_file_layout(self, tmp_path):
        inner = MockBackend()
        inner.register_script(ScriptMatcher("always"), [assistant("recorded")])
        recorder = ReplayBackend(tmp_path, inner=inner, record=True)
        r = req(sys_msg(), user("q"))
        recorder.complete(r)
        digest = canonical_hash(r)
        entry = json.loads((tmp_path / f"{digest}.json").read_text(encoding="utf-8"))
        assert entry["digest"] == digest
        assert entry["request"] == canonical_request(r)
        assert entry["response"]["content"] == "recorded"
        assert [path.name for path in tmp_path.iterdir()] == [f"{digest}.json"]  # no temporary file left

    @pytest.mark.parametrize(
        "text",
        [
            '{"digest": "ab',
            '{"digest": "ab"}',
            "[1, 2]",
            '{"response": 7}',
            pytest.param("[" * 100_000, id="too_deep"),
            pytest.param('{"response": {"role": "assistant", "content": 5}}', id="content_number"),
            pytest.param('{"response": {"role": "user", "content": "hi"}}', id="user_role"),
            pytest.param(
                '{"response": {"role": "assistant", "tool_calls": [{"id": 1, "tool_name": "t"}]}}',
                id="call_id_number",
            ),
            pytest.param(
                '{"response": {"role": "assistant", "tool_calls": [{"id": "c1", "tool_name": null}]}}',
                id="tool_name_null",
            ),
            pytest.param(
                '{"response": {"role": "assistant", "tool_calls": [{"id": "c1", "tool_name": "t", "arguments": [["a", 1]]}]}}',
                id="arguments_pairs",
            ),
        ],
    )
    def test_unreadable_entry_is_coded(self, tmp_path, text):
        r = req(sys_msg(), user("q"))
        entry = tmp_path / f"{canonical_hash(r)}.json"
        entry.write_text(text, encoding="utf-8")
        with pytest.raises(GatewayError) as exc:
            ReplayBackend(tmp_path).complete(r)
        assert exc.value.code == "CACHE_CORRUPT"
        assert str(entry) in str(exc.value)

    def test_mutated_request_misses(self, tmp_path):
        inner = MockBackend()
        inner.register_script(ScriptMatcher("always"), [assistant("recorded")])
        ReplayBackend(tmp_path, inner=inner, record=True).complete(req(sys_msg(), user("q")))
        replayer = ReplayBackend(tmp_path, inner=None, record=False)
        with pytest.raises(GatewayError) as exc:
            replayer.complete(req(sys_msg(), user("q!")))
        assert exc.value.code == "CACHE_MISS"

    def recorded(self, cache, *requests: CompletionRequest) -> ReplayBackend:
        inner = MockBackend([(ScriptMatcher("always"), [assistant("recorded")] * len(requests))])
        recorder = ReplayBackend(cache, inner=inner, record=True)
        for r in requests:
            recorder.complete(r)
        return ReplayBackend(cache)

    def miss(self, replayer: ReplayBackend, r: CompletionRequest) -> str:
        with pytest.raises(GatewayError) as exc:
            replayer.complete(r)
        assert exc.value.code == "CACHE_MISS"
        assert str(exc.value).startswith(f"CACHE_MISS: no cache entry for digest {canonical_hash(r)}; ")
        return str(exc.value)

    def test_miss_names_the_first_difference_from_the_nearest_entry(self, tmp_path):
        near = req(sys_msg(), user("q"), assistant("a"), user("more"))
        replayer = self.recorded(tmp_path, near, req(sys_msg(), user("other")), req(*near.messages, model="other"))
        (tmp_path / "0.json").write_text("[", encoding="utf-8")  # unreadable entries are passed over
        (tmp_path / "1.json").write_text('{"request": {"model_ref": "m", "messages": 5}}', encoding="utf-8")
        call = ToolCallRequest(id="c1", tool_name="t")
        cases = {
            "messages[3].content (role user)": req(sys_msg(), user("q"), assistant("a"), user("more!")),
            "messages[2].role (role user)": req(sys_msg(), user("q"), user("a")),
            "messages[2].tool_calls (role assistant)": req(
                sys_msg(), user("q"), ChatMessage(role="assistant", content="a", tool_calls=(call,))
            ),
            "messages[4] (the cached request ends before it)": req(*near.messages, assistant("b")),
            "messages[3] (this request ends before it)": req(*near.messages[:3]),
            "temperature": req(*near.messages, temperature=0.5),
            "tool_specs": CompletionRequest("m", near.messages, [{"name": "t"}]),
        }
        for where, r in cases.items():
            expected = f"the nearest cached request for model_ref 'm', {canonical_hash(near)}, first differs at {where}"
            assert self.miss(replayer, r).endswith(expected)
        assert self.miss(replayer, req(sys_msg(), model="ghost")).endswith("no cached request has model_ref 'ghost'")

    def test_miss_names_the_tool_call_id(self, tmp_path):
        call = ToolCallRequest(id="c1", tool_name="t")
        asked = (sys_msg(), ChatMessage(role="assistant", tool_calls=(call,)))
        replayer = self.recorded(tmp_path, req(*asked, ChatMessage(role="tool", content="r", tool_call_id="c1")))
        edited = req(*asked, ChatMessage(role="tool", content="r", tool_call_id="c2"))
        assert self.miss(replayer, edited).endswith("first differs at messages[2].tool_call_id (role tool)")

    def test_record_without_inner(self, tmp_path):
        backend = ReplayBackend(tmp_path, inner=None, record=True)
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "CACHE_MISS"

    def test_at_most_once_entry(self, tmp_path):
        inner = MockBackend()
        inner.register_script(ScriptMatcher("always"), [assistant("one"), assistant("two")])
        recorder = ReplayBackend(tmp_path, inner=inner, record=True)
        r = req(sys_msg(), user("q"))
        assert recorder.complete(r).content == "one"
        # second call hits the cache, never consuming the inner script
        assert recorder.complete(r).content == "one"
        assert len(list(tmp_path.glob("*.json"))) == 1


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Scriptable chat-completions endpoint for HttpBackend tests."""

    responses: list[tuple[int, dict | bytes]] = []  # bytes are sent as they are
    seen: list[dict] = []
    delay = 0.0  # seconds to sleep before each reply

    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).seen.append({"path": self.path, "headers": dict(self.headers), "body": body})
        time.sleep(type(self).delay)
        status, payload = type(self).responses.pop(0) if type(self).responses else (200, {})
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    do_GET = do_POST  # noqa: N815 - records a redirect that turned the POST into a GET

    def log_message(self, *args):  # noqa: D102 - silence test server
        pass


class _RedirectHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with ``status`` and a Location header."""

    status = 302
    location = ""

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(type(self).status)
        self.send_header("Location", type(self).location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):  # noqa: D102 - silence test server
        pass


@contextlib.contextmanager
def serving(handler):
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


@pytest.fixture()
def chat_server():
    _ChatHandler.responses = []
    _ChatHandler.seen = []
    _ChatHandler.delay = 0.0
    with serving(_ChatHandler) as url:
        yield url


def completion_body(content: str = "ok", tool_calls: list | None = None) -> dict:
    message: dict = {"role": "assistant", "content": content}
    if tool_calls is not None:
        message["tool_calls"] = tool_calls
    return {"choices": [{"message": message}]}


@pytest.fixture()
def open_calls(monkeypatch):
    """Count the requests HttpBackend starts, whether or not they connect."""
    calls = []
    open_ = urllib.request.OpenerDirector.open

    def counting(self, request, *args, **kwargs):
        calls.append(request.full_url)
        return open_(self, request, *args, **kwargs)

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", counting)
    return calls


class TestHttpBackend:
    def test_success(self, chat_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)  # any `import requests` fails
        _ChatHandler.responses = [(200, completion_body("hello"))]
        backend = HttpBackend(base_url=chat_server, api_key="sekrit")
        reply = backend.complete(req(sys_msg(), user("q")))
        assert reply.content == "hello"
        seen = _ChatHandler.seen[0]
        assert seen["path"] == "/chat/completions"
        assert seen["headers"]["Authorization"] == "Bearer sekrit"
        assert seen["headers"]["Content-Type"] == "application/json"
        assert seen["headers"]["Connection"] == "close"
        assert seen["body"]["model"] == "m"

    def test_opener_built_once_per_backend(self, chat_server, monkeypatch):
        builds = []
        build_opener = urllib.request.build_opener
        monkeypatch.setattr(urllib.request, "build_opener", lambda *h: builds.append(h) or build_opener(*h))
        _ChatHandler.responses = [(200, completion_body("one")), (200, completion_body("two"))]
        backend = HttpBackend(base_url=chat_server, api_key="k")
        assert [backend.complete(req(sys_msg(), user("q"))).content for _ in range(2)] == ["one", "two"]
        assert len(builds) == 1 and len(_ChatHandler.seen) == 2

    def test_path_prefix_kept(self, chat_server):
        _ChatHandler.responses = [(200, completion_body("hello"))]
        backend = HttpBackend(base_url=chat_server + "/v1/", api_key="k")
        assert backend.complete(req(sys_msg(), user("q"))).content == "hello"
        assert [seen["path"] for seen in _ChatHandler.seen] == ["/v1/chat/completions"]

    def test_refused_connection_is_retried_once(self, open_calls):
        with socket.socket() as sock:  # a port that was free a moment ago, now with nobody listening
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        backend = HttpBackend(base_url=f"http://127.0.0.1:{port}", api_key="k", retry_delay=0.0)
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "HTTP_ERROR"
        assert exc.value.details["status"] == 0
        assert str(exc.value).startswith("HTTP_ERROR: request failed: ")
        assert len(open_calls) == 2

    def test_timeout_is_a_transport_failure(self, chat_server):
        _ChatHandler.delay = 0.5
        backend = HttpBackend(base_url=chat_server, api_key="k", timeout=0.2, retry_delay=0.0)
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "HTTP_ERROR"
        assert exc.value.details["status"] == 0
        assert "timed out" in str(exc.value)

    @pytest.mark.parametrize("base_url", ["file:///etc", "ftp://127.0.0.1", "127.0.0.1:8000", "localhost"])
    def test_non_http_base_url_refused_before_any_request(self, open_calls, base_url):
        backend = HttpBackend(base_url=base_url, api_key="k")
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "HTTP_ERROR"
        assert exc.value.details["status"] == 0
        assert "is not http:// or https://" in str(exc.value)
        assert open_calls == []

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, chat_server, status):
        _RedirectHandler.status = status
        _RedirectHandler.location = f"{chat_server}/chat/completions"
        with serving(_RedirectHandler) as redirecting:
            backend = HttpBackend(base_url=redirecting, api_key="sekrit", retry_delay=0.0)
            with pytest.raises(GatewayError) as exc:
                backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "HTTP_ERROR"
        assert exc.value.details["status"] == status
        assert str(exc.value) == f"HTTP_ERROR: unexpected status {status}"
        assert _ChatHandler.seen == []  # the bearer token never reached the Location host

    def test_retry_on_server_error(self, chat_server):
        _ChatHandler.responses = [(503, {}), (200, completion_body("after retry"))]
        backend = HttpBackend(base_url=chat_server, api_key="k", retry_delay=0.0)
        assert backend.complete(req(sys_msg(), user("q"))).content == "after retry"
        assert len(_ChatHandler.seen) == 2

    def test_persistent_server_error(self, chat_server):
        _ChatHandler.responses = [(500, {}), (500, {})]
        backend = HttpBackend(base_url=chat_server, api_key="k", retry_delay=0.0)
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "HTTP_ERROR"
        assert exc.value.details["status"] == 500

    def test_client_error_no_retry(self, chat_server):
        _ChatHandler.responses = [(404, {})]
        backend = HttpBackend(base_url=chat_server, api_key="k", retry_delay=0.0)
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.details["status"] == 404
        assert len(_ChatHandler.seen) == 1

    def test_tool_call_parsing(self, chat_server):
        calls = [
            {
                "id": "call_9",
                "type": "function",
                "function": {"name": "lookup", "arguments": '{"key": "x"}'},
            }
        ]
        _ChatHandler.responses = [(200, completion_body("", calls))]
        backend = HttpBackend(base_url=chat_server, api_key="k")
        reply = backend.complete(req(sys_msg(), user("q")))
        assert reply.tool_calls == (ToolCallRequest(id="call_9", tool_name="lookup", arguments={"key": "x"}),)

    def test_tool_call_payload_shape(self, chat_server):
        _ChatHandler.responses = [(200, completion_body("done"))]
        backend = HttpBackend(base_url=chat_server, api_key="k")
        call = ToolCallRequest(id="c1", tool_name="t", arguments={"n": 2})
        backend.complete(
            req(
                sys_msg(),
                user("q"),
                ChatMessage(role="assistant", tool_calls=(call,)),
                ChatMessage(role="tool", content="result", tool_call_id="c1"),
            )
        )
        sent = _ChatHandler.seen[0]["body"]["messages"]
        assert sent[2]["tool_calls"][0]["function"] == {"name": "t", "arguments": '{"n": 2}'}
        assert sent[3] == {"role": "tool", "content": "result", "tool_call_id": "c1"}

    @pytest.mark.parametrize(
        "body",
        [
            {"choices": [{"message": "hi"}]},
            completion_body("", ["not a call"]),
            completion_body("", [{"id": "c1", "function": {"name": "t", "arguments": [1]}}]),
            completion_body(["a", "list"]),
            completion_body("", [{"id": "c1", "function": {"name": 7, "arguments": "{}"}}]),
            completion_body("", [{"id": "c1", "function": {"name": "t"}}, {"id": "c1", "function": {"name": "t"}}]),
            completion_body("", [{"id": "c1", "function": {"name": "t", "arguments": "[" * 100_000}}]),
            b"<html>not json</html>",
            b"[" * 100_000,
            '{"choices": []}'.encode("utf-16"),
            completion_body("", 0),
        ],
        ids=[
            "message_text",
            "call_text",
            "arguments_list",
            "content_list",
            "name_number",
            "repeated_ids",
            "arguments_too_deep",
            "not_json",
            "too_deep",
            "utf16",
            "tool_calls_zero",
        ],
    )
    def test_malformed_body_is_http_error(self, chat_server, body):
        _ChatHandler.responses = [(200, body)]
        backend = HttpBackend(base_url=chat_server, api_key="k")
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "HTTP_ERROR"
        assert str(exc.value).startswith(("HTTP_ERROR: malformed completion body: ", "HTTP_ERROR: unparseable tool"))
        assert exc.value.details["status"] == 200
        assert len(_ChatHandler.seen) == 1

    def test_missing_base_url(self, monkeypatch):
        monkeypatch.delenv("MARCO_BASE_URL", raising=False)
        backend = HttpBackend(base_url=None, api_key="k")
        with pytest.raises(GatewayError) as exc:
            backend.complete(req(sys_msg(), user("q")))
        assert exc.value.code == "HTTP_ERROR"

    def test_env_fallbacks(self, monkeypatch, chat_server):
        monkeypatch.setenv("MARCO_BASE_URL", chat_server + "/")
        monkeypatch.setenv("MARCO_API_KEY", "from-env")
        _ChatHandler.responses = [(200, completion_body("ok"))]
        backend = HttpBackend()
        backend.complete(req(sys_msg(), user("q")))
        assert _ChatHandler.seen[0]["headers"]["Authorization"] == "Bearer from-env"


def _json_paths(value, prefix=()):
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


if st is not None:
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    )
    TOOL_BODY = completion_body("ok", [{"id": "c1", "type": "function", "function": {"name": "t", "arguments": "{}"}}])
    BODY_PATHS = sorted(_json_paths(TOOL_BODY), key=repr)

    class TestCompletionBodyFuzz:
        """Any JSON body parses to a message or is HTTP_ERROR. The parser is
        called directly, so each example costs no request."""

        def check(self, body):
            try:
                reply = HttpBackend(base_url="http://unused")._parse_response(body)
            except GatewayError as exc:
                assert exc.code == "HTTP_ERROR"
                assert exc.details["status"] == 200
            else:
                assert isinstance(reply, ChatMessage)
                assert isinstance(reply.content, str)
                assert all(isinstance(c.tool_name, str) and isinstance(c.id, str) for c in reply.tool_calls)

        @settings(max_examples=300, deadline=None)
        @given(body=JSON_VALUES)
        def test_any_json_body(self, body):
            self.check(body)

        @settings(max_examples=300, deadline=None)
        @given(path=st.sampled_from(BODY_PATHS), value=JSON_VALUES, delete=st.booleans())
        def test_any_one_field_replaced(self, path, value, delete):
            body = json.loads(json.dumps(TOOL_BODY))
            parent = body
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            self.check(body)


if st is not None:
    RESPONSE_FIELDS = st.dictionaries(
        st.sampled_from(["role", "content", "tool_calls", "tool_call_id"]),
        st.sampled_from(["assistant", "user", "tool"]) | JSON_VALUES,
    )
    TOOL_CALLS = st.lists(
        st.dictionaries(st.sampled_from(["id", "tool_name", "arguments"]), st.sampled_from(["c1", "t"]) | JSON_VALUES),
        max_size=3,
    )
    RESPONSES = st.one_of(
        JSON_VALUES,
        RESPONSE_FIELDS,
        st.builds(lambda fields, calls: {"role": "assistant", **fields, "tool_calls": calls}, RESPONSE_FIELDS, TOOL_CALLS),
    )

    class TestCacheFileFuzz:
        """Any cache file gives an assistant message or CACHE_CORRUPT."""

        def check(self, tmp_path, raw: bytes):
            r = req(sys_msg(), user("q"))
            (tmp_path / f"{canonical_hash(r)}.json").write_bytes(raw)
            try:
                reply = ReplayBackend(tmp_path).complete(r)
            except GatewayError as exc:
                assert exc.code == "CACHE_CORRUPT"
            else:
                assert reply.role == "assistant"
                assert isinstance(reply.content, str)
                assert all(isinstance(c.id, str) and isinstance(c.tool_name, str) for c in reply.tool_calls)
                assert all(isinstance(c.arguments, dict) for c in reply.tool_calls)

        @settings(max_examples=200, deadline=None)
        @given(raw=st.binary(max_size=64))
        def test_any_bytes(self, tmp_path_factory, raw):
            self.check(tmp_path_factory.mktemp("cache"), raw)

        @settings(max_examples=300, deadline=None)
        @given(entry=JSON_VALUES | st.builds(lambda response: {"response": response}, RESPONSES))
        def test_any_json(self, tmp_path_factory, entry):
            self.check(tmp_path_factory.mktemp("cache"), json.dumps(entry).encode("utf-8"))


if st is not None:
    TEXT = st.text(max_size=8)
    CALL_LISTS = st.lists(
        st.builds(ToolCallRequest, id=TEXT, tool_name=TEXT, arguments=st.dictionaries(TEXT, JSON_VALUES, max_size=3)),
        max_size=2,
        unique_by=lambda call: call.id,
    )
    LATER_MESSAGES = st.one_of(
        st.builds(ChatMessage, role=st.just("user"), content=TEXT),
        st.builds(ChatMessage, role=st.just("assistant"), content=TEXT, tool_calls=CALL_LISTS),
        st.builds(ChatMessage, role=st.just("tool"), content=TEXT, tool_call_id=TEXT),
    )
    REQUESTS = st.builds(
        lambda model, system, later, specs, temperature: CompletionRequest(model, (system, *later), specs, temperature),
        TEXT,
        st.builds(ChatMessage, role=st.just("system"), content=TEXT),
        st.lists(LATER_MESSAGES, max_size=6),
        st.lists(st.dictionaries(TEXT, JSON_VALUES, max_size=4), max_size=3),
        st.floats() | st.integers(-3, 3),
    )

    class TestDigestAssembly:
        @settings(max_examples=300, deadline=None)
        @given(r=REQUESTS)
        def test_digest_hashes_the_whole_canonical_request(self, r):
            whole = canonical_json(canonical_request(r)).encode("utf-8")
            assert canonical_hash(r) == hashlib.sha256(whole).hexdigest()


class TestToolArgumentParsing:
    def test_whole_object(self):
        assert parse_tool_arguments('{"a": 1}') == {"a": 1}

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            parse_tool_arguments("[1, 2]")

    def test_unbalanced_brace_inside_a_string(self):
        assert parse_tool_arguments('{"value": "a}"}') == {"value": "a}"}
        assert parse_tool_arguments('{"value": "{"}') == {"value": "{"}

    def test_lenient_extracts_block(self):
        assert parse_tool_arguments('Sure! {"a": {"b": 2}} done') == {"a": {"b": 2}}

    def test_lenient_skips_broken_blocks(self):
        assert parse_tool_arguments('{oops} then {"a": 1}') == {"a": 1}

    def test_lenient_no_object(self):
        with pytest.raises(ValueError):
            parse_tool_arguments("nothing here")

    def test_lenient_takes_first_opening_block(self):
        assert parse_tool_arguments('{ {"a": 1} x {"b": 2}') == {"a": 1}
        assert parse_tool_arguments('{"a": {"b": 2}} {"c": 3}') == {"a": {"b": 2}}
        assert parse_tool_arguments('} {"a": 1} }') == {"a": 1}

    def test_lenient_unbalanced_braces_fail_in_linear_time(self):
        text = "{" * 40_000
        started = time.perf_counter()
        with pytest.raises(ValueError):
            parse_tool_arguments(text)
        assert time.perf_counter() - started < 0.1


def rescanning_parse(text: str) -> dict:
    """The lenient parser as it was before the one-pass pairing: from every
    ``{``, scan forward to where its braces balance and try that block."""
    for start in (i for i, ch in enumerate(text) if ch == "{"):
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    try:
                        parsed = json.loads(text[start : i + 1])
                    except json.JSONDecodeError:
                        break
                    if isinstance(parsed, dict):
                        return parsed
                    break
    raise ValueError("no JSON object found in tool arguments")


if st is not None:
    BRACE_TEXT = st.lists(
        st.sampled_from(['{', '}', '"a"', ':', ',', '1', '[', ']', ' ', 'x', '{}', '{"a": 1}', '"}"', '"{"']),
        max_size=40,
    ).map("".join)

    def is_json_object(text: str) -> bool:
        try:
            return isinstance(json.loads(text), dict)
        except ValueError:
            return False

    class TestLenientParsingMatchesRescan:
        """Text that is not one JSON object as a whole parses as the older
        rescanning parser parsed it."""

        @settings(max_examples=500, deadline=None)
        @given(text=BRACE_TEXT.filter(lambda text: not is_json_object(text)))
        def test_same_result_or_same_error(self, text):
            try:
                expected = rescanning_parse(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    parse_tool_arguments(text)
                assert str(got.value) == str(exc)
            else:
                assert parse_tool_arguments(text) == expected

    class TestWholeObjectParsing:
        @settings(max_examples=300, deadline=None)
        @given(value=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=5))
        def test_dumped_dict_parses_back(self, value):
            assert parse_tool_arguments(json.dumps(value)) == value


class TestOpenAiSpecRendering:
    def test_schema_shape(self):
        spec = {
            "name": "t",
            "description": "does things",
            "params": [
                {"name": "key", "kind": "string", "required": True, "doc": "which"},
                {"name": "count", "kind": "integer", "required": False, "doc": ""},
                {"name": "ids", "kind": "string_list", "required": True, "doc": ""},
            ],
        }
        rendered = spec_to_openai(spec)
        fn = rendered["function"]
        assert rendered["type"] == "function"
        assert fn["parameters"]["required"] == ["key", "ids"]
        assert fn["parameters"]["properties"]["ids"] == {"type": "array", "items": {"type": "string"}}
        assert fn["parameters"]["additionalProperties"] is False

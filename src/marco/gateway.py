"""Chat-completion boundary: one interface, three interchangeable backends.

* ``HttpBackend`` talks to any chat-completions-compatible endpoint.
* ``MockBackend`` replays registered scripts, for tests and bundled runs.
* ``ReplayBackend`` caches responses by canonical request hash so a whole
  framework run can be re-executed byte-identically with zero network calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from contextlib import suppress
from functools import cached_property, lru_cache
from pathlib import Path
from stat import S_ISREG
from typing import Any, Iterable, Mapping, Sequence

from .errors import GatewayError
from .record import Record

ROLES = ("system", "user", "assistant", "tool")

API_KEY_ENV = "MARCO_API_KEY"
BASE_URL_ENV = "MARCO_BASE_URL"
HTTP_SCHEMES = ("http://", "https://")


class ToolCallRequest(Record):
    """One tool invocation requested by an assistant message."""

    id: str
    tool_name: str
    arguments: Mapping[str, Any] = {}  # copied by __post_init__

    def __post_init__(self) -> None:
        if not (isinstance(self.id, str) and isinstance(self.tool_name, str) and isinstance(self.arguments, Mapping)):
            raise ValueError("a tool call needs a string id and tool_name and an object of arguments")
        object.__setattr__(self, "arguments", dict(self.arguments))

    def to_dict(self) -> dict:
        return {"id": self.id, "tool_name": self.tool_name, "arguments": dict(self.arguments)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ToolCallRequest":
        return cls(
            id=payload["id"],
            tool_name=payload["tool_name"],
            arguments=payload.get("arguments", {}),
        )


class ChatMessage(Record):
    """One conversation message; tool calls ride on assistant messages only."""

    role: str
    content: str = ""
    tool_calls: tuple[ToolCallRequest, ...] = ()
    tool_call_id: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tool_calls", tuple(self.tool_calls))
        if self.role not in ROLES:
            raise ValueError(f"unknown message role {self.role!r}")
        if not isinstance(self.content, str) or not isinstance(self.tool_call_id, (str, type(None))):
            raise ValueError("message content and tool_call_id must be strings")
        if self.tool_calls and self.role != "assistant":
            raise ValueError("tool_calls allowed on assistant messages only")
        if (self.tool_call_id is not None) != (self.role == "tool"):
            raise ValueError("tool_call_id must be present exactly on tool messages")
        ids = [c.id for c in self.tool_calls]
        if len(ids) != len(set(ids)):
            raise ValueError("tool call ids must be unique within a message")

    def to_dict(self) -> dict:
        payload: dict = {"role": self.role, "content": self.content}
        if self.tool_calls:
            payload["tool_calls"] = [c.to_dict() for c in self.tool_calls]
        if self.tool_call_id is not None:
            payload["tool_call_id"] = self.tool_call_id
        return payload

    @cached_property
    def canonical_utf8(self) -> bytes:
        """This message's canonical JSON, UTF-8 encoded; built on first use,
        so a message is serialized once however many requests carry it."""
        return canonical_json(self.to_dict()).encode("utf-8")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChatMessage":
        return cls(
            role=payload["role"],
            content=payload.get("content", ""),
            tool_calls=tuple(ToolCallRequest.from_dict(c) for c in payload.get("tool_calls", ())),
            tool_call_id=payload.get("tool_call_id"),
        )


class ToolSpecs(tuple):
    """The tool-spec summaries offered with a request, each copied once; not
    to be changed after the first hash, which keeps their canonical JSON."""

    def __new__(cls, specs: Iterable[Mapping[str, Any]] = ()) -> "ToolSpecs":
        return super().__new__(cls, (dict(s) for s in specs))

    @cached_property
    def canonical_utf8(self) -> bytes:
        """The specs' canonical JSON joined by commas, UTF-8 encoded."""
        return ",".join(canonical_json(s) for s in self).encode("utf-8")


class CompletionRequest(Record):
    """Everything a backend needs to produce the next assistant message."""

    model_ref: str
    messages: tuple[ChatMessage, ...]
    tool_specs: ToolSpecs = ToolSpecs()
    temperature: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not isinstance(self.tool_specs, ToolSpecs):  # a registry's set is kept as built
            object.__setattr__(self, "tool_specs", ToolSpecs(self.tool_specs))
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.messages[0].role != "system":
            raise ValueError("first message must have role=system")

    def assistant_turns(self) -> int:
        return sum(1 for m in self.messages if m.role == "assistant")

    def last_message(self) -> ChatMessage:
        return self.messages[-1]


def canonical_request(req: CompletionRequest) -> dict:
    """The canonical, hash-stable form of a request (documented in README)."""
    return {
        "model_ref": req.model_ref,
        "temperature": float(req.temperature),
        "messages": [m.to_dict() for m in req.messages],
        "tool_specs": [dict(s) for s in req.tool_specs],
    }


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def read_json(data: bytes) -> Any:
    """The JSON value in ``data``, decoded as UTF-8 (RFC 8259); a file is read
    by ``read_file`` first.

    A failure to decode, parse or nest (``RecursionError``) becomes one
    ``ValueError`` whose text is the reason.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except (RecursionError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ValueError(str(exc)) from exc


def read_file(name: str | Path, dir_fd: int | None = None) -> tuple[bytes, os.stat_result]:
    """The bytes of the regular file ``name`` (relative to ``dir_fd`` if
    given) and its stat, taken on the descriptor before the read. A first read
    of just the stat's size is the whole file; after any other it reads to EOF,
    in chunks of at least 64 KiB, as a procfs file's stat size is 0.

    The open does not block, as opening a FIFO would wait for a writer, and
    anything not a regular file (a directory, FIFO or device) is
    ``OSError("not a regular file")`` before any read. Needs POSIX.
    """
    fd = os.open(name, os.O_RDONLY | os.O_NONBLOCK | os.O_NOCTTY, dir_fd=dir_fd)
    try:
        st = os.fstat(fd)
        if not S_ISREG(st.st_mode):
            raise OSError("not a regular file")
        chunks = [os.read(fd, st.st_size + 1)]
        rest = max(st.st_size + 1, 1 << 16)
        while len(chunks[0]) != st.st_size and chunks[-1]:
            chunks.append(os.read(fd, rest))
        return b"".join(chunks), st
    finally:
        os.close(fd)


def canonical_hash(req: CompletionRequest) -> str:
    """Stable sha256 digest of the canonical request serialization.

    Map keys are sorted and separators fixed, so semantically identical
    requests hash equal regardless of construction order; content whitespace
    is preserved verbatim. The bytes hashed are those of
    ``canonical_json(canonical_request(req))``, assembled from each message's
    and the tool set's own canonical JSON in sorted key order: ``messages``,
    ``model_ref``, ``temperature``, ``tool_specs``.
    """
    scalars = canonical_json({"model_ref": req.model_ref, "temperature": float(req.temperature)})
    text = b"".join(
        (
            b'{"messages":[',
            b",".join(m.canonical_utf8 for m in req.messages),
            b"],",
            scalars[1:-1].encode("utf-8"),
            b',"tool_specs":[',
            req.tool_specs.canonical_utf8,
            b"]}",
        )
    )
    return hashlib.sha256(text).hexdigest()


_BRACE = re.compile(r"[{}]")


def parse_tool_arguments(text: str) -> dict:
    """Parse tool-call arguments arriving as text: the whole text if it is one
    JSON object, or else the first balanced ``{...}`` block that is one, as
    live model output tends to wrap the object in prose. Each ``{`` is paired
    with its matching ``}`` in one pass, and the blocks are tried in the order
    they open.
    """
    closing: dict[int, int] = {}  # index of a "{" -> index just past its matching "}"
    open_braces: list[int] = []
    for brace in _BRACE.finditer(text):
        if brace.group() == "{":
            open_braces.append(brace.start())
        elif open_braces:
            closing[open_braces.pop()] = brace.end()
    for start, end in [(0, len(text)), *sorted(closing.items())]:
        try:
            parsed = json.loads(text[start:end])
        except json.JSONDecodeError:
            continue
        if isinstance(parsed, dict):
            return parsed
    raise ValueError("no JSON object found in tool arguments")


class Backend:
    """Interface every backend implements.

    ``waits`` is true when a call spends its time waiting on another process
    rather than computing. The engine makes every other call on its own
    thread and such calls on worker threads, so nodes served only by such
    backends overlap, and ``complete`` must then be safe to call from
    several threads at once.
    """

    waits = False

    def complete(self, req: CompletionRequest) -> ChatMessage:
        raise NotImplementedError


class ScriptMatcher(Record):
    """Predicate over a request: substring of last message, turn index, or always."""

    kind: str
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind not in ("substring", "turn_index", "always"):
            raise ValueError(f"unknown matcher kind {self.kind!r}")
        if self.kind == "turn_index" and type(self.value) is not int:  # bool is not a turn count
            raise ValueError(f"turn_index matcher needs an integer value, got {self.value!r}")
        if self.kind == "turn_index" and self.value < 0:
            raise ValueError(f"turn_index matcher needs a value of at least 0, got {self.value!r}")

    def matches(self, req: CompletionRequest) -> bool:
        if self.kind == "always":
            return True
        if self.kind == "substring":
            return str(self.value) in req.last_message().content
        return req.assistant_turns() == self.value


# A mock script: its matcher and the responses it yields in turn.
Script = tuple[ScriptMatcher, tuple[ChatMessage, ...]]


class MockBackend(Backend):
    """Deterministic scripted backend.

    Scripts are evaluated in registration order; the first whose matcher fires
    serves the call. A script holding a response sequence yields its next
    element on each successive match and errors once exhausted.
    """

    def __init__(self, scripts: Iterable[Script] = ()) -> None:
        self._scripts: list[tuple[ScriptMatcher, list[ChatMessage], list[int]]] = []
        for matcher, responses in scripts:
            self.register_script(matcher, responses)

    def register_script(self, matcher: ScriptMatcher, responses: Sequence[ChatMessage]) -> int:
        responses = list(responses)
        if not responses:
            raise ValueError("a script needs at least one response")
        for msg in responses:
            if msg.role != "assistant":
                raise ValueError("script responses must be assistant messages")
        self._scripts.append((matcher, responses, [0]))
        return len(self._scripts) - 1

    def complete(self, req: CompletionRequest) -> ChatMessage:
        for matcher, responses, cursor in self._scripts:
            if matcher.matches(req):
                if cursor[0] >= len(responses):
                    raise GatewayError(
                        "NO_SCRIPT_MATCH",
                        f"matching script exhausted after {len(responses)} response(s)",
                    )
                msg = responses[cursor[0]]
                cursor[0] += 1
                return msg
        raise GatewayError("NO_SCRIPT_MATCH", "no registered script matches the request")

    @classmethod
    def from_script_file(cls, path: str | Path) -> "MockBackend":
        """Load scripts from a JSON file (see README for the schema)."""
        scripts, problems = read_script_file(Path(path))
        if problems:
            raise ValueError(f"{path}: {problems[0]}")
        return cls(scripts)


def read_script_file(path: Path) -> tuple[list[Script], list[str]]:
    """The usable scripts of a mock script file, and one line for every reason
    the file or one of its entries cannot be used. The file is read whole on
    every call and parsed once per distinct bytes in the process."""
    try:
        scripts, problems = _parse_scripts(read_file(path)[0])
    except (OSError, ValueError) as exc:
        return [], [f"script file {str(path)!r} is not readable JSON: {exc}"]
    except TypeError as exc:
        return [], [f"script file {str(path)!r} {exc}"]
    return list(scripts), list(problems)


# This memo and _entry_response's are keyed by a file's bytes, which they
# hold. A run reads its files in the same order each time, so a bound below
# one run's distinct files evicts each before its next use and never hits:
# reports_replay reads 35 replay entries (137 KB at seed 1), bundled 3
# script files of at most 7.5 KB, and wide_graph one 32 KB script.
@lru_cache(maxsize=256)
def _parse_scripts(data: bytes) -> tuple[tuple[Script, ...], tuple[str, ...]]:
    """The checked scripts of a script file's bytes and its entries' problems,
    which do not name the file; ``TypeError`` if the bytes hold no JSON list."""
    payload = read_json(data)
    if not isinstance(payload, list):
        raise TypeError(f"must hold a JSON list, got {type(payload).__name__}")
    scripts: list[Script] = []
    problems = []
    probe = MockBackend()  # register_script holds the checks on responses
    for index, entry in enumerate(payload):
        try:
            matcher = ScriptMatcher(kind=entry["matcher"]["kind"], value=entry["matcher"].get("value"))
            responses = tuple(ChatMessage.from_dict({"role": "assistant", **raw}) for raw in entry["responses"])
            probe.register_script(matcher, responses)
        except KeyError as exc:
            problems.append(f"script entry {index}: missing key {exc}")
        except (AttributeError, TypeError, ValueError) as exc:
            problems.append(f"script entry {index}: {exc}")
        else:
            scripts.append((matcher, responses))
    return tuple(scripts), tuple(problems)


@lru_cache(maxsize=256)
def _entry_response(data: bytes) -> ChatMessage:
    """The response of a replay cache entry's bytes, an assistant message."""
    response = ChatMessage.from_dict(read_json(data)["response"])
    if response.role != "assistant":
        raise ValueError(f"response role {response.role!r} is not 'assistant'")
    return response


class ReplayBackend(Backend):
    """Cache-by-digest backend: record against an inner backend, then replay.

    The cache holds one JSON file per digest (``<digest>.json``) containing the
    canonical request and the response, so caches are diffable and portable.
    """

    def __init__(self, cache_dir: str | Path, inner: Backend | None = None, record: bool = False) -> None:
        self.cache_dir = Path(cache_dir)
        self.inner = inner
        self.record = record
        self._lock = threading.Lock()
        if record:
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise GatewayError("CACHE_WRITE", f"cache_dir {str(self.cache_dir)!r} cannot be made: {exc}") from exc

    @property
    def waits(self) -> bool:
        return self.record and self.inner is not None and self.inner.waits

    def _path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.json"

    def complete(self, req: CompletionRequest) -> ChatMessage:
        digest = canonical_hash(req)
        path = self._path(digest)
        try:  # an entry is read whole on every hit and parsed once per distinct bytes
            return _entry_response(read_file(path)[0])
        except (FileNotFoundError, NotADirectoryError):  # no entry, or no cache_dir: a miss
            pass
        except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
            raise GatewayError("CACHE_CORRUPT", f"cache entry {str(path)!r} is unreadable: {exc}") from exc
        if not self.record:
            raise GatewayError("CACHE_MISS", f"no cache entry for digest {digest}; {self._nearest_difference(req)}")
        if self.inner is None:
            raise GatewayError("CACHE_MISS", "recording mode requires an inner backend")
        response = self.inner.complete(req)
        with self._lock:
            if not path.exists():  # at-most-once entry per digest
                entry = {
                    "digest": digest,
                    "request": canonical_request(req),
                    "response": response.to_dict(),
                }
                # written whole under a temporary name, so a reader never sees part of an entry
                temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
                try:
                    temp.write_text(canonical_json(entry), encoding="utf-8")
                    os.replace(temp, path)
                except OSError as exc:
                    raise GatewayError("CACHE_WRITE", f"cache entry {str(path)!r} cannot be written: {exc}") from exc
                finally:
                    with suppress(OSError):  # gone once replaced, or never made
                        temp.unlink()
        return response

    def _nearest_difference(self, req: CompletionRequest) -> str:
        """Where ``req`` first differs from the cached request of its
        ``model_ref`` that shares the longest message prefix with it (the
        first in digest order among equals); read only on a miss."""
        ours = [m.canonical_utf8 for m in req.messages]
        nearest = None  # (common prefix, digest, stored request, its messages)
        for path in sorted(self.cache_dir.glob("*.json")):
            try:
                stored = read_json(read_file(path)[0])["request"]
                if stored["model_ref"] != req.model_ref:
                    continue
                messages = list(stored["messages"])
                theirs = [canonical_json(m).encode("utf-8") for m in messages]
            except (KeyError, OSError, TypeError, ValueError):  # an unreadable entry is no candidate
                continue
            common = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs)))
            if nearest is None or common > nearest[0]:
                nearest = (common, path.stem, stored, messages)
        if nearest is None:
            return f"no cached request has model_ref {req.model_ref!r}"
        common, other, stored, messages = nearest
        if common < len(ours) and common < len(messages):
            mine, theirs = req.messages[common].to_dict(), messages[common]
            theirs = theirs if isinstance(theirs, dict) else {}
            keys = ("role", "content", "tool_calls", "tool_call_id")
            field_name = next((f".{k}" for k in keys if mine.get(k) != theirs.get(k)), "")
            where = f"messages[{common}]{field_name} (role {mine['role']})"
        elif common < len(ours) or common < len(messages):
            shorter = "the cached request" if common == len(messages) else "this request"
            where = f"messages[{common}] ({shorter} ends before it)"
        elif stored.get("tool_specs") != [dict(s) for s in req.tool_specs]:
            where = "tool_specs"
        elif stored.get("temperature") != float(req.temperature):
            where = "temperature"
        else:
            where = "no field: the entry is stored under another digest"
        return f"the nearest cached request for model_ref {req.model_ref!r}, {other}, first differs at {where}"


def _malformed(why: str) -> GatewayError:
    return GatewayError("HTTP_ERROR", f"malformed completion body: {why}", status=200)


class HttpBackend(Backend):
    """POSTs to ``{base_url}/chat/completions`` with a bearer token, one
    connection per request, through one ``urllib.request`` opener built with
    the backend and shared by every thread that calls it; redirects are not
    followed, and every https request uses one TLS context.

    Transient failures (connection errors, timeouts, 5xx) get a single
    linear retry.
    """

    waits = True

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
        retry_delay: float = 1.0,
    ) -> None:
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV, "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.retry_delay = retry_delay
        self._opener = _no_redirect_opener()

    def _payload(self, req: CompletionRequest) -> dict:
        payload: dict = {
            "model": req.model_ref,
            "messages": [],
            "temperature": req.temperature,
        }
        for m in req.messages:
            entry: dict = {"role": m.role, "content": m.content}
            if m.tool_calls:
                entry["tool_calls"] = [
                    {
                        "id": c.id,
                        "type": "function",
                        "function": {"name": c.tool_name, "arguments": json.dumps(c.arguments)},
                    }
                    for c in m.tool_calls
                ]
            if m.tool_call_id is not None:
                entry["tool_call_id"] = m.tool_call_id
            payload["messages"].append(entry)
        if req.tool_specs:
            payload["tools"] = [spec_to_openai(dict(s)) for s in req.tool_specs]
        return payload

    def _parse_response(self, body: Any) -> ChatMessage:
        """Read the first choice's message; the message and tool-call
        constructors check the kind of every field read."""
        try:
            message = body["choices"][0]["message"]
            raw_calls = message.get("tool_calls")
            if not isinstance(raw_calls, (list, type(None))):  # so 0, false, "" and {} are refused too
                raise TypeError("tool_calls is not a list")
            calls = []
            for index, raw in enumerate(raw_calls or ()):
                fn = raw.get("function", {})
                raw_args = fn.get("arguments", "{}")
                if isinstance(raw_args, str):
                    try:
                        raw_args = parse_tool_arguments(raw_args)
                    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                        raise GatewayError("HTTP_ERROR", f"unparseable tool arguments: {exc}", status=200) from exc
                calls.append(ToolCallRequest(raw.get("id", f"call_{index}"), fn.get("name", ""), raw_args))
            content = message.get("content")
            return ChatMessage(role="assistant", content="" if content is None else content, tool_calls=tuple(calls))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise _malformed(str(exc)) from exc

    def complete(self, req: CompletionRequest) -> ChatMessage:
        import http.client
        import urllib.error
        import urllib.request

        if not self.base_url:
            raise GatewayError("HTTP_ERROR", f"no base URL configured (set {BASE_URL_ENV})", status=0)
        if not self.base_url.lower().startswith(HTTP_SCHEMES):  # urllib would also read file: and ftp: URLs
            raise GatewayError("HTTP_ERROR", f"base URL {self.base_url!r} is not http:// or https://", status=0)
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        data = json.dumps(self._payload(req)).encode("utf-8")

        last_error: Exception | None = None
        for attempt in (0, 1):
            if attempt:
                time.sleep(self.retry_delay)
            try:
                request = urllib.request.Request(url, data, headers, method="POST")
                with self._opener.open(request, timeout=self.timeout) as resp:  # sends Connection: close
                    status, content = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # a reply with an error status, not a transport failure
                status, content = exc.code, b""
                exc.close()
            except (OSError, ValueError, http.client.HTTPException) as exc:  # refused, timed out, cut off, bad URL
                last_error = exc
                import logging  # loaded by the first failed attempt, not by every run
                logging.getLogger(__name__).debug("http attempt %d failed: %s", attempt, exc)
                continue
            if status >= 500:
                last_error = GatewayError("HTTP_ERROR", f"server error {status}", status=status)
                continue
            if status != 200:
                raise GatewayError("HTTP_ERROR", f"unexpected status {status}", status=status)
            try:
                body = read_json(content)
            except ValueError as exc:
                raise _malformed(f"not JSON: {exc}") from exc
            return self._parse_response(body)
        if isinstance(last_error, GatewayError):
            raise last_error
        raise GatewayError("HTTP_ERROR", f"request failed: {last_error}", status=0)


def _no_redirect_opener():
    """A urllib opener that hands a 3xx reply back as an HTTPError instead of
    following it. urllib's redirect handler would send the Authorization header
    to whatever host the Location names, over plain http after an https hop,
    and would follow an ftp: target; a POST turned into a GET is of no use to a
    chat-completions endpoint anyway.

    Its https handler makes one TLS context, on its first request, as
    ``http.client.HTTPSConnection`` makes a default one for each connection:
    loading the CA bundle is most of the cost of a new connection."""
    import http.client
    import ssl
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args, **kwargs):
            return None

    class OneContext(urllib.request.HTTPSHandler):
        def __init__(self) -> None:
            urllib.request.AbstractHTTPHandler.__init__(self)  # HTTPSHandler's would make a context now
            self._context = None
            self._lock = threading.Lock()

        def https_open(self, req):
            with self._lock:
                if self._context is None:
                    context = ssl.create_default_context()
                    context.set_alpn_protocols(["http/1.1"])
                    if context.post_handshake_auth is not None:  # None where TLS 1.3 is not built in
                        context.post_handshake_auth = True
                    self._context = context
            return self.do_open(http.client.HTTPSConnection, req, context=self._context)

    return urllib.request.build_opener(NoRedirect, OneContext)


def spec_to_openai(spec: Mapping[str, Any]) -> dict:
    """Render a tool-spec summary into the chat-completions tools shape."""
    kinds = {
        "string": {"type": "string"},
        "integer": {"type": "integer"},
        "number": {"type": "number"},
        "boolean": {"type": "boolean"},
        "string_list": {"type": "array", "items": {"type": "string"}},
    }
    properties = {}
    required = []
    for param in spec.get("params", ()):
        schema = dict(kinds[param["kind"]])
        if param.get("doc"):
            schema["description"] = param["doc"]
        properties[param["name"]] = schema
        if param.get("required"):
            required.append(param["name"])
    return {
        "type": "function",
        "function": {
            "name": spec["name"],
            "description": spec.get("description", ""),
            "parameters": {
                "type": "object",
                "properties": properties,
                "required": required,
                "additionalProperties": False,
            },
        },
    }

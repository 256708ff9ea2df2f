"""A local chat-completions server that replies from a marco mock script.

Run as its own process::

    python3 bench/chat_server.py --script SCRIPT.json

It prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until its
standard input closes. Every ``POST /chat/completions`` sleeps ``DELAY_MS``
and then answers with the script's next reply, exactly as
``MockBackend`` would in process. Connections are served concurrently.

``POST /reset`` restarts the script from its first reply, so each graph run
sees fresh script state. ``GET /stats`` returns the chat requests served,
the connections that carried them and the peak number of requests in
flight at once.
"""

from __future__ import annotations

import argparse
import http.server
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marco.gateway import ChatMessage, CompletionRequest, MockBackend, ToolCallRequest  # noqa: E402

DELAY_MS = 50.0


def request_from_payload(payload: dict) -> CompletionRequest:
    """Invert ``HttpBackend._payload``: chat-completions JSON to a request."""
    messages = []
    for entry in payload["messages"]:
        calls = tuple(
            ToolCallRequest(id=c["id"], tool_name=c["function"]["name"], arguments=json.loads(c["function"]["arguments"]))
            for c in entry.get("tool_calls", ())
        )
        messages.append(
            ChatMessage(role=entry["role"], content=entry.get("content") or "", tool_calls=calls,
                        tool_call_id=entry.get("tool_call_id"))
        )
    return CompletionRequest(model_ref=payload["model"], messages=tuple(messages), temperature=payload.get("temperature", 0.0))


def completion_body(message: ChatMessage) -> dict:
    reply: dict = {"role": "assistant", "content": message.content}
    if message.tool_calls:
        reply["tool_calls"] = [
            {"id": c.id, "type": "function", "function": {"name": c.tool_name, "arguments": json.dumps(c.arguments)}}
            for c in message.tool_calls
        ]
    return {"choices": [{"index": 0, "message": reply, "finish_reason": "stop"}]}


class ChatState:
    """Script state and counters shared by the handler threads."""

    def __init__(self, script: Path) -> None:
        self.script = script
        self.lock = threading.Lock()
        self.mock = MockBackend.from_script_file(script)
        self.requests = 0
        self.connections = 0
        self.inflight = 0
        self.max_inflight = 0

    def reset(self) -> None:
        mock = MockBackend.from_script_file(self.script)
        with self.lock:
            self.mock = mock

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "connections": self.connections, "max_inflight": self.max_inflight}


class ChatHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: ChatState

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def _send(self, status: int, payload: dict) -> None:
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_GET(self):  # noqa: N802 - http.server API
        if self.path == "/stats":
            self._send(200, self.state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        state = self.state
        if self.path == "/reset":
            state.reset()
            self._send(200, {"ok": True})
            return
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        with state.lock:
            state.requests += 1
            if not self.counted:
                self.counted = True
                state.connections += 1
            state.inflight += 1
            state.max_inflight = max(state.max_inflight, state.inflight)
        try:
            time.sleep(DELAY_MS / 1000.0)
            request = request_from_payload(json.loads(body))
            with state.lock:
                reply = state.mock.complete(request)
            self._send(200, completion_body(reply))
        except Exception as exc:  # noqa: BLE001 - report to the client, keep serving
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            with state.lock:
                state.inflight -= 1

    def log_message(self, *args):  # noqa: D102 - quiet server
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True, type=Path)
    args = parser.parse_args()

    handler = type("BoundChatHandler", (ChatHandler,), {"state": ChatState(args.script)})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

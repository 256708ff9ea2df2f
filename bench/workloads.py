"""The four workloads: set-up in the driving process, graph runs and output
checks in the worker process.

``prepare`` makes a workload's inputs in a fresh directory, records what must
be recorded and starts what must run beside marco, and returns the spec the
worker needs. ``graph_runs`` turns that spec into the cycle of graph runs the
worker times; each run is ``load_config``, ``run`` or ``run_baseline``, then
``TraceDocument.render()``, followed by its output check.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

WORKLOADS = ("bundled", "wide_graph", "reports_replay", "live_http")
EXPECTED_FILE = Path(__file__).resolve().parent / "expected_digests.json"


class CheckFailed(Exception):
    """A graph run finished but its output is not the expected one."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_digest(trace) -> str:
    """Digest of what a run decided: its outcomes and final blackboard."""
    from marco.gateway import canonical_json

    return sha256(canonical_json({"outcomes": trace.outcomes, "blackboard": trace.blackboard}))


def expected_digests(workload: str, seed: int) -> dict[str, str]:
    """Committed trace digests that apply to this workload and seed.

    Digests of generated inputs hold for the default seed only. ``bundled``
    runs the shipped configs whatever the seed, so its digests always hold.
    """
    committed = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    if workload == "bundled" or seed == committed["default_seed"]:
        return dict(committed.get(workload, {}))
    return {}


# --- driving process --------------------------------------------------------

@dataclass
class Prepared:
    spec: dict
    env: dict = field(default_factory=dict)
    server: subprocess.Popen | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None


def start_chat_server(script: Path) -> tuple[subprocess.Popen, str]:
    """Start the chat server process and wait until it answers."""
    server = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "chat_server.py"), "--script", str(script)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = server.stdout.readline()
    if not line.startswith("PORT "):
        server.kill()
        server.wait()
        raise RuntimeError(f"chat server did not start: {line!r}")
    port = int(line.split()[1])
    server_call(port, "/stats")
    return server, f"http://127.0.0.1:{port}"


def server_call(port: int, path: str, method: str = "GET") -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=b"" if method == "POST" else None)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def prepare(workload: str, seed: int, out: Path) -> Prepared:
    """Make one workload's inputs under ``out`` and start its helpers."""
    from marco import engine
    from marco.config import load_config

    spec: dict = {"workload": workload, "seed": seed, "expected": expected_digests(workload, seed)}
    if workload == "bundled":
        spec["configs"] = {
            "timing_debug": str(inputs.BUNDLED_CONFIGS / "timing_debug.json"),
            "mcmm": str(inputs.BUNDLED_CONFIGS / "mcmm.json"),
        }
        spec["manifest"] = str(inputs.BUNDLED_FIXTURES / "manifest.tsv")
        return Prepared(spec)
    if workload == "wide_graph":
        spec["config"] = str(inputs.write_wide_graph(seed, out))
        spec["nodes"] = inputs.WIDE_WORKERS + 1
        return Prepared(spec)
    if workload == "reports_replay":
        spec["config"] = str(inputs.write_reports_replay(seed, out))
        engine.run(load_config(out / "record.json"))
        spec["manifest"] = str(out / "reports" / "manifest.tsv")
        return Prepared(spec)
    if workload == "live_http":
        config = inputs.write_live_http(out)
        script = out / "scripts.json"
        script.write_bytes((inputs.BUNDLED_CONFIGS / "mcmm_scripts.json").read_bytes())
        spec["config"] = str(config)
        spec["expected"] = {"outcomes": outcome_digest(engine.run(load_config(inputs.BUNDLED_CONFIGS / "mcmm.json")))}
        server, url = start_chat_server(script)
        return Prepared(spec, env={"MARCO_BASE_URL": url}, server=server)
    raise ValueError(f"unknown workload {workload!r}")


# --- worker process ---------------------------------------------------------

@dataclass
class GraphRun:
    """One timed graph run and the check of its output."""

    name: str
    config: str
    check: Callable
    baseline: bool = False
    before: Callable[[], None] | None = None

    def execute(self):
        from marco import config as config_mod, engine

        cfg = config_mod.load_config(self.config)
        if self.baseline:
            trace = engine.run_baseline(cfg, backend_override="baseline_mock")
        else:
            trace = engine.run(cfg)
        return trace, trace.render()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_digest(expected: dict, key: str, text: str) -> None:
    if key in expected:
        _require(sha256(text) == expected[key], f"{key}: trace digest differs from the committed one")


def _check_completed(trace, nodes: int) -> None:
    _require(trace.status == "completed", f"status {trace.status}")
    _require(len(trace.outcomes) == nodes, f"{len(trace.outcomes)} outcomes, expected {nodes}")
    unsolved = [o["node_id"] for o in trace.outcomes if o["status"] != "solved"]
    _require(not unsolved, f"unsolved nodes: {unsolved[:5]}")


def _bundled_runs(spec: dict) -> list[GraphRun]:
    from marco.eda.fixtures import parse_manifest, score_trace

    expected = spec["expected"]
    manifest = parse_manifest(Path(spec["manifest"]).read_text(encoding="utf-8"))

    def passed_tasks(trace) -> set[str]:
        return {t.task_id for t in score_trace(trace.to_dict(), manifest).tasks if t.passed}

    def check_graph(trace, text):
        _check_digest(expected, "timing_debug", text)
        _require(passed_tasks(trace) == {"M1", "M2", "M3", "M4", "M5", "M7"}, "timing_debug must score 6/7, M6 failing")

    def check_baseline(trace, text):
        _check_digest(expected, "baseline", text)
        _require(not passed_tasks(trace), "baseline must score 0/7")

    def check_mcmm(trace, text):
        _check_digest(expected, "mcmm", text)
        _require(trace.status == "completed", f"status {trace.status}")
        _require(len(trace.expansions) == 1, f"{len(trace.expansions)} expansions, expected 1")
        agents = sorted(node["agent_ref"] for node in trace.expansions[0]["new_nodes"])
        _require(agents == ["aggregator"] + ["corner_analyst"] * 3, f"expansion adds {agents}")
        board = trace.blackboard
        corners = [board[k]["value"]["rows"][0] for k in board if k.startswith("takeaway_")]
        _require(len(corners) == 3, f"{len(corners)} corner takeaways")
        argmin = min(corners, key=lambda row: (row["wns"], row["corner"]))["corner"]
        named = board["mcmm_takeaways"]["value"]["worst"]["corner"]
        _require(named == argmin, f"aggregator names {named}, argmin corner is {argmin}")

    configs = spec["configs"]
    return [
        GraphRun("timing_debug", configs["timing_debug"], check_graph),
        GraphRun("baseline", configs["timing_debug"], check_baseline, baseline=True),
        GraphRun("mcmm", configs["mcmm"], check_mcmm),
    ]


def _wide_runs(spec: dict) -> list[GraphRun]:
    def check(trace, text):
        _check_completed(trace, spec["nodes"])
        _check_digest(spec["expected"], "trace", text)

    return [GraphRun("wide_graph", spec["config"], check)]


def _replay_runs(spec: dict) -> list[GraphRun]:
    from marco.eda.fixtures import parse_manifest, score_trace

    manifest = parse_manifest(Path(spec["manifest"]).read_text(encoding="utf-8"))

    def check(trace, text):
        _check_completed(trace, 7)
        for task in score_trace(trace.to_dict(), manifest).tasks:
            missing = task.planted - task.recovered
            _require(not missing, f"{task.task_id}: planted findings not recovered: {sorted(missing)[:3]}")
        _check_digest(spec["expected"], "trace", text)

    return [GraphRun("reports_replay", spec["config"], check)]


def _live_runs(spec: dict, base_url: str) -> list[GraphRun]:
    cache = Path(spec["config"]).parent / "cache"
    port = int(base_url.rsplit(":", 1)[1])

    def before():
        shutil.rmtree(cache, ignore_errors=True)
        server_call(port, "/reset", method="POST")

    def check(trace, text):
        _require(trace.status == "completed", f"status {trace.status}")
        _require(outcome_digest(trace) == spec["expected"]["outcomes"],
                 "outcomes and blackboard differ from the mock-served mcmm run")

    return [GraphRun("live_http", spec["config"], check, before=before)]


def graph_runs(spec: dict, base_url: str | None = None) -> list[GraphRun]:
    workload = spec["workload"]
    if workload == "bundled":
        return _bundled_runs(spec)
    if workload == "wide_graph":
        return _wide_runs(spec)
    if workload == "reports_replay":
        return _replay_runs(spec)
    return _live_runs(spec, base_url)


def server_stats(base_url: str | None) -> dict | None:
    if base_url is None:
        return None
    return server_call(int(base_url.rsplit(":", 1)[1]), "/stats")


"""End-to-end run engine: schedule ready nodes, run each through its
agent, apply planner expansions, and persist a replayable trace.

Nodes commit strictly in sorted-frontier order, one at a time: a node's
outcome, blackboard writes and expansion land exactly as if the nodes had
run one after another, even when nodes served by waiting backends ran side
by side. Deterministic mode also zeroes wall-clock timings, so two runs of
the same config and scripts serialize identically.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping, TextIO

from .agents import NodeOutcome, run_node
from .config import RunConfig
from .errors import EngineError
from .gateway import Backend, HttpBackend, MockBackend, ReplayBackend
from .graph import Schedule, TaskGraph, TaskNode, apply_expansion, execution_order, ready_frontier
from .knowledge import Blackboard, BlackboardStage, load_kb_dir

TRACE_STATUSES = ("completed", "aborted")
MAX_AHEAD = 8  # nodes running ahead of the head on worker threads at once
BASELINE_NODE_ID = "baseline"


@dataclass
class TraceDocument:
    """Serialized record of one full run, diffable and replayable."""

    config_digest: str
    graph_initial: dict
    graph_final: dict = field(default_factory=dict)
    outcomes: list[dict] = field(default_factory=list)
    expansions: list[dict] = field(default_factory=list)
    blackboard: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    status: str = "completed"
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check outcome order is a linear extension of the final graph."""
        if self.status not in TRACE_STATUSES:
            raise EngineError("TRACE_ORDER", f"unknown trace status {self.status!r}")
        graph = TaskGraph.from_dict(self.graph_final)
        known = {node.id for node in graph.nodes}
        position: dict[str, int] = {}
        for idx, outcome in enumerate(self.outcomes):
            node_id = outcome.get("node_id")
            if node_id not in known:
                raise EngineError("TRACE_ORDER", f"outcome for unknown node {node_id!r}")
            if node_id in position:
                raise EngineError("TRACE_ORDER", f"duplicate outcome for node {node_id!r}")
            position[node_id] = idx
        for edge in graph.execution_edges():
            if edge.src in position and edge.dst in position:
                if position[edge.src] >= position[edge.dst]:
                    raise EngineError(
                        "TRACE_ORDER",
                        f"outcome order violates edge {edge.src} -> {edge.dst}",
                    )

    def to_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "graph_initial": self.graph_initial,
            "graph_final": self.graph_final,
            "outcomes": list(self.outcomes),
            "expansions": list(self.expansions),
            "blackboard": self.blackboard,
            "timings": dict(self.timings),
            "status": self.status,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceDocument":
        return cls(
            config_digest=payload.get("config_digest", ""),
            graph_initial=dict(payload.get("graph_initial", {})),
            graph_final=dict(payload.get("graph_final", {})),
            outcomes=list(payload.get("outcomes", ())),
            expansions=list(payload.get("expansions", ())),
            blackboard=dict(payload.get("blackboard", {})),
            timings=dict(payload.get("timings", {})),
            status=payload.get("status", "completed"),
            meta=dict(payload.get("meta", {})),
        )

    def render(self) -> str:
        return _render_json(self.to_dict()) + "\n"

    def write(self, out: TextIO) -> None:
        out.write(self.render())


_escape = json.encoder.encode_basestring_ascii  # the C escaper json.dumps itself uses
_INF = float("inf")


def _scalar(o: Any) -> str | None:
    """JSON text of a number, bool or null as json.dumps writes it; None otherwise."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        return "Infinity" if o == _INF else "-Infinity" if o == -_INF else float.__repr__(o)
    return None


def _key_text(key: Any) -> str:
    """A dict key as json.dumps converts it before escaping."""
    if isinstance(key, str):
        return key
    text = _scalar(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return text


def _render_json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    CPython's C encoder does not take ``indent``, so json.dumps falls back
    to its pure-Python one; this writes the same text into one list of parts.
    """
    parts: list[str] = []
    emit = parts.append
    path: set[int] = set()  # ids of the containers being written, for the cycle check
    names: dict[str, str] = {}  # each key's escaped text and ": ", as keys repeat across dicts

    def write(o: Any, nl: str) -> None:
        t = type(o)
        is_dict = t is dict or (t is not list and isinstance(o, dict))
        if is_dict or t is list or isinstance(o, (list, tuple)):
            if not o:
                emit("{}" if is_dict else "[]")
                return
            marker = id(o)
            if marker in path:
                raise ValueError("Circular reference detected")
            path.add(marker)
            inner = nl + "  "
            sep = "," + inner
            if is_dict:
                lead = "{" + inner
                for key, item in sorted(o.items()):
                    if type(key) is not str:
                        key = _key_text(key)
                    name = names.get(key)
                    if name is None:
                        name = names[key] = _escape(key) + ": "
                    if type(item) is str:
                        emit(lead + name + _escape(item))
                    else:
                        emit(lead + name)
                        write(item, inner)
                    lead = sep
                emit(nl + "}")
            else:
                lead = "[" + inner
                for item in o:
                    if type(item) is str:
                        emit(lead + _escape(item))
                    else:
                        emit(lead)
                        write(item, inner)
                    lead = sep
                emit(nl + "]")
            path.remove(marker)
        elif isinstance(o, str):
            emit(_escape(o))
        else:
            text = _scalar(o)
            if text is None:
                raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
            emit(text)

    write(value, "\n")
    return "".join(parts)


def build_backends(config: RunConfig, override: str | None = None) -> dict[str, Backend]:
    """Instantiate every configured backend, each replay after its inner one;
    override maps all names to one."""
    built: dict[str, Backend] = {}

    def build(name: str) -> Backend:
        if name not in built:
            bdef = config.backends[name]
            if bdef.kind == "mock":
                built[name] = MockBackend(bdef.scripts)
            elif bdef.kind == "http":
                built[name] = HttpBackend(base_url=bdef.base_url, timeout=bdef.timeout)
            else:
                inner = build(bdef.inner) if bdef.inner is not None else None
                built[name] = ReplayBackend(bdef.cache_dir, inner=inner, record=bdef.record)
        return built[name]

    for name in config.backends:
        build(name)
    if override is not None:
        if override not in built:
            raise EngineError("UNKNOWN_BACKEND", f"backend override {override!r} names no configured backend")
        chosen = built[override]
        return {name: chosen for name in built}
    return built


def _seed_blackboard(config: RunConfig, graph: TaskGraph) -> Blackboard:
    blackboard = Blackboard()
    for key in sorted(config.seeds):
        blackboard.seed(key, config.seeds[key])
    for node in graph.nodes:
        blackboard.declare_outputs(node.id, node.outputs)
    return blackboard


def _finish(trace: TraceDocument, graph: TaskGraph, blackboard: Blackboard, status: str) -> TraceDocument:
    """Close a completed or aborted run: record the graph as grown so far and
    the blackboard, then check the outcome order once."""
    trace.graph_final = graph.to_dict()
    trace.blackboard = blackboard.snapshot()
    trace.status = status
    trace.validate()
    return trace


def _execute(config: RunConfig, backend_override: str | None, deterministic: bool, meta: dict) -> TraceDocument:
    """Shared run path for run and run_baseline: build the backends and the
    trace, then schedule.

    Nodes commit one at a time in Kahn order: outcome, blackboard writes and
    expansion of the least ready id. While the head runs, other ready nodes
    may run ahead on worker threads when (a) no planner is uncommitted, so
    the graph is final, (b) every role of their agent is served by a backend
    that waits, and (c) no other uncommitted node declares one of their input
    or output keys. Their writes are staged and committed, or dropped, when
    they reach the head.
    """
    backends = build_backends(config, backend_override)
    graph = config.graph
    trace = TraceDocument(
        config_digest=config.digest(),
        graph_initial=graph.to_dict(),
        meta={"deterministic": bool(deterministic), **meta},
    )
    knowledge_bases = {name: load_kb_dir(name, kb_dir) for name, kb_dir in config.knowledge_bases.items()}
    blackboard = _seed_blackboard(config, graph)
    agent_names = tuple(config.agents)
    zero_clock = deterministic or any(b.kind == "replay" for b in config.backends.values())
    waiting_agents = {
        name
        for name, agent in config.agents.items()
        if all(backends[role.model_ref].waits for role in agent.roles)
    }
    nodes = {node.id: node for node in graph.nodes}
    done: set[str] = set()
    schedule = Schedule(graph, done, ready_frontier(graph, done))
    planners = sum(node.expansion == "planner" for node in graph.nodes)  # uncommitted ones
    producers = Counter(key for node in graph.nodes for key in node.outputs)  # uncommitted declarers
    ahead: dict[str, tuple[Future, BlackboardStage]] = {}
    elapsed: dict[str, float] = {}

    def attempt(node: TaskNode, graph: TaskGraph, stage: BlackboardStage) -> NodeOutcome:
        started = time.perf_counter()
        try:
            return run_node(
                node,
                graph,
                config.agents[node.agent_ref],
                backends,
                config.tools,
                stage,
                knowledge_bases=knowledge_bases,
                agent_names=agent_names,
            )
        finally:
            elapsed[node.id] = time.perf_counter() - started

    def may_run_ahead(node: TaskNode) -> bool:
        if node.agent_ref not in waiting_agents:
            return False
        return all(producers[key] == (key in node.outputs) for key in {*node.inputs, *node.outputs})

    with ThreadPoolExecutor(max_workers=MAX_AHEAD, thread_name_prefix="marco-node") as pool:
        while schedule.heap:
            if len(done) >= config.max_node_executions:
                raise EngineError(
                    "BUDGET_EXCEEDED",
                    f"node execution budget {config.max_node_executions} exhausted"
                    f" with {len(schedule.heap)} node(s) still ready",
                    trace=_finish(trace, graph, blackboard, "aborted"),
                )
            head = schedule.heap[0]
            if waiting_agents and not planners:
                # committed plus running nodes, the head included, stay within the budget
                room = min(MAX_AHEAD, config.max_node_executions - len(done) - (head not in ahead)) - len(ahead)
                for nid in sorted(schedule.heap)[1:]:
                    if room <= 0:
                        break
                    if nid not in ahead and may_run_ahead(nodes[nid]):
                        stage = blackboard.stage(nid)
                        ahead[nid] = (pool.submit(attempt, nodes[nid], graph, stage), stage)
                        room -= 1
            node = nodes[head]
            if head in ahead:
                future, stage = ahead.pop(head)
            else:
                future, stage = None, blackboard.stage(head)
            try:
                outcome = future.result() if future is not None else attempt(node, graph, stage)
            except EngineError as exc:
                stage.commit()  # what the head wrote before it failed, as a serial run keeps it
                exc.trace = _finish(trace, graph, blackboard, "aborted")
                raise
            finally:
                # runs before an error leaves, so an aborted trace still times this node
                trace.timings[head] = 0.0 if zero_clock else round(elapsed[head], 6)
            stage.commit()
            schedule.pop()
            done.add(head)
            planners -= node.expansion == "planner"
            producers.subtract(node.outputs)
            trace.outcomes.append(outcome.to_dict())
            if outcome.expansion is not None and outcome.status == "solved":
                try:
                    graph = apply_expansion(graph, outcome.expansion, config.seeds)
                except Exception as exc:
                    raise EngineError(
                        "EXPANSION_REJECTED",
                        f"planner {node.id} produced an unusable expansion: {exc}",
                        trace=_finish(trace, graph, blackboard, "aborted"),
                    ) from exc
                for new_node in outcome.expansion.new_nodes:
                    blackboard.declare_outputs(new_node.id, new_node.outputs)
                    nodes[new_node.id] = new_node
                    planners += new_node.expansion == "planner"
                    producers.update(new_node.outputs)
                trace.expansions.append(outcome.expansion.to_dict())
                # an expansion may add edges into existing nodes, so start a new schedule
                schedule = Schedule(graph, done, ready_frontier(graph, done))
    return _finish(trace, graph, blackboard, "completed")


def run(
    config: RunConfig,
    backend_override: str | None = None,
    deterministic: bool = True,
) -> TraceDocument:
    """Run the configured graph to completion and return its trace."""
    return _execute(config, backend_override, deterministic, {})


def collapse_graph(config: RunConfig) -> tuple[TaskGraph, dict]:
    """Fold the whole static graph into one node with the combined goal."""
    if config.graph.mode != "static":
        raise EngineError("BASELINE_UNSUPPORTED", "baseline runs require a static graph")
    agent_refs = {node.agent_ref for node in config.graph.nodes}
    if len(agent_refs) != 1:
        raise EngineError(
            "BASELINE_UNSUPPORTED",
            f"baseline runs require a single agent_ref, found {sorted(agent_refs)}",
        )
    node_map = config.graph.node_map()
    order = execution_order(config.graph)
    all_inputs: set[str] = set()
    all_outputs: set[str] = set()
    for node in config.graph.nodes:
        all_inputs.update(node.inputs)
        all_outputs.update(node.outputs)
    goal = "\n\n".join(f"[{nid}] {node_map[nid].goal}" for nid in order)
    collapsed = TaskNode(
        id=BASELINE_NODE_ID,
        title="collapsed baseline task",
        goal=goal,
        agent_ref=next(iter(agent_refs)),
        inputs=tuple(sorted(all_inputs - all_outputs)),
        outputs=tuple(sorted(all_outputs)),
    )
    graph = TaskGraph(nodes=(collapsed,), edges=(), mode="static")
    per_node = config.agents[collapsed.agent_ref].termination.max_turns
    meta = {
        "baseline": {
            "node_count": len(order),
            "per_node_max_turns": per_node,
            "max_turns": per_node * len(order),
            "source_nodes": order,
        }
    }
    return graph, meta


def run_baseline(
    config: RunConfig,
    backend_override: str | None = None,
    deterministic: bool = True,
) -> TraceDocument:
    """Run the collapsed single-node version of the graph, same total budget."""
    graph, meta = collapse_graph(config)
    name = graph.nodes[0].agent_ref
    agent = config.agents[name]
    termination = dataclasses.replace(agent.termination, max_turns=meta["baseline"]["max_turns"])
    agents = {**config.agents, name: dataclasses.replace(agent, termination=termination)}
    # the collapsed config keeps ``raw``, so its trace carries the original config digest
    return _execute(dataclasses.replace(config, graph=graph, agents=agents), backend_override, deterministic, meta)

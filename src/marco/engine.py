"""End-to-end run engine: schedule ready nodes, run each through its
agent, apply planner expansions, and persist a replayable trace.

Deterministic mode executes the frontier strictly in sorted order, one
node at a time, and zeroes wall-clock timings so two runs of the same
config and scripts serialize identically.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .agents import register_builtin_tools, run_node
from .config import RunConfig
from .eda.toolpack import HANDLER_CATALOG
from .errors import EngineError
from .gateway import Backend, HttpBackend, MockBackend, ReplayBackend
from .graph import TaskGraph, TaskNode, apply_expansion, ready_frontier
from .knowledge import Blackboard, KnowledgeBase, load_kb_dir
from .tools import ToolRegistry

TRACE_STATUSES = ("completed", "aborted")
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
        self.validate()
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


def build_backends(config: RunConfig, override: str | None = None) -> dict[str, Backend]:
    """Instantiate every configured backend; override maps all names to one."""
    built: dict[str, Backend] = {}
    for name in config.backends:
        chain: list[str] = []  # name, then its replay inners not built yet
        link = name
        while link is not None and link not in built:
            if link in chain:
                raise EngineError("BACKEND_CYCLE", f"replay inner chain {' -> '.join([*chain, link])} is circular")
            if link not in config.backends:
                raise EngineError("UNKNOWN_BACKEND", f"inner backend {link!r} names no configured backend")
            chain.append(link)
            bdef = config.backends[link]
            link = bdef.inner if bdef.kind == "replay" else None
        for link in reversed(chain):
            bdef = config.backends[link]
            if bdef.kind == "mock":
                built[link] = MockBackend(bdef.scripts)
            elif bdef.kind == "http":
                built[link] = HttpBackend(
                    base_url=bdef.base_url,
                    timeout=bdef.timeout,
                    strict_tool_args=bdef.strict_tool_args,
                )
            else:
                inner = built[bdef.inner] if bdef.inner is not None else None
                built[link] = ReplayBackend(bdef.cache_dir, inner=inner, record=bdef.record)
    if override is not None:
        if override not in built:
            raise EngineError("UNKNOWN_BACKEND", f"backend override {override!r} names no configured backend")
        chosen = built[override]
        return {name: chosen for name in built}
    return built


def build_registry(config: RunConfig) -> ToolRegistry:
    registry = ToolRegistry()
    register_builtin_tools(registry)
    for tool_name in sorted(config.tool_bindings):
        spec, handler = HANDLER_CATALOG[config.tool_bindings[tool_name]]
        registry.register_tool(dataclasses.replace(spec, name=tool_name), handler)
    return registry


def build_knowledge_bases(config: RunConfig) -> dict[str, KnowledgeBase]:
    return {name: load_kb_dir(name, kb_dir) for name, kb_dir in config.knowledge_bases.items()}


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


def _execute(
    config: RunConfig,
    graph: TaskGraph,
    backends: Mapping[str, Backend],
    deterministic: bool,
    trace: TraceDocument,
) -> TraceDocument:
    """Shared scheduling loop for run and run_baseline."""
    registry = build_registry(config)
    knowledge_bases = build_knowledge_bases(config)
    blackboard = _seed_blackboard(config, graph)
    agent_names = tuple(config.agents)
    zero_clock = deterministic or any(b.kind == "replay" for b in config.backends.values())
    done: set[str] = set()
    while frontier := ready_frontier(graph, done):
        if len(done) >= config.max_node_executions:
            raise EngineError(
                "BUDGET_EXCEEDED",
                f"node execution budget {config.max_node_executions} exhausted"
                f" with {len(frontier)} node(s) still ready",
                trace=_finish(trace, graph, blackboard, "aborted"),
            )
        node = graph.node_map()[frontier[0]]
        started = time.perf_counter()
        try:
            outcome = run_node(
                node,
                graph,
                config.agents[node.agent_ref],
                backends,
                registry,
                blackboard,
                knowledge_bases=knowledge_bases,
                agent_names=agent_names,
            )
        except EngineError as exc:
            exc.trace = _finish(trace, graph, blackboard, "aborted")
            raise
        finally:
            # runs before an error leaves, so an aborted trace still times this node
            trace.timings[node.id] = 0.0 if zero_clock else round(time.perf_counter() - started, 6)
        done.add(node.id)
        trace.outcomes.append(outcome.to_dict())
        if outcome.expansion is not None and outcome.status == "solved":
            try:
                graph = apply_expansion(graph, outcome.expansion)
            except Exception as exc:
                raise EngineError(
                    "EXPANSION_REJECTED",
                    f"planner {node.id} produced an unusable expansion: {exc}",
                    trace=_finish(trace, graph, blackboard, "aborted"),
                ) from exc
            for new_node in outcome.expansion.new_nodes:
                blackboard.declare_outputs(new_node.id, new_node.outputs)
            trace.expansions.append(outcome.expansion.to_dict())
    return _finish(trace, graph, blackboard, "completed")


def run(
    config: RunConfig,
    backend_override: str | None = None,
    deterministic: bool = True,
) -> TraceDocument:
    """Run the configured graph to completion and return its trace."""
    backends = build_backends(config, backend_override)
    graph = config.graph
    trace = TraceDocument(
        config_digest=config.digest(),
        graph_initial=graph.to_dict(),
        meta={"deterministic": bool(deterministic)},
    )
    return _execute(config, graph, backends, deterministic, trace)


def _scheduled_order(graph: TaskGraph) -> list[str]:
    order: list[str] = []
    done: set[str] = set()
    while True:
        frontier = ready_frontier(graph, done)
        if not frontier:
            return order
        order.append(frontier[0])
        done.add(frontier[0])


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
    order = _scheduled_order(config.graph)
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
    budget = meta["baseline"]["max_turns"]
    agents = dict(config.agents)
    name = graph.nodes[0].agent_ref
    agent = agents[name]
    agents[name] = dataclasses.replace(
        agent,
        termination=dataclasses.replace(agent.termination, max_turns=budget),
    )
    base_config = dataclasses.replace(config, graph=graph, agents=agents)
    backends = build_backends(base_config, backend_override)
    trace = TraceDocument(
        config_digest=config.digest(),
        graph_initial=graph.to_dict(),
        meta={"deterministic": bool(deterministic), **meta},
    )
    return _execute(base_config, graph, backends, deterministic, trace)

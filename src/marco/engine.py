"""End-to-end run engine: schedule ready nodes, run each through its
agent, apply planner expansions, and persist a replayable trace.

One loop on the calling thread starts every node as a conversation and runs
it through ``agents.run_node``, which calls a backend that does not wait
itself; only calls to backends that wait run on worker threads, side by
side. Nodes commit strictly in sorted-frontier order, one at a time: a
node's outcome, blackboard writes and expansion land exactly as if the
nodes had run one after another. Deterministic mode also zeroes wall-clock
timings, so two runs of the same config and scripts serialize identically.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Mapping
from contextlib import ExitStack
from typing import TYPE_CHECKING, Any, Generator, TextIO

from .agents import NodeOutcome, converse, run_node
from .config import RunConfig
from .errors import EngineError
from .gateway import Backend, ChatMessage, HttpBackend, MockBackend, ReplayBackend
from .graph import Schedule, TaskGraph, TaskNode, execution_order, ready_frontier
from .graph import apply_expansion  # noqa: F401 - unused; the bench tracer wraps marco.engine.apply_expansion
from .knowledge import Blackboard, BlackboardStage, load_kb_dir

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future

TRACE_STATUSES = ("completed", "aborted")
_TRACE_DEFAULTS = {  # each trace field's value when absent; a present one must have its type
    "config_digest": "", "graph_initial": {}, "graph_final": {}, "outcomes": [], "expansions": [],
    "blackboard": {}, "timings": {}, "status": "completed", "meta": {},
}
MAX_AHEAD = 8  # nodes started ahead of the head at once
BASELINE_NODE_ID = "baseline"


def _trace_field(item: Any, key: str, kind: type, where: str, at: int | str = "", default: Any = None) -> Any:
    """``item[key]``, or ``default`` where it is absent; a value that is no
    ``kind``, or an ``item`` that is no object, is ``TRACE_ORDER`` naming
    ``where`` and the index ``at``, joined only when it raises."""
    value = item.get(key, default) if type(item) is dict or isinstance(item, Mapping) else None
    if not isinstance(value, kind):
        raise EngineError("TRACE_ORDER", f"{where}{at} has no {kind.__name__} {key!r}")
    return value


class TraceDocument:
    """Serialized record of one full run, diffable and replayable. Its fields are
    ``_TRACE_DEFAULTS``' keys; one not given starts as a new copy of its default."""

    def __init__(self, **fields: Any) -> None:
        if not fields.keys() <= _TRACE_DEFAULTS.keys():
            raise TypeError(f"unknown trace fields {sorted(fields.keys() - _TRACE_DEFAULTS.keys())}")
        for name, default in _TRACE_DEFAULTS.items():
            setattr(self, name, fields[name] if name in fields else type(default)(default))

    def validate(self) -> None:
        """Check outcome order is a linear extension of the final graph, read
        from ``graph_final``'s node ids and execution edges; a field of another
        type there or in an outcome is ``TRACE_ORDER``."""
        if self.status not in TRACE_STATUSES:
            raise EngineError("TRACE_ORDER", f"unknown trace status {self.status!r}")
        nodes = _trace_field(self.graph_final, "nodes", list, "trace graph_final", default=[])
        edges = _trace_field(self.graph_final, "edges", list, "trace graph_final", default=[])
        known = {_trace_field(node, "id", str, "trace graph_final node ", at) for at, node in enumerate(nodes)}
        position: dict[str, int] = {}
        for idx, outcome in enumerate(self.outcomes):
            node_id = _trace_field(outcome, "node_id", str, "trace outcome ", idx)
            if node_id not in known:
                raise EngineError("TRACE_ORDER", f"outcome for unknown node {node_id!r}")
            if node_id in position:
                raise EngineError("TRACE_ORDER", f"duplicate outcome for node {node_id!r}")
            position[node_id] = idx
        for at, edge in enumerate(edges):
            if _trace_field(edge, "kind", str, "trace graph_final edge ", at, "execution") == "execution":
                src = _trace_field(edge, "src", str, "trace graph_final edge ", at)
                dst = _trace_field(edge, "dst", str, "trace graph_final edge ", at)
                if src in position and dst in position and position[src] >= position[dst]:
                    raise EngineError("TRACE_ORDER", f"outcome order violates edge {src} -> {dst}")

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
        """A trace as ``to_dict`` wrote it; a field of another type is ``TRACE_ORDER``."""
        if not isinstance(payload, Mapping):
            raise EngineError("TRACE_ORDER", f"trace is a {type(payload).__name__}, not an object")
        return cls(**{
            name: type(default)(_trace_field(payload, name, type(default), "trace", default=default))
            for name, default in _TRACE_DEFAULTS.items()
        })

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
    A container met again (a plan sits in an outcome, the expansions and the
    blackboard) is its first text, re-indented: every newline in that text
    is a line break, as the escaper writes one inside a string as ``\\n``.
    """
    parts: list[str] = []
    emit = parts.append
    path: set[int] = set()  # ids of the containers being written, for the cycle check
    names: dict[str, str] = {}  # each key's escaped text and ": ", as keys repeat across dicts
    # id -> (container, its nl, its first and end part); holding the container pins its id
    written: dict[int, tuple[Any, str, int, int]] = {}

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
            seen = written.get(marker)
            if seen is not None:
                _, first_nl, first, end = seen
                text = "".join(parts[first:end])
                emit(text if nl == first_nl else text.replace(first_nl, nl))
                return
            path.add(marker)
            first = len(parts)
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
            written[marker] = (o, nl, first, len(parts))
        elif isinstance(o, str):
            emit(_escape(o))
        else:
            text = _scalar(o)
            if text is None:
                raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
            emit(text)

    write(value, "\n")
    del write  # a closure on itself: unlinked, parts and memo are freed on return, not at a later gc pass
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
    trace, then schedule in one loop on the calling thread.

    Nodes commit one at a time in Kahn order: outcome, blackboard writes and
    expansion of the least ready id. Every node is a conversation that
    ``step``, through ``run_node``, runs up to its next call to a backend
    that waits; only that call goes to a worker thread. A node whose agent's
    roles all wait may start ahead of the head when (a) no planner is
    uncommitted, so the graph is final, (b) no other uncommitted node
    declares one of its input or output keys, and (c) the node budget covers
    every node of the graph. Its writes are staged, and its outcome held,
    until it reaches the head. The run returns only after every node it
    started has finished.
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
    ahead: dict[str, BlackboardStage] = {}  # started node -> its staged writes, until it reaches the head
    ended: dict[str, NodeOutcome | Exception] = {}  # started node -> its outcome, or the error it raised
    calls: dict[Future, tuple[str, Generator]] = {}  # backend call in flight -> its node and conversation
    elapsed: dict[str, float] = {}

    def start(node: TaskNode) -> None:
        """Start a node's conversation and step it to its first call that
        waits, or to its end."""
        ahead[node.id] = stage = blackboard.stage(node.id)
        elapsed[node.id] = -time.perf_counter()  # the clock is added when the node ends
        agent = config.agents[node.agent_ref]
        step(node.id, converse(node, graph, agent, config.tools, stage, knowledge_bases, agent_names, config.seeds))

    def step(nid: str, conversation: Generator, reply: ChatMessage | Exception | None = None) -> None:
        """Run a conversation through ``run_node`` from the reply to its last
        call; then submit its next call, or keep how it ended."""
        try:
            result = run_node(conversation, backends, reply)
        except Exception as exc:
            result = exc
        if isinstance(result, tuple):
            model_ref, request = result
            calls[pool.submit(backends[model_ref].complete, request)] = (nid, conversation)
            return
        ended[nid] = result
        elapsed[nid] += time.perf_counter()

    def advance(until: str | None) -> None:
        """Feed replies to their conversations as they arrive, until node
        ``until`` has ended, or else until no call is in flight."""
        while calls and (until is None or until not in ended):
            arrived, _ = wait(calls, return_when=FIRST_COMPLETED)
            for call in arrived:
                step(*calls.pop(call), call.exception() or call.result())

    def may_run_ahead(node: TaskNode) -> bool:
        if node.agent_ref not in waiting_agents:
            return False
        return all(producers[key] == (key in node.outputs) for key in {*node.inputs, *node.outputs})

    with ExitStack() as leaving:
        if any(backends[role.model_ref].waits for agent in config.agents.values() for role in agent.roles):
            # only a run with a role whose backend waits loads concurrent.futures and starts threads
            from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
            # a worker for each node that may wait at once, so the head never queues behind nodes run ahead
            pool = leaving.enter_context(ThreadPoolExecutor(max_workers=MAX_AHEAD + 1, thread_name_prefix="marco-call"))
        leaving.callback(advance, None)  # nodes started ahead of a failed head run to their end, then are dropped
        while schedule.heap:
            if len(done) >= config.max_node_executions:
                raise EngineError(
                    "BUDGET_EXCEEDED",
                    f"node execution budget {config.max_node_executions} exhausted"
                    f" with {len(schedule.heap)} node(s) still ready",
                    trace=_finish(trace, graph, blackboard, "aborted"),
                )
            head = schedule.heap[0]
            # a budget that covers every node lets the serial run reach every node
            if waiting_agents and not planners and len(nodes) <= config.max_node_executions:
                room = MAX_AHEAD - len(ahead)
                for nid in sorted(schedule.heap)[1:]:
                    if room <= 0:
                        break
                    if nid not in ahead and may_run_ahead(nodes[nid]):
                        start(nodes[nid])
                        room -= 1
            node = nodes[head]
            if head not in ahead:
                start(node)
            advance(head)
            stage, outcome = ahead.pop(head), ended.pop(head)
            trace.timings[head] = 0.0 if zero_clock else round(elapsed[head], 6)  # an aborted trace times it too
            if isinstance(outcome, Exception):
                if isinstance(outcome, EngineError):
                    stage.commit()  # what the head wrote before it failed, as a serial run keeps it
                    outcome.trace = _finish(trace, graph, blackboard, "aborted")
                raise outcome
            stage.commit()
            schedule.pop()
            done.add(head)
            planners -= node.expansion == "planner"
            producers.subtract(node.outputs)
            trace.outcomes.append(outcome.to_dict())
            if outcome.expansion is not None and outcome.status == "solved":
                graph = outcome.grown  # a planner never runs ahead, so its turn grew the graph held here
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
    termination = agent.termination._replace(max_turns=meta["baseline"]["max_turns"])
    agents = {**config.agents, name: agent._replace(termination=termination)}
    # the collapsed config keeps ``raw``, so its trace carries the original config digest
    return _execute(config._replace(graph=graph, agents=agents), backend_override, deterministic, meta)

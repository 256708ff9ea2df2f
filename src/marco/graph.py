"""Task graphs: nodes are sub-tasks, edges are execution or knowledge links.

Execution edges order work and must form a DAG; knowledge edges carry a
blackboard key from a producer to a consumer and never affect scheduling.
Graph values are immutable; growth happens by building a new graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Container, Iterable

from .errors import GraphError

EXPANSION_KINDS = ("none", "planner")
EDGE_KINDS = ("execution", "knowledge")
GRAPH_MODES = ("static", "dynamic")


@dataclass(frozen=True)
class TaskNode:
    """One sub-task: a goal handed to a named agent, with declared I/O keys."""

    id: str
    title: str
    goal: str
    agent_ref: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    expansion: str = "none"

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "goal": self.goal,
            "agent_ref": self.agent_ref,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "expansion": self.expansion,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskNode":
        return cls(
            id=payload["id"],
            title=payload.get("title", payload["id"]),
            goal=payload.get("goal", ""),
            agent_ref=payload.get("agent_ref", ""),
            inputs=tuple(payload.get("inputs", ())),
            outputs=tuple(payload.get("outputs", ())),
            expansion=payload.get("expansion", "none"),
        )


@dataclass(frozen=True)
class TaskEdge:
    """Directed edge; knowledge edges carry the blackboard key they transport."""

    src: str
    dst: str
    kind: str = "execution"
    key: str | None = None

    def to_dict(self) -> dict:
        payload: dict = {"src": self.src, "dst": self.dst, "kind": self.kind}
        if self.key is not None:
            payload["key"] = self.key
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskEdge":
        return cls(
            src=payload["src"],
            dst=payload["dst"],
            kind=payload.get("kind", "execution"),
            key=payload.get("key"),
        )


@dataclass(frozen=True)
class TaskGraph:
    """An immutable set of task nodes plus typed edges."""

    nodes: tuple[TaskNode, ...] = ()
    edges: tuple[TaskEdge, ...] = ()
    mode: str = "static"

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))

    def node_map(self) -> dict[str, TaskNode]:
        return {n.id: n for n in self.nodes}

    def execution_edges(self) -> tuple[TaskEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "execution")

    def execution_predecessors(self) -> dict[str, set[str]]:
        """Map node id -> ids of its direct execution predecessors."""
        preds: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        for e in self.execution_edges():
            if e.dst in preds and e.src in preds:
                preds[e.dst].add(e.src)
        return preds

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "nodes": [n.to_dict() for n in self.nodes],
            "edges": [e.to_dict() for e in self.edges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskGraph":
        return cls(
            nodes=tuple(TaskNode.from_dict(n) for n in payload.get("nodes", ())),
            edges=tuple(TaskEdge.from_dict(e) for e in payload.get("edges", ())),
            mode=payload.get("mode", "static"),
        )


@dataclass(frozen=True)
class ExpansionRequest:
    """Growth emitted by a planner node: new sub-tasks plus wiring."""

    planner_id: str
    new_nodes: tuple[TaskNode, ...] = ()
    new_edges: tuple[TaskEdge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "new_nodes", tuple(self.new_nodes))
        object.__setattr__(self, "new_edges", tuple(self.new_edges))

    def to_dict(self) -> dict:
        return {
            "planner_id": self.planner_id,
            "new_nodes": [n.to_dict() for n in self.new_nodes],
            "new_edges": [e.to_dict() for e in self.new_edges],
        }


@dataclass(frozen=True)
class Violation:
    """One invariant failure, identified by a stable code and its subject."""

    code: str
    subject: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


def _edge_label(e: TaskEdge) -> str:
    key = f" key={e.key!r}" if e.key is not None else ""
    return f"{e.src}->{e.dst} [{e.kind}{key}]"


class Schedule:
    """Kahn's algorithm over the execution edges, resumed after ``done``: the
    predecessor map, each not-done id's count of not-done predecessors, and a
    min-heap of the ready ids, which starts as ``ready_frontier(graph, done)``."""

    def __init__(self, graph: TaskGraph, done: set[str], ready: list[str]) -> None:
        self.preds = graph.execution_predecessors()
        self.heap = ready  # id-sorted, so already a heap
        self.waiting: dict[str, int] = {}
        self.successors: dict[str, list[str]] = {}
        for nid, sources in self.preds.items():
            if nid not in done:
                self.waiting[nid] = len(sources - done)
                for src in sources:
                    self.successors.setdefault(src, []).append(nid)

    def pop(self) -> str:
        """Commit the least ready id and return it; successors it frees become ready."""
        nid = heapq.heappop(self.heap)
        for succ in self.successors.get(nid, ()):
            self.waiting[succ] -= 1
            if not self.waiting[succ]:
                heapq.heappush(self.heap, succ)
        return nid

    def upcoming(self, count: int) -> set[str]:
        """The ids the next ``count`` pops would return; the schedule is left as it is."""
        heap, waiting, ids = list(self.heap), {}, set()
        while heap and len(ids) < count:
            nid = heapq.heappop(heap)
            ids.add(nid)
            for succ in self.successors.get(nid, ()):
                waiting[succ] = waiting.get(succ, self.waiting[succ]) - 1
                if not waiting[succ]:
                    heapq.heappush(heap, succ)
        return ids


def _kahn(graph: TaskGraph) -> tuple[dict[str, int], dict[str, int], list[str]]:
    """The one ordering pass: a :class:`Schedule` popped to empty, in the
    order the engine commits nodes.

    Returns every ordered id's position, every ordered id's lineage (a bit
    set over positions of the id itself and all its execution ancestors),
    and one execution cycle as ``[a, ..., a]``, empty when every id is
    ordered. Ids on or after a cycle stay unordered.
    """
    schedule = Schedule(graph, set(), ready_frontier(graph, ()))
    preds = schedule.preds
    position: dict[str, int] = {}
    lineage: dict[str, int] = {}
    while schedule.heap:
        nid = schedule.pop()
        bits = 1 << len(position)
        for src in preds[nid]:
            bits |= lineage[src]
        position[nid] = len(position)
        lineage[nid] = bits
    cycle: list[str] = []
    if len(position) < len(preds):
        # every unordered id has an unordered predecessor: walk back from the
        # least one, each time to the least such predecessor, until an id repeats
        walk: dict[str, int] = {}  # id -> its step on the walk
        nid = min(nid for nid in preds if nid not in position)
        while nid not in walk:
            walk[nid] = len(walk)
            nid = min(src for src in preds[nid] if src not in position)
        cycle = [nid, *reversed(list(walk)[walk[nid]:])]
    return position, lineage, cycle


def execution_order(graph: TaskGraph) -> list[str]:
    """Node ids in the order the engine commits them: least ready id first.
    Ids on or after an execution cycle are left out."""
    return list(_kahn(graph)[0])


def unproduced_inputs(graph: TaskGraph, seeded: Container[str]) -> list[tuple[str, str]]:
    """``(node id, key)`` for every node input that is neither in ``seeded``
    nor an output of one of the node's execution ancestors, in node and input
    order. Nodes on or after an execution cycle are not checked."""
    position, lineage, _ = _kahn(graph)
    return _unproduced(graph, position, lineage, seeded, graph.nodes)


def _unproduced(
    graph: TaskGraph,
    position: dict[str, int],
    lineage: dict[str, int],
    seeded: Container[str],
    checked: Iterable[TaskNode],
) -> list[tuple[str, str]]:
    """:func:`unproduced_inputs` over the ``checked`` nodes, from a Kahn pass already made."""
    producers: dict[str, int] = {}  # key -> bit set over positions of ordered nodes declaring it
    for node in graph.nodes:
        if node.id in position:
            for key in node.outputs:
                producers[key] = producers.get(key, 0) | 1 << position[node.id]
    return [
        (node.id, key)
        for node in checked
        if node.id in position
        for key in node.inputs
        if key not in seeded and not (lineage[node.id] ^ 1 << position[node.id]) & producers.get(key, 0)
    ]


def validate_graph(graph: TaskGraph) -> ValidationReport:
    """Check every graph/node/edge invariant; violations are data, not errors."""
    return _checked(graph)[0]


def _checked(graph: TaskGraph) -> tuple[ValidationReport, dict[str, int], dict[str, int]]:
    """:func:`validate_graph`'s report, with the position and lineage of its Kahn pass."""
    violations: list[Violation] = []

    if graph.mode not in GRAPH_MODES:
        violations.append(Violation("BAD_MODE", graph.mode, "mode must be static or dynamic"))

    seen: set[str] = set()
    for node in graph.nodes:
        if not node.id:
            violations.append(Violation("EMPTY_NODE_ID", "<node>", "node id must be non-empty"))
            continue
        if node.id in seen:
            violations.append(Violation("DUPLICATE_NODE_ID", node.id, "node id repeats within graph"))
        seen.add(node.id)
        if node.expansion not in EXPANSION_KINDS:
            violations.append(Violation("BAD_EXPANSION", node.id, f"unknown expansion {node.expansion!r}"))
        for key in list(node.inputs) + list(node.outputs):
            if not isinstance(key, str) or not key:
                violations.append(Violation("EMPTY_KEY", node.id, "inputs/outputs must be non-empty strings"))
        if node.expansion == "planner" and not node.outputs:
            violations.append(
                Violation("PLANNER_NO_OUTPUT", node.id, "planner node must declare an output key for its plan")
            )

    node_map = {n.id: n for n in graph.nodes}
    knowledge_edges: list[TaskEdge] = []
    for edge in graph.edges:
        subject = _edge_label(edge)
        if edge.kind not in EDGE_KINDS:
            violations.append(Violation("BAD_EDGE_KIND", subject, f"unknown kind {edge.kind!r}"))
            continue
        if edge.src == edge.dst:
            violations.append(Violation("SELF_LOOP", subject, "edge endpoints must differ"))
        missing = [nid for nid in (edge.src, edge.dst) if nid not in node_map]
        if missing:
            violations.append(Violation("UNKNOWN_ENDPOINT", subject, f"undefined node(s): {', '.join(missing)}"))
            continue
        if edge.kind == "knowledge":
            knowledge_edges.append(edge)
            if not edge.key:
                violations.append(Violation("MISSING_EDGE_KEY", subject, "knowledge edge requires a key"))
            else:
                if edge.key not in node_map[edge.src].outputs:
                    violations.append(
                        Violation("DANGLING_KEY", subject, f"key {edge.key!r} not in {edge.src!r}.outputs")
                    )
                if edge.key not in node_map[edge.dst].inputs:
                    violations.append(
                        Violation("DANGLING_KEY", subject, f"key {edge.key!r} not in {edge.dst!r}.inputs")
                    )
        elif edge.key is not None:
            violations.append(Violation("UNEXPECTED_EDGE_KEY", subject, "execution edge must not carry a key"))

    position, lineage, cycle = _kahn(graph)
    for edge in knowledge_edges:
        # an edge into an unordered node is left alone: CYCLE rejects the graph
        if edge.dst in lineage and not (edge.src in position and lineage[edge.dst] >> position[edge.src] & 1):
            violations.append(
                Violation(
                    "UNORDERED_KNOWLEDGE_EDGE",
                    _edge_label(edge),
                    f"no execution path from {edge.src!r} to {edge.dst!r}, so {edge.dst!r} may run first",
                )
            )

    if cycle:
        violations.append(Violation("CYCLE", " -> ".join(cycle), "execution edges must form a DAG"))

    planners = [n.id for n in graph.nodes if n.expansion == "planner"]
    if graph.mode == "static" and planners:
        violations.append(
            Violation("PLANNER_IN_STATIC", ", ".join(sorted(planners)), "static graphs must not contain planner nodes")
        )
    if graph.mode == "dynamic" and not planners:
        violations.append(Violation("NO_PLANNER_IN_DYNAMIC", "<graph>", "dynamic graphs need at least one planner node"))

    return ValidationReport(ok=not violations, violations=tuple(violations)), position, lineage


def ready_frontier(graph: TaskGraph, done: Iterable[str]) -> list[str]:
    """Every not-done node whose execution predecessors are all done, id-sorted.

    ``done`` must be prefix-closed under execution edges and name only known
    nodes; the graph is assumed to have passed :func:`validate_graph`.
    """
    done_set = set(done)
    preds = graph.execution_predecessors()
    return sorted(nid for nid, ps in preds.items() if nid not in done_set and ps <= done_set)


def apply_expansion(graph: TaskGraph, req: ExpansionRequest, seeded: Container[str] = ()) -> TaskGraph:
    """Grow a dynamic graph from one of its planner nodes, immutably.

    The result always satisfies :func:`validate_graph`, and each new node's
    inputs are in ``seeded`` or outputs of its execution ancestors; anything
    else is rejected before a new graph value is produced.
    """
    planner = graph.node_map().get(req.planner_id)
    if planner is None or planner.expansion != "planner":
        raise GraphError("UNKNOWN_PLANNER", f"{req.planner_id!r} does not name a planner node")

    candidate = replace(graph, nodes=graph.nodes + req.new_nodes, edges=graph.edges + req.new_edges)

    report, position, lineage = _checked(candidate)
    if not report.ok:
        if "CYCLE" in report.codes():
            raise GraphError("CYCLE_INTRODUCED", "expansion would create an execution cycle")
        first = report.violations[0]
        raise GraphError("INVALID_EXPANSION", f"{first.code} on {first.subject}: {first.detail}")

    orphans = sorted(n.id for n in req.new_nodes if not lineage[n.id] >> position[req.planner_id] & 1)
    if orphans:
        raise GraphError(
            "UNREACHABLE_NODE",
            f"new node(s) not reachable from planner via execution edges: {', '.join(orphans)}",
        )
    # only new nodes: an existing node's input may come from a later expansion, but
    # a PLAN block adds edges only into its own nodes, so new nodes' ancestors are final
    unproduced = _unproduced(candidate, position, lineage, seeded, req.new_nodes)
    if unproduced:
        raise GraphError(
            "UNPRODUCED_INPUT",
            "; ".join(
                f"node {nid}: input {key} is neither seeded nor an output of an execution ancestor"
                for nid, key in unproduced
            ),
        )

    return candidate


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: TaskGraph) -> str:
    """Render the graph as DOT, byte-deterministically.

    Execution edges are solid (DOT default), knowledge edges dashed and
    labeled with their key. Nodes and edges are emitted in sorted order.
    """
    report = validate_graph(graph)
    if not report.ok:
        raise GraphError("INVALID_GRAPH", f"cannot export: {report.violations[0].code}")

    lines = ["digraph marco {"]
    for node in sorted(graph.nodes, key=lambda n: n.id):
        attrs = [f"label={_dot_quote(node.id + ': ' + node.title)}"]
        if node.expansion == "planner":
            attrs.append("shape=box")
        lines.append(f"  {_dot_quote(node.id)} [{', '.join(attrs)}];")
    for edge in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind, e.key or "")):
        if edge.kind == "knowledge":
            lines.append(
                f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)}"
                f" [style=dashed, label={_dot_quote(edge.key or '')}];"
            )
        else:
            lines.append(f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

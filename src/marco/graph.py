"""Task graphs: nodes are sub-tasks, edges are execution or knowledge links.

Execution edges order work and must form a DAG; knowledge edges carry a
blackboard key from a producer to a consumer and never affect scheduling.
Graph values are immutable; growth happens by building a new graph. A node's,
edge's or plan's ``to_dict()`` is one dict, built on the first call and shared
by every caller (blackboard, outcome, trace), so callers treat it as read-only.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Container, Iterable, NamedTuple

from .errors import GraphError
from .record import Record

EXPANSION_KINDS = ("none", "planner")
EDGE_KINDS = ("execution", "knowledge")
GRAPH_MODES = ("static", "dynamic")


class TaskNode(Record):
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
        return self._dict

    @cached_property
    def _dict(self) -> dict:
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


class TaskEdge(Record):
    """Directed edge; knowledge edges carry the blackboard key they transport."""

    src: str
    dst: str
    kind: str = "execution"
    key: str | None = None

    def to_dict(self) -> dict:
        return self._dict

    @cached_property
    def _dict(self) -> dict:
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


class TaskGraph(Record):
    """An immutable set of task nodes plus typed edges."""

    nodes: tuple[TaskNode, ...] = ()
    edges: tuple[TaskEdge, ...] = ()
    mode: str = "static"

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))

    def node_map(self) -> dict[str, TaskNode]:
        return {n.id: n for n in self.nodes}

    def execution_predecessors(self) -> dict[str, set[str]]:
        """Map node id -> ids of its direct execution predecessors."""
        preds: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        for e in self.edges:
            if e.kind == "execution" and e.dst in preds and e.src in preds:
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


class ExpansionRequest(Record):
    """Growth emitted by a planner node: new sub-tasks plus wiring."""

    planner_id: str
    new_nodes: tuple[TaskNode, ...] = ()
    new_edges: tuple[TaskEdge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "new_nodes", tuple(self.new_nodes))
        object.__setattr__(self, "new_edges", tuple(self.new_edges))

    def to_dict(self) -> dict:
        return self._dict

    @cached_property
    def _dict(self) -> dict:
        return {
            "planner_id": self.planner_id,
            "new_nodes": [n.to_dict() for n in self.new_nodes],
            "new_edges": [e.to_dict() for e in self.new_edges],
        }


class Violation(NamedTuple):
    """One invariant failure, identified by a stable code and its subject."""

    code: str
    subject: str
    detail: str


class ValidationReport(NamedTuple):
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
        for succ in self.successors.pop(nid, ()):  # each id commits once, so its list is let go
            self.waiting[succ] -= 1
            if not self.waiting[succ]:
                heapq.heappush(self.heap, succ)
        return nid


def _kahn(graph: TaskGraph) -> tuple[dict[str, set[str]], list[str], list[str]]:
    """The one ordering pass: a :class:`Schedule` popped to empty, in the
    order the engine commits nodes.

    Returns the execution predecessor map, the ordered ids in that order, and
    one execution cycle as ``[a, ..., a]``, empty when every id is ordered.
    Ids on or after a cycle stay unordered: still waiting on a predecessor.
    """
    schedule = Schedule(graph, set(), ready_frontier(graph, ()))
    order: list[str] = []
    while schedule.heap:
        order.append(schedule.pop())
    cycle: list[str] = []
    if len(order) < len(schedule.preds):
        # every unordered id has an unordered predecessor: walk back from the
        # least one, each time to the least such predecessor, until an id repeats
        unordered = {nid for nid, count in schedule.waiting.items() if count}
        walk: dict[str, int] = {}  # id -> its step on the walk
        nid = min(unordered)
        while nid not in walk:
            walk[nid] = len(walk)
            nid = min(src for src in schedule.preds[nid] if src in unordered)
        cycle = [nid, *reversed(list(walk)[walk[nid]:])]
    return schedule.preds, order, cycle


def _reached(
    preds: dict[str, set[str]], order: list[str], position: dict[str, int], sources: Iterable[str], targets: Iterable[str]
) -> set[str]:
    """The ``targets`` that a path of one or more execution edges leads to from
    one of ``sources``; all are ordered ids, placed in ``order`` at ``position``.
    Only the ids placed after the first source and before the last target are
    visited, so a question about near nodes costs little in a large graph."""
    reach = set(sources)
    targets = set(targets)
    if reach and targets:
        for nid in order[min(map(position.__getitem__, reach)) + 1 : max(map(position.__getitem__, targets))]:
            if not reach.isdisjoint(preds[nid]):
                reach.add(nid)
    return {nid for nid in targets if not reach.isdisjoint(preds[nid])}


def execution_order(graph: TaskGraph) -> list[str]:
    """Node ids in the order the engine commits them: least ready id first.
    Ids on or after an execution cycle are left out."""
    return _kahn(graph)[1]


def unproduced_inputs(graph: TaskGraph, seeded: Container[str]) -> list[tuple[str, str]]:
    """``(node id, key)`` for every node input that is neither in ``seeded``
    nor an output of one of the node's execution ancestors, in node and input
    order. Nodes on or after an execution cycle are not checked."""
    preds, order, _ = _kahn(graph)
    return _unproduced(graph, preds, order, seeded, graph.nodes)


def _unproduced(
    graph: TaskGraph, preds: dict[str, set[str]], order: list[str], seeded: Container[str], checked: Iterable[TaskNode]
) -> list[tuple[str, str]]:
    """:func:`unproduced_inputs` over the ``checked`` nodes, from a Kahn pass already made."""
    position = {nid: at for at, nid in enumerate(order)}
    checked = [node for node in checked if node.id in position]
    asked: dict[str, list[str]] = {}  # key -> ids of checked nodes needing it
    for node in checked:
        for key in node.inputs:
            if key not in seeded:
                asked.setdefault(key, []).append(node.id)
    producers: dict[str, list[str]] = {}  # key -> ordered ids declaring it
    for node in graph.nodes:
        if node.id in position:
            for key in node.outputs:
                producers.setdefault(key, []).append(node.id)
    fed = {key: _reached(preds, order, position, producers.get(key, ()), ids) for key, ids in asked.items()}
    return [
        (node.id, key) for node in checked for key in node.inputs if key not in seeded and node.id not in fed[key]
    ]


def validate_graph(graph: TaskGraph) -> ValidationReport:
    """Check every graph/node/edge invariant; violations are data, not errors."""
    return _checked(graph)[0]


def _checked(graph: TaskGraph) -> tuple[ValidationReport, dict[str, set[str]], list[str]]:
    """:func:`validate_graph`'s report, with the predecessor map and order of its Kahn pass."""
    violations: list[Violation] = []

    if graph.mode not in GRAPH_MODES:
        violations.append(Violation("BAD_MODE", graph.mode, "mode must be static or dynamic"))

    node_map: dict[str, TaskNode] = {}  # the last node of each id
    for node in graph.nodes:
        repeated = node.id in node_map
        node_map[node.id] = node
        if not node.id:
            violations.append(Violation("EMPTY_NODE_ID", "<node>", "node id must be non-empty"))
            continue
        if repeated:
            violations.append(Violation("DUPLICATE_NODE_ID", node.id, "node id repeats within graph"))
        if node.expansion not in EXPANSION_KINDS:
            violations.append(Violation("BAD_EXPANSION", node.id, f"unknown expansion {node.expansion!r}"))
        for key in list(node.inputs) + list(node.outputs):
            if not isinstance(key, str) or not key:
                violations.append(Violation("EMPTY_KEY", node.id, "inputs/outputs must be non-empty strings"))
        if node.expansion == "planner" and not node.outputs:
            violations.append(
                Violation("PLANNER_NO_OUTPUT", node.id, "planner node must declare an output key for its plan")
            )

    knowledge_edges: list[TaskEdge] = []
    for edge in graph.edges:
        if edge.kind not in EDGE_KINDS:
            violations.append(Violation("BAD_EDGE_KIND", _edge_label(edge), f"unknown kind {edge.kind!r}"))
            continue
        if edge.src == edge.dst:
            violations.append(Violation("SELF_LOOP", _edge_label(edge), "edge endpoints must differ"))
        missing = [nid for nid in (edge.src, edge.dst) if nid not in node_map]
        if missing:
            violations.append(Violation("UNKNOWN_ENDPOINT", _edge_label(edge), f"undefined node(s): {', '.join(missing)}"))
            continue
        if edge.kind == "knowledge":
            knowledge_edges.append(edge)
            if not edge.key:
                violations.append(Violation("MISSING_EDGE_KEY", _edge_label(edge), "knowledge edge requires a key"))
            else:
                if edge.key not in node_map[edge.src].outputs:
                    detail = f"key {edge.key!r} not in {edge.src!r}.outputs"
                    violations.append(Violation("DANGLING_KEY", _edge_label(edge), detail))
                if edge.key not in node_map[edge.dst].inputs:
                    detail = f"key {edge.key!r} not in {edge.dst!r}.inputs"
                    violations.append(Violation("DANGLING_KEY", _edge_label(edge), detail))
        elif edge.key is not None:
            violations.append(Violation("UNEXPECTED_EDGE_KEY", _edge_label(edge), "execution edge must not carry a key"))

    preds, order, cycle = _kahn(graph)
    position = {nid: at for at, nid in enumerate(order)} if knowledge_edges else {}
    asked: dict[str, list[str]] = {}  # ordered source -> the ordered targets of its knowledge edges
    for edge in knowledge_edges:
        if edge.src in position and edge.dst in position:
            asked.setdefault(edge.src, []).append(edge.dst)
    fed = {src: _reached(preds, order, position, (src,), dsts) for src, dsts in asked.items()}
    for edge in knowledge_edges:
        # an edge into an unordered node is left alone: CYCLE rejects the graph
        if edge.dst in position and edge.src != edge.dst and edge.dst not in fed.get(edge.src, ()):
            detail = f"no execution path from {edge.src!r} to {edge.dst!r}, so {edge.dst!r} may run first"
            violations.append(Violation("UNORDERED_KNOWLEDGE_EDGE", _edge_label(edge), detail))

    if cycle:
        violations.append(Violation("CYCLE", " -> ".join(cycle), "execution edges must form a DAG"))

    planners = [n.id for n in graph.nodes if n.expansion == "planner"]
    if graph.mode == "static" and planners:
        violations.append(
            Violation("PLANNER_IN_STATIC", ", ".join(sorted(planners)), "static graphs must not contain planner nodes")
        )
    if graph.mode == "dynamic" and not planners:
        violations.append(Violation("NO_PLANNER_IN_DYNAMIC", "<graph>", "dynamic graphs need at least one planner node"))

    return ValidationReport(ok=not violations, violations=tuple(violations)), preds, order


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

    candidate = graph._replace(nodes=graph.nodes + req.new_nodes, edges=graph.edges + req.new_edges)

    report, preds, order = _checked(candidate)
    if not report.ok:
        if "CYCLE" in report.codes():
            raise GraphError("CYCLE_INTRODUCED", "expansion would create an execution cycle")
        first = report.violations[0]
        raise GraphError("INVALID_EXPANSION", f"{first.code} on {first.subject}: {first.detail}")

    new_ids = [n.id for n in req.new_nodes]
    reached = _reached(preds, order, {nid: at for at, nid in enumerate(order)}, (req.planner_id,), new_ids)
    orphans = sorted(nid for nid in new_ids if nid not in reached)
    if orphans:
        raise GraphError(
            "UNREACHABLE_NODE",
            f"new node(s) not reachable from planner via execution edges: {', '.join(orphans)}",
        )
    # only new nodes: an existing node's input may come from a later expansion, but
    # a PLAN block adds edges only into its own nodes, so new nodes' ancestors are final
    unproduced = _unproduced(candidate, preds, order, seeded, req.new_nodes)
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

"""Agent runtime: runs one task node as a scripted or live conversation.

Three topologies share one loop, which keeps the conversation state itself and
updates it from the reply just received. A single role talks to itself turn by
turn; round-robin rotates speakers over content turns; hierarchical puts the
first role in charge as leader, and each of its content turns must end with a
``NEXT:`` line naming another role. A leader turn without one (no line, the
leader itself, or an unknown name) is a strike: the first draws a moderator
reprompt, the second fails the node. Tool rounds never advance the rotation:
the requesting role speaks again once its tool results are in the transcript.
After every turn, tool rounds included, the reply just received decides
whether the node is solved; the turn budget is checked last. Planner nodes may
emit a fenced PLAN block that becomes a graph expansion request.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Collection, Container, Mapping

from .errors import EngineError, GatewayError, GraphError
from .gateway import Backend, ChatMessage, CompletionRequest, canonical_json
from .graph import ExpansionRequest, TaskEdge, TaskGraph, TaskNode, apply_expansion
from .knowledge import Blackboard, KnowledgeBase, MemoryWindow, apply_window, retrieve
from .tools import Param, ParamSchema, ToolContext, ToolRegistry, ToolResult, ToolSpec, error_result

TOPOLOGIES = ("single", "multi_round_robin", "multi_hierarchical")
NODE_STATUSES = ("solved", "failed", "budget_exhausted")

WRITE_TOOL = "write_artifact"
RETRIEVE_TOOL = "retrieve_knowledge"

_NEXT_RE = re.compile(r"^NEXT:\s*(\S+)\s*$")
_PLAN_RE = re.compile(r"```PLAN\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class RoleSpec:
    """One speaking role: prompt, model binding, and tool/KB access."""

    name: str
    model_ref: str
    system_prompt: str = ""
    tool_names: tuple[str, ...] = ()
    knowledge_base_refs: tuple[str, ...] = ()
    memory: MemoryWindow | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tool_names", tuple(self.tool_names))
        object.__setattr__(self, "knowledge_base_refs", tuple(self.knowledge_base_refs))
        if not self.name:
            raise ValueError("role name must be non-empty")


@dataclass(frozen=True)
class Termination:
    """When a node counts as solved, and how many model calls it may spend."""

    max_turns: int = 8
    stop_phrase: str | None = None
    require_outputs: bool = False

    def __post_init__(self) -> None:
        if self.max_turns < 1:
            raise ValueError("max_turns must be >= 1")


@dataclass(frozen=True)
class AgentConfig:
    name: str
    topology: str = "single"
    roles: tuple[RoleSpec, ...] = ()
    termination: Termination = field(default_factory=Termination)

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "single" and len(self.roles) != 1:
            raise ValueError("single topology takes exactly one role")
        if self.topology != "single" and len(self.roles) < 2:
            raise ValueError(f"{self.topology} needs at least two roles")
        names = [r.name for r in self.roles]
        if len(names) != len(set(names)):
            raise ValueError("role names must be unique within an agent")


@dataclass(frozen=True)
class TranscriptEntry:
    """One transcript event: who spoke (or which tool answered) and what."""

    speaker: str
    message: ChatMessage
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "meta", dict(self.meta))

    def to_dict(self) -> dict:
        payload: dict = {"speaker": self.speaker, "message": self.message.to_dict()}
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload


@dataclass(frozen=True)
class NodeOutcome:
    node_id: str
    status: str
    turns_used: int
    transcript: tuple[TranscriptEntry, ...] = ()
    written_keys: tuple[str, ...] = ()
    expansion: ExpansionRequest | None = None
    detail: str = ""
    # the graph ``expansion`` grows, as the planner's turn checked it
    grown: TaskGraph | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "transcript", tuple(self.transcript))
        object.__setattr__(self, "written_keys", tuple(self.written_keys))
        if self.status not in NODE_STATUSES:
            raise ValueError(f"unknown node status {self.status!r}")

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "status": self.status,
            "turns_used": self.turns_used,
            "written_keys": list(self.written_keys),
            "expansion": self.expansion.to_dict() if self.expansion else None,
            "detail": self.detail,
            "transcript": [entry.to_dict() for entry in self.transcript],
        }


def parse_next_directive(content: str) -> str | None:
    """Delegation target from the final non-empty line, or None."""
    for line in reversed(content.rstrip().splitlines()):
        if line.strip():
            match = _NEXT_RE.match(line.strip())
            return match.group(1) if match else None
    return None


_PLAN_FIELDS = ("agent", "in", "out", "after")


def parse_plan_block(
    content: str,
    planner: TaskNode,
    graph: TaskGraph,
    agent_names: Collection[str] | None = None,
) -> tuple[ExpansionRequest | None, str | None]:
    """Extract an expansion request from a fenced PLAN block.

    Returns ``(request, None)`` on success, ``(None, reason)`` on a malformed
    block, and ``(None, None)`` when the message has no PLAN fence at all.
    Line grammar: ``id | title | goal`` plus optional ``agent=``, ``in=``,
    ``out=``, ``after=`` fields in any order.
    """
    match = _PLAN_RE.search(content)
    if match is None:
        return None, None

    existing = graph.node_map()
    new_nodes: list[TaskNode] = []
    after_map: dict[str, list[str]] = {}  # new node id -> its ``after=`` ids; the new ids so far

    for raw_line in match.group(1).splitlines():
        line = raw_line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) < 3:
            return None, f"plan line {line!r} needs 'id | title | goal'"
        node_id, title, goal = parts[0], parts[1], parts[2]
        if not node_id:
            return None, "plan line has an empty node id"
        if node_id in existing:
            return None, f"plan node id {node_id!r} already exists in the graph"
        if node_id in after_map:
            return None, f"plan repeats node id {node_id!r}"

        fields: dict[str, str] = {}
        for extra in parts[3:]:
            key, sep, value = extra.partition("=")
            key = key.strip()
            if not sep or key not in _PLAN_FIELDS:
                return None, f"unknown plan field {extra!r}"
            if key in fields:
                return None, f"plan repeats field {key!r}"
            fields[key] = value.strip()

        agent_ref = fields.get("agent", planner.agent_ref)
        if agent_names is not None and agent_ref not in agent_names:
            return None, f"plan names unknown agent {agent_ref!r}"
        inputs = tuple(dict.fromkeys(k for k in fields.get("in", "").split(",") if k))
        outputs = tuple(dict.fromkeys(k for k in fields.get("out", "").split(",") if k))
        after = [d for d in fields.get("after", "").split(",") if d]
        for dep in after:
            if dep not in existing and dep not in after_map:
                return None, f"plan node {node_id!r} depends on unknown node {dep!r}"

        new_nodes.append(TaskNode(id=node_id, title=title, goal=goal, agent_ref=agent_ref, inputs=inputs, outputs=outputs))
        after_map[node_id] = after

    if not new_nodes:
        return None, "plan block contains no node lines"

    node_outputs = {n.id: n.outputs for n in (*existing.values(), *new_nodes)}
    edges: list[TaskEdge] = []
    for node in new_nodes:
        after = after_map[node.id]
        if not any(dep in after_map for dep in after):
            edges.append(TaskEdge(src=planner.id, dst=node.id, kind="execution"))
        for dep in after:
            edges.append(TaskEdge(src=dep, dst=node.id, kind="execution"))
        for key in node.inputs:
            if key in planner.outputs:
                edges.append(TaskEdge(src=planner.id, dst=node.id, kind="knowledge", key=key))
            for dep in after:
                if key in node_outputs[dep]:
                    edges.append(TaskEdge(src=dep, dst=node.id, kind="knowledge", key=key))

    # ``after=<planner>`` or a repeated dependency gives an edge twice; keep its first place
    new_edges = tuple(dict.fromkeys(edges))
    return ExpansionRequest(planner_id=planner.id, new_nodes=tuple(new_nodes), new_edges=new_edges), None


def _write_artifact_handler(args: dict, context: ToolContext) -> ToolResult:
    version = context.write(args["key"], args["value"])
    return ToolResult(
        ok=True,
        content=f"stored {args['key']!r} (version {version})",
        data={"key": args["key"], "version": version},
    )


def _retrieve_knowledge_handler(args: dict, context: ToolContext) -> ToolResult:
    kbs = context.knowledge_bases
    name = args["kb"]
    if name not in kbs:
        return error_result(f"knowledge base {name!r} is not accessible from this role")
    k = args.get("k", 5)
    if k < 1:
        return error_result("k must be >= 1")
    hits = retrieve(kbs[name], args["query"], k)
    if not hits:
        return ToolResult(ok=True, content="no matching documents", data=[])
    blocks = [f"{doc.id} score={score:.6f}\n{doc.text.strip()[:240]}" for doc, score in hits]
    data = [{"id": doc.id, "score": score, "text": doc.text} for doc, score in hits]
    return ToolResult(ok=True, content="\n\n".join(blocks), data=data)


def register_builtin_tools(registry: ToolRegistry) -> None:
    """Install the implicit tools every run exposes into a fresh registry.

    ``write_artifact`` is available to all roles; ``retrieve_knowledge`` only
    to roles with bound knowledge bases.
    """
    registry.register_tool(
        ToolSpec(
            name=WRITE_TOOL,
            description="Store a text artifact on the shared blackboard under a declared output key.",
            params=ParamSchema(
                (
                    Param("key", "string", doc="Declared output key to write."),
                    Param("value", "string", doc="Artifact text, stored verbatim."),
                )
            ),
        ),
        _write_artifact_handler,
    )
    registry.register_tool(
        ToolSpec(
            name=RETRIEVE_TOOL,
            description="Search a bound knowledge base; returns the top matching documents.",
            params=ParamSchema(
                (
                    Param("kb", "string", doc="Name of a knowledge base bound to this role."),
                    Param("query", "string", doc="Search terms."),
                    Param("k", "integer", required=False, doc="How many documents (default 5)."),
                )
            ),
        ),
        _retrieve_knowledge_handler,
    )


def _allowed_tools(role: RoleSpec) -> list[str]:
    names = set(role.tool_names)
    names.add(WRITE_TOOL)
    if role.knowledge_base_refs:
        names.add(RETRIEVE_TOOL)
    return sorted(names)


def _build_request(role: RoleSpec, transcript: list[TranscriptEntry], registry: ToolRegistry) -> CompletionRequest:
    messages = [ChatMessage(role="system", content=role.system_prompt)]
    messages.extend(entry.message for entry in transcript)
    if role.memory is not None:
        messages = apply_window(messages, role.memory)
    specs = tuple(registry.lookup(name).summary() for name in _allowed_tools(role))
    return CompletionRequest(model_ref=role.model_ref, messages=tuple(messages), tool_specs=specs)


def render_task_message(node: TaskNode, blackboard: Blackboard) -> str:
    """The synthesized opening message handed to the agent."""
    lines = [f"Task node: {node.id}", f"Goal: {node.goal}"]
    if node.inputs:
        lines.append("Inputs:")
        for key in node.inputs:
            if not blackboard.has(key):
                raise EngineError(
                    "MISSING_INPUT",
                    f"node {node.id!r} requires input key {key!r} which no predecessor produced",
                    node_id=node.id,
                    key=key,
                )
            lines.append(f"  {key} = {canonical_json(blackboard.read(key))}")
    if node.outputs:
        lines.append("Outputs expected: " + ", ".join(node.outputs))
    return "\n".join(lines)


def _moderator(text: str) -> TranscriptEntry:
    return TranscriptEntry(speaker="moderator", message=ChatMessage(role="user", content=text))


def run_node(
    node: TaskNode,
    graph: TaskGraph,
    agent: AgentConfig,
    backends: Mapping[str, Backend],
    registry: ToolRegistry,
    blackboard: Blackboard,
    knowledge_bases: Mapping[str, KnowledgeBase] | None = None,
    agent_names: Collection[str] | None = None,
    seeds: Container[str] = (),
) -> NodeOutcome:
    """Run one node's conversation to an outcome.

    Backend failures and missing declared inputs abort by raising; everything
    an agent or tool does wrong is contained in the outcome instead. Every
    role's ``model_ref`` and tools must be in ``backends`` and ``registry``,
    as they are for a config ``load_config`` accepted. A planner's PLAN block
    is applied to ``graph`` with the run's ``seeds``; one that is rejected
    gets the moderator reprompt, and its turn does not end the node. The
    accepted plan's grown graph is the outcome's ``grown``.
    """
    knowledge_bases = knowledge_bases or {}
    transcript: list[TranscriptEntry] = [
        TranscriptEntry(speaker="task", message=ChatMessage(role="user", content=render_task_message(node, blackboard)))
    ]
    written: list[str] = []
    term = agent.termination
    leader = agent.roles[0]
    delegates = {r.name: r for r in agent.roles[1:]}
    role = leader
    turns = 0
    content_turns = 0
    strikes = 0
    pending_expansion: ExpansionRequest | None = None
    grown: TaskGraph | None = None

    def finish(status: str, detail: str = "") -> NodeOutcome:
        return NodeOutcome(
            node_id=node.id,
            status=status,
            turns_used=turns,
            transcript=tuple(transcript),
            written_keys=tuple(dict.fromkeys(written)),
            expansion=pending_expansion,
            detail=detail,
            grown=grown,
        )

    while True:
        request = _build_request(role, transcript, registry)
        try:
            response = backends[role.model_ref].complete(request)
        except GatewayError as exc:
            raise EngineError(
                "BACKEND_ERROR",
                f"node {node.id!r} turn {turns}: {exc}",
                node_id=node.id,
                turn=turns,
            ) from exc
        turns += 1
        transcript.append(TranscriptEntry(speaker=role.name, message=response))
        problem: str | None = None

        if response.tool_calls:
            allowed = _allowed_tools(role)
            role_kbs = {ref: knowledge_bases[ref] for ref in role.knowledge_base_refs}
            for call in response.tool_calls:
                if call.tool_name not in allowed:
                    result = error_result(f"tool {call.tool_name!r} is not available to role {role.name!r}")
                else:
                    context = ToolContext(node_id=node.id, blackboard=blackboard, knowledge_bases=role_kbs, written=written)
                    result = registry.invoke_tool(call.tool_name, call.arguments, context)
                transcript.append(
                    TranscriptEntry(
                        speaker=f"tool:{call.tool_name}",
                        message=ChatMessage(role="tool", content=result.content, tool_call_id=call.id),
                        meta={"tool_name": call.tool_name, "ok": result.ok, "data": result.data},
                    )
                )
        elif node.expansion == "planner":
            request_or_none, problem = parse_plan_block(response.content, node, graph, agent_names)
            if request_or_none is not None:
                try:
                    grown = apply_expansion(graph, request_or_none, seeds)
                except GraphError as exc:
                    problem = str(exc)
                else:
                    pending_expansion = request_or_none
                    blackboard.write(node.outputs[0], pending_expansion.to_dict(), producer=node.id)
                    if node.outputs[0] not in written:
                        written.append(node.outputs[0])
            if problem is not None:
                transcript.append(_moderator(f"PLAN rejected: {problem}. Re-emit a corrected PLAN block."))

        if (
            problem is None  # a rejected plan is answered before the node ends
            and (term.stop_phrase is None or term.stop_phrase in response.content)
            and (not term.require_outputs or all(blackboard.has(key) for key in node.outputs))
        ):
            return finish("solved")

        if not response.tool_calls:  # a tool round keeps the floor
            content_turns += 1
            if agent.topology == "multi_round_robin":
                role = agent.roles[content_turns % len(agent.roles)]
            elif agent.topology == "multi_hierarchical" and role is not leader:
                role = leader
            elif agent.topology == "multi_hierarchical":
                delegate = delegates.get(parse_next_directive(response.content))
                if delegate is not None:
                    role, strikes = delegate, 0
                else:
                    strikes += 1
                    if strikes >= 2:
                        return finish(
                            "failed",
                            "FAILED_DELEGATION: leader produced two consecutive messages without a valid NEXT directive",
                        )
                    names = ", ".join(delegates)
                    transcript.append(
                        _moderator(f"Your message must end with a line 'NEXT: <role>' naming one of: {names}.")
                    )

        if turns >= term.max_turns:
            return finish("budget_exhausted", f"turn budget {term.max_turns} exhausted")

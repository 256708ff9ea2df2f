"""Agent loop: topologies, termination, delegation, tools, plan blocks."""

import json
import re
import time

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

import marco.agents
from marco.agents import (
    TOPOLOGIES,
    AgentConfig,
    NodeOutcome,
    RoleSpec,
    Termination,
    _allowed_tools,
    converse,
    parse_next_directive,
    parse_plan_block,
    register_builtin_tools,
    render_task_message,
)
from marco.errors import EngineError
from marco.gateway import ChatMessage, MockBackend, ScriptMatcher, ToolCallRequest
from marco.graph import ExpansionRequest, TaskEdge, TaskGraph, TaskNode
from marco.knowledge import Blackboard, Document, KnowledgeBase, MemoryWindow
from marco.tools import Param, ToolRegistry, ToolResult, ToolSpec
from oracles import oracle_conversation, oracle_plan_body


def role(name: str, model_ref: str = "m", **kwargs) -> RoleSpec:
    return RoleSpec(name=name, system_prompt=f"speak as {name}", model_ref=model_ref, **kwargs)


def single_agent(**term) -> AgentConfig:
    return AgentConfig(
        name="solo", topology="single", roles=(role("solo_role"),), termination=Termination(**term)
    )


def task_node(node_id: str = "n1", agent_ref: str = "solo", **kwargs) -> TaskNode:
    return TaskNode(id=node_id, title="t", goal="g", agent_ref=agent_ref, **kwargs)


def graph_of(*nodes: TaskNode, edges=(), mode: str = "static") -> TaskGraph:
    return TaskGraph(nodes=tuple(nodes), edges=tuple(edges), mode=mode)


def assistant(content: str, tool_calls=()) -> ChatMessage:
    return ChatMessage(role="assistant", content=content, tool_calls=tool_calls)


def scripted(*responses) -> MockBackend:
    backend = MockBackend()
    messages = [r if isinstance(r, ChatMessage) else assistant(r) for r in responses]
    backend.register_script(ScriptMatcher(kind="always"), messages)
    return backend


class LoggedScript(MockBackend):
    """A scripted backend that logs ``(name, request)`` of every call to ``log``."""

    def __init__(self, name: str, log: list, *responses: ChatMessage) -> None:
        super().__init__()
        self.register_script(ScriptMatcher(kind="always"), list(responses))
        self.name, self.log = name, log

    def complete(self, req):
        self.log.append((self.name, req))
        return super().complete(req)


def run_node(node, graph, agent, backends, registry, blackboard, *context, **named) -> NodeOutcome:
    """The node's conversation, run to its end on ``backends``, none of which waits."""
    return marco.agents.run_node(converse(node, graph, agent, registry, blackboard, *context, **named), backends)


def builtin_registry() -> ToolRegistry:
    registry = ToolRegistry()
    register_builtin_tools(registry)
    return registry


class TestAgentConfig:
    def test_single_needs_one_role(self):
        with pytest.raises(ValueError):
            AgentConfig(name="a", topology="single", roles=(role("x"), role("y")))

    def test_multi_needs_two_roles(self):
        with pytest.raises(ValueError):
            AgentConfig(name="a", topology="multi_round_robin", roles=(role("x"),))

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            AgentConfig(name="a", topology="swarm", roles=(role("x"),))

    def test_duplicate_role_names(self):
        with pytest.raises(ValueError):
            AgentConfig(name="a", topology="multi_round_robin", roles=(role("x"), role("x")))

    def test_termination_bounds(self):
        with pytest.raises(ValueError):
            Termination(max_turns=0)

    def test_empty_role_name(self):
        with pytest.raises(ValueError):
            role("")


class TestNextDirective:
    def test_final_line_target(self):
        assert parse_next_directive("analysis first\nNEXT: tracer") == "tracer"

    def test_only_final_nonempty_line_counts(self):
        assert parse_next_directive("NEXT: tracer\nmore prose") is None
        assert parse_next_directive("NEXT: tracer\n\n  \n") == "tracer"

    def test_compact_form(self):
        assert parse_next_directive("NEXT:tracer") == "tracer"

    def test_multiword_target_rejected(self):
        assert parse_next_directive("NEXT: two words") is None

    def test_empty(self):
        assert parse_next_directive("") is None


def rr_agent(**term) -> AgentConfig:
    return AgentConfig(
        name="pair",
        topology="multi_round_robin",
        roles=(role("a", model_ref="ma"), role("b", model_ref="mb")),
        termination=Termination(**term),
    )


def hier_agent(**term) -> AgentConfig:
    return AgentConfig(
        name="crew",
        topology="multi_hierarchical",
        roles=(role("lead", model_ref="ml"), role("tracer", model_ref="mt")),
        termination=Termination(**term),
    )


def spoke(outcome: NodeOutcome) -> list[str]:
    return [e.speaker for e in outcome.transcript if e.message.role == "assistant"]


def write_call(key: str = "report", call_id: str = "c1") -> ToolCallRequest:
    return ToolCallRequest(id=call_id, tool_name="write_artifact", arguments={"key": key, "value": "v"})


class TestNextSpeaker:
    """Who speaks next, read off the speakers of scripted runs."""

    def test_single_always_same_role(self):
        node = task_node()
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="NEVER", max_turns=3),
            {"m": scripted("one", "two", "three")}, builtin_registry(), Blackboard(),
        )
        assert spoke(outcome) == ["solo_role"] * 3

    def test_round_robin_rotation(self):
        node = task_node(agent_ref="pair")
        outcome = run_node(
            node, graph_of(node), rr_agent(stop_phrase="NEVER", max_turns=5),
            {"ma": scripted("a1", "a2", "a3"), "mb": scripted("b1", "b2")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "budget_exhausted"
        assert spoke(outcome) == ["a", "b", "a", "b", "a"]

    def test_tool_round_keeps_floor(self):
        node = task_node(agent_ref="pair", outputs=("report",))
        outcome = run_node(
            node, graph_of(node), rr_agent(stop_phrase="DONE", max_turns=9),
            {"ma": scripted("first", "a closes DONE"), "mb": scripted(assistant("", tool_calls=(write_call(),)), "b")},
            builtin_registry(), Blackboard({"n1": ["report"]}),
        )
        assert outcome.status == "solved"
        assert [e.speaker for e in outcome.transcript] == ["task", "a", "b", "tool:write_artifact", "b", "a"]

    def test_hierarchical_alternation(self):
        node = task_node(agent_ref="crew")
        outcome = run_node(
            node, graph_of(node), hier_agent(stop_phrase="DONE", max_turns=9),
            {"ml": scripted("look\nNEXT: tracer", "again\nNEXT: tracer", "DONE"), "mt": scripted("t1", "t2")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "solved"
        assert [e.speaker for e in outcome.transcript] == ["task", "lead", "tracer", "lead", "tracer", "lead"]

    def test_hierarchical_invalid_target_keeps_leader(self):
        node = task_node(agent_ref="crew")
        for content in ("no directive", "NEXT: lead", "NEXT: ghost"):
            outcome = run_node(
                node, graph_of(node), hier_agent(stop_phrase="DONE", max_turns=9),
                {"ml": scripted(content, "fixed\nNEXT: tracer"), "mt": scripted("traced DONE")},
                builtin_registry(), Blackboard(),
            )
            assert outcome.status == "solved"
            assert [e.speaker for e in outcome.transcript] == ["task", "lead", "moderator", "lead", "tracer"]


class TestCheckTermination:
    """When a scripted run stops, and with which status."""

    def test_any_reply_solves_without_conditions(self):
        node = task_node(outputs=("report",))
        for reply in ("whatever", assistant("", tool_calls=(write_call("stray"),))):
            outcome = run_node(
                node, graph_of(node), single_agent(max_turns=5),
                {"m": scripted(reply)}, builtin_registry(), Blackboard({"n1": ["report"]}),
            )
            assert (outcome.status, outcome.turns_used) == ("solved", 1)

    def test_stop_phrase_required(self):
        node = task_node()
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="SOLVED", max_turns=7),
            {"m": scripted("still working", "all SOLVED now")}, builtin_registry(), Blackboard(),
        )
        assert (outcome.status, outcome.turns_used) == ("solved", 2)

    def test_stop_phrase_and_outputs_conjunction(self):
        """The reply just received must hold the phrase when the outputs are
        on the board: a phrase sent before the write does not count."""
        node = task_node(outputs=("report",))
        agent = single_agent(stop_phrase="SOLVED", require_outputs=True, max_turns=7)
        late = run_node(
            node, graph_of(node), agent,
            {"m": scripted("SOLVED", assistant("", tool_calls=(write_call(),)), "SOLVED")},
            builtin_registry(), Blackboard({"n1": ["report"]}),
        )
        assert (late.status, late.turns_used) == ("solved", 3)
        with_write = run_node(
            node, graph_of(node), agent,
            {"m": scripted("SOLVED", assistant("SOLVED", tool_calls=(write_call(),)))},
            builtin_registry(), Blackboard({"n1": ["report"]}),
        )
        assert (with_write.status, with_write.turns_used) == ("solved", 2)

    def test_budget_boundary(self):
        node = task_node()
        agent = single_agent(stop_phrase="NEVER", max_turns=7)
        with pytest.raises(EngineError) as exc:  # at max_turns - 1 the loop asks for one more reply
            run_node(node, graph_of(node), agent, {"m": scripted(*["working"] * 6)}, builtin_registry(), Blackboard())
        assert exc.value.code == "BACKEND_ERROR" and "turn 6" in str(exc.value)
        outcome = run_node(
            node, graph_of(node), agent, {"m": scripted(*["working"] * 8)}, builtin_registry(), Blackboard()
        )
        assert (outcome.status, outcome.turns_used) == ("budget_exhausted", 7)
        assert outcome.detail == "turn budget 7 exhausted"

    def test_solved_beats_budget_on_same_turn(self):
        node = task_node()
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="SOLVED", max_turns=3),
            {"m": scripted("one", "two", "SOLVED")}, builtin_registry(), Blackboard(),
        )
        assert (outcome.status, outcome.turns_used, outcome.detail) == ("solved", 3, "")

    def test_no_assistant_yet(self):
        """Nothing ends a node before its first reply."""
        node = task_node()
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="NEVER", max_turns=1),
            {"m": scripted("only")}, builtin_registry(), Blackboard(),
        )
        assert (outcome.status, outcome.turns_used) == ("budget_exhausted", 1)
        assert spoke(outcome) == ["solo_role"]


if st is not None:
    _REPLY = st.builds(
        lambda body, directive, keys: ("\n".join(part for part in (body, directive) if part), tuple(keys)),
        st.sampled_from(["", "working", "checking slack", "DONE"]),
        st.sampled_from([None, "NEXT: tracer", "NEXT:checker", "NEXT: lead", "NEXT: ghost", "NEXT: two words"]),
        st.just([]) | st.lists(st.sampled_from(["report", "notes", "stray"]), min_size=1, max_size=2),
    )

    @st.composite
    def _conversations(draw):
        topology = draw(st.sampled_from(TOPOLOGIES))
        roles = ("solo",) if topology == "single" else ("lead", "tracer", "checker")[: draw(st.integers(2, 3))]
        max_turns = draw(st.integers(1, 8))
        scripts = {name: draw(st.lists(_REPLY, min_size=max_turns, max_size=max_turns)) for name in roles}
        memory = {name: draw(st.none() | st.integers(1, 8)) for name in roles}
        stop_phrase, require_outputs = draw(st.sampled_from(["DONE", "DONE", None])), draw(st.booleans())
        return topology, roles, scripts, stop_phrase, require_outputs, max_turns, memory

    class TestConversationMatchesModel:
        """``run_node`` against the speaker, strike, termination and memory
        window rules applied to the whole transcript
        (``oracles.oracle_conversation``)."""

        @settings(max_examples=300, deadline=None)
        @given(conversation=_conversations())
        def test_outcome_matches_reference_model(self, conversation):
            topology, roles, scripts, stop_phrase, require_outputs, max_turns, memory = conversation
            outputs = ("report", "notes")
            agent = AgentConfig(
                name="crew",
                topology=topology,
                roles=tuple(
                    role(name, model_ref=f"m_{name}", memory=None if memory[name] is None else MemoryWindow(memory[name]))
                    for name in roles
                ),
                termination=Termination(max_turns=max_turns, stop_phrase=stop_phrase, require_outputs=require_outputs),
            )
            requests = []  # (role, request) of every call, in order
            backends = {
                f"m_{name}": LoggedScript(name, requests, *(
                    assistant(content, tool_calls=tuple(write_call(key, f"c{i}") for i, key in enumerate(keys)))
                    for content, keys in scripts[name]
                ))
                for name in roles
            }
            node = task_node(agent_ref="crew", outputs=outputs)
            outcome = run_node(node, graph_of(node), agent, backends, builtin_registry(), Blackboard({"n1": list(outputs)}))
            at = {id(entry.message): i for i, entry in enumerate(outcome.transcript)}
            sent = [(name, tuple(at[id(m)] for m in req.messages[1:])) for name, req in requests]
            got = (outcome.status, outcome.turns_used, outcome.detail, [e.speaker for e in outcome.transcript], sent)
            assert got == oracle_conversation(
                topology, roles, scripts, outputs, stop_phrase, require_outputs, max_turns, memory
            )


class TestTaskMessage:
    def test_exact_rendering(self):
        node = task_node(inputs=("brief",), outputs=("report",))
        board = Blackboard()
        board.seed("brief", "text")
        assert render_task_message(node, board) == (
            "Task node: n1\nGoal: g\nInputs:\n  brief = \"text\"\nOutputs expected: report"
        )

    def test_missing_input_raises(self):
        node = task_node(inputs=("absent",))
        with pytest.raises(EngineError) as exc:
            render_task_message(node, Blackboard())
        assert exc.value.code == "MISSING_INPUT"


class TestAllowedTools:
    def test_write_always_retrieve_gated(self):
        assert _allowed_tools(role("r")) == ["write_artifact"]
        scoped = role("r", knowledge_base_refs=("rtl",))
        assert _allowed_tools(scoped) == ["retrieve_knowledge", "write_artifact"]


class TestRunNodeSingle:
    def test_first_reply_solves(self):
        node = task_node()
        outcome = run_node(
            node, graph_of(node), single_agent(), {"m": scripted("done")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "solved"
        assert outcome.turns_used == 1
        assert len(outcome.transcript) == 2
        assert outcome.transcript[0].speaker == "task"
        assert outcome.transcript[1].speaker == "solo_role"

    def test_turns_share_the_system_message_and_the_tool_set(self):
        class Recording(MockBackend):
            def complete(self, req):
                seen.append(req)
                return super().complete(req)

        seen = []
        backend = Recording([(ScriptMatcher(kind="always"), [assistant("one"), assistant("two")])])
        node = task_node()
        registry = builtin_registry()
        run_node(node, graph_of(node), single_agent(stop_phrase="NEVER", max_turns=2), {"m": backend}, registry, Blackboard())
        first, second = seen
        assert first.messages[0] is second.messages[0]
        assert first.messages[0] == ChatMessage(role="system", content="speak as solo_role")
        assert first.tool_specs is second.tool_specs is registry.tool_specs(["write_artifact"])

    def test_budget_exhausts_after_exact_turns(self):
        node = task_node()
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="NEVER", max_turns=3),
            {"m": scripted("one", "two", "three")}, builtin_registry(), Blackboard(),
        )
        assert outcome.status == "budget_exhausted"
        assert outcome.turns_used == 3
        assert outcome.detail == "turn budget 3 exhausted"
        assistants = [e for e in outcome.transcript if e.message.role == "assistant"]
        assert len(assistants) == 3

    def test_tool_round_protocol(self):
        node = task_node(outputs=("report",))
        call = ToolCallRequest(id="c1", tool_name="write_artifact", arguments={"key": "report", "value": "hello"})
        board = Blackboard({"n1": ["report"]})
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="SOLVED", require_outputs=True),
            {"m": scripted(assistant("writing", tool_calls=(call,)), "SOLVED")},
            builtin_registry(), board,
        )
        assert outcome.status == "solved"
        assert outcome.turns_used == 2
        assert outcome.written_keys == ("report",)
        assert board.read("report") == "hello"
        roles_seen = [e.message.role for e in outcome.transcript]
        assert roles_seen == ["user", "assistant", "tool", "assistant"]
        tool_entry = outcome.transcript[2]
        assert tool_entry.speaker == "tool:write_artifact"
        assert tool_entry.message.tool_call_id == "c1"
        assert tool_entry.meta["ok"] is True

    def test_disallowed_tool_contained(self):
        registry = builtin_registry()
        registry.register_tool(
            ToolSpec(name="extra_tool", description="x"), lambda args, ctx: ToolResult(ok=True, content="hi")
        )
        node = task_node()
        call = ToolCallRequest(id="c1", tool_name="extra_tool", arguments={})
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="SOLVED"),
            {"m": scripted(assistant("trying", tool_calls=(call,)), "SOLVED")},
            registry, Blackboard(),
        )
        assert outcome.status == "solved"
        tool_entry = outcome.transcript[2]
        assert tool_entry.meta["ok"] is False
        assert tool_entry.message.content == "ERROR: tool 'extra_tool' is not available to role 'solo_role'"

    def test_written_keys_deduped(self):
        node = task_node(outputs=("report",))
        calls = (
            ToolCallRequest(id="c1", tool_name="write_artifact", arguments={"key": "report", "value": "v1"}),
            ToolCallRequest(id="c2", tool_name="write_artifact", arguments={"key": "report", "value": "v2"}),
        )
        board = Blackboard({"n1": ["report"]})
        outcome = run_node(
            node, graph_of(node), single_agent(stop_phrase="SOLVED"),
            {"m": scripted(assistant("twice", tool_calls=calls), "SOLVED")},
            builtin_registry(), board,
        )
        assert outcome.written_keys == ("report",)
        assert board.entry("report").version == 2
        assert board.read("report") == "v2"

    def test_retrieve_tool_scoped_to_role_kbs(self):
        kb = KnowledgeBase("rtl", [Document("slack_doc", "slack margin slack")])
        agent = AgentConfig(
            name="solo",
            topology="single",
            roles=(role("solo_role", knowledge_base_refs=("rtl",)),),
            termination=Termination(stop_phrase="SOLVED"),
        )
        node = task_node()
        good = ToolCallRequest(id="c1", tool_name="retrieve_knowledge", arguments={"kb": "rtl", "query": "slack", "k": 1})
        bad = ToolCallRequest(id="c2", tool_name="retrieve_knowledge", arguments={"kb": "other", "query": "slack"})
        outcome = run_node(
            node, graph_of(node), agent,
            {"m": scripted(assistant("searching", tool_calls=(good, bad)), "SOLVED")},
            builtin_registry(), Blackboard(),
            knowledge_bases={"rtl": kb, "other": KnowledgeBase("other")},
        )
        hits = outcome.transcript[2]
        assert hits.meta["ok"] is True
        assert hits.meta["data"][0]["id"] == "slack_doc"
        denied = outcome.transcript[3]
        assert denied.meta["ok"] is False
        assert denied.message.content == "ERROR: knowledge base 'other' is not accessible from this role"

    def test_retrieve_tool_rejects_k_below_one_and_reports_no_match(self):
        kb = KnowledgeBase("rtl", [Document("slack_doc", "slack margin slack")])
        agent = AgentConfig(
            name="solo",
            topology="single",
            roles=(role("solo_role", knowledge_base_refs=("rtl",)),),
            termination=Termination(stop_phrase="SOLVED"),
        )
        node = task_node()
        zero = ToolCallRequest(id="c1", tool_name="retrieve_knowledge", arguments={"kb": "rtl", "query": "slack", "k": 0})
        miss = ToolCallRequest(id="c2", tool_name="retrieve_knowledge", arguments={"kb": "rtl", "query": "hold"})
        outcome = run_node(
            node, graph_of(node), agent,
            {"m": scripted(assistant("searching", tool_calls=(zero, miss)), "SOLVED")},
            builtin_registry(), Blackboard(), knowledge_bases={"rtl": kb},
        )
        rejected, empty = outcome.transcript[2], outcome.transcript[3]
        assert rejected.meta["ok"] is False
        assert rejected.message.content == "ERROR: k must be >= 1"
        assert empty.meta["ok"] is True
        assert empty.message.content == "no matching documents"
        assert empty.meta["data"] == []

    def test_memory_window_trims_requests_and_evicts_whole_tool_rounds(self):
        class Recording(MockBackend):
            def __init__(self, *responses):
                super().__init__()
                self.register_script(ScriptMatcher(kind="always"), list(responses))
                self.requests = []

            def complete(self, req):
                self.requests.append(req)
                return super().complete(req)

        call = ToolCallRequest(id="c1", tool_name="write_artifact", arguments={"key": "report", "value": "v"})
        backend = Recording(assistant("writing", tool_calls=(call,)), assistant("working"), assistant("SOLVED"))
        agent = AgentConfig(
            name="solo",
            topology="single",
            roles=(role("solo_role", memory=MemoryWindow(3)),),
            termination=Termination(stop_phrase="SOLVED"),
        )
        node = task_node(outputs=("report",))
        outcome = run_node(node, graph_of(node), agent, {"m": backend}, builtin_registry(), Blackboard({"n1": ["report"]}))
        assert outcome.status == "solved" and outcome.turns_used == 3
        assert len(outcome.transcript) == 5  # the transcript itself keeps every entry
        sent = [[(m.role, m.content) for m in req.messages] for req in backend.requests]
        assert sent[0] == [("system", "speak as solo_role"), ("user", outcome.transcript[0].message.content)]
        # the task message is evicted; the tool round still fits whole
        assert sent[1] == [("system", "speak as solo_role"), ("assistant", "writing"), ("tool", "stored 'report' (version 1)")]
        # the window's first slot falls on the tool reply, whose call is gone, so the reply goes too
        assert sent[2] == [("system", "speak as solo_role"), ("assistant", "working")]

    def test_missing_input_aborts(self):
        node = task_node(inputs=("absent",))
        with pytest.raises(EngineError) as exc:
            run_node(node, graph_of(node), single_agent(), {"m": scripted("x")}, builtin_registry(), Blackboard())
        assert exc.value.code == "MISSING_INPUT"

    def test_backend_failure_carries_turn(self):
        node = task_node()
        with pytest.raises(EngineError) as exc:
            run_node(
                node, graph_of(node), single_agent(stop_phrase="NEVER", max_turns=3),
                {"m": scripted("only one")}, builtin_registry(), Blackboard(),
            )
        assert exc.value.code == "BACKEND_ERROR"
        assert "turn 1" in str(exc.value)

    def test_outcome_serialization_deterministic(self):
        def once() -> NodeOutcome:
            node = task_node(outputs=("report",))
            call = ToolCallRequest(id="c1", tool_name="write_artifact", arguments={"key": "report", "value": "v"})
            return run_node(
                node, graph_of(node), single_agent(stop_phrase="SOLVED"),
                {"m": scripted(assistant("w", tool_calls=(call,)), "SOLVED")},
                builtin_registry(), Blackboard({"n1": ["report"]}),
            )

        first, second = once().to_dict(), once().to_dict()
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestRunNodeRoundRobin:
    def test_alternating_speakers(self):
        node = task_node(agent_ref="pair")
        outcome = run_node(
            node, graph_of(node), rr_agent(stop_phrase="DONE", max_turns=9),
            {"ma": scripted("a1", "a2", "a3 DONE"), "mb": scripted("b1", "b2")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "solved"
        assert outcome.turns_used == 5
        speakers = [e.speaker for e in outcome.transcript if e.message.role == "assistant"]
        assert speakers == ["a", "b", "a", "b", "a"]

    def test_tool_round_does_not_advance_rotation(self):
        node = task_node(outputs=("note",))
        call = ToolCallRequest(id="c1", tool_name="write_artifact", arguments={"key": "note", "value": "x"})
        outcome = run_node(
            node, graph_of(node), rr_agent(stop_phrase="DONE", max_turns=9),
            {
                "ma": scripted(assistant("using tool", tool_calls=(call,)), "a content"),
                "mb": scripted("b closes DONE"),
            },
            builtin_registry(), Blackboard({"n1": ["note"]}),
        )
        # a's tool round keeps the floor; rotation advances only on content
        assert outcome.status == "solved"
        speakers = [e.speaker for e in outcome.transcript if e.message.role == "assistant"]
        assert speakers == ["a", "a", "b"]

    def test_rotation_closes_with_second_role(self):
        node = task_node()
        outcome = run_node(
            node, graph_of(node), rr_agent(stop_phrase="DONE", max_turns=9),
            {"ma": scripted("a1"), "mb": scripted("b1 DONE")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "solved"
        speakers = [e.speaker for e in outcome.transcript if e.message.role == "assistant"]
        assert speakers == ["a", "b"]


class TestRunNodeHierarchical:
    def test_delegation_cycle(self):
        node = task_node(agent_ref="crew")
        outcome = run_node(
            node, graph_of(node), hier_agent(stop_phrase="DONE", max_turns=9),
            {"ml": scripted("look at stage 2\nNEXT: tracer", "wrap up DONE"), "mt": scripted("traced it")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "solved"
        speakers = [e.speaker for e in outcome.transcript if e.message.role == "assistant"]
        assert speakers == ["lead", "tracer", "lead"]

    def test_two_strikes_fail_delegation(self):
        node = task_node(agent_ref="crew")
        outcome = run_node(
            node, graph_of(node), hier_agent(stop_phrase="NEVER", max_turns=9),
            {"ml": scripted("no directive one", "no directive two"), "mt": scripted("unused")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "failed"
        assert outcome.detail.startswith("FAILED_DELEGATION")
        assert outcome.turns_used == 2
        moderator = [e for e in outcome.transcript if e.speaker == "moderator"]
        assert len(moderator) == 1
        assert moderator[0].message.content == (
            "Your message must end with a line 'NEXT: <role>' naming one of: tracer."
        )

    def test_valid_directive_resets_strikes(self):
        node = task_node(agent_ref="crew")
        outcome = run_node(
            node, graph_of(node), hier_agent(stop_phrase="DONE", max_turns=9),
            {
                "ml": scripted("oops", "better\nNEXT: tracer", "close DONE"),
                "mt": scripted("work"),
            },
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "solved"
        assert outcome.turns_used == 4

    def test_bad_targets_count_as_strikes(self):
        node = task_node(agent_ref="crew")
        outcome = run_node(
            node, graph_of(node), hier_agent(stop_phrase="NEVER", max_turns=9),
            {"ml": scripted("pick me\nNEXT: lead", "try\nNEXT: ghost"), "mt": scripted("unused")},
            builtin_registry(), Blackboard(),
        )
        assert outcome.status == "failed"
        assert outcome.detail.startswith("FAILED_DELEGATION")


def planner_node(node_id: str = "P") -> TaskNode:
    return TaskNode(
        id=node_id, title="plan", goal="decompose", agent_ref="solo",
        outputs=("plan",), expansion="planner",
    )


def planner_graph() -> TaskGraph:
    return TaskGraph(nodes=(planner_node(),), edges=(), mode="dynamic")


class TestPlanParsing:
    def test_no_fence_is_silent(self):
        request, problem = parse_plan_block("no plan here", planner_node(), planner_graph())
        assert request is None and problem is None

    def test_two_step_plan(self):
        content = "```PLAN\nt1 | Trace | trace the path | out=trace_notes\nt2 | Check | check findings | in=trace_notes | after=t1\n```"
        request, problem = parse_plan_block(content, planner_node(), planner_graph())
        assert problem is None
        assert [n.id for n in request.new_nodes] == ["t1", "t2"]
        assert request.planner_id == "P"
        assert request.new_nodes[0].outputs == ("trace_notes",)
        assert request.new_nodes[1].inputs == ("trace_notes",)
        edges = {(e.src, e.dst, e.kind, e.key) for e in request.new_edges}
        assert edges == {
            ("P", "t1", "execution", None),
            ("t1", "t2", "execution", None),
            ("t1", "t2", "knowledge", "trace_notes"),
        }

    def test_agent_defaults_to_planner_agent(self):
        request, _ = parse_plan_block("```PLAN\nt1 | T | g\n```", planner_node(), planner_graph())
        assert request.new_nodes[0].agent_ref == "solo"

    def test_agent_checked_against_known_names(self):
        content = "```PLAN\nt1 | T | g | agent=ghost\n```"
        request, problem = parse_plan_block(content, planner_node(), planner_graph(), agent_names={"solo"})
        assert request is None
        assert problem == "plan names unknown agent 'ghost'"

    def test_planner_output_becomes_knowledge_edge(self):
        planner = TaskNode(
            id="P", title="plan", goal="g", agent_ref="solo",
            outputs=("plan", "brief"), expansion="planner",
        )
        graph = TaskGraph(nodes=(planner,), edges=(), mode="dynamic")
        request, _ = parse_plan_block("```PLAN\nt1 | T | g | in=brief\n```", planner, graph)
        edges = {(e.src, e.dst, e.kind, e.key) for e in request.new_edges}
        assert ("P", "t1", "knowledge", "brief") in edges

    def test_duplicate_fields_and_deps_deduped(self):
        content = "```PLAN\nt1 | T | g | out=k,k\nt2 | T | g | in=k,k | after=t1,t1\n```"
        request, problem = parse_plan_block(content, planner_node(), planner_graph())
        assert problem is None
        assert request.new_nodes[0].outputs == ("k",)
        assert request.new_nodes[1].inputs == ("k",)
        execution = [e for e in request.new_edges if e.kind == "execution" and e.src == "t1"]
        assert len(execution) == 1

    @pytest.mark.parametrize(
        "body,reason",
        [
            ("a | b", "plan line 'a | b' needs 'id | title | goal'"),
            (" | t | g", "plan line has an empty node id"),
            ("P | t | g", "plan node id 'P' already exists in the graph"),
            ("t1 | t | g\nt1 | t | g", "plan repeats node id 't1'"),
            ("t1 | t | g | color=red", "unknown plan field 'color=red'"),
            ("t1 | t | g | junk", "unknown plan field 'junk'"),
            ("t1 | t | g | in=a | in=b", "plan repeats field 'in'"),
            ("t1 | t | g | out=k | after=P | out = j", "plan repeats field 'out'"),
            ("t1 | t | g | after=zz", "plan node 't1' depends on unknown node 'zz'"),
            ("   \n", "plan block contains no node lines"),
        ],
    )
    def test_rejection_reasons(self, body, reason):
        request, problem = parse_plan_block(f"```PLAN\n{body}\n```", planner_node(), planner_graph())
        assert request is None
        assert problem == reason


    def test_long_chain_plan_parses_in_linear_time(self):
        lines = ["t0 | T | g"] + [f"t{i} | T | g | after=t{i - 1}" for i in range(1, 4000)]
        started = time.perf_counter()
        request, problem = parse_plan_block("```PLAN\n" + "\n".join(lines) + "\n```", planner_node(), planner_graph())
        assert time.perf_counter() - started < 0.4
        assert problem is None
        assert len(request.new_nodes) == 4000
        assert len(request.new_edges) == 4000


def scanning_parse_plan(content, planner, graph, agent_names=None):
    """The PLAN parser as it was before it kept the new ids in a dict: each
    repeat and dependency check scans the nodes parsed so far."""
    match = re.search(r"```PLAN\n(.*?)```", content, re.DOTALL)
    if match is None:
        return None, None
    existing = graph.node_map()
    new_nodes, after_map = [], {}
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
        if any(n.id == node_id for n in new_nodes):
            return None, f"plan repeats node id {node_id!r}"
        fields = {}
        for extra in parts[3:]:
            key, sep, value = extra.partition("=")
            key = key.strip()
            if not sep or key not in ("agent", "in", "out", "after"):
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
            if dep not in existing and all(n.id != dep for n in new_nodes):
                return None, f"plan node {node_id!r} depends on unknown node {dep!r}"
        new_nodes.append(TaskNode(id=node_id, title=title, goal=goal, agent_ref=agent_ref, inputs=inputs, outputs=outputs))
        after_map[node_id] = after
    if not new_nodes:
        return None, "plan block contains no node lines"
    new_ids = {n.id for n in new_nodes}
    node_outputs = {n.id: n.outputs for n in new_nodes}
    node_outputs.update({nid: existing[nid].outputs for nid in existing})
    edges, seen = [], set()

    def add(edge):
        key = (edge.src, edge.dst, edge.kind, edge.key)
        if key not in seen:
            seen.add(key)
            edges.append(edge)

    for node in new_nodes:
        after = after_map[node.id]
        if not any(dep in new_ids for dep in after):
            add(TaskEdge(src=planner.id, dst=node.id, kind="execution"))
        for dep in after:
            add(TaskEdge(src=dep, dst=node.id, kind="execution"))
        for key in node.inputs:
            if key in planner.outputs:
                add(TaskEdge(src=planner.id, dst=node.id, kind="knowledge", key=key))
            for dep in after:
                if key in node_outputs.get(dep, ()):
                    add(TaskEdge(src=dep, dst=node.id, kind="knowledge", key=key))
    return ExpansionRequest(planner_id=planner.id, new_nodes=tuple(new_nodes), new_edges=tuple(edges)), None


if st is not None:
    _PLAN_IDS = st.sampled_from(["t1", "t2", "t3", "t4", "P", "zz", ""])
    _PLAN_FIELD = st.one_of(
        st.builds(lambda ids: "after=" + ",".join(ids), st.lists(_PLAN_IDS, max_size=3)),
        st.builds(lambda keys: "in=" + ",".join(keys), st.lists(st.sampled_from(["plan", "k", "j"]), max_size=2)),
        st.builds(lambda keys: "out=" + ",".join(keys), st.lists(st.sampled_from(["k", "j"]), max_size=2)),
        st.sampled_from(["agent=solo", "agent=ghost", "color=red", "junk", " after = t1 "]),
    )
    _NODE_LINE = st.builds(
        lambda i, extra: " | ".join([i, "title", "goal", *extra]),
        st.sampled_from(["t1", "t2", "t3", "t4"]) | _PLAN_IDS,
        st.lists(_PLAN_FIELD, max_size=3),
    )
    _PLAN_LINE = _NODE_LINE | _NODE_LINE | st.sampled_from(["", "   ", "a | b", "t1|t|g|after=t2"]) | st.text(
        alphabet="t1|= ,", max_size=12
    )
    _PLAN_TEXT = st.builds(
        lambda lines, fenced: ("```PLAN\n" + "\n".join(lines) + "\n```") if fenced else "\n".join(lines),
        st.lists(_PLAN_LINE, max_size=6),
        st.sampled_from([True, True, True, False]),
    )

    class TestPlanParsingMatchesScan:
        @settings(max_examples=500, deadline=None)
        @given(text=_PLAN_TEXT, names=st.sampled_from([None, {"solo"}]))
        def test_same_request_and_first_reason(self, text, names):
            expected = scanning_parse_plan(text, planner_node(), planner_graph(), names)
            assert parse_plan_block(text, planner_node(), planner_graph(), names) == expected

        @settings(max_examples=300, deadline=None)
        @given(text=st.text(max_size=80), fenced=st.booleans())
        def test_any_text_gives_request_reason_or_nothing(self, text, fenced):
            content = f"```PLAN\n{text}```" if fenced else text
            request, problem = parse_plan_block(content, planner_node(), planner_graph())
            if request is not None:
                assert problem is None and isinstance(request, ExpansionRequest)
            else:
                assert problem is None or isinstance(problem, str)
            assert fenced or "```PLAN" in text or (request, problem) == (None, None)

    _FENCE_TEXT = st.lists(
        st.sampled_from(["```PLAN\n", "```", "``", "`", "PLAN", "\n", " ", "t1 | T | g\n", "t2 | U | h", "x"]),
        max_size=14,
    ).map("".join)

    class TestPlanFenceMatchesRegex:
        @settings(max_examples=500, deadline=None)
        @given(text=_FENCE_TEXT)
        def test_same_block_as_the_lazy_regex(self, text):
            body = oracle_plan_body(text)
            expected = (None, None)
            if body is not None:  # the same block, alone in a canonical fence
                expected = parse_plan_block(f"```PLAN\n{body}```", planner_node(), planner_graph())
            assert parse_plan_block(text, planner_node(), planner_graph()) == expected


class TestRunNodePlanner:
    def test_plan_recorded_as_expansion_and_artifact(self):
        node = planner_node()
        board = Blackboard({"P": ["plan"]})
        outcome = run_node(
            node, planner_graph(), single_agent(stop_phrase="DONE"),
            {"m": scripted("```PLAN\nt1 | T | goal t1\n```\nDONE")},
            builtin_registry(), board,
        )
        assert outcome.status == "solved"
        assert outcome.expansion is not None
        assert [n.id for n in outcome.expansion.new_nodes] == ["t1"]
        assert outcome.written_keys == ("plan",)
        assert board.read("plan") == outcome.expansion.to_dict()

    def test_bad_plan_gets_moderator_reprompt(self):
        node = planner_node()
        board = Blackboard({"P": ["plan"]})
        outcome = run_node(
            node, planner_graph(), single_agent(stop_phrase="DONE"),
            {"m": scripted("```PLAN\nbad line\n```", "```PLAN\nt1 | T | g\n```\nDONE")},
            builtin_registry(), board,
        )
        assert outcome.status == "solved"
        assert outcome.turns_used == 2
        moderator = [e for e in outcome.transcript if e.speaker == "moderator"]
        assert len(moderator) == 1
        assert moderator[0].message.content == (
            "PLAN rejected: plan line 'bad line' needs 'id | title | goal'. Re-emit a corrected PLAN block."
        )
        assert outcome.expansion is not None

    def test_bad_plan_beside_the_stop_phrase_is_answered_before_the_node_ends(self):
        node = planner_node()
        board = Blackboard({"P": ["plan"]})
        outcome = run_node(
            node, planner_graph(), single_agent(stop_phrase="DONE"),
            {"m": scripted(
                "```PLAN\nbad line\n```\nDONE",
                "```PLAN\nt1 | T | g | in=ghost\n```\nDONE",
                "```PLAN\nt1 | T | g\n```\nDONE",
            )},
            builtin_registry(), board,
        )
        assert outcome.status == "solved"
        assert outcome.turns_used == 3
        assert [e.message.content for e in outcome.transcript if e.speaker == "moderator"] == [
            "PLAN rejected: plan line 'bad line' needs 'id | title | goal'. Re-emit a corrected PLAN block.",
            "PLAN rejected: UNPRODUCED_INPUT: node t1: input ghost is neither seeded nor an output of an"
            " execution ancestor. Re-emit a corrected PLAN block.",
        ]
        assert [n.id for n in outcome.grown.nodes] == ["P", "t1"]
        assert outcome.grown.edges == (TaskEdge("P", "t1"),)

    @pytest.mark.parametrize(
        "replies, status, planned",
        [
            (["```PLAN\nt1 | T | g\n```\nDONE"], "solved", ["t1"]),
            (["```PLAN\nbad line\n```", "```PLAN\nt1 | T | g\n```\nDONE"], "solved", ["t1"]),
            (["```PLAN\nt1 | T | g\n```", "```PLAN\nt2 | T | g | in=ghost\n```\nDONE", "DONE"], "solved", ["t1"]),
            (["```PLAN\nt1 | T | g\n```", "still planning", "still planning"], "budget_exhausted", ["t1"]),
            (["no plan", "no plan", "no plan"], "budget_exhausted", None),
        ],
        ids=["accepted", "rejected-then-accepted", "accepted-then-rejected", "accepted-then-budget", "no-plan"],
    )
    def test_grown_is_the_graph_the_expansion_grows(self, replies, status, planned):
        # the engine commits ``grown`` as it is, so it must be this turn's check of ``expansion``
        graph = planner_graph()
        outcome = run_node(
            planner_node(), graph, single_agent(stop_phrase="DONE", max_turns=3),
            {"m": scripted(*replies)}, builtin_registry(), Blackboard({"P": ["plan"]}),
        )
        assert outcome.status == status
        assert (outcome.expansion is None) == (outcome.grown is None)
        if planned is not None:
            assert [n.id for n in outcome.expansion.new_nodes] == planned
            assert outcome.grown.nodes == graph.nodes + outcome.expansion.new_nodes
            assert outcome.grown.edges == graph.edges + outcome.expansion.new_edges
        else:
            assert outcome.expansion is None

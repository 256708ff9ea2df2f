"""Every record is an immutable value: built by keyword, equal and hashed by
value, closed to assignment, normalized and checked as it is built, and
changed only by ``_replace``, which checks again. Records that normalize or
check are ``marco.record.Record``s; the rest are ``typing.NamedTuple``s."""

import inspect
from pathlib import Path
from types import MappingProxyType

import pytest

import marco
import marco.agents
import marco.config
import marco.eda.anomalies
import marco.eda.fixtures
import marco.eda.report
import marco.gateway
import marco.graph
import marco.knowledge
import marco.tools
from marco.agents import AgentConfig, NodeOutcome, RoleSpec, Termination, TranscriptEntry
from marco.config import BackendDef, RunConfig, load_config
from marco.eda.anomalies import Anomaly
from marco.eda.fixtures import FixtureSet, ManifestEntry, ScoreResult, TaskScore
from marco.eda.report import Aggressor, Stage, TimingPath, TimingReport
from marco.engine import run, run_baseline
from marco.gateway import ChatMessage, CompletionRequest, ScriptMatcher, ToolCallRequest, ToolSpecs
from marco.graph import ExpansionRequest, TaskEdge, TaskGraph, TaskNode, ValidationReport, Violation
from marco.knowledge import Artifact, Document, MemoryWindow
from marco.record import Record
from marco.tools import ArgViolation, Param, ToolRegistry, ToolResult, ToolSpec

MODULES = (marco.agents, marco.config, marco.eda.anomalies, marco.eda.fixtures, marco.eda.report,
           marco.gateway, marco.graph, marco.knowledge, marco.tools)
BUNDLED = Path(marco.__file__).resolve().parent / "data" / "configs"

NODE = TaskNode(id="a", title="t", goal="g", agent_ref="x")
EDGE = TaskEdge(src="a", dst="b")
SYSTEM = ChatMessage(role="system", content="s")
ROLE = RoleSpec(name="r", model_ref="m")
AGGRESSOR = Aggressor(net="n_far", coupling_cap=1.5)
STAGE = Stage(index=0, net="n", cell="c", resistance=1.0, capacitance=2.0, delay=0.1, constraint=0.2, xtalk_delta=0.0)
PATH = TimingPath(path_id="p0", startpoint="s", endpoint="e", clock_net="clk", clock_edges=frozenset({"rise"}),
                  slack=0.1, stages=(STAGE,))
REPORT = TimingReport(corner="c", mode="m", check="max", paths=(PATH,))

# One valid instance of each record, by keyword; a list where __post_init__ makes a tuple.
EXAMPLES = {
    TaskNode: dict(id="a", title="t", goal="g", agent_ref="x", inputs=["i"], outputs=["o"], expansion="planner"),
    TaskEdge: dict(src="a", dst="b", kind="knowledge", key="k"),
    TaskGraph: dict(nodes=[NODE], edges=[EDGE], mode="dynamic"),
    ExpansionRequest: dict(planner_id="p", new_nodes=[NODE], new_edges=[EDGE]),
    Violation: dict(code="CYCLE", subject="a", detail="d"),
    ValidationReport: dict(ok=False, violations=(Violation("CYCLE", "a", "d"),)),
    ToolCallRequest: dict(id="c1", tool_name="t", arguments=MappingProxyType({"k": 1})),
    ChatMessage: dict(role="assistant", content="x", tool_calls=[]),
    CompletionRequest: dict(model_ref="m", messages=[SYSTEM], tool_specs=[], temperature=0.5),
    ScriptMatcher: dict(kind="turn_index", value=1),
    RoleSpec: dict(name="r", model_ref="m", system_prompt="s", tool_names=["t"], knowledge_base_refs=["kb"],
                   memory=MemoryWindow(max_messages=4)),
    Termination: dict(max_turns=3, stop_phrase="DONE", require_outputs=True),
    AgentConfig: dict(name="a", topology="single", roles=[ROLE], termination=Termination(max_turns=2)),
    TranscriptEntry: dict(speaker="r", message=SYSTEM, meta=MappingProxyType({"ok": True})),
    NodeOutcome: dict(node_id="a", status="solved", turns_used=1, transcript=[], written_keys=["k"]),
    Param: dict(name="p", kind="string", required=False, doc="d"),
    ToolSpec: dict(name="t", description="d", params=[Param("p", "string")]),
    ToolResult: dict(ok=False, content="ERROR: x", data=None),
    ArgViolation: dict(code="WRONG_KIND", param="p", detail="d"),
    Artifact: dict(value="v", producer="n", version=1),
    Document: dict(id="d", text="t", tags=["x"]),
    MemoryWindow: dict(max_messages=4),
    BackendDef: dict(name="mock", kind="mock"),
    RunConfig: dict(path=Path("run.json"), base_dir=Path("."), raw={}, graph=TaskGraph(), agents={}, backends={},
                    knowledge_bases={}, tools=ToolRegistry(), seeds={}, max_node_executions=1),
    Aggressor: dict(net="n", coupling_cap=1.0),
    Stage: dict(index=0, net="n", cell="c", resistance=1.0, capacitance=2.0, delay=0.1, constraint=0.2,
                xtalk_delta=0.0, aggressors=[AGGRESSOR]),
    TimingPath: dict(path_id="p0", startpoint="s", endpoint="e", clock_net="clk", clock_edges=["rise", "fall"],
                     slack=0.1, stages=[STAGE]),
    TimingReport: dict(corner="c", mode="m", check="max", paths=[PATH]),
    Anomaly: dict(kind="rc_mismatch", path_id="p0", stage_pair=[1, 2], subjects=["n1"], measure=5.0, explanation="x"),
    ManifestEntry: dict(task_id="M1", path_id="p0", stage_key="-", kind="missing_clock_edge"),
    FixtureSet: dict(seed=1, reports=(REPORT,), companion=REPORT, manifest=(), required_times={}),
    TaskScore: dict(task_id="M1", passed=True, recovered=frozenset({"a"}), planted=frozenset({"a"})),
    ScoreResult: dict(tasks=(TaskScore("M1", True, frozenset(), frozenset()),)),
}
# A field that holds a dict makes a record unhashable, as it made the frozen dataclasses.
UNHASHABLE = {ToolCallRequest, TranscriptEntry, RunConfig, FixtureSet}
# The type __post_init__ stores each of these fields as, whatever it was given.
NORMALIZED = {
    TaskNode: {"inputs": tuple, "outputs": tuple},
    TaskGraph: {"nodes": tuple, "edges": tuple},
    ExpansionRequest: {"new_nodes": tuple, "new_edges": tuple},
    ToolCallRequest: {"arguments": dict},
    ChatMessage: {"tool_calls": tuple},
    CompletionRequest: {"messages": tuple, "tool_specs": ToolSpecs},
    RoleSpec: {"tool_names": tuple, "knowledge_base_refs": tuple},
    AgentConfig: {"roles": tuple},
    TranscriptEntry: {"meta": dict},
    NodeOutcome: {"transcript": tuple, "written_keys": tuple},
    ToolSpec: {"params": tuple},
    Document: {"tags": tuple},
    Stage: {"aggressors": tuple},
    TimingPath: {"clock_edges": frozenset, "stages": tuple},
    TimingReport: {"paths": tuple},
    Anomaly: {"subjects": tuple, "stage_pair": tuple},
}
CALL = ToolCallRequest(id="c1", tool_name="t")
# (record, fields that differ from its example, the ValueError's message)
REFUSED = [
    (Termination, {"max_turns": 0}, "max_turns must be >= 1"),
    (MemoryWindow, {"max_messages": 0}, "max_messages must be >= 1"),
    (RoleSpec, {"name": ""}, "role name must be non-empty"),
    (AgentConfig, {"topology": "star"}, "unknown topology 'star'"),
    (AgentConfig, {"roles": [ROLE, RoleSpec(name="s", model_ref="m")]}, "single topology takes exactly one role"),
    (AgentConfig, {"topology": "multi_round_robin"}, "multi_round_robin needs at least two roles"),
    (AgentConfig, {"topology": "multi_hierarchical", "roles": [ROLE, ROLE]}, "role names must be unique within an agent"),
    (NodeOutcome, {"status": "done"}, "unknown node status 'done'"),
    (Param, {"kind": "float"}, "unknown param kind 'float'"),
    (ToolSpec, {"name": "Bad-Name"}, "tool name 'Bad-Name' must match [a-z0-9_]+"),
    (ToolSpec, {"params": [Param("p", "string"), Param("p", "integer")]}, "param names must be unique"),
    (ToolResult, {"content": "x"}, "failed results must render as 'ERROR: ...'"),
    (ToolCallRequest, {"id": 1}, "a tool call needs a string id and tool_name and an object of arguments"),
    (ChatMessage, {"role": "robot"}, "unknown message role 'robot'"),
    (ChatMessage, {"content": None}, "message content and tool_call_id must be strings"),
    (ChatMessage, {"role": "user", "tool_calls": [CALL]}, "tool_calls allowed on assistant messages only"),
    (ChatMessage, {"tool_call_id": "c1"}, "tool_call_id must be present exactly on tool messages"),
    (ChatMessage, {"tool_calls": [CALL, CALL]}, "tool call ids must be unique within a message"),
    (CompletionRequest, {"messages": []}, "messages must be non-empty"),
    (CompletionRequest, {"messages": [ChatMessage(role="user")]}, "first message must have role=system"),
    (ScriptMatcher, {"kind": "regex"}, "unknown matcher kind 'regex'"),
    (ScriptMatcher, {"value": True}, "turn_index matcher needs an integer value, got True"),
    (ScriptMatcher, {"value": -1}, "turn_index matcher needs a value of at least 0, got -1"),
    (Anomaly, {"kind": "glitch"}, "unknown anomaly kind 'glitch'"),
    (Anomaly, {"measure": float("nan")}, "anomaly measure must be finite"),
    (Anomaly, {"explanation": ""}, "anomaly explanation must be non-empty"),
]


def build(cls, **changes):
    return cls(**{**EXAMPLES[cls], **changes})


def test_every_record_class_has_an_example():
    found = {
        cls
        for module in MODULES
        for name, cls in vars(module).items()
        if inspect.isclass(cls) and cls.__module__ == module.__name__ and not name.startswith("_")
        and (issubclass(cls, Record) or (issubclass(cls, tuple) and hasattr(cls, "_fields")))
    }
    assert found == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
class TestEveryRecord:
    def test_assigning_or_deleting_a_field_raises_attribute_error(self, cls):
        record = build(cls)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_equal_values_compare_and_hash_equal(self, cls):
        first, second = build(cls), build(cls)
        assert first == second and not first != second
        assert first._replace() == first
        if cls in UNHASHABLE:
            pytest.raises(TypeError, hash, first)
        else:
            assert hash(first) == hash(second)

    def test_repr_names_every_field_in_order(self, cls):
        record = build(cls)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
        assert repr(record) == f"{cls.__qualname__}({shown})"

    def test_keyword_construction_keeps_each_value(self, cls):
        record = build(cls)
        for name, given in EXAMPLES[cls].items():
            kind = NORMALIZED.get(cls, {}).get(name)
            assert getattr(record, name) == (given if kind is None else kind(given))


@pytest.mark.parametrize("cls, name, kind", [(cls, name, kind) for cls, fields in NORMALIZED.items()
                                             for name, kind in fields.items()],
                         ids=lambda value: getattr(value, "__name__", value))
def test_post_init_stores_the_normalized_type(cls, name, kind):
    given = EXAMPLES[cls][name]
    assert type(given) is not kind
    assert type(getattr(build(cls), name)) is kind


@pytest.mark.parametrize("cls, changes, message", REFUSED, ids=lambda value: getattr(value, "__name__", None))
def test_out_of_range_values_raise_the_same_value_error(cls, changes, message):
    with pytest.raises(ValueError) as built:
        build(cls, **changes)
    assert str(built.value) == message
    with pytest.raises(ValueError) as replaced:
        build(cls)._replace(**changes)
    assert str(replaced.value) == message


@pytest.mark.parametrize("args, kwargs", [((), {}), (("a",), {"id": "a"}), (("a",) * 8, {}), ((), {"idd": "a"})],
                         ids=["missing", "twice", "too-many", "unknown"])
def test_a_record_takes_each_field_once_and_no_other(args, kwargs):
    with pytest.raises(TypeError):
        TaskNode(*args, **kwargs)


def test_positional_values_bind_in_field_order_beside_keywords():
    assert TaskNode("a", "t", "g", "x", expansion="planner") == build(TaskNode, inputs=(), outputs=())


def test_records_of_two_classes_leave_equality_to_python():
    assert NODE.__eq__(EDGE) is NotImplemented
    assert NODE != EDGE and not NODE == EDGE


@pytest.mark.parametrize("name", ["timing_debug", "mcmm", "baseline"])
def test_no_record_reaches_the_trace_renderer(name):
    """``engine._render_json`` and ``gateway.canonical_json`` write any tuple
    as a JSON array, a ``NamedTuple`` record included, so a bundled run's
    trace must hold only JSON's own types."""
    config = load_config(BUNDLED / f"{'timing_debug' if name == 'baseline' else name}.json")
    trace = (run_baseline if name == "baseline" else run)(config, deterministic=True)
    pending = [trace.to_dict()]
    while pending:
        value = pending.pop()
        assert type(value) in (dict, list, str, int, float, bool, type(None)), type(value)
        pending.extend(value.values() if type(value) is dict else value if type(value) is list else ())

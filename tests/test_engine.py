"""Run engine: trace documents, backend assembly, scheduling, baseline."""

import collections
import dataclasses
import enum
import hashlib
import http.server
import json
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

import marco
import marco.eda.toolpack
import marco.engine
import marco.graph
import marco.knowledge
from marco.config import load_config
from marco.eda.report import parse_timing_report
from marco.engine import (
    TraceDocument,
    _render_json,
    build_backends,
    collapse_graph,
    run,
    run_baseline,
)
from marco.errors import EngineError, GraphError
from marco.gateway import Backend, ChatMessage, CompletionRequest, HttpBackend, MockBackend, ReplayBackend, ToolCallRequest

BUNDLED = Path(marco.__file__).resolve().parent / "data" / "configs"
EXPECTED_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "expected_digests.json"

ALWAYS_TWO = [
    {
        "matcher": {"kind": "always"},
        "responses": [{"content": "first node finished TASK COMPLETE"}, {"content": "second node finished TASK COMPLETE"}],
    }
]

# n2's task message mentions n2_out; every n1-side message mentions only n1_out.
WRITER_SCRIPTS = [
    {
        "matcher": {"kind": "substring", "value": "n2_out"},
        "responses": [
            {
                "content": "writing the second artifact",
                "tool_calls": [
                    {"id": "c2", "tool_name": "write_artifact", "arguments": {"key": "n2_out", "value": "beta"}}
                ],
            },
            {"content": "second done TASK COMPLETE"},
        ],
    },
    {
        "matcher": {"kind": "substring", "value": "n1_out"},
        "responses": [
            {
                "content": "writing the first artifact",
                "tool_calls": [
                    {"id": "c1", "tool_name": "write_artifact", "arguments": {"key": "n1_out", "value": "alpha"}}
                ],
            },
            {"content": "first done TASK COMPLETE"},
        ],
    },
]


def chain_payload(with_writes: bool = False) -> dict:
    nodes = [
        {"id": "n1", "title": "first", "goal": "produce the first artifact", "agent_ref": "solo", "outputs": ["n1_out"]},
        {"id": "n2", "title": "second", "goal": "produce the second artifact", "agent_ref": "solo", "outputs": ["n2_out"]},
    ]
    edges = [{"src": "n1", "dst": "n2", "kind": "execution"}]
    if with_writes:
        nodes[1]["inputs"] = ["n1_out"]
        edges.append({"src": "n1", "dst": "n2", "kind": "knowledge", "key": "n1_out"})
    return {
        "graph": {"mode": "static", "nodes": nodes, "edges": edges},
        "agents": {
            "solo": {
                "topology": "single",
                "roles": [{"name": "worker", "model_ref": "mock", "tool_names": ["write_artifact"]}],
                "termination": {"max_turns": 4, "stop_phrase": "TASK COMPLETE"},
            }
        },
        "backends": {"mock": {"kind": "mock", "script": "scripts.json"}},
        "limits": {"max_node_executions": 4},
    }


def load_payload(tmp_path: Path, payload: dict, scripts: list) -> "marco.config.RunConfig":
    (tmp_path / "scripts.json").write_text(json.dumps(scripts), encoding="utf-8")
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    return load_config(config_path)


def planner_payload() -> dict:
    payload = {
        "graph": {
            "mode": "dynamic",
            "nodes": [
                {
                    "id": "P",
                    "title": "plan",
                    "goal": "split the work",
                    "agent_ref": "solo",
                    "outputs": ["the_plan"],
                    "expansion": "planner",
                }
            ],
            "edges": [],
        },
        "agents": {
            "solo": {
                "topology": "single",
                "roles": [{"name": "worker", "model_ref": "mock"}],
                "termination": {"max_turns": 4, "stop_phrase": "TASK COMPLETE"},
            }
        },
        "backends": {"mock": {"kind": "mock", "script": "scripts.json"}},
        "limits": {"max_node_executions": 4},
    }
    return payload


PLANNER_SCRIPTS = [
    {
        "matcher": {"kind": "always"},
        "responses": [
            {"content": "```PLAN\nt1 | follow-up | do the traced work\n```\nTASK COMPLETE"},
            {"content": "follow-up handled TASK COMPLETE"},
        ],
    }
]


def outcome_ids(trace: TraceDocument) -> list[str]:
    return [outcome["node_id"] for outcome in trace.outcomes]


class TestTraceDocument:
    def make_trace(self, **overrides) -> TraceDocument:
        graph = {
            "mode": "static",
            "nodes": [
                {"id": "a", "title": "t", "goal": "g", "agent_ref": "x"},
                {"id": "b", "title": "t", "goal": "g", "agent_ref": "x"},
            ],
            "edges": [{"src": "a", "dst": "b", "kind": "execution"}],
        }
        fields = {
            "config_digest": "d" * 64,
            "graph_initial": graph,
            "graph_final": graph,
            "outcomes": [
                {"node_id": "a", "status": "solved", "turns_used": 1},
                {"node_id": "b", "status": "solved", "turns_used": 1},
            ],
        }
        fields.update(overrides)
        return TraceDocument(**fields)

    def test_valid_trace_passes(self):
        self.make_trace().validate()

    def test_unknown_status_rejected(self):
        with pytest.raises(EngineError) as exc:
            self.make_trace(status="running").validate()
        assert exc.value.code == "TRACE_ORDER"

    def test_outcome_for_unknown_node(self):
        trace = self.make_trace(outcomes=[{"node_id": "ghost", "status": "solved", "turns_used": 1}])
        with pytest.raises(EngineError) as exc:
            trace.validate()
        assert exc.value.code == "TRACE_ORDER"

    def test_duplicate_outcome_rejected(self):
        trace = self.make_trace(
            outcomes=[
                {"node_id": "a", "status": "solved", "turns_used": 1},
                {"node_id": "a", "status": "solved", "turns_used": 1},
            ]
        )
        with pytest.raises(EngineError) as exc:
            trace.validate()
        assert exc.value.code == "TRACE_ORDER"

    def test_order_against_execution_edge_rejected(self):
        trace = self.make_trace(
            outcomes=[
                {"node_id": "b", "status": "solved", "turns_used": 1},
                {"node_id": "a", "status": "solved", "turns_used": 1},
            ]
        )
        with pytest.raises(EngineError) as exc:
            trace.validate()
        assert "a -> b" in str(exc.value)

    def test_partial_outcomes_allowed(self):
        self.make_trace(outcomes=[{"node_id": "a", "status": "solved", "turns_used": 1}]).validate()

    def test_render_is_sorted_and_newline_terminated(self):
        text = self.make_trace().render()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert self.make_trace().render() == text

    def test_round_trip(self):
        trace = self.make_trace()
        again = TraceDocument.from_dict(json.loads(trace.render()))
        assert again.to_dict() == trace.to_dict()

    def test_write_reads_back(self, tmp_path):
        trace = self.make_trace()
        target = tmp_path / "trace.json"
        with target.open("w", encoding="utf-8") as out:
            trace.write(out)
        assert target.read_text(encoding="utf-8") == trace.render()


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


class _Text(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


class TestRenderJson:
    """``_render_json`` writes exactly what ``json.dumps(indent=2, sort_keys=True)`` does."""

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": [], "b": {}, "c": [[], {}, ()]},
            [1, -0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf"), True, False, None],
            {1: "int", 2.5: "float", False: "bool", float("nan"): "nan", -1e16: "big"},
            {None: "null key"},
            {"é": "naïve ☃ \U0001f600", "ctl": "\x00\t\n\"\\"},
            (1, ("a", ()), {"t": (2,)}),
            collections.OrderedDict([("b", 1), ("a", 2)]),
            {_Text("k"): _Text("v"), "n": _Level.LOW, "f": [_Level.LOW]},
        ],
    )
    def test_matches_json_dumps(self, value):
        assert _render_json(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            {1: "a", "b": 2},
            {(1, 2): "tuple key"},
            {object(): 1},
            [1, object()],
            {"a": {"b": object()}},
            {"a": {1, 2}},
            b"bytes",
        ],
    )
    def test_same_error_as_json_dumps(self, value):
        with pytest.raises(TypeError) as expected:
            dumps(value)
        with pytest.raises(TypeError) as got:
            _render_json(value)
        assert str(got.value) == str(expected.value)

    def test_self_containing_containers_rejected(self):
        loop: list = [1]
        loop.append(loop)
        nest: dict = {"a": {}}
        nest["a"]["back"] = nest
        for value in (loop, nest, {"x": [loop]}):
            with pytest.raises(ValueError, match="Circular reference detected"):
                _render_json(value)

    def test_shared_container_rendered_each_time(self):
        shared = [1, {"k": "v"}]
        value = {"a": shared, "b": [shared, shared]}
        assert _render_json(value) == dumps(value)
        assert _render_json(value).count('"k": "v"') == 3


if st is not None:
    _FLOATS = st.floats() | st.sampled_from([-0.0, 1e16, float("nan"), float("inf"), float("-inf")])
    _LEAVES = st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
    _KEYS = st.text() | st.integers() | _FLOATS | st.booleans()

    def _json_values(leaves, keys):
        return st.recursive(
            leaves,
            lambda kids: st.lists(kids, max_size=4)
            | st.lists(kids, max_size=3).map(tuple)
            | st.dictionaries(keys, kids, max_size=4),
            max_leaves=25,
        )

    class TestRenderJsonMatchesDumps:
        @settings(max_examples=400, deadline=None)
        @given(value=_json_values(_LEAVES, st.text()) | _json_values(_LEAVES, _KEYS))
        def test_same_text_or_same_error(self, value):
            try:
                expected = dumps(value)
            except TypeError:  # a str key beside a number key cannot be sorted
                with pytest.raises(TypeError):
                    _render_json(value)
            else:
                assert _render_json(value) == expected

        @settings(max_examples=300, deadline=None)
        @given(value=_json_values(_LEAVES | st.builds(object), _KEYS | st.tuples(st.integers())))
        def test_unserializable_values_raise_the_same_error(self, value):
            try:
                expected = dumps(value)
            except TypeError as exc:
                with pytest.raises(TypeError) as got:
                    _render_json(value)
                assert str(got.value) == str(exc)
            else:
                assert _render_json(value) == expected


class TestBuildBackends:
    def test_mock_built_from_script(self, tmp_path):
        config = load_payload(tmp_path, chain_payload(), ALWAYS_TWO)
        built = build_backends(config)
        assert isinstance(built["mock"], MockBackend)

    def test_override_maps_every_name(self, tmp_path):
        payload = chain_payload()
        payload["backends"]["other"] = {"kind": "mock", "script": "scripts.json"}
        config = load_payload(tmp_path, payload, ALWAYS_TWO)
        built = build_backends(config, override="other")
        assert built["mock"] is built["other"]

    def test_unknown_override_rejected(self, tmp_path):
        config = load_payload(tmp_path, chain_payload(), ALWAYS_TWO)
        with pytest.raises(EngineError) as exc:
            build_backends(config, override="ghost")
        assert exc.value.code == "UNKNOWN_BACKEND"

    def test_replay_wraps_named_inner(self, tmp_path):
        payload = chain_payload()
        payload["backends"]["rec"] = {"kind": "replay", "cache_dir": "cache", "inner": "mock", "record": True}
        config = load_payload(tmp_path, payload, ALWAYS_TWO)
        built = build_backends(config)
        assert isinstance(built["rec"], ReplayBackend)
        assert built["rec"].inner is built["mock"]
        assert built["rec"].record is True

    def test_replay_chain_built_innermost_first(self, tmp_path):
        payload = chain_payload()
        payload["backends"]["outer"] = {"kind": "replay", "cache_dir": "c1", "inner": "middle"}
        payload["backends"]["middle"] = {"kind": "replay", "cache_dir": "c2", "inner": "mock"}
        config = load_payload(tmp_path, payload, ALWAYS_TWO)
        built = build_backends(config)
        assert built["outer"].inner is built["middle"]
        assert built["middle"].inner is built["mock"]


class TestBuildRegistry:
    def test_builtins_plus_bindings(self, tmp_path):
        payload = chain_payload()
        payload["tool_bindings"] = {"rc_probe": "eda.find_rc_mismatch_pairs"}
        config = load_payload(tmp_path, payload, ALWAYS_TWO)
        registry = config.tools
        names = {spec.name for spec in registry.list_tools()}
        assert {"write_artifact", "retrieve_knowledge", "rc_probe"} <= names
        assert registry.lookup("rc_probe").name == "rc_probe"


class TestRunStaticChain:
    def test_two_node_chain_two_outcomes(self, tmp_path):
        config = load_payload(tmp_path, chain_payload(), ALWAYS_TWO)
        trace = run(config, deterministic=True)
        assert outcome_ids(trace) == ["n1", "n2"]
        assert [o["status"] for o in trace.outcomes] == ["solved", "solved"]
        assert trace.status == "completed"
        assert trace.meta == {"deterministic": True}
        assert trace.config_digest == config.digest()
        assert trace.graph_final == trace.graph_initial

    def test_deterministic_run_zeroes_timings(self, tmp_path):
        config = load_payload(tmp_path, chain_payload(), ALWAYS_TWO)
        trace = run(config, deterministic=True)
        assert trace.timings == {"n1": 0.0, "n2": 0.0}

    def test_renders_identical_across_runs(self, tmp_path):
        config = load_payload(tmp_path, chain_payload(), ALWAYS_TWO)
        assert run(config, deterministic=True).render() == run(config, deterministic=True).render()

    def test_writes_land_on_blackboard(self, tmp_path):
        config = load_payload(tmp_path, chain_payload(with_writes=True), WRITER_SCRIPTS)
        trace = run(config, deterministic=True)
        assert trace.blackboard["n1_out"] == {"value": "alpha", "producer": "n1", "version": 1}
        assert trace.blackboard["n2_out"]["value"] == "beta"
        assert trace.outcomes[0]["written_keys"] == ["n1_out"]

    def test_budget_boundary(self, tmp_path):
        config = load_payload(tmp_path, chain_payload(), ALWAYS_TWO)
        tight = dataclasses.replace(config, max_node_executions=1)
        with pytest.raises(EngineError) as exc:
            run(tight, deterministic=True)
        assert exc.value.code == "BUDGET_EXCEEDED"
        assert "budget 1 exhausted" in str(exc.value)
        partial = exc.value.trace
        assert partial.status == "aborted"
        assert outcome_ids(partial) == ["n1"]
        exact = dataclasses.replace(config, max_node_executions=2)
        assert run(exact, deterministic=True).status == "completed"

    def test_missing_input_aborts_with_partial_trace(self, tmp_path):
        payload = chain_payload(with_writes=True)
        config = load_payload(tmp_path, payload, ALWAYS_TWO)
        with pytest.raises(EngineError) as exc:
            run(config, deterministic=True)
        assert exc.value.code == "MISSING_INPUT"
        partial = exc.value.trace
        assert partial.status == "aborted"
        assert outcome_ids(partial) == ["n1"]
        assert set(partial.timings) == {"n1", "n2"}

    def test_backend_error_aborts(self, tmp_path):
        scripts = [{"matcher": {"kind": "always"}, "responses": [{"content": "only one TASK COMPLETE"}]}]
        config = load_payload(tmp_path, chain_payload(), scripts)
        with pytest.raises(EngineError) as exc:
            run(config, deterministic=True)
        assert exc.value.code == "BACKEND_ERROR"
        assert exc.value.trace.status == "aborted"

    def test_failed_node_keeps_writes_made_before_the_error(self, tmp_path):
        # n1 writes n1_out, then its script runs dry on the next turn
        scripts = [dict(WRITER_SCRIPTS[1], responses=WRITER_SCRIPTS[1]["responses"][:1])]
        config = load_payload(tmp_path, chain_payload(), scripts)
        with pytest.raises(EngineError) as exc:
            run(config, deterministic=True)
        assert exc.value.code == "BACKEND_ERROR"
        assert outcome_ids(exc.value.trace) == []
        assert exc.value.trace.blackboard == {"n1_out": {"value": "alpha", "producer": "n1", "version": 1}}


class TestRunDynamic:
    def test_expansion_applied_and_recorded(self, tmp_path):
        config = load_payload(tmp_path, planner_payload(), PLANNER_SCRIPTS)
        trace = run(config, deterministic=True)
        assert outcome_ids(trace) == ["P", "t1"]
        assert len(trace.expansions) == 1
        assert [n["id"] for n in trace.expansions[0]["new_nodes"]] == ["t1"]
        assert {n["id"] for n in trace.graph_final["nodes"]} == {"P", "t1"}
        assert {n["id"] for n in trace.graph_initial["nodes"]} == {"P"}
        assert trace.blackboard["the_plan"]["producer"] == "P"

    def test_the_engine_commits_the_graph_the_planner_turn_grew(self, tmp_path, monkeypatch):
        config = load_payload(tmp_path, planner_payload(), PLANNER_SCRIPTS)
        checked = []
        real = marco.graph._checked
        monkeypatch.setattr(marco.graph, "_checked", lambda graph: checked.append(len(graph.nodes)) or real(graph))
        trace = run(config, deterministic=True)
        assert outcome_ids(trace) == ["P", "t1"]
        assert checked.count(2) == 1  # the grown graph: P and t1

    def test_rejected_expansion_aborts(self, tmp_path, monkeypatch):
        def explode(graph, expansion, seeded):
            raise GraphError("CYCLE", "expansion would close a cycle")

        def without_grown_graph(*args, **kwargs):
            return dataclasses.replace(run_node(*args, **kwargs), grown=None)

        run_node = marco.engine.run_node
        monkeypatch.setattr(marco.engine, "run_node", without_grown_graph)
        monkeypatch.setattr(marco.engine, "apply_expansion", explode)
        config = load_payload(tmp_path, planner_payload(), PLANNER_SCRIPTS)
        with pytest.raises(EngineError) as exc:
            run(config, deterministic=True)
        assert exc.value.code == "EXPANSION_REJECTED"
        assert "planner P produced an unusable expansion" in str(exc.value)
        partial = exc.value.trace
        assert partial.status == "aborted"
        assert outcome_ids(partial) == ["P"]
        assert partial.expansions == []

    def test_expansion_with_an_input_nothing_produces_is_reprompted(self, tmp_path):
        rejected = {"content": "```PLAN\nt1 | T | g | in=ghost\n```\nTASK COMPLETE"}
        scripts = [{"matcher": {"kind": "always"}, "responses": [rejected]}]
        with pytest.raises(EngineError) as exc:  # the stop phrase does not end a turn whose plan was rejected
            run(load_payload(tmp_path, planner_payload(), scripts), deterministic=True)
        assert exc.value.code == "BACKEND_ERROR"
        scripts[0]["responses"] += [
            {"content": "```PLAN\nt1 | T | g\n```\nTASK COMPLETE"},
            {"content": "done without it TASK COMPLETE"},
        ]
        trace = run(load_payload(tmp_path, planner_payload(), scripts), deterministic=True)
        assert outcome_ids(trace) == ["P", "t1"]
        planner = trace.outcomes[0]
        assert planner["turns_used"] == 2
        assert [e["message"]["content"] for e in planner["transcript"] if e["speaker"] == "moderator"] == [
            "PLAN rejected: UNPRODUCED_INPUT: node t1: input ghost is neither seeded nor an output of an"
            " execution ancestor. Re-emit a corrected PLAN block."
        ]
        assert [n["inputs"] for n in trace.expansions[0]["new_nodes"]] == [[]]
        payload = planner_payload()
        payload["seeds"] = {"ghost": "seeded"}
        scripts[0]["responses"][1:] = [{"content": "used it TASK COMPLETE"}]
        seeded = run(load_payload(tmp_path, payload, scripts), deterministic=True)
        assert outcome_ids(seeded) == ["P", "t1"]
        assert not any(e["speaker"] == "moderator" for e in seeded.outcomes[0]["transcript"])
        assert [n["inputs"] for n in seeded.expansions[0]["new_nodes"]] == [["ghost"]]

    def test_budget_abort_after_applied_expansion(self, tmp_path):
        scripts = [
            {
                "matcher": {"kind": "always"},
                "responses": [
                    {"content": "```PLAN\nt1 | first | do one\nt2 | second | do two\n```\nTASK COMPLETE"},
                    {"content": "first follow-up handled TASK COMPLETE"},
                ],
            }
        ]
        config = load_payload(tmp_path, planner_payload(), scripts)
        # P, t1 and t2 need three executions; the budget allows two.
        with pytest.raises(EngineError) as exc:
            run(dataclasses.replace(config, max_node_executions=2), deterministic=True)
        assert exc.value.code == "BUDGET_EXCEEDED"
        partial = exc.value.trace
        assert partial.status == "aborted"
        assert outcome_ids(partial) == ["P", "t1"]
        assert set(partial.timings) == {"P", "t1"}
        assert {n["id"] for n in partial.graph_final["nodes"]} == {"P", "t1", "t2"}
        assert {n["id"] for n in partial.graph_initial["nodes"]} == {"P"}
        assert len(partial.expansions) == 1
        rendered = json.loads(partial.render())
        assert rendered["graph_final"] == partial.graph_final


class TestReplayRecording:
    def replay_config(self, tmp_path):
        payload = chain_payload()
        payload["agents"]["solo"]["roles"][0]["model_ref"] = "rec"
        payload["backends"]["rec"] = {"kind": "replay", "cache_dir": "cache", "inner": "mock", "record": True}
        return load_payload(tmp_path, payload, ALWAYS_TWO)

    def test_record_then_replay_byte_identical(self, tmp_path):
        config = self.replay_config(tmp_path)
        first = run(config, deterministic=True).render()
        cache_files = sorted((tmp_path / "cache").glob("*.json"))
        assert cache_files
        entry = json.loads(cache_files[0].read_text(encoding="utf-8"))
        assert set(entry) == {"digest", "request", "response"}
        # corrupt the inner script and load it again; a true replay never consults it
        (tmp_path / "scripts.json").write_text(
            json.dumps([{"matcher": {"kind": "always"}, "responses": [{"content": "WRONG"}]}]),
            encoding="utf-8",
        )
        second = run(load_config(config.path), deterministic=True).render()
        assert second == first

    def test_truncated_entry_aborts_with_coded_error(self, tmp_path):
        config = self.replay_config(tmp_path)
        run(config, deterministic=True)
        n2_entry = next(
            path for path in (tmp_path / "cache").glob("*.json") if "second artifact" in path.read_text(encoding="utf-8")
        )
        n2_entry.write_text(n2_entry.read_text(encoding="utf-8")[:40], encoding="utf-8")
        with pytest.raises(EngineError) as exc:
            run(config, deterministic=True)
        assert exc.value.code == "BACKEND_ERROR"
        assert f"CACHE_CORRUPT: cache entry {str(n2_entry)!r} is unreadable" in str(exc.value)
        assert exc.value.trace.status == "aborted"
        assert outcome_ids(exc.value.trace) == ["n1"]

    def test_replay_presence_zeroes_wall_clock(self, tmp_path):
        config = self.replay_config(tmp_path)
        trace = run(config, deterministic=False)
        assert trace.timings == {"n1": 0.0, "n2": 0.0}


class TestBaseline:
    def test_collapse_requires_static(self, tmp_path):
        config = load_payload(tmp_path, planner_payload(), PLANNER_SCRIPTS)
        with pytest.raises(EngineError) as exc:
            collapse_graph(config)
        assert exc.value.code == "BASELINE_UNSUPPORTED"

    def test_collapse_requires_single_agent(self, tmp_path):
        payload = chain_payload()
        payload["agents"]["other"] = payload["agents"]["solo"]
        payload["graph"]["nodes"][1]["agent_ref"] = "other"
        config = load_payload(tmp_path, payload, ALWAYS_TWO)
        with pytest.raises(EngineError) as exc:
            collapse_graph(config)
        assert exc.value.code == "BASELINE_UNSUPPORTED"

    def test_collapse_concatenates_goals_in_order(self):
        config = load_config(BUNDLED / "timing_debug.json")
        graph, meta = collapse_graph(config)
        assert len(graph.nodes) == 1
        node = graph.nodes[0]
        assert node.id == "baseline"
        positions = [node.goal.index(f"[m{i}]") for i in range(1, 8)]
        assert positions == sorted(positions)
        assert node.outputs == (
            "m1_findings",
            "m2_findings",
            "m3_findings",
            "m4_findings",
            "m5_findings",
            "m6_findings",
            "m7_lc_findings",
            "m7_rc_findings",
        )

    def test_collapse_budget_arithmetic(self):
        config = load_config(BUNDLED / "timing_debug.json")
        _, meta = collapse_graph(config)
        per_node = config.agents["timing_crew"].termination.max_turns
        assert meta["baseline"] == {
            "node_count": 7,
            "per_node_max_turns": per_node,
            "max_turns": per_node * 7,
            "source_nodes": ["m1", "m2", "m3", "m4", "m5", "m6", "m7"],
        }

    def test_aborted_baseline_trace_keeps_baseline_meta(self):
        config = load_config(BUNDLED / "timing_debug.json")
        # every role is served by "mock"; with no scripts its first completion fails
        dry = dataclasses.replace(config.backends["mock"], scripts=())
        config = dataclasses.replace(config, backends={**config.backends, "mock": dry})
        graph, meta = collapse_graph(config)
        with pytest.raises(EngineError) as exc:
            run_baseline(config, deterministic=True)
        assert exc.value.code == "BACKEND_ERROR"
        partial = exc.value.trace
        assert partial.status == "aborted"
        assert partial.outcomes == []
        assert partial.meta == {"deterministic": True, **meta}
        assert partial.graph_initial == partial.graph_final == graph.to_dict()
        assert partial.config_digest == config.digest()
        assert set(partial.timings) == {"baseline"}

    def test_single_node_baseline_matches_run(self, tmp_path):
        payload = chain_payload()
        payload["graph"]["nodes"] = [payload["graph"]["nodes"][0]]
        payload["graph"]["edges"] = []
        config = load_payload(tmp_path, payload, ALWAYS_TWO)
        plain = run(config, deterministic=True)
        base = run_baseline(config, deterministic=True)
        assert len(base.outcomes) == len(plain.outcomes) == 1
        assert base.outcomes[0]["status"] == plain.outcomes[0]["status"] == "solved"
        assert base.outcomes[0]["turns_used"] == plain.outcomes[0]["turns_used"]
        assert base.outcomes[0]["node_id"] == "baseline"
        assert base.meta["baseline"]["max_turns"] == config.agents["solo"].termination.max_turns


class TestBundledRuns:
    def test_timing_debug_run_solves_six_of_seven(self):
        config = load_config(BUNDLED / "timing_debug.json")
        trace = run(config, deterministic=True)
        assert outcome_ids(trace) == ["m1", "m2", "m3", "m4", "m5", "m6", "m7"]
        statuses = {o["node_id"]: o["status"] for o in trace.outcomes}
        assert statuses.pop("m6") == "budget_exhausted"
        assert set(statuses.values()) == {"solved"}
        assert trace.status == "completed"
        written = set(trace.blackboard)
        assert {"m1_findings", "m5_findings", "m7_rc_findings", "m7_lc_findings"} <= written
        assert "m6_findings" not in written

    def test_each_report_parsed_once_per_run(self, monkeypatch):
        texts: list[str] = []
        real = marco.eda.toolpack.parse_timing_report
        monkeypatch.setattr(marco.eda.toolpack, "parse_timing_report", lambda text: texts.append(text) or real(text))
        config = load_config(BUNDLED / "timing_debug.json")
        per_run = []
        for _ in range(2):
            texts.clear()
            run(config, deterministic=True)
            per_run.append(sorted(texts))
        assert per_run[0] and per_run[0] == per_run[1]
        assert len(set(per_run[0])) == len(per_run[0])

    def test_second_run_reuses_the_corpus_and_parses_reports_again(self, tmp_path, monkeypatch):
        """Two loads and runs of one retrieving config: byte-identical traces,
        no corpus built in the second, every report parsed once per run."""
        monkeypatch.setattr(marco.knowledge, "_LOADED", {})
        texts: list[str] = []
        real_parse = marco.eda.toolpack.parse_timing_report
        monkeypatch.setattr(marco.eda.toolpack, "parse_timing_report", lambda text: texts.append(text) or real_parse(text))
        builds: list[str] = []
        real_build = marco.knowledge.KnowledgeBase._build_corpus
        monkeypatch.setattr(
            marco.knowledge.KnowledgeBase, "_build_corpus", lambda kb: builds.append(kb.name) or real_build(kb)
        )
        (tmp_path / "notes").mkdir()
        for i, words in enumerate(["clock edge missing", "rc mismatch", "clock skew and slack"]):
            (tmp_path / "notes" / f"note{i}.txt").write_text(words, encoding="utf-8")
        payload = chain_payload()
        payload["graph"] = {"mode": "static", "nodes": [payload["graph"]["nodes"][0]], "edges": []}
        payload["agents"]["solo"]["roles"][0].update(
            tool_names=["write_artifact", "find_missing_clock_edges"], knowledge_base_refs=["notes", "timing_reports"]
        )
        payload["knowledge_bases"] = {"notes": "notes", "timing_reports": str(BUNDLED.parent / "fixtures_3corner")}
        payload["tool_bindings"] = {"find_missing_clock_edges": "eda.find_missing_clock_edges"}
        calls = [
            {"id": "c1", "tool_name": "retrieve_knowledge", "arguments": {"kb": "notes", "query": "clock edge", "k": 2}},
            {"id": "c2", "tool_name": "find_missing_clock_edges",
             "arguments": {"report": "ss_0p72v_125c__func__max", "save_as": "n1_out"}},
        ]
        scripts = [{"matcher": {"kind": "always"},
                    "responses": [{"content": "reading", "tool_calls": calls}, {"content": "TASK COMPLETE"}]}]
        rendered, per_run = [], []
        for _ in range(2):
            texts.clear()
            trace = run(load_payload(tmp_path, payload, scripts), deterministic=True)
            assert trace.status == "completed" and "n1_out" in trace.blackboard
            rendered.append(trace.render())
            per_run.append(len(texts))
        assert "note0" in rendered[0] and rendered[0] == rendered[1]
        assert builds == ["notes"]  # the first run's; the second reuses it
        assert per_run == [1, 1]

    def test_reports_parse_once_per_process(self, monkeypatch):
        texts: list[str] = []
        real = marco.eda.toolpack.parse_timing_report
        monkeypatch.setattr(marco.eda.toolpack, "parse_timing_report", lambda text: texts.append(text) or real(text))
        parse_timing_report.cache_clear()
        config = load_config(BUNDLED / "timing_debug.json")
        run(config, deterministic=True)
        run(config, deterministic=True)
        run_baseline(config, backend_override="baseline_mock", deterministic=True)
        info = parse_timing_report.cache_info()
        assert texts and info.misses == len(set(texts))
        assert info.hits > 0

    def test_timing_debug_baseline_completes(self):
        config = load_config(BUNDLED / "timing_debug.json")
        trace = run_baseline(config, backend_override="baseline_mock", deterministic=True)
        assert trace.status == "completed"
        assert len(trace.outcomes) == 1

    @pytest.mark.parametrize("key", ["timing_debug", "mcmm", "baseline"])
    def test_trace_matches_committed_digest(self, key):
        """The deterministic trace of each bundled run hashes to the digest
        the benchmark checks (``bench/expected_digests.json``)."""
        if key == "baseline":
            config = load_config(BUNDLED / "timing_debug.json")
            trace = run_baseline(config, backend_override="baseline_mock", deterministic=True)
        else:
            trace = run(load_config(BUNDLED / f"{key}.json"), deterministic=True)
        expected = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))["bundled"][key]
        assert hashlib.sha256(trace.render().encode("utf-8")).hexdigest() == expected

    def test_mcmm_run_expands_once(self):
        config = load_config(BUNDLED / "mcmm.json")
        trace = run(config, deterministic=True)
        assert len(trace.outcomes) == 5
        assert len(trace.expansions) == 1
        new_nodes = trace.expansions[0]["new_nodes"]
        assert len(new_nodes) == 4
        assert "mcmm_takeaways" in trace.blackboard

    def test_replay_miss_names_the_edited_system_prompt(self, tmp_path):
        """Record mcmm through replay over its mock scripts, edit the
        reviewer's system prompt, then replay: the miss names the first
        message's content and the reviewer's model_ref."""
        payload = json.loads((BUNDLED / "mcmm.json").read_text(encoding="utf-8"))
        payload["backends"] = {
            "scripted": {"kind": "mock", "script": str(BUNDLED / "mcmm_scripts.json")},
            "mock": {"kind": "replay", "cache_dir": "cache", "record": True, "inner": "scripted"},
            "review": {"kind": "replay", "cache_dir": "cache", "record": True, "inner": "scripted"},
        }
        payload["knowledge_bases"] = {"timing_reports": str(BUNDLED.parent / "fixtures_3corner")}
        reviewer = payload["agents"]["mcmm_planners"]["roles"][1]
        reviewer["model_ref"] = "review"
        path = tmp_path / "mcmm_replay.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(load_config(path), deterministic=True).status == "completed"

        for name in ("mock", "review"):
            payload["backends"][name]["record"] = False
        reviewer["system_prompt"] += " Keep it short."
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(EngineError) as exc:
            run(load_config(path), deterministic=True)
        assert exc.value.code == "BACKEND_ERROR"
        message = str(exc.value)
        assert "CACHE_MISS: no cache entry for digest " in message
        assert "the nearest cached request for model_ref 'review', " in message
        assert message.endswith("first differs at messages[0].content (role system)")


# --- overlapped runs against a local chat-completions server -------------------

def _request_from_payload(payload: dict) -> CompletionRequest:
    """Invert HttpBackend's request body back into a CompletionRequest."""
    messages = []
    for entry in payload["messages"]:
        calls = tuple(
            ToolCallRequest(id=c["id"], tool_name=c["function"]["name"], arguments=json.loads(c["function"]["arguments"]))
            for c in entry.get("tool_calls", ())
        )
        messages.append(
            ChatMessage(role=entry["role"], content=entry["content"], tool_calls=calls, tool_call_id=entry.get("tool_call_id"))
        )
    return CompletionRequest(model_ref=payload["model"], messages=tuple(messages), temperature=payload["temperature"])


def _completion_body(message: ChatMessage) -> dict:
    reply: dict = {"role": "assistant", "content": message.content}
    if message.tool_calls:
        reply["tool_calls"] = [
            {"id": c.id, "type": "function", "function": {"name": c.tool_name, "arguments": json.dumps(c.arguments)}}
            for c in message.tool_calls
        ]
    return {"choices": [{"message": reply}]}


class _ScriptHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, body = self.server.answer(payload)
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class ScriptServer(http.server.ThreadingHTTPServer):
    """Serves a mock script over HTTP, one request per thread, after ``delay``
    seconds; records when each node's requests were in flight. Requests of
    ``fail_node`` get a 400 after ``fail_delay`` seconds."""

    daemon_threads = True

    def __init__(self, script: Path, delay: float, fail_node: str | None = None, fail_delay: float = 0.0) -> None:
        super().__init__(("127.0.0.1", 0), _ScriptHandler)
        self.mock = MockBackend.from_script_file(script)
        self.delay, self.fail_node, self.fail_delay = delay, fail_node, fail_delay
        self.lock = threading.Lock()
        self.inflight = self.max_inflight = 0
        self.spans: list[tuple[str, float, float]] = []  # node id, start, end

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}"

    def answer(self, payload: dict) -> tuple[int, dict]:
        request = _request_from_payload(payload)
        node = request.messages[1].content.splitlines()[0].removeprefix("Task node: ")
        start = time.perf_counter()
        with self.lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            if node == self.fail_node:
                time.sleep(self.fail_delay)
                return 400, {}
            time.sleep(self.delay)
            with self.lock:
                return 200, _completion_body(self.mock.complete(request))
        finally:
            with self.lock:
                self.inflight -= 1
                self.spans.append((node, start, time.perf_counter()))

    def span_of(self, node: str) -> tuple[float, float]:
        (span,) = [(start, end) for name, start, end in self.spans if name == node]
        return span


@pytest.fixture
def script_server():
    started = []

    def start(script: Path, delay: float = 0.05, **kwargs) -> ScriptServer:
        server = ScriptServer(script, delay, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def mcmm_over_http(tmp_path: Path, url: str) -> "marco.config.RunConfig":
    """Bundled mcmm with its roles served by a recording replay over HTTP;
    ``cached`` replays the same cache without recording."""
    payload = json.loads((BUNDLED / "mcmm.json").read_text(encoding="utf-8"))
    payload["backends"] = {
        "mock": {"kind": "replay", "cache_dir": "cache", "record": True, "inner": "http"},
        "http": {"kind": "http", "base_url": url, "timeout": 10},
        "cached": {"kind": "replay", "cache_dir": "cache"},
    }
    payload["knowledge_bases"] = {"timing_reports": str(BUNDLED.parent / "fixtures_3corner")}
    path = tmp_path / "mcmm_http.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_config(path)


def new_non_daemon_threads(before: set) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t not in before and not t.daemon]


class TestOverlappedRuns:
    def test_budget_starts_no_node_the_serial_run_never_reaches(self, tmp_path, monkeypatch):
        """Static A, B, C, D with A -> C and a budget of 3: the serial run
        takes A, B and C, so D, ready from the start, must not run ahead."""
        nodes, agents, backends = [], {}, {}
        for nid in "ABCD":
            nodes.append({"id": nid, "title": nid, "goal": f"goal of {nid}", "agent_ref": f"a_{nid}"})
            agents[f"a_{nid}"] = {"topology": "single", "roles": [{"name": "w", "model_ref": f"m_{nid}"}],
                                  "termination": {"max_turns": 2, "stop_phrase": "DONE"}}
            backends[f"m_{nid}"] = {"kind": "mock", "script": "scripts.json"}
        payload = {"graph": {"mode": "static", "nodes": nodes, "edges": [{"src": "A", "dst": "C", "kind": "execution"}]},
                   "agents": agents, "backends": backends, "limits": {"max_node_executions": 4}}
        config = load_payload(tmp_path, payload, [{"matcher": {"kind": "always"}, "responses": [{"content": "DONE"}]}])
        config = dataclasses.replace(config, max_node_executions=3)  # load_config wants one per static node
        with pytest.raises(EngineError) as serial:
            run(config, deterministic=True)

        lock, called = threading.Lock(), []

        class Recording(WaitingBackend):
            def complete(self, req):
                called.append(req.model_ref)
                return super().complete(req)

        def waiting_backends(config, override=None):
            built = build_backends(config, override)
            return {name: Recording(b, lock, random.Random(name)) for name, b in built.items()}

        monkeypatch.setattr(marco.engine, "build_backends", waiting_backends)
        with pytest.raises(EngineError) as overlapped:
            run(config, deterministic=True)
        assert sorted(called) == ["m_A", "m_B", "m_C"]
        assert serial.value.code == overlapped.value.code == "BUDGET_EXCEEDED"
        assert str(overlapped.value) == str(serial.value)
        assert overlapped.value.trace.render() == serial.value.trace.render()

    def test_waiting_backends_overlap_and_trace_matches_serial_replay(self, tmp_path, script_server):
        server = script_server(BUNDLED / "mcmm_scripts.json")
        config = mcmm_over_http(tmp_path, server.url)
        before = set(threading.enumerate())
        recorded = run(config, deterministic=True)
        assert new_non_daemon_threads(before) == []
        assert server.max_inflight >= 2
        corners = [server.span_of(node) for node in ("corner_ff", "corner_ss", "corner_tt")]
        assert max(start for start, _ in corners) < min(end for _, end in corners)
        replayed = run(config, backend_override="cached", deterministic=True)
        assert replayed.render() == recorded.render()
        mocked = run(load_config(BUNDLED / "mcmm.json"), deterministic=True)
        assert recorded.outcomes == mocked.outcomes
        assert recorded.blackboard == mocked.blackboard

    def test_error_at_head_gives_serial_aborted_trace(self, tmp_path, script_server, monkeypatch):
        # corner_ff is the head after the plan; it fails once corner_ss and
        # corner_tt have finished ahead of it and staged their takeaways
        server = script_server(BUNDLED / "mcmm_scripts.json", fail_node="corner_ff", fail_delay=0.3)
        config = mcmm_over_http(tmp_path, server.url)
        before = set(threading.enumerate())
        with pytest.raises(EngineError) as overlapped:
            run(config, deterministic=True)
        assert new_non_daemon_threads(before) == []
        assert {"corner_ss", "corner_tt"} <= {node for node, _, _ in server.spans}
        assert overlapped.value.code == "BACKEND_ERROR"
        trace = overlapped.value.trace
        assert outcome_ids(trace) == ["plan_mcmm"]
        assert list(trace.blackboard) == ["mcmm_plan"]

        shutil.rmtree(tmp_path / "cache")
        server.mock = MockBackend.from_script_file(BUNDLED / "mcmm_scripts.json")
        server.spans.clear()
        monkeypatch.setattr(HttpBackend, "waits", False)
        with pytest.raises(EngineError) as serial:
            run(config, deterministic=True)
        assert {node for node, _, _ in server.spans} == {"plan_mcmm", "corner_ff"}
        assert serial.value.trace.render() == trace.render()
        assert str(serial.value) == str(overlapped.value)

    def test_nodes_sharing_an_output_key_never_overlap(self, tmp_path, script_server):
        (tmp_path / "scripts.json").write_text(
            json.dumps([{"matcher": {"kind": "always"}, "responses": [{"content": "done"}] * 3}]), encoding="utf-8"
        )
        server = script_server(tmp_path / "scripts.json")
        nodes = [
            {"id": nid, "title": nid, "goal": "report", "agent_ref": "solo", "outputs": [key]}
            for nid, key in (("n1", "shared"), ("n2", "shared"), ("n3", "own"))
        ]
        payload = {
            "graph": {"mode": "static", "nodes": nodes, "edges": []},
            "agents": {"solo": {"topology": "single", "roles": [{"name": "w", "model_ref": "live"}]}},
            "backends": {"live": {"kind": "http", "base_url": server.url, "timeout": 10}},
            "limits": {"max_node_executions": 3},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        trace = run(load_config(config_path), deterministic=True)
        assert outcome_ids(trace) == ["n1", "n2", "n3"]
        (n1_start, n1_end), (n2_start, _), (n3_start, n3_end) = (server.span_of(n) for n in ("n1", "n2", "n3"))
        assert n2_start >= n1_end
        assert n3_start < n1_end and n1_start < n3_end

    def test_nothing_runs_ahead_of_an_uncommitted_planner(self, tmp_path, script_server, monkeypatch):
        # planner a adds b, which writes k; c reads k and would see only the
        # seed if it ran while a was still planning
        scripts = [
            {"matcher": {"kind": "substring", "value": "Task node: a"},
             "responses": [{"content": "```PLAN\nb | make k | write k | out=k\n```"}]},
            {"matcher": {"kind": "substring", "value": "Task node: b"},
             "responses": [{"content": "writing", "tool_calls": [
                 {"id": "w1", "tool_name": "write_artifact", "arguments": {"key": "k", "value": "from b"}}]}]},
            {"matcher": {"kind": "substring", "value": "Task node: c"}, "responses": [{"content": "read it"}]},
        ]
        (tmp_path / "scripts.json").write_text(json.dumps(scripts), encoding="utf-8")
        server = script_server(tmp_path / "scripts.json")
        payload = {
            "graph": {
                "mode": "dynamic",
                "nodes": [
                    {"id": "a", "title": "a", "goal": "plan", "agent_ref": "solo", "outputs": ["plan"], "expansion": "planner"},
                    {"id": "c", "title": "c", "goal": "use k", "agent_ref": "solo", "inputs": ["k"]},
                ],
                "edges": [],
            },
            "agents": {"solo": {"topology": "single", "roles": [{"name": "w", "model_ref": "live"}]}},
            "backends": {"live": {"kind": "http", "base_url": server.url, "timeout": 10}},
            "seeds": {"k": "seed"},
            "limits": {"max_node_executions": 3},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        trace = run(load_config(config_path), deterministic=True)
        assert outcome_ids(trace) == ["a", "b", "c"]
        assert '  k = "from b"' in trace.outcomes[2]["transcript"][0]["message"]["content"]
        server.mock = MockBackend.from_script_file(tmp_path / "scripts.json")
        monkeypatch.setattr(HttpBackend, "waits", False)
        assert run(load_config(config_path), deterministic=True).render() == trace.render()

    def test_budget_bounds_nodes_run_ahead(self, tmp_path, script_server):
        server = script_server(BUNDLED / "mcmm_scripts.json")
        config = dataclasses.replace(mcmm_over_http(tmp_path, server.url), max_node_executions=3)
        with pytest.raises(EngineError) as exc:
            run(config, deterministic=True)
        assert exc.value.code == "BUDGET_EXCEEDED"
        assert outcome_ids(exc.value.trace) == ["plan_mcmm", "corner_ff", "corner_ss"]
        assert {node for node, _, _ in server.spans} == {"plan_mcmm", "corner_ff", "corner_ss"}


class TestReportParseMemo:
    """Reports are parsed once per process, keyed by their text."""

    @pytest.fixture
    def report_run(self, tmp_path, monkeypatch):
        """Load and run a one-node config whose agent calls
        ``find_missing_clock_edges`` on the document ``report`` in the
        knowledge base ``reports`` (``tmp_path / "reports"``)."""
        monkeypatch.setattr(marco.knowledge, "_LOADED", {})
        (tmp_path / "reports").mkdir()
        payload = chain_payload()
        payload["graph"] = {"mode": "static", "nodes": [payload["graph"]["nodes"][0]], "edges": []}
        payload["agents"]["solo"]["roles"][0].update(
            tool_names=["write_artifact", "find_missing_clock_edges"], knowledge_base_refs=["reports"]
        )
        payload["knowledge_bases"] = {"reports": "reports"}
        payload["tool_bindings"] = {"find_missing_clock_edges": "eda.find_missing_clock_edges"}
        call = {"id": "c1", "tool_name": "find_missing_clock_edges", "arguments": {"report": "report"}}
        scripts = [{"matcher": {"kind": "always"},
                    "responses": [{"content": "checking", "tool_calls": [call]}, {"content": "TASK COMPLETE"}]}]
        return lambda: run(load_payload(tmp_path, payload, scripts), deterministic=True).render()

    def test_changed_report_bytes_parse_again(self, tmp_path, report_run):
        report = tmp_path / "reports" / "report.txt"
        text = (BUNDLED.parent / "fixtures_3corner" / "ss_0p72v_125c__func__max.txt").read_text(encoding="utf-8")
        report.write_text(text, encoding="utf-8")
        parse_timing_report.cache_clear()
        first = report_run()
        assert "missing_clock_edge|p0|-" in first and "missing_clock_edge|p1|-" not in first
        report.write_text(text.replace(" p1 start=in_p1 end=out_p1 clk=clk_core edges=rise,fall ",
                                       " p1 start=in_p1 end=out_p1 clk=clk_core edges=none "), encoding="utf-8")
        second = report_run()
        assert "missing_clock_edge|p0|-" in second and "missing_clock_edge|p1|-" in second
        assert parse_timing_report.cache_info().misses == 2

    def test_non_report_fails_to_parse_in_every_run(self, tmp_path, report_run):
        (tmp_path / "reports" / "report.txt").write_text("a note, not a report\n", encoding="utf-8")
        parse_timing_report.cache_clear()
        rendered = [report_run(), report_run()]
        assert "PARSE_ERROR" in rendered[0] and rendered[0] == rendered[1]
        info = parse_timing_report.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


class WaitingBackend(Backend):
    """A backend that claims to wait, so the engine runs its nodes ahead:
    each call is served under a lock, then held for a seeded 0-2 ms."""

    waits = True

    def __init__(self, inner: Backend, lock: threading.Lock, rng: random.Random) -> None:
        self.inner, self.lock, self.rng = inner, lock, rng

    def complete(self, req: CompletionRequest) -> ChatMessage:
        with self.lock:
            pause = self.rng.uniform(0.0, 0.002)
            reply = self.inner.complete(req)
        time.sleep(pause)
        return reply


if st is not None:

    @st.composite
    def _run_ahead_cases(draw):
        """A static DAG of up to 12 nodes, each with its own agent and mock
        backend, whose inputs are seeded or declared by an ancestor, and at
        most one fault: a script that runs out, a producer that never writes,
        or a node budget below the node count."""
        count = draw(st.integers(1, 12))
        ids = draw(st.permutations([f"n{i}" for i in range(count)]))
        ancestors: list[set[int]] = []
        nodes, edges = [], []
        for i, nid in enumerate(ids):
            # bit masks keep the draws few: predecessors, outputs, inputs, knowledge edges
            mask = draw(st.integers(0, 2**i - 1))
            preds = {p for p in range(i) if mask >> p & 1}
            ancestors.append(preds.union(*(ancestors[p] for p in preds)))
            edges += [{"src": ids[p], "dst": nid, "kind": "execution"} for p in sorted(preds)]
            mask = draw(st.integers(0, 3))
            outputs = [key for b, key in enumerate((f"{nid}_out", "shared")) if mask >> b & 1]
            produced = sorted({"seed", *(key for a in ancestors[i] for key in nodes[a]["outputs"])})
            mask = draw(st.integers(0, 2 ** len(produced) - 1))
            inputs = [key for b, key in enumerate(produced) if mask >> b & 1]
            linked = draw(st.integers(0, 2 ** len(inputs) - 1))
            for b, key in enumerate(inputs):
                producers = [ids[a] for a in sorted(ancestors[i]) if key in nodes[a]["outputs"]]
                if producers and linked >> b & 1:
                    edges.append({"src": producers[-1], "dst": nid, "kind": "knowledge", "key": key})
            nodes.append({"id": nid, "title": nid, "goal": f"goal of {nid}", "agent_ref": f"a_{nid}",
                          "inputs": inputs, "outputs": outputs})

        fault = draw(st.sampled_from(["budget", "never_writes", "runs_out", None]))
        read = {key for node in nodes for key in node["inputs"]}
        silent = None
        if fault == "never_writes" and any(read & set(node["outputs"]) for node in nodes):
            silent = draw(st.sampled_from([node["id"] for node in nodes if read & set(node["outputs"])]))
        exhausted = draw(st.sampled_from(ids)) if fault == "runs_out" else None
        budget = draw(st.integers(1, count - 1)) if fault == "budget" and count > 1 else None

        scripts, backends, agents = {}, {}, {}
        for node in nodes:
            nid = node["id"]
            writes = {"content": "writing", "tool_calls": [
                {"id": f"{nid}_{key}", "tool_name": "write_artifact", "arguments": {"key": key, "value": f"{key} by {nid}"}}
                for key in node["outputs"]]}
            responses = [{"content": "DONE"}] if nid == silent or not node["outputs"] else [writes, {"content": "DONE"}]
            if nid == exhausted:
                responses = responses[:-1] or [{"content": "thinking"}]
            scripts[nid] = [{"matcher": {"kind": "always"}, "responses": responses}]
            backends[f"m_{nid}"] = {"kind": "mock", "script": f"{nid}.json"}
            agents[f"a_{nid}"] = {"topology": "single", "roles": [{"name": "w", "model_ref": f"m_{nid}"}],
                                  "termination": {"max_turns": 3, "stop_phrase": "DONE"}}
        payload = {"graph": {"mode": "static", "nodes": nodes, "edges": edges}, "agents": agents,
                   "backends": backends, "seeds": {"seed": "s"}, "limits": {"max_node_executions": count}}
        return payload, scripts, budget

    def _outcome(config) -> tuple:
        try:
            return None, None, run(config, deterministic=True).render()
        except EngineError as exc:
            return exc.code, str(exc), exc.trace.render()

    class TestRunAheadEqualsSerial:
        @settings(max_examples=200, deadline=None)
        @given(case=_run_ahead_cases(), seed=st.integers(0, 2**32 - 1))
        def test_overlapped_run_renders_as_the_serial_one(self, case, seed):
            """The oracle is the same config without the waiting wrapper, whose
            nodes all run one after another on the main thread in Kahn order."""
            payload, scripts, budget = case
            with tempfile.TemporaryDirectory() as tmp:
                for nid, script in scripts.items():
                    Path(tmp, f"{nid}.json").write_text(json.dumps(script), encoding="utf-8")
                Path(tmp, "run.json").write_text(json.dumps(payload), encoding="utf-8")
                config = load_config(Path(tmp, "run.json"))
            if budget is not None:
                config = dataclasses.replace(config, max_node_executions=budget)
            serial = _outcome(config)

            lock = threading.Lock()

            def waiting_backends(config, override=None):
                built = build_backends(config, override)
                return {name: WaitingBackend(b, lock, random.Random(f"{seed}:{name}")) for name, b in built.items()}

            with mock.patch.object(marco.engine, "build_backends", waiting_backends):
                overlapped = _outcome(config)
            assert overlapped == serial

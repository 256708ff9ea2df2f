"""Run-configuration loading: full validation, accumulated problems."""

import json
from pathlib import Path

import pytest

import marco
from marco.agents import Termination
from marco.cli import main
from marco.config import load_config
from marco.errors import ConfigError
from marco.knowledge import MemoryWindow

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

BUNDLED = Path(marco.__file__).resolve().parent / "data" / "configs"


def base_payload() -> dict:
    return {
        "graph": {
            "mode": "static",
            "nodes": [
                {"id": "n1", "title": "t", "goal": "g", "agent_ref": "a1", "outputs": ["n1_out"]}
            ],
            "edges": [],
        },
        "agents": {
            "a1": {"topology": "single", "roles": [{"name": "r", "model_ref": "mock"}]}
        },
        "backends": {"mock": {"kind": "mock", "script": "script.json"}},
        "limits": {"max_node_executions": 4},
    }


@pytest.fixture
def workdir(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps([{"matcher": {"kind": "always"}, "responses": [{"content": "done"}]}]),
        encoding="utf-8",
    )
    return tmp_path


def write_config(workdir: Path, payload: dict, name: str = "run.json") -> Path:
    path = workdir / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def problems_of(workdir: Path, payload: dict) -> list[str]:
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(workdir, payload))
    return exc.value.problems


class TestBundledConfigs:
    def test_timing_debug_loads(self):
        config = load_config(BUNDLED / "timing_debug.json")
        assert [n.id for n in config.graph.nodes] == ["m1", "m2", "m3", "m4", "m5", "m6", "m7"]
        assert config.graph.mode == "static"
        assert "timing_crew" in config.agents
        assert config.max_node_executions >= len(config.graph.nodes)

    def test_mcmm_loads(self):
        config = load_config(BUNDLED / "mcmm.json")
        assert config.graph.mode == "dynamic"
        planners = [n for n in config.graph.nodes if n.expansion == "planner"]
        assert len(planners) == 1
        assert {"mcmm_planners", "corner_analyst", "aggregator"} <= set(config.agents)

    def test_digest_stable_across_loads(self):
        first = load_config(BUNDLED / "timing_debug.json")
        second = load_config(BUNDLED / "timing_debug.json")
        assert first.digest() == second.digest()


class TestImmediateFailures:
    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError) as exc:
            load_config(missing)
        assert exc.value.problems == [f"{missing}: no such config file"]

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert "invalid JSON" in exc.value.problems[0]

    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe{}", b"[" * 100_000, b"[" + b"1" * 5_000 + b"]"], ids=["utf16_bom", "too_deep", "long_int"]
    )
    def test_unreadable_json_is_one_problem(self, tmp_path, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert len(exc.value.problems) == 1
        assert exc.value.problems[0].startswith(f"{bad}: invalid JSON: ")

    def test_non_object_root(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert "config root must be a JSON object" in exc.value.problems[0]


class TestValidationProblems:
    def test_valid_config_loads(self, workdir):
        config = load_config(write_config(workdir, base_payload()))
        assert config.max_node_executions == 4
        assert set(config.backends) == {"mock"}
        assert config.base_dir == workdir

    def test_graph_violation_reported(self, workdir):
        payload = base_payload()
        payload["graph"]["edges"] = [{"src": "n1", "dst": "ghost", "kind": "execution"}]
        problems = problems_of(workdir, payload)
        assert any(p.startswith("graph: UNKNOWN_ENDPOINT") for p in problems)

    def test_planner_in_static_rejected(self, workdir):
        payload = base_payload()
        payload["graph"]["nodes"][0]["expansion"] = "planner"
        problems = problems_of(workdir, payload)
        assert any("PLANNER_IN_STATIC" in p for p in problems)

    def test_static_input_needs_seed_or_execution_ancestor(self, workdir):
        payload = base_payload()
        node = payload["graph"]["nodes"][0]
        payload["graph"]["nodes"] = [
            node,
            {**node, "id": "n2", "inputs": ["n1_out"], "outputs": ["n2_out"]},
            {**node, "id": "n3", "inputs": ["n1_out", "brief", "n4_out", "ghost"], "outputs": []},
            {**node, "id": "n4", "inputs": ["n4_out"], "outputs": ["n4_out"]},
        ]
        payload["graph"]["edges"] = [
            {"src": "n1", "dst": "n2", "kind": "execution"},
            {"src": "n2", "dst": "n3", "kind": "execution"},
        ]
        payload["seeds"] = {"brief": "block alpha"}
        assert problems_of(workdir, payload) == [
            "graph node n3: input n4_out is neither seeded nor an output of an execution ancestor",
            "graph node n3: input ghost is neither seeded nor an output of an execution ancestor",
            "graph node n4: input n4_out is neither seeded nor an output of an execution ancestor",
        ]
        payload["graph"]["edges"].append({"src": "n4", "dst": "n3", "kind": "execution"})
        payload["graph"]["nodes"][2]["inputs"].remove("ghost")
        payload["graph"]["nodes"][3]["inputs"] = []
        load_config(write_config(workdir, payload))

    def test_dynamic_inputs_left_to_the_planner(self, workdir):
        payload = base_payload()
        planner = {"id": "P", "title": "t", "goal": "g", "agent_ref": "a1", "outputs": ["plan"], "expansion": "planner"}
        payload["graph"] = {
            "mode": "dynamic",
            "nodes": [planner, {"id": "w", "title": "t", "goal": "g", "agent_ref": "a1", "inputs": ["later"]}],
            "edges": [{"src": "P", "dst": "w", "kind": "execution"}],
        }
        assert load_config(write_config(workdir, payload)).graph.mode == "dynamic"

    def test_bad_agent_payload(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"] = {"topology": "single", "roles": []}
        problems = problems_of(workdir, payload)
        assert any(p.startswith("agents.a1:") for p in problems)

    def test_unknown_backend_kind(self, workdir):
        payload = base_payload()
        payload["backends"]["mock"]["kind"] = "quantum"
        problems = problems_of(workdir, payload)
        assert any(p.startswith("backends.mock: kind must be one of") for p in problems)

    def test_mock_needs_existing_script(self, workdir):
        payload = base_payload()
        payload["backends"]["mock"]["script"] = "ghost.json"
        problems = problems_of(workdir, payload)
        assert any("does not exist" in p for p in problems)
        del payload["backends"]["mock"]["script"]
        problems = problems_of(workdir, payload)
        assert any("needs a 'script' path" in p for p in problems)

    def test_unusable_mock_script_entries_listed(self, workdir):
        script = workdir / "script.json"
        script.write_text(
            json.dumps(
                [
                    {"matcher": {"kind": "always"}, "responses": [{"content": "fine"}]},
                    {"matcher": {"kind": "always"}, "responses": []},
                    {"matcher": {"kind": "sometimes"}, "responses": [{"content": "x"}]},
                    {"matcher": {"kind": "turn_index", "value": "two"}, "responses": [{"content": "x"}]},
                ]
            ),
            encoding="utf-8",
        )
        assert problems_of(workdir, base_payload()) == [
            "backends.mock: script entry 1: a script needs at least one response",
            "backends.mock: script entry 2: unknown matcher kind 'sometimes'",
            "backends.mock: script entry 3: turn_index matcher needs an integer value, got 'two'",
        ]
        script.write_text(json.dumps({"matcher": {"kind": "always"}}), encoding="utf-8")
        assert problems_of(workdir, base_payload()) == [
            f"backends.mock: script file {str(script)!r} must hold a JSON list, got dict"
        ]

    def test_turn_index_too_large_for_an_integer(self, workdir):
        (workdir / "script.json").write_text(
            '[{"matcher": {"kind": "turn_index", "value": 1e400}, "responses": [{"content": "x"}]}]', encoding="utf-8"
        )
        assert problems_of(workdir, base_payload()) == [
            "backends.mock: script entry 0: turn_index matcher needs an integer value, got inf"
        ]

    def test_replay_needs_cache_dir_and_known_inner(self, workdir):
        payload = base_payload()
        payload["backends"]["rep"] = {"kind": "replay"}
        problems = problems_of(workdir, payload)
        assert any("needs a 'cache_dir'" in p for p in problems)
        payload["backends"]["rep"] = {"kind": "replay", "cache_dir": "cache", "inner": "ghost"}
        problems = problems_of(workdir, payload)
        assert any("inner backend 'ghost' is not defined" in p for p in problems)

    def test_circular_replay_inner_chains_rejected(self, workdir):
        payload = base_payload()
        payload["backends"]["r2"] = {"kind": "replay", "cache_dir": "c2", "inner": "r1", "record": True}
        payload["backends"]["r1"] = {"kind": "replay", "cache_dir": "c1", "inner": "r2", "record": True}
        payload["backends"]["self"] = {"kind": "replay", "cache_dir": "c3", "inner": "self"}
        payload["backends"]["outer"] = {"kind": "replay", "cache_dir": "c4", "inner": "r1"}
        payload["backends"]["ok"] = {"kind": "replay", "cache_dir": "c5", "inner": "mock"}
        assert problems_of(workdir, payload) == [
            "backends.r1: circular replay inner chain r1 -> r2 -> r1",
            "backends.self: circular replay inner chain self -> self",
        ]

    def test_missing_kb_directory(self, workdir):
        payload = base_payload()
        payload["knowledge_bases"] = {"rtl": "no_such_dir"}
        problems = problems_of(workdir, payload)
        assert any(p.startswith("knowledge_bases.rtl:") for p in problems)

    def test_unknown_handler_ref(self, workdir):
        payload = base_payload()
        payload["tool_bindings"] = {"my_tool": "eda.nonexistent"}
        problems = problems_of(workdir, payload)
        assert "tool_bindings.my_tool: unknown handler ref 'eda.nonexistent'" in problems

    def test_known_handler_ref_accepted(self, workdir):
        payload = base_payload()
        payload["tool_bindings"] = {"find_rc_mismatch_pairs": "eda.find_rc_mismatch_pairs"}
        config = load_config(write_config(workdir, payload))
        assert [spec.name for spec in config.tools.list_tools()] == [
            "find_rc_mismatch_pairs", "retrieve_knowledge", "write_artifact"
        ]

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("write_artifact", "DUPLICATE_TOOL: tool 'write_artifact' already registered"),
            ("Bad-Name", "tool name 'Bad-Name' must match [a-z0-9_]+"),
            ("probe\n", "tool name 'probe\\n' must match [a-z0-9_]+"),
        ],
    )
    def test_binding_that_cannot_be_registered(self, workdir, name, reason):
        payload = base_payload()
        payload["tool_bindings"] = {name: "eda.find_rc_mismatch_pairs"}
        assert problems_of(workdir, payload) == [f"tool_bindings.{name}: {reason}"]

    def test_node_with_unknown_agent(self, workdir):
        payload = base_payload()
        payload["graph"]["nodes"][0]["agent_ref"] = "ghost"
        problems = problems_of(workdir, payload)
        assert "graph node n1: unknown agent 'ghost'" in problems

    def test_role_with_unknown_model_ref(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"]["roles"][0]["model_ref"] = "ghost"
        problems = problems_of(workdir, payload)
        assert "agents.a1.r: model_ref 'ghost' names no backend" in problems

    def test_role_with_unknown_tool_names_it(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"]["roles"][0]["tool_names"] = ["mystery_probe"]
        problems = problems_of(workdir, payload)
        assert "agents.a1.r: unknown tool 'mystery_probe'" in problems

    def test_builtin_tools_always_known(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"]["roles"][0]["tool_names"] = ["write_artifact", "retrieve_knowledge"]
        config = load_config(write_config(workdir, payload))
        assert config.agents["a1"].roles[0].tool_names == ("write_artifact", "retrieve_knowledge")

    def test_role_with_unknown_kb(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"]["roles"][0]["knowledge_base_refs"] = ["ghost"]
        problems = problems_of(workdir, payload)
        assert "agents.a1.r: unknown knowledge base 'ghost'" in problems

    def test_limits_required(self, workdir):
        payload = base_payload()
        del payload["limits"]
        problems = problems_of(workdir, payload)
        assert "limits.max_node_executions: required positive integer" in problems
        payload["limits"] = {"max_node_executions": 0}
        problems = problems_of(workdir, payload)
        assert "limits.max_node_executions: required positive integer" in problems
        payload["limits"] = {"max_node_executions": True}
        problems = problems_of(workdir, payload)
        assert "limits.max_node_executions: required positive integer" in problems

    def test_limits_below_node_count(self, workdir):
        payload = base_payload()
        payload["graph"]["nodes"].append(
            {"id": "n2", "title": "t", "goal": "g", "agent_ref": "a1"}
        )
        payload["limits"] = {"max_node_executions": 1}
        problems = problems_of(workdir, payload)
        assert "limits.max_node_executions: 1 is below the initial node count 2" in problems

    def test_problems_accumulate(self, workdir):
        payload = base_payload()
        payload["graph"]["nodes"][0]["agent_ref"] = "ghost"
        payload["tool_bindings"] = {"t": "bad.ref"}
        del payload["limits"]
        problems = problems_of(workdir, payload)
        assert len(problems) >= 3


class TestMalformedSections:
    """Sections of the wrong JSON shape are problem lines, never raw exceptions."""

    def test_graph_not_an_object(self, workdir):
        payload = base_payload()
        payload["graph"] = []
        assert problems_of(workdir, payload) == ["graph: must be a JSON object, got list"]

    def test_node_without_id(self, workdir):
        payload = base_payload()
        del payload["graph"]["nodes"][0]["id"]
        assert problems_of(workdir, payload) == ["graph.nodes[0]: missing key 'id'"]

    def test_backend_not_an_object(self, workdir):
        payload = base_payload()
        payload["backends"]["mock"] = "mock"
        problems = problems_of(workdir, payload)
        assert "backends.mock: must be a JSON object, got str" in problems

    def test_http_timeout_not_a_number(self, workdir):
        payload = base_payload()
        payload["backends"]["live"] = {"kind": "http", "timeout": "fast"}
        assert problems_of(workdir, payload) == [
            "backends.live.timeout: must be a positive number of at most 1e9, got str"
        ]

    @pytest.mark.parametrize("raw", ["1e400", "1e12"])
    def test_http_timeout_too_large(self, workdir, raw):
        """A timeout the socket layer cannot take is a problem, not an overflow at run time."""
        payload = base_payload()
        payload["backends"]["live"] = {"kind": "http", "base_url": "http://127.0.0.1:9", "timeout": "TIMEOUT"}
        path = workdir / "run.json"
        path.write_text(json.dumps(payload).replace('"TIMEOUT"', raw), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.problems == ["backends.live.timeout: must be a positive number of at most 1e9, got float"]

    @pytest.mark.parametrize("base_url", ["file:///etc", "ftp://example.com", "example.com:8000"])
    def test_http_base_url_not_http(self, workdir, base_url):
        payload = base_payload()
        payload["backends"]["live"] = {"kind": "http", "base_url": base_url}
        assert problems_of(workdir, payload) == [
            f"backends.live.base_url: must start with http:// or https://, got {base_url!r}"
        ]

    def test_http_base_url_either_scheme(self, workdir):
        payload = base_payload()
        payload["backends"]["live"] = {"kind": "http", "base_url": "HTTPS://example.com/v1"}
        payload["backends"]["local"] = {"kind": "http", "base_url": "http://127.0.0.1:8000"}
        config = load_config(write_config(workdir, payload))
        assert config.backends["live"].base_url == "HTTPS://example.com/v1"

    def test_inputs_string_not_split_into_letters(self, workdir):
        payload = base_payload()
        payload["graph"]["nodes"][0]["inputs"] = "abc"
        assert problems_of(workdir, payload) == ["graph.nodes[0].inputs: must be a list of strings, got str"]

    def test_role_and_section_shapes(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"]["roles"][0]["model_ref"] = ["mock"]
        payload["agents"]["a1"]["termination"] = {"max_turns": "8"}
        payload["tool_bindings"] = ["eda.find_rc_mismatch_pairs"]
        payload["seeds"] = "none"
        problems = problems_of(workdir, payload)
        assert "agents.a1.roles[0].model_ref: must be a string, got list" in problems
        assert "agents.a1.termination.max_turns: must be an integer, got str" in problems
        assert "tool_bindings: must be a JSON object, got list" in problems
        assert "seeds: must be a JSON object, got str" in problems


class TestAgentFields:
    """Agents are built straight from the shape-checked fields; a value out of
    range is one ``agents.<name>: <reason>`` problem."""

    def test_memory_and_termination_read(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"]["roles"][0]["memory"] = {"max_messages": 6}
        payload["agents"]["a1"]["termination"] = {"max_turns": 4, "stop_phrase": "DONE", "require_outputs": True}
        agent = load_config(write_config(workdir, payload)).agents["a1"]
        assert agent.roles[0].memory == MemoryWindow(max_messages=6)
        assert agent.termination == Termination(max_turns=4, stop_phrase="DONE", require_outputs=True)

    def test_defaults_and_empty_memory(self, workdir):
        payload = base_payload()
        payload["agents"]["a1"] = {"roles": [{"name": "r", "model_ref": "mock", "memory": {}}]}
        agent = load_config(write_config(workdir, payload)).agents["a1"]
        assert agent.topology == "single"
        assert agent.roles[0].memory is None
        assert agent.roles[0].system_prompt == ""
        assert agent.termination == Termination()

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"termination": {"max_turns": 0}}, "max_turns must be >= 1"),
            ({"roles": [{"name": "r", "model_ref": "mock", "memory": {"max_messages": 0}}]}, "max_messages must be >= 1"),
            (
                {"topology": "multi_round_robin", "roles": [{"name": "r", "model_ref": "mock"}] * 2},
                "role names must be unique within an agent",
            ),
            ({"topology": "swarm"}, "unknown topology 'swarm'"),
        ],
        ids=["max_turns", "max_messages", "repeated_role", "topology"],
    )
    def test_value_error_is_a_problem_line(self, workdir, capsys, change, reason):
        payload = base_payload()
        payload["agents"]["a1"].update(change)
        assert f"agents.a1: {reason}" in problems_of(workdir, payload)
        assert main(["validate", str(write_config(workdir, payload))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid: agents.a1: {reason}\n" in captured.err
        assert "Traceback" not in captured.err


def _json_paths(value, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


if st is not None:
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )
    PATHS = sorted(_json_paths(base_payload()), key=repr)

    class TestConfigFuzz:
        @settings(max_examples=300, deadline=None)
        @given(path=st.sampled_from(PATHS), value=JSON_VALUES, delete=st.booleans())
        def test_any_one_value_replaced_loads_or_lists_problems(self, tmp_path_factory, path, value, delete):
            workdir = tmp_path_factory.mktemp("fuzz")
            (workdir / "script.json").write_text(
                json.dumps([{"matcher": {"kind": "always"}, "responses": [{"content": "done"}]}]), encoding="utf-8"
            )
            payload = base_payload()
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            try:
                load_config(write_config(workdir, payload))
            except ConfigError as exc:
                assert exc.problems and all(isinstance(p, str) for p in exc.problems)


class TestPathsAndDigest:
    def test_relative_paths_resolve_against_config_dir(self, workdir):
        kb_dir = workdir / "kbs" / "rtl"
        kb_dir.mkdir(parents=True)
        (kb_dir / "doc.txt").write_text("content words here", encoding="utf-8")
        payload = base_payload()
        payload["knowledge_bases"] = {"rtl": "kbs/rtl"}
        config = load_config(write_config(workdir, payload))
        assert config.knowledge_bases["rtl"] == kb_dir.resolve()
        assert config.backends["mock"].script == (workdir / "script.json").resolve()

    def test_digest_ignores_key_order(self, workdir):
        payload = base_payload()
        reordered = {key: payload[key] for key in reversed(list(payload))}
        first = load_config(write_config(workdir, payload, "a.json"))
        second = load_config(write_config(workdir, reordered, "b.json"))
        assert first.digest() == second.digest()

    def test_digest_tracks_content(self, workdir):
        payload = base_payload()
        first = load_config(write_config(workdir, payload, "a.json"))
        payload["limits"]["max_node_executions"] = 5
        second = load_config(write_config(workdir, payload, "b.json"))
        assert first.digest() != second.digest()

    def test_seeds_carried_through(self, workdir):
        payload = base_payload()
        payload["seeds"] = {"design_brief": "block alpha"}
        config = load_config(write_config(workdir, payload))
        assert config.seeds == {"design_brief": "block alpha"}

"""Tool specs, closed-schema argument validation, guarded invocation."""

import hashlib

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover
    pytest.skip("hypothesis not installed", allow_module_level=True)

from marco.eda.toolpack import HANDLER_CATALOG
from marco.errors import ToolError
from marco.gateway import canonical_json
from marco.tools import (
    Param,
    ParamSchema,
    ToolContext,
    ToolRegistry,
    ToolResult,
    ToolSpec,
    error_result,
    validate_args,
)


def spec_with(*params: Param, name: str = "tool_under_test") -> ToolSpec:
    return ToolSpec(name=name, description="test tool", params=ParamSchema(params))


def ok_handler(args, context):
    return ToolResult(ok=True, content="fine", data=args)


class TestSpecs:
    def test_name_charset_enforced(self):
        with pytest.raises(ValueError):
            ToolSpec(name="Bad-Name", description="x")

    def test_duplicate_param_names(self):
        with pytest.raises(ValueError):
            ParamSchema((Param("a", "string"), Param("a", "integer")))

    def test_unknown_param_kind(self):
        with pytest.raises(ValueError):
            Param("a", "tuple")

    def test_summary_is_stable(self):
        spec = spec_with(Param("key", "string", doc="which key"))
        assert spec.summary() == {
            "name": "tool_under_test",
            "description": "test tool",
            "params": [{"name": "key", "kind": "string", "required": True, "doc": "which key"}],
        }

    def test_failed_result_needs_error_prefix(self):
        with pytest.raises(ValueError):
            ToolResult(ok=False, content="quietly broken")
        assert error_result("boom").content == "ERROR: boom"


class TestCatalogPin:
    def test_spec_summaries_unchanged(self):
        # Summaries are hashed into every completion request, so a changed
        # doc, kind or parameter order would miss every recorded replay cache.
        summaries = {key: spec.summary() for key, (spec, _) in HANDLER_CATALOG.items()}
        digest = hashlib.sha256(canonical_json(summaries).encode("utf-8")).hexdigest()
        assert digest == "0fca429b95d4ca69eb94059ac187bc2bd8a51e0a5b2b50e8958148b20875943d"


class TestValidateArgs:
    def test_number_passes(self):
        spec = spec_with(Param("ratio_threshold", "number"))
        normalized, violations = validate_args(spec, {"ratio_threshold": 5.0})
        assert violations == []
        assert normalized == {"ratio_threshold": 5.0}

    def test_missing_required(self):
        spec = spec_with(Param("ratio_threshold", "number"))
        normalized, violations = validate_args(spec, {})
        assert normalized is None
        assert [(v.code, v.param) for v in violations] == [("MISSING_REQUIRED", "ratio_threshold")]

    def test_unknown_field(self):
        spec = spec_with(Param("ratio_threshold", "number"))
        _, violations = validate_args(spec, {"ratio_threshold": 5.0, "extra": 1})
        assert [(v.code, v.param) for v in violations] == [("UNKNOWN_FIELD", "extra")]

    def test_optional_param_absent_ok(self):
        spec = spec_with(Param("k", "integer", required=False))
        normalized, violations = validate_args(spec, {})
        assert violations == []
        assert normalized == {}

    @pytest.mark.parametrize(
        "kind,raw,expected",
        [
            ("integer", "3", 3),
            ("integer", 3, 3),
            ("number", "2.5", 2.5),
            ("number", 2, 2.0),
            ("boolean", "true", True),
            ("boolean", "FALSE", False),
            ("boolean", True, True),
            ("string", "x", "x"),
            ("string_list", ["a", "b"], ["a", "b"]),
            ("string_list", (), []),
        ],
    )
    def test_exact_coercions(self, kind, raw, expected):
        spec = spec_with(Param("p", kind))
        normalized, violations = validate_args(spec, {"p": raw})
        assert violations == []
        assert normalized == {"p": expected}

    @pytest.mark.parametrize(
        "kind,raw",
        [
            ("integer", "3.0"),
            ("integer", "three"),
            ("integer", 3.5),
            ("integer", True),
            ("number", "3.5x"),
            ("number", False),
            ("number", None),
            ("boolean", "yes"),
            ("boolean", 1),
            ("string", 7),
            ("string_list", ["a", 1]),
            ("string_list", "a,b"),
        ],
    )
    def test_rejected_coercions(self, kind, raw):
        spec = spec_with(Param("p", kind))
        normalized, violations = validate_args(spec, {"p": raw})
        assert normalized is None
        assert [v.code for v in violations] == ["WRONG_KIND"]

    def test_violations_accumulate(self):
        spec = spec_with(Param("a", "integer"), Param("b", "number"))
        _, violations = validate_args(spec, {"a": "x", "ghost": 1})
        assert {v.code for v in violations} == {"WRONG_KIND", "UNKNOWN_FIELD", "MISSING_REQUIRED"}

    @settings(max_examples=60)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "i": st.one_of(st.integers(min_value=-999, max_value=999), st.text(max_size=6)),
                "n": st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6)),
                "b": st.one_of(st.booleans(), st.text(max_size=6)),
                "s": st.one_of(st.text(max_size=10), st.integers(min_value=0, max_value=9)),
                "ls": st.one_of(st.lists(st.text(max_size=4), max_size=3), st.text(max_size=6)),
            },
        )
    )
    def test_normalization_idempotent(self, args):
        spec = spec_with(
            Param("i", "integer", required=False),
            Param("n", "number", required=False),
            Param("b", "boolean", required=False),
            Param("s", "string", required=False),
            Param("ls", "string_list", required=False),
        )
        normalized, violations = validate_args(spec, args)
        if normalized is None:
            assert violations
            return
        again, again_violations = validate_args(spec, normalized)
        assert again_violations == []
        assert again == normalized


class TestRegistry:
    def test_register_then_lookup(self):
        registry = ToolRegistry()
        spec = spec_with(Param("ratio_threshold", "number"), name="rc_mismatch_pairs")
        registry.register_tool(spec, ok_handler)
        assert registry.lookup("rc_mismatch_pairs") == spec
        assert "rc_mismatch_pairs" in registry

    def test_duplicate_registration(self):
        registry = ToolRegistry()
        spec = spec_with(name="dup")
        registry.register_tool(spec, ok_handler)
        with pytest.raises(ToolError) as exc:
            registry.register_tool(spec, ok_handler)
        assert exc.value.code == "DUPLICATE_TOOL"

    def test_listing_sorted(self):
        registry = ToolRegistry()
        names = [f"tool_{c}" for c in "jcfbeadghi"]
        for name in names:
            registry.register_tool(spec_with(name=name), ok_handler)
        listed = [s.name for s in registry.list_tools()]
        assert listed == sorted(names)
        assert len(listed) == 10

    def test_lookup_unknown(self):
        with pytest.raises(ToolError) as exc:
            ToolRegistry().lookup("ghost")
        assert exc.value.code == "UNKNOWN_TOOL"


class TestInvoke:
    def test_unknown_tool_raises(self):
        with pytest.raises(ToolError) as exc:
            ToolRegistry().invoke_tool("ghost", {}, ToolContext())
        assert exc.value.code == "UNKNOWN_TOOL"

    def test_violation_rendering(self):
        registry = ToolRegistry()
        registry.register_tool(spec_with(Param("k", "integer"), name="t"), ok_handler)
        result = registry.invoke_tool("t", {"k": "x", "junk": 1}, ToolContext())
        assert not result.ok
        assert result.content == (
            "ERROR: invalid arguments for t: UNKNOWN_FIELD(junk): not in the tool's parameter schema;"
            " WRONG_KIND(k): expected integer, got str"
        )

    def test_handler_exception_contained(self):
        registry = ToolRegistry()

        def boom(args, context):
            raise RuntimeError("kaput")

        registry.register_tool(spec_with(name="t"), boom)
        result = registry.invoke_tool("t", {}, ToolContext())
        assert not result.ok
        assert result.content == "ERROR: t failed: kaput"

    def test_non_toolresult_contained(self):
        registry = ToolRegistry()
        registry.register_tool(spec_with(name="t"), lambda args, context: {"not": "a result"})
        result = registry.invoke_tool("t", {}, ToolContext())
        assert result.content == "ERROR: t returned a non-ToolResult value"

    def test_handler_gets_normalized_args(self):
        registry = ToolRegistry()
        registry.register_tool(spec_with(Param("k", "integer"), name="t"), ok_handler)
        result = registry.invoke_tool("t", {"k": "7"}, ToolContext())
        assert result.ok
        assert result.data == {"k": 7}

    @pytest.mark.parametrize("exc_type", [ValueError, KeyError, ZeroDivisionError, RecursionError])
    def test_containment_across_exception_types(self, exc_type):
        registry = ToolRegistry()

        def panicking(args, context):
            raise exc_type("no")

        registry.register_tool(spec_with(name="t"), panicking)
        result = registry.invoke_tool("t", {}, ToolContext())
        assert not result.ok
        assert result.content.startswith("ERROR: t failed:")


class TestContext:
    def test_write_without_blackboard(self):
        with pytest.raises(ToolError) as exc:
            ToolContext().write("k", "v")
        assert exc.value.code == "NO_BLACKBOARD"

    def test_write_records_key(self):
        from marco.knowledge import Blackboard

        blackboard = Blackboard({"n1": ["k"]})
        context = ToolContext(node_id="n1", blackboard=blackboard)
        version = context.write("k", "v")
        assert version == 1
        assert context.written == ["k"]

    def test_kb_scoping(self):
        """A tool call sees only the knowledge bases its role lists in
        ``knowledge_base_refs``; a role that lists none sees none."""
        from marco.agents import AgentConfig, RoleSpec, register_builtin_tools, run_node
        from marco.gateway import ChatMessage, MockBackend, ScriptMatcher, ToolCallRequest
        from marco.graph import TaskGraph, TaskNode
        from marco.knowledge import Blackboard, Document, KnowledgeBase

        spec, handler = HANDLER_CATALOG["eda.find_missing_clock_edges"]
        registry = ToolRegistry()
        register_builtin_tools(registry)
        registry.register_tool(spec, handler)
        node = TaskNode(id="n1", title="t", goal="g", agent_ref="solo")
        call = ToolCallRequest(id="c1", tool_name=spec.name, arguments={"report": "r"})
        kbs = {"notes": KnowledgeBase("notes"), "timing_reports": KnowledgeBase("timing_reports", [Document("r", REPORT)])}
        results = {}
        for refs in ((), ("notes",), ("timing_reports",)):
            backend = MockBackend()
            backend.register_script(ScriptMatcher(kind="always"), [ChatMessage(role="assistant", content="", tool_calls=(call,))])
            role = RoleSpec(name="solo_role", model_ref="m", tool_names=(spec.name,), knowledge_base_refs=refs)
            outcome = run_node(
                node, TaskGraph(nodes=(node,), edges=()), AgentConfig(name="solo", roles=(role,)),
                {"m": backend}, registry, Blackboard(), kbs,
            )
            results[refs] = outcome.transcript[2].meta["ok"], outcome.transcript[2].message.content
        not_found = (False, "ERROR: find_missing_clock_edges failed: \"document 'r' not found in any accessible knowledge base\"")
        assert results[()] == results[("notes",)] == not_found
        assert results[("timing_reports",)][0] is True

    def test_get_document_across_kbs(self):
        from marco.knowledge import Document, KnowledgeBase

        kb_a = KnowledgeBase("a", [Document("shared", "from a")])
        kb_b = KnowledgeBase("b", [Document("only_b", "from b")])
        context = ToolContext(knowledge_bases={"a": kb_a, "b": kb_b})
        assert context.get_document("only_b") == "from b"
        assert context.get_document("shared") == "from a"
        with pytest.raises(KeyError):
            context.get_document("ghost")


REPORT = (
    "corner: tt mode: func check: max\n"
    "PATH p0 start=a end=b clk=clk edges=rise slack=0.1\n"
    "  STAGE 0 net=n0 cell=U0 R=100 C=2 delay=0.05 lc=0.1 xtd=0.0 aggr=none\n"
)


class TestReportLoading:
    @pytest.fixture
    def parses(self, monkeypatch):
        import marco.eda.toolpack

        texts = []
        real = marco.eda.toolpack.parse_timing_report
        monkeypatch.setattr(marco.eda.toolpack, "parse_timing_report", lambda text: texts.append(text) or real(text))
        return texts

    def invoke(self, context: ToolContext, report: str) -> ToolResult:
        spec, handler = HANDLER_CATALOG["eda.find_missing_clock_edges"]
        registry = ToolRegistry()
        registry.register_tool(spec, handler)
        return registry.invoke_tool(spec.name, {"report": report}, context)

    def test_parsed_once_from_first_kb_in_name_order(self, parses):
        from marco.knowledge import Document, KnowledgeBase

        kb_a = KnowledgeBase("a", [Document("r", REPORT)])
        kb_b = KnowledgeBase("b", [Document("r", "not a report")])
        context = ToolContext(knowledge_bases={"b": kb_b, "a": kb_a})
        first, second = self.invoke(context, "r"), self.invoke(context, "r")
        assert first.ok and second == first
        assert parses == [REPORT]
        assert set(kb_a.parsed) == {"r"} and kb_b.parsed == {}

    def test_parse_failure_not_kept(self, parses):
        from marco.knowledge import Document, KnowledgeBase

        kb = KnowledgeBase("a", [Document("r", "not a report")])
        context = ToolContext(knowledge_bases={"a": kb})
        first, second = self.invoke(context, "r"), self.invoke(context, "r")
        assert not first.ok and second == first
        assert parses == ["not a report"] * 2
        assert kb.parsed == {}

    def test_missing_document(self, parses):
        from marco.knowledge import KnowledgeBase

        result = self.invoke(ToolContext(knowledge_bases={"a": KnowledgeBase("a")}), "ghost")
        assert result.content == (
            "ERROR: find_missing_clock_edges failed: \"document 'ghost' not found in any accessible knowledge base\""
        )
        assert parses == []


class TestTimingDistributionTool:
    def test_bundled_reports_through_the_registry(self):
        """Per-report and pooled path counts against the PATH lines of the
        bundled three-corner reports, and the payload saved under ``save_as``."""
        import marco
        from pathlib import Path

        from marco.knowledge import Blackboard, load_kb_dir

        fixtures = Path(marco.__file__).resolve().parent / "data" / "fixtures_3corner"
        names = ["ff_0p88v_m40c__func__max", "ss_0p72v_125c__func__max", "tt_0p80v_25c__func__max"]
        path_counts = [(fixtures / f"{name}.txt").read_text(encoding="utf-8").count("\nPATH ") for name in names]
        spec, handler = HANDLER_CATALOG["eda.timing_distribution"]
        registry = ToolRegistry()
        registry.register_tool(spec, handler)
        board = Blackboard({"n1": ["dist"]})
        context = ToolContext(
            node_id="n1", blackboard=board, knowledge_bases={"reports": load_kb_dir("reports", fixtures)}
        )
        result = registry.invoke_tool(
            "timing_distribution", {"reports": names, "bin_width": 0.1, "save_as": "dist"}, context
        )
        assert result.ok
        payload = result.data
        assert payload["op"] == "timing_distribution"
        assert payload["reports"] == names
        assert [row["count"] for row in payload["per_report"]] == path_counts
        assert [sum(row["counts"].values()) for row in payload["per_report"]] == path_counts
        assert payload["pooled"]["count"] == sum(path_counts) == sum(payload["pooled"]["counts"].values())
        assert [row["corner"] for row in payload["per_report"]] == [name.split("__")[0] for name in names]
        assert board.read("dist") == payload
        assert context.written == ["dist"]
        assert result.content.endswith(f"pooled n={payload['pooled']['count']}\nsaved to 'dist'")

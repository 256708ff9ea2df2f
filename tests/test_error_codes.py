"""README's error-code table lists exactly the codes the source raises, and
every code a run can raise is rejected at load or has a reason it cannot be."""

import ast
import json
import os
import re
from pathlib import Path
from unittest import mock

import pytest

import marco
from marco.config import load_config
from marco.engine import run
from marco.errors import ConfigError, MarcoError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

SRC = Path(marco.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
CODE = re.compile(r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)*")


def raised_codes() -> set[str]:
    """The first string argument of every ``*Error(``, ``Violation(``,
    ``ArgViolation(`` and ``_fail(`` call in ``src/``, and of the
    ``__init__`` calls error classes make, where it is an uppercase code."""
    codes = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if not (name.endswith("Error") or name in ("Violation", "ArgViolation", "_fail", "__init__")):
                continue
            texts = [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if texts and CODE.fullmatch(texts[0]):
                codes.add(texts[0])
    return codes


def table_codes() -> set[str]:
    """The backticked codes in the rows of README's "Error codes" table."""
    section = README.read_text(encoding="utf-8").split("## Error codes", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and not line.startswith("| area")]
    return {code for row in rows for code in re.findall(r"`([A-Z][A-Z0-9_]*)`", row)}


def test_every_raised_code_is_documented():
    assert sorted(raised_codes() - table_codes()) == []


def test_every_documented_code_is_raised():
    assert sorted(table_codes() - raised_codes()) == []


# Why a code can still be raised by a run of a config that load_config accepted.
REASONS = {
    "model output": "what a model replies decides it, and validation runs no model",
    "network": "an http backend's server answers only at run time",
    "changed after load": "a cache or knowledge-base file is read at run time, after load_config",
    "planner expansion": "a planner adds nodes at run time, and each expansion is checked when applied",
    "CLI flag": "a `marco run` flag names it, not the config",
    "engine invariant": "the engine checks its own result; no input reaches it",
}


def _kb_dir_missing(payload: dict) -> None:
    payload["knowledge_bases"] = {"notes": "no_such_dir"}


# One row per code a run can raise: a reason from REASONS, or a config
# mutation that load_config rejects, so a run never sees its cause.
RUN_CODES = {
    "MISSING_INPUT": "model output",  # a producer that declares the key may not write it
    "BACKEND_ERROR": "network",  # wraps the gateway codes below when a model call fails
    "NO_SCRIPT_MATCH": "model output",  # earlier replies decide the request a script must match
    "CACHE_MISS": "changed after load",
    "CACHE_CORRUPT": "changed after load",
    "CACHE_WRITE": "changed after load",  # load_config checks a recording cache_dir can be made
    "HTTP_ERROR": "network",
    "BUDGET_EXCEEDED": "planner expansion",  # load_config holds the limit to the initial node count
    "UNKNOWN_BACKEND": "CLI flag",  # --backend
    "BASELINE_UNSUPPORTED": "CLI flag",  # --baseline
    "TRACE_ORDER": "engine invariant",
    "KB_DIR_MISSING": _kb_dir_missing,
    "KB_UNREADABLE": "changed after load",  # `marco validate` reads every file as a run does
}


def run_codes() -> set[str]:
    """The code of every ``EngineError(`` and ``GatewayError(`` call in ``src/``,
    and the knowledge-base codes a run's load raises."""
    codes = {"KB_DIR_MISSING", "KB_UNREADABLE"}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("EngineError", "GatewayError"):
                codes.add(node.args[0].value)
    return codes


def test_every_run_code_has_a_row():
    assert sorted(run_codes() ^ RUN_CODES.keys()) == []


@pytest.mark.parametrize("code", sorted(RUN_CODES))
def test_row_is_a_reason_or_a_rejected_mutation(code, tmp_path):
    row = RUN_CODES[code]
    if isinstance(row, str):
        assert row in REASONS
        return
    (tmp_path / "script.json").write_text('[{"matcher": {"kind": "always"}, "responses": [{"content": "x"}]}]', encoding="utf-8")
    payload = {
        "graph": {"mode": "static", "nodes": [{"id": "n1", "agent_ref": "a1"}]},
        "agents": {"a1": {"roles": [{"name": "r", "model_ref": "mock"}]}},
        "backends": {"mock": {"kind": "mock", "script": "script.json"}},
        "limits": {"max_node_executions": 1},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    load_config(path)
    row(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def _leaves(value):
    """Every value inside a JSON document that is neither an object nor a list."""
    if isinstance(value, (dict, list)):
        for child in value.values() if isinstance(value, dict) else value:
            yield from _leaves(child)
    else:
        yield value


def _bundled_payload(name: str) -> dict:
    """A bundled config with its script and knowledge-base paths made
    absolute, so a copy loads from any directory."""
    path = SRC / "data" / "configs" / f"{name}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    for backend in payload["backends"].values():
        backend["script"] = str(path.parent / backend["script"])
    payload["knowledge_bases"] = {kb: str(path.parent / d) for kb, d in payload["knowledge_bases"].items()}
    return payload


if st is not None:
    from test_config import JSON_VALUES, _json_paths

    class TestLoadedConfigsRun:
        """Validation is the one gate: a run of a config that ``load_config``
        accepted completes, or fails with a code that has a fixed reason in
        RUN_CODES, never one that a config mutation stands for."""

        @settings(max_examples=300, deadline=None)
        @given(name=st.sampled_from(["timing_debug", "mcmm"]), data=st.data())
        def test_mutated_bundled_config_runs_or_fails_for_a_reason(self, tmp_path_factory, name, data):
            payload = _bundled_payload(name)
            # the config's own leaf values pass the kind checks far more often than random ones
            leaves = sorted({repr(v): v for v in _leaves(payload)}.items())
            values = JSON_VALUES | st.sampled_from([v for _, v in leaves])
            for _ in range(data.draw(st.integers(1, 2), label="mutations")):
                path = data.draw(st.sampled_from(sorted(_json_paths(payload), key=repr)), label="path")
                parent = payload
                for key in path[:-1]:
                    parent = parent[key]
                if data.draw(st.booleans(), label="delete"):
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = data.draw(values, label="value")
            config_path = tmp_path_factory.mktemp("mutated") / "run.json"
            config_path.write_text(json.dumps(payload), encoding="utf-8")
            try:
                config = load_config(config_path)
            except ConfigError:
                return
            # an http backend made by a mutation must find no server to call
            with mock.patch.dict(os.environ, {"MARCO_BASE_URL": ""}):
                try:
                    run(config, deterministic=True)
                except MarcoError as exc:
                    assert isinstance(RUN_CODES.get(exc.code), str), f"{exc.code} after load_config accepted: {exc}"

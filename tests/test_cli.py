"""Command-line surface: subcommands, output lines, exit codes."""

import contextlib
import http.server
import io
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

import marco
from marco.cli import main
from marco.config import load_config
from marco.errors import ConfigError
from marco.gateway import read_script_file

BUNDLED = Path(marco.__file__).resolve().parent / "data" / "configs"
TIMING_DEBUG = str(BUNDLED / "timing_debug.json")
MCMM = str(BUNDLED / "mcmm.json")
MANIFEST = str(BUNDLED.parent / "fixtures_3corner" / "manifest.tsv")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bad_config(tmp_path: Path) -> Path:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"graph": {"mode": "static", "nodes": [], "edges": []}}), encoding="utf-8")
    return path


def write_one_node_config(tmp_path: Path, **extra_backends: dict) -> Path:
    """A valid one-node config whose mock script matches no request."""
    script = [{"matcher": {"kind": "substring", "value": "absent"}, "responses": [{"content": "x"}]}]
    (tmp_path / "scripts.json").write_text(json.dumps(script), encoding="utf-8")
    payload = {
        "graph": {"mode": "static", "nodes": [{"id": "n1", "title": "t", "goal": "g", "agent_ref": "solo"}]},
        "agents": {"solo": {"topology": "single", "roles": [{"name": "w", "model_ref": "mock"}]}},
        "backends": {"mock": {"kind": "mock", "script": "scripts.json"}, **extra_backends},
        "limits": {"max_node_executions": 1},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestValidate:
    def test_bundled_config_ok(self, capsys):
        code, out, err = run_cli(capsys, "validate", TIMING_DEBUG)
        assert code == 0
        assert out == "ok: 7 node(s), 1 agent(s), mode=static\n"
        assert err == ""

    def test_invalid_config_lists_problems(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", str(write_bad_config(tmp_path)))
        assert code == 1
        assert out == ""
        assert err.count("invalid: ") == len(err.splitlines())
        assert len(err.splitlines()) >= 1

    def test_circular_replay_chain_invalid(self, capsys, tmp_path):
        config_path = write_one_node_config(
            tmp_path,
            r1={"kind": "replay", "cache_dir": "c1", "inner": "r2", "record": True},
            r2={"kind": "replay", "cache_dir": "c2", "inner": "r1", "record": True},
        )
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err == "invalid: backends.r1: circular replay inner chain r1 -> r2 -> r1\n"

    def test_empty_mock_responses_invalid(self, capsys, tmp_path):
        config_path = write_one_node_config(tmp_path)
        (tmp_path / "scripts.json").write_text(
            json.dumps([{"matcher": {"kind": "always"}, "responses": []}]), encoding="utf-8"
        )
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err == "invalid: backends.mock: script entry 0: a script needs at least one response\n"

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["utf16_bom", "too_deep"])
    def test_unreadable_config_is_one_line(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"invalid: {path}: invalid JSON: ")
        assert len(err.splitlines()) == 1

    def test_too_deep_mock_script_is_a_backend_problem(self, capsys, tmp_path):
        config_path = write_one_node_config(tmp_path)
        (tmp_path / "scripts.json").write_bytes(b"[" * 100_000)
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err.startswith("invalid: backends.mock: script file ")
        assert "is not readable JSON: maximum recursion depth exceeded" in err
        assert len(err.splitlines()) == 1

    def test_malformed_sections_listed_without_traceback(self, capsys, tmp_path):
        config_path = write_one_node_config(tmp_path, live={"kind": "http", "timeout": "fast"})
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["graph"]["nodes"][0]["inputs"] = "abc"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err == (
            "invalid: graph.nodes[0].inputs: must be a list of strings, got str\n"
            "invalid: backends.live.timeout: must be a positive number of at most 1e9, got str\n"
        )

    @pytest.mark.parametrize("name", ["write_artifact", "Bad-Name"])
    def test_binding_that_cannot_be_registered(self, capsys, tmp_path, name):
        shutil.copytree(BUNDLED.parent, tmp_path / "data")
        config_path = tmp_path / "data" / "configs" / "timing_debug.json"
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["tool_bindings"][name] = "eda.find_rc_mismatch_pairs"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"invalid: tool_bindings.{name}: ")
        assert len(err.splitlines()) == 1

    def test_knowledge_edge_against_execution_order(self, capsys, tmp_path):
        shutil.copytree(BUNDLED.parent, tmp_path / "data")
        config_path = tmp_path / "data" / "configs" / "timing_debug.json"
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["graph"]["nodes"][0]["inputs"] = ["m3_findings"]
        payload["graph"]["edges"].append({"src": "m3", "dst": "m1", "kind": "knowledge", "key": "m3_findings"})
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err == (
            "invalid: graph: UNORDERED_KNOWLEDGE_EDGE on m3->m1 [knowledge key='m3_findings']:"
            " no execution path from 'm3' to 'm1', so 'm1' may run first\n"
        )

    def test_unproduced_static_input(self, capsys, tmp_path):
        shutil.copytree(BUNDLED.parent, tmp_path / "data")
        config_path = tmp_path / "data" / "configs" / "timing_debug.json"
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["graph"]["nodes"][0]["inputs"] = ["nobody_writes_this"]
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err == (
            "invalid: graph node m1: input nobody_writes_this is neither seeded"
            " nor an output of an execution ancestor\n"
        )

    def test_unreadable_knowledge_base_file(self, capsys, tmp_path):
        config_path = write_one_node_config(tmp_path)
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["knowledge_bases"] = {"notes": "kb", "empty": "kb_empty"}
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        (tmp_path / "kb").mkdir()
        (tmp_path / "kb_empty").mkdir()
        (tmp_path / "kb" / "good.txt").write_text("fine", encoding="utf-8")
        (tmp_path / "kb" / "bad.txt").write_bytes(b"\xff\xfe not utf-8")
        code, out, err = run_cli(capsys, "validate", str(config_path))
        assert code == 1
        assert out == ""
        assert err.startswith("invalid: knowledge_bases.notes: KB_UNREADABLE: knowledge base file ")
        assert str(tmp_path / "kb" / "bad.txt") in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "ghost.json"))
        assert code == 1
        assert "no such config file" in err


class TestRun:
    def test_timing_debug_run_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out, err = run_cli(
            capsys, "run", TIMING_DEBUG, "--deterministic", "--trace-out", str(trace_path)
        )
        assert code == 0
        assert "m1: solved (turns=4)" in out
        assert "m6: budget_exhausted (turns=6)" in out
        assert "status: completed" in out
        assert f"trace written to {trace_path}" in out
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert payload["status"] == "completed"
        assert len(payload["outcomes"]) == 7

    def test_unknown_backend_override(self, capsys):
        code, _, err = run_cli(capsys, "run", TIMING_DEBUG, "--deterministic", "--backend", "ghost")
        assert code == 1
        assert "UNKNOWN_BACKEND" in err

    def test_trace_out_replaces_a_longer_file(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text("x" * 1_000_000, encoding="utf-8")
        code, _, _ = run_cli(capsys, "run", TIMING_DEBUG, "--deterministic", "--trace-out", str(trace_path))
        assert code == 0
        assert json.loads(trace_path.read_text(encoding="utf-8"))["status"] == "completed"

    def test_run_without_a_trace_keeps_an_existing_trace_out(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text('{"previous": true}', encoding="utf-8")
        code, out, err = run_cli(
            capsys, "run", TIMING_DEBUG, "--deterministic", "--backend", "ghost", "--trace-out", str(trace_path)
        )
        assert code == 1
        assert out == ""
        assert "UNKNOWN_BACKEND" in err
        assert trace_path.read_text(encoding="utf-8") == '{"previous": true}'

    def test_invalid_config_short_circuits(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(write_bad_config(tmp_path)), "--deterministic")
        assert code == 1
        assert "invalid:" in err

    def test_baseline_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", TIMING_DEBUG, "--deterministic", "--baseline", "--backend", "baseline_mock"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("baseline: ")
        assert "status: completed" in out

    def test_engine_failure_writes_partial_trace(self, capsys, tmp_path):
        scripts = tmp_path / "scripts.json"
        scripts.write_text(
            json.dumps([{"matcher": {"kind": "always"}, "responses": [{"content": "ok TASK COMPLETE"}]}]),
            encoding="utf-8",
        )
        payload = {
            "graph": {
                "mode": "static",
                "nodes": [
                    {"id": "n1", "title": "t", "goal": "g", "agent_ref": "solo", "outputs": ["n1_out"]},
                    {"id": "n2", "title": "t", "goal": "g", "agent_ref": "solo", "inputs": ["n1_out"]},
                ],
                "edges": [
                    {"src": "n1", "dst": "n2", "kind": "execution"},
                    {"src": "n1", "dst": "n2", "kind": "knowledge", "key": "n1_out"},
                ],
            },
            "agents": {
                "solo": {
                    "topology": "single",
                    "roles": [{"name": "w", "model_ref": "mock"}],
                    "termination": {"max_turns": 4, "stop_phrase": "TASK COMPLETE"},
                }
            },
            "backends": {"mock": {"kind": "mock", "script": "scripts.json"}},
            "limits": {"max_node_executions": 4},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        trace_path = tmp_path / "partial.json"
        code, out, err = run_cli(
            capsys, "run", str(config_path), "--deterministic", "--trace-out", str(trace_path)
        )
        assert code == 1
        assert "MISSING_INPUT" in err
        assert f"partial trace written to {trace_path}" in err
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert payload["status"] == "aborted"

    def test_error_code_printed_once(self, capsys, tmp_path):
        config_path = write_one_node_config(tmp_path)
        code, _, err = run_cli(capsys, "run", str(config_path), "--deterministic")
        assert code == 1
        assert err.startswith("error: BACKEND_ERROR: ")
        assert err.count("BACKEND_ERROR") == 1


    def test_corrupt_cache_entry(self, capsys, tmp_path):
        config_path = write_one_node_config(
            tmp_path, rec={"kind": "replay", "cache_dir": "cache", "inner": "mock", "record": True}
        )
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["agents"]["solo"]["roles"][0]["model_ref"] = "rec"
        payload["agents"]["solo"]["termination"] = {"max_turns": 2, "stop_phrase": "DONE"}
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        script = [{"matcher": {"kind": "always"}, "responses": [{"content": "DONE"}]}]
        (tmp_path / "scripts.json").write_text(json.dumps(script), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", str(config_path), "--deterministic")
        assert (code, err) == (0, "")
        (entry,) = (tmp_path / "cache").glob("*.json")
        recorded = json.loads(entry.read_text(encoding="utf-8"))
        recorded["response"]["content"] = 5
        entry.write_text(json.dumps(recorded), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(config_path), "--deterministic")
        assert code == 1
        assert out == ""
        assert err.startswith("error: BACKEND_ERROR: ")
        assert "CACHE_CORRUPT" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_unreadable_knowledge_base_file(self, capsys, tmp_path):
        config_path = write_one_node_config(tmp_path)
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["knowledge_bases"] = {"notes": "kb"}
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        (tmp_path / "kb").mkdir()
        (tmp_path / "kb" / "bad.txt").write_bytes(b"\xff\xfe not utf-8")
        code, out, err = run_cli(capsys, "run", str(config_path), "--deterministic")
        assert code == 1
        assert out == ""
        assert err.startswith("error: KB_UNREADABLE: knowledge base file ")
        assert "bad.txt" in err and len(err.splitlines()) == 1

    def test_trace_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "trace.json"
        code, out, err = run_cli(capsys, "run", TIMING_DEBUG, "--deterministic", "--trace-out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert len(err.splitlines()) == 1

    def test_malformed_completion_body(self, capsys, tmp_path):
        class NotJson(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self.send_response(200)
                self.send_header("Content-Length", "9")
                self.end_headers()
                self.wfile.write(b"not json!")

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), NotJson)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            web = {"kind": "http", "base_url": f"http://127.0.0.1:{server.server_port}"}
            config_path = write_one_node_config(tmp_path, web=web)
            code, out, err = run_cli(capsys, "run", str(config_path), "--backend", "web", "--deterministic")
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert code == 1
        assert err.startswith("error: BACKEND_ERROR: ")
        assert "HTTP_ERROR: malformed completion body: not JSON" in err
        assert len(err.splitlines()) == 1


class TestGraphExport:
    def test_export_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "graph", "export", TIMING_DEBUG, "--dot", "-")
        assert code == 0
        assert out.startswith("digraph marco {")
        assert '"m1" -> "m2"' in out

    def test_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli(capsys, "graph", "export", MCMM, "--dot", str(target))
        assert code == 0
        assert f"dot written to {target}" in out
        text = target.read_text(encoding="utf-8")
        assert "shape=box" in text

    def test_export_through_a_file(self, capsys, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "graph", "export", MCMM, "--dot", str(tmp_path / "file" / "graph.dot"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: [Errno 20] Not a directory")
        assert len(err.splitlines()) == 1

    def test_export_rejects_bad_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "graph", "export", str(write_bad_config(tmp_path)), "--dot", "-")
        assert code == 1
        assert "invalid:" in err


class TestFixturesGen:
    def test_seeded_generation_is_reproducible(self, capsys, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code, out, _ = run_cli(capsys, "fixtures", "gen", "--seed", "7", "--out", str(out_a))
        assert code == 0
        assert out.count("wrote ") == len(out.splitlines())
        code, _, _ = run_cli(capsys, "fixtures", "gen", "--seed", "7", "--out", str(out_b))
        assert code == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        assert "manifest.tsv" in names_a
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_out_through_a_file(self, capsys, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "fixtures", "gen", "--out", str(tmp_path / "file" / "set"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_bad_generation_args(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fixtures", "gen", "--paths", "3", "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error: ")


class TestScore:
    def test_timing_debug_score_line(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "run", TIMING_DEBUG, "--deterministic", "--trace-out", str(trace_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "score", str(trace_path), MANIFEST)
        assert code == 0
        assert "pass-rate: 6/7 (86%)" in out
        assert "M6: FAIL" in out
        assert "M1: PASS" in out

    def test_missing_trace_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "score", str(tmp_path / "ghost.json"), MANIFEST)
        assert code == 1
        assert err.startswith("error: ")

    def test_non_object_trace_rejected(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text("[1]", encoding="utf-8")
        code, _, err = run_cli(capsys, "score", str(trace_path), MANIFEST)
        assert code == 1
        assert "trace root must be a JSON object" in err

    def test_non_object_blackboard_rejected(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text('{"blackboard": []}', encoding="utf-8")
        code, out, err = run_cli(capsys, "score", str(trace_path), MANIFEST)
        assert code == 1
        assert out == ""
        assert err == "error: trace blackboard must be a JSON object\n"

    def test_too_deep_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_bytes(b"[" * 100_000)
        code, out, err = run_cli(capsys, "score", str(trace_path), MANIFEST)
        assert code == 1
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded")
        assert len(err.splitlines()) == 1

    def test_malformed_manifest(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text("{}", encoding="utf-8")
        manifest_path = tmp_path / "manifest.tsv"
        manifest_path.write_text("only-one-field\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "score", str(trace_path), manifest_path.as_posix())
        assert code == 1
        assert err.startswith("error: ")


if st is not None:
    TRACE_KEYS = st.sampled_from(["blackboard", "m1_findings", "value", "identities"]) | st.text(max_size=4)
    JSON_TEXT = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TRACE_KEYS, inner, max_size=3),
        max_leaves=8,
    ).map(lambda value: json.dumps(value).encode("utf-8"))
    REPEATED = st.builds(
        lambda head, n: head * n, st.sampled_from([b"[", b'{"a":', b"\xff\xfe"]), st.sampled_from([1, 2_000, 100_000])
    )
    INPUT_BYTES = st.binary(max_size=64) | REPEATED | st.text(max_size=16).map(lambda t: t.encode("utf-16")) | JSON_TEXT

    def scorable(raw: bytes) -> bool:
        """Whether ``marco score`` can score a trace file holding ``raw``."""
        try:
            trace = json.loads(raw.decode("utf-8"))
        except (RecursionError, ValueError):
            return False
        return isinstance(trace, dict) and isinstance(trace.get("blackboard", {}), dict)

    class TestAnyInputBytes:
        """Any bytes in a config, mock script or trace file end in the
        surface's own failure: a ConfigError, problem lines, or exit 1."""

        @settings(max_examples=100, deadline=None)
        @given(raw=INPUT_BYTES)
        def test_config_file(self, tmp_path_factory, raw):
            path = tmp_path_factory.getbasetemp() / "any_config.json"
            path.write_bytes(raw)
            with contextlib.suppress(ConfigError):
                load_config(path)

        @settings(max_examples=100, deadline=None)
        @given(raw=INPUT_BYTES)
        def test_script_file(self, tmp_path_factory, raw):
            path = tmp_path_factory.getbasetemp() / "any_script.json"
            path.write_bytes(raw)
            scripts, problems = read_script_file(path)
            assert all(isinstance(problem, str) for problem in problems)
            assert problems or isinstance(json.loads(raw.decode("utf-8")), list)

        @settings(max_examples=100, deadline=None)
        @given(raw=INPUT_BYTES)
        def test_scored_trace(self, tmp_path_factory, raw):
            path = tmp_path_factory.getbasetemp() / "any_trace.json"
            path.write_bytes(raw)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["score", str(path), MANIFEST])
            if scorable(raw):
                assert (code, err.getvalue()) == (0, "")
            else:
                assert code == 1
                assert out.getvalue() == ""
                assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_run_requires_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2


def declared_script_command(tmp_path: Path) -> tuple[list[str], dict[str, str]]:
    """Build the `marco` console script the way an installer does.

    The entry point is read from the project's own `pyproject.toml`, a wrapper
    calling it is written to `tmp_path`, and the wrapper runs with the source
    tree `marco` was imported from first on `PYTHONPATH`.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["marco"]
    module, attr = spec.split(":")
    wrapper = tmp_path / "marco"
    wrapper.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n", encoding="utf-8")
    source_root = str(Path(marco.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return [sys.executable, str(wrapper)], env


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("marco")
        if exe:
            command, env = [exe], None
        else:
            command, env = declared_script_command(tmp_path)
        proc = subprocess.run(
            [*command, "validate", TIMING_DEBUG], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout == "ok: 7 node(s), 1 agent(s), mode=static\n"
        assert proc.stderr == ""

    def test_validate_too_deep_config_prints_no_traceback(self, tmp_path):
        command, env = declared_script_command(tmp_path)
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100_000)
        proc = subprocess.run([*command, "validate", str(deep)], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"invalid: {deep}: invalid JSON: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "score"])
    def test_run_and_score_too_deep_file_print_no_traceback(self, tmp_path, command):
        script, env = declared_script_command(tmp_path)
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100_000)
        argv = [str(deep), MANIFEST] if command == "score" else [str(deep)]
        proc = subprocess.run([*script, command, *argv], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

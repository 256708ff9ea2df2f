"""The benchmark's tracer wraps marco's layer entry points where callers look
them up; a refactor that moves or renames one fails here."""

import importlib.util
from pathlib import Path

import marco
import marco.engine
from marco.config import load_config

REPO = Path(__file__).resolve().parent.parent
TIMING_DEBUG = Path(marco.__file__).resolve().parent / "data" / "configs" / "timing_debug.json"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_target_and_uninstall_restores():
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer._wrapped
        assert all(owner.__dict__[attr] is wrapped for owner, attr, wrapped in tracer._wrapped)
        tracer.begin_run()
        marco.engine.run(load_config(TIMING_DEBUG), deterministic=True)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in tracer._patches)
    seen = {span[0] for span in tracer.spans}
    assert {"engine.run", "agents.run_node", "tools.invoke", "knowledge.load_kb_dir", "eda.report.parse"} <= seen

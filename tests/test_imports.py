"""``src/marco`` imports only the standard library and itself, so a new
runtime dependency fails here rather than in a user's install; threads live
only where the engine puts them; files are read only through the gateway's
one reader; and ``import marco`` loads the framework."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import marco

SRC = Path(marco.__file__).resolve().parent
ALLOWED = sys.stdlib_module_names | {"marco"}


def imported_top_names(tree: ast.AST) -> set[str]:
    """The top-level package of every absolute import anywhere in a module,
    lazy imports inside functions included; relative imports are marco's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_stdlib_and_marco_imported():
    outside = {
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in imported_top_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED
    }
    assert not outside, sorted(outside)


def thread_modules(tree: ast.AST) -> set[str]:
    """``concurrent`` and ``threading`` (``_thread`` counted as it), for every
    import of one of them, or of a module under one, anywhere in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return {"threading" if name == "_thread" else name for name in names} & {"concurrent", "threading"}


def test_threads_live_only_in_the_engine_pool_and_the_gateway():
    """Only the engine starts threads, a pool that runs backend calls and
    nothing else, and only the gateway, whose backends those calls reach,
    takes locks. Code that ran a node's own work on a worker again would
    need a lock somewhere else, and fails here."""
    users = {
        name: sorted(str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                     if name in thread_modules(ast.parse(path.read_text(encoding="utf-8"))))
        for name in ("concurrent", "threading")
    }
    assert users == {"concurrent": ["engine.py"], "threading": ["gateway.py"]}


def descriptor_reads(tree: ast.AST) -> set[str]:
    """``os.read`` and ``os.readv``, for every use of one of them anywhere in a
    module, as ``os.<name>`` or imported from ``os``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names.update(alias.name for alias in node.names)
    return names & {"read", "readv"}


def test_descriptors_are_read_only_in_the_gateway():
    """``gateway.read_file`` decides how marco opens and reads a file it finds
    or is handed (regular files only, read to EOF); a second read loop
    elsewhere fails here."""
    readers = sorted(str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                     if descriptor_reads(ast.parse(path.read_text(encoding="utf-8"))))
    assert readers == ["gateway.py"]


def test_import_marco_loads_the_framework():
    # the benchmark's worker imports marco to pay every import before its first timed run
    probe = "import sys, marco; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert {"marco.engine", "marco.config", "marco.agents"} <= set(loaded.stdout.split())
    assert "fractions" not in loaded.stdout.split()  # slack_bin floors over integer ratios
    # a run with a backend that waits loads the pool, and a failed HTTP attempt logs
    assert not {"concurrent.futures", "logging"} & set(loaded.stdout.split())
    # records generate no code per class, so nothing needs dataclasses
    assert "dataclasses" not in loaded.stdout.split()


def test_runs_with_no_backend_that_waits_load_no_pool():
    """The bundled runs serve every role from a mock, so the engine calls
    each backend on its own thread: no pool, no worker thread."""
    probe = """if True:
        import sys, threading
        from pathlib import Path
        import marco
        from marco.config import load_config
        from marco.engine import run, run_baseline

        started = []
        real_start = threading.Thread.start
        threading.Thread.start = lambda thread: started.append(thread.name) or real_start(thread)
        configs = Path(marco.__file__).parent / "data" / "configs"
        timing_debug = load_config(configs / "timing_debug.json")
        for trace in (run(timing_debug), run_baseline(timing_debug), run(load_config(configs / "mcmm.json"))):
            assert trace.status == "completed"
        print("concurrent.futures" in sys.modules, *started)
    """
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    pooled, *started = loaded.stdout.split()
    assert pooled == "False"
    assert not [name for name in started if name.startswith("marco-call")]

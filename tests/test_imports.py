"""``src/marco`` imports only the standard library and itself, so a new
runtime dependency fails here rather than in a user's install; and
``import marco`` loads the framework."""

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


def test_import_marco_loads_the_framework():
    # the benchmark's worker imports marco to pay every import before its first timed run
    probe = "import sys, marco; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert {"marco.engine", "marco.config", "marco.agents"} <= set(loaded.stdout.split())

"""README's error-code table lists exactly the codes the source raises."""

import ast
import re
from pathlib import Path

import marco

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

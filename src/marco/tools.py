"""Declarative tool registry: specs, argument validation, guarded invocation.

Parameter schemas are closed: unknown fields are violations, so hallucinated
arguments fail early and loudly instead of being silently dropped. Results are
dual-channel: rendered text feeds the conversation, the structured payload is
recorded in the trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, TYPE_CHECKING

from .errors import ToolError
from .gateway import ToolSpecs

if TYPE_CHECKING:  # pragma: no cover
    from .knowledge import Blackboard, Document, KnowledgeBase

PARAM_KINDS = ("string", "integer", "number", "boolean", "string_list")

_NAME_RE = re.compile(r"[a-z0-9_]+")


@dataclass(frozen=True)
class Param:
    name: str
    kind: str
    required: bool = True
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"unknown param kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "required": self.required, "doc": self.doc}


@dataclass(frozen=True)
class ParamSchema:
    """Ordered, closed parameter list."""

    params: tuple[Param, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError("param names must be unique")


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    params: ParamSchema = field(default_factory=ParamSchema)

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"tool name {self.name!r} must match [a-z0-9_]+")

    def summary(self) -> dict:
        """The stable textual form rendered into completion requests."""
        return {
            "name": self.name,
            "description": self.description,
            "params": [p.to_dict() for p in self.params.params],
        }


@dataclass(frozen=True)
class ToolResult:
    ok: bool
    content: str
    data: Any = None

    def __post_init__(self) -> None:
        if not self.ok and not self.content.startswith("ERROR:"):
            raise ValueError("failed results must render as 'ERROR: ...'")


def error_result(message: str) -> ToolResult:
    return ToolResult(ok=False, content=f"ERROR: {message}")


@dataclass(frozen=True)
class ArgViolation:
    code: str
    param: str
    detail: str


_BOOL_TEXT = {"true": True, "false": False}
_INT_TEXT = re.compile(r"^-?\d+$")
_NUM_TEXT = re.compile(r"^-?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def _coerce(kind: str, value: Any) -> tuple[bool, Any]:
    """Coerce a value to its declared kind; only exact textual forms convert."""
    if kind == "string":
        return (True, value) if isinstance(value, str) else (False, None)
    if kind == "integer":
        if isinstance(value, bool):
            return False, None
        if isinstance(value, int):
            return True, value
        if isinstance(value, str) and _INT_TEXT.match(value.strip()):
            return True, int(value.strip())
        return False, None
    if kind == "number":
        if isinstance(value, bool):
            return False, None
        if isinstance(value, (int, float)):
            return True, float(value)
        if isinstance(value, str) and _NUM_TEXT.match(value.strip()):
            return True, float(value.strip())
        return False, None
    if kind == "boolean":
        if isinstance(value, bool):
            return True, value
        if isinstance(value, str) and value.strip().lower() in _BOOL_TEXT:
            return True, _BOOL_TEXT[value.strip().lower()]
        return False, None
    # string_list
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return True, list(value)
    return False, None


def validate_args(spec: ToolSpec, args: Mapping[str, Any]) -> tuple[dict | None, list[ArgViolation]]:
    """Normalize arguments against a closed schema.

    Returns ``(normalized, [])`` on success or ``(None, violations)``;
    violations are data, never exceptions.
    """
    violations: list[ArgViolation] = []
    declared = {p.name: p for p in spec.params.params}

    for name in sorted(args):
        if name not in declared:
            violations.append(ArgViolation("UNKNOWN_FIELD", name, "not in the tool's parameter schema"))

    normalized: dict[str, Any] = {}
    for param in spec.params.params:
        if param.name not in args:
            if param.required:
                violations.append(ArgViolation("MISSING_REQUIRED", param.name, "required parameter absent"))
            continue
        ok, value = _coerce(param.kind, args[param.name])
        if not ok:
            violations.append(
                ArgViolation("WRONG_KIND", param.name, f"expected {param.kind}, got {type(args[param.name]).__name__}")
            )
        else:
            normalized[param.name] = value

    if violations:
        return None, violations
    return normalized, []


@dataclass
class ToolContext:
    """What a handler may touch: the blackboard and the knowledge bases its role lists."""

    node_id: str | None = None
    blackboard: "Blackboard | None" = None
    knowledge_bases: Mapping[str, "KnowledgeBase"] = field(default_factory=dict)
    written: list[str] = field(default_factory=list)

    def write(self, key: str, value: Any) -> int:
        if self.blackboard is None:
            raise ToolError("NO_BLACKBOARD", "context has no blackboard bound")
        version = self.blackboard.write(key, value, producer=self.node_id or "")
        self.written.append(key)
        return version

    def find_document(self, doc_id: str) -> tuple["KnowledgeBase", "Document"]:
        """Resolve a document by id: the first accessible KB in name order
        that holds it, and the document."""
        for name in sorted(self.knowledge_bases):
            kb = self.knowledge_bases[name]
            doc = kb.get(doc_id)
            if doc is not None:
                return kb, doc
        raise KeyError(f"document {doc_id!r} not found in any accessible knowledge base")

    def get_document(self, doc_id: str) -> str:
        return self.find_document(doc_id)[1].text


Handler = Callable[[dict, ToolContext], ToolResult]


class ToolRegistry:
    """Name-keyed tool store; read-only once load_config has built it."""

    def __init__(self) -> None:
        self._tools: dict[str, tuple[ToolSpec, Handler]] = {}
        self._tool_sets: dict[tuple[str, ...], ToolSpecs] = {}

    def register_tool(self, spec: ToolSpec, handler: Handler) -> None:
        if spec.name in self._tools:
            raise ToolError("DUPLICATE_TOOL", f"tool {spec.name!r} already registered")
        self._tools[spec.name] = (spec, handler)

    def tool_specs(self, names: Iterable[str]) -> ToolSpecs:
        """The summaries of the named tools, in the order given, built once
        per list of names, so that every request offering the same tools
        shares one ``ToolSpecs`` and its canonical JSON. A registered tool is
        never replaced, so a built list stays true."""
        key = tuple(names)
        specs = self._tool_sets.get(key)
        if specs is None:  # two threads may both build it; either copy serves
            specs = self._tool_sets.setdefault(key, ToolSpecs(self.lookup(name).summary() for name in key))
        return specs

    def lookup(self, name: str) -> ToolSpec:
        if name not in self._tools:
            raise ToolError("UNKNOWN_TOOL", f"no tool named {name!r}")
        return self._tools[name][0]

    def list_tools(self) -> list[ToolSpec]:
        return [self._tools[name][0] for name in sorted(self._tools)]

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def invoke_tool(self, name: str, args: Mapping[str, Any], context: ToolContext) -> ToolResult:
        """Validate then run a tool; handler failures become error results.

        Raises only for an unknown tool name; everything a handler does wrong
        is contained so the agent loop never crashes.
        """
        if name not in self._tools:
            raise ToolError("UNKNOWN_TOOL", f"no tool named {name!r}")
        spec, handler = self._tools[name]
        normalized, violations = validate_args(spec, args)
        if violations:
            rendered = "; ".join(f"{v.code}({v.param}): {v.detail}" for v in violations)
            return error_result(f"invalid arguments for {name}: {rendered}")
        try:
            result = handler(normalized or {}, context)
        except Exception as exc:  # noqa: BLE001 - containment is the contract
            return error_result(f"{name} failed: {exc}")
        if not isinstance(result, ToolResult):
            return error_result(f"{name} returned a non-ToolResult value")
        return result

"""Declarative run configuration: one JSON file wires graph, agents,
backends, knowledge bases, tool bindings, seeds, and limits together.

Loading validates everything it can reach and reports every problem at
once, not just the first. Relative paths resolve against the config file.
"""

from __future__ import annotations

import errno
import hashlib
import os
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .agents import AgentConfig, RoleSpec, Termination, register_builtin_tools
from .eda.toolpack import HANDLER_CATALOG
from .errors import ConfigError, ToolError
from .gateway import HTTP_SCHEMES, Script, canonical_json, read_file, read_json, read_script_file
from .graph import TaskGraph, unproduced_inputs, validate_graph
from .knowledge import MemoryWindow
from .tools import ToolRegistry

BACKEND_KINDS = ("mock", "http", "replay")


class BackendDef(NamedTuple):
    name: str
    kind: str
    scripts: tuple[Script, ...] = ()  # mock: the scripts load_config read from the ``script`` file
    cache_dir: Path | None = None
    record: bool = False
    inner: str | None = None
    base_url: str | None = None
    timeout: float = 60.0


class RunConfig(NamedTuple):
    path: Path
    base_dir: Path
    raw: Mapping[str, Any]
    graph: TaskGraph
    agents: Mapping[str, AgentConfig]
    backends: Mapping[str, BackendDef]
    knowledge_bases: Mapping[str, Path]
    tools: ToolRegistry  # the built-in tools and the bound ones; read-only after load
    seeds: Mapping[str, Any]
    max_node_executions: int

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode("utf-8")).hexdigest()


# What a JSON value must be, as a check and the words a problem line uses.
_KINDS = {
    "text": (lambda v: isinstance(v, str), "a string"),
    "text?": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "texts": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "seconds": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= 1e9,
                "a positive number of at most 1e9"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "list": (lambda v: isinstance(v, list), "a list"),
}
_NODE_FIELDS = {"id": "text", "title": "text", "goal": "text", "agent_ref": "text",
                "inputs": "texts", "outputs": "texts", "expansion": "text"}
_EDGE_FIELDS = {"src": "text", "dst": "text", "kind": "text", "key": "text?"}
_AGENT_FIELDS = {"topology": "text", "roles": "list", "termination": "object"}
_ROLE_FIELDS = {"name": "text", "system_prompt": "text", "model_ref": "text", "tool_names": "texts",
                "knowledge_base_refs": "texts"}
_TERMINATION_FIELDS = {"max_turns": "int", "stop_phrase": "text?", "require_outputs": "flag"}
_BACKEND_FIELDS = {"kind": "text?", "script": "text?", "cache_dir": "text?", "inner": "text?", "base_url": "text?",
                   "record": "flag", "timeout": "seconds"}


def _object(where: str, value: Any, problems: list[str]) -> dict:
    """``value`` if it is a JSON object; absent or null count as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        problems.append(f"{where}: must be a JSON object, got {type(value).__name__}")
        return {}
    return value


def _fields_ok(where: str, payload: Any, fields: Mapping[str, str], required: tuple[str, ...], problems: list[str]) -> bool:
    """Check a JSON object's fields against their kinds; False, with the
    reasons in ``problems``, if any is missing or of the wrong kind."""
    if not isinstance(payload, dict):
        problems.append(f"{where}: must be a JSON object, got {type(payload).__name__}")
        return False
    found = [f"{where}: missing key {key!r}" for key in required if key not in payload]
    for key, kind in fields.items():
        check, words = _KINDS[kind]
        if key in payload and not check(payload[key]):
            found.append(f"{where}.{key}: must be {words}, got {type(payload[key]).__name__}")
    problems.extend(found)
    return not found


def _load_graph(raw: Any, problems: list[str]) -> TaskGraph:
    """The graph section, checked for shape before it is built; a section
    that cannot be built counts as an empty graph."""
    graph = _object("graph", raw, problems)
    ok = _fields_ok("graph", graph, {"mode": "text"}, (), problems)
    for section, fields, required in (("nodes", _NODE_FIELDS, ("id",)), ("edges", _EDGE_FIELDS, ("src", "dst"))):
        items = graph.get(section, [])
        if not isinstance(items, list):
            problems.append(f"graph.{section}: must be a list, got {type(items).__name__}")
            ok = False
            continue
        for index, item in enumerate(items):
            ok = _fields_ok(f"graph.{section}[{index}]", item, fields, required, problems) and ok
    return TaskGraph.from_dict(graph) if ok else TaskGraph()


def _given(payload: dict, fields: Mapping[str, str]) -> dict:
    """The fields of a shape table that ``payload`` sets, as keyword arguments."""
    return {key: payload[key] for key in fields if key in payload}


def _load_agent(name: str, payload: Any, problems: list[str]) -> AgentConfig | None:
    """An agent checked against the shape tables, then built from the fields
    they list; None, with the reasons in ``problems``, if either step fails."""
    where = f"agents.{name}"
    if not _fields_ok(where, payload, _AGENT_FIELDS, (), problems):
        return None
    termination, roles = payload.get("termination", {}), payload.get("roles", [])
    ok = _fields_ok(f"{where}.termination", termination, _TERMINATION_FIELDS, (), problems)
    for index, role in enumerate(roles):
        at = f"{where}.roles[{index}]"
        if not _fields_ok(at, role, _ROLE_FIELDS, ("name", "model_ref"), problems):
            ok = False
        elif role.get("memory"):  # an absent or empty memory means no window
            ok = _fields_ok(f"{at}.memory", role["memory"], {"max_messages": "int"}, ("max_messages",), problems) and ok
    if not ok:
        return None
    try:  # every field has its kind, so only a __post_init__ value check can fail
        return AgentConfig(name=name, **{
            **_given(payload, _AGENT_FIELDS),
            "roles": tuple(
                RoleSpec(**_given(role, _ROLE_FIELDS),
                         memory=MemoryWindow(role["memory"]["max_messages"]) if role.get("memory") else None)
                for role in roles
            ),
            "termination": Termination(**_given(termination, _TERMINATION_FIELDS)),
        })
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _load_backend(name: str, payload: Any, base_dir: Path, problems: list[str]) -> BackendDef | None:
    if not _fields_ok(f"backends.{name}", payload, _BACKEND_FIELDS, (), problems):
        return None
    kind = payload.get("kind")
    if kind not in BACKEND_KINDS:
        problems.append(f"backends.{name}: kind must be one of {BACKEND_KINDS}, got {kind!r}")
        return None
    scripts: list[Script] = []
    cache_dir = None
    if kind == "mock":
        raw_script = payload.get("script")
        if not raw_script:
            problems.append(f"backends.{name}: mock backend needs a 'script' path")
            return None
        script = (base_dir / raw_script).resolve()
        if not script.exists():
            problems.append(f"backends.{name}: script file {str(script)!r} does not exist")
        else:
            scripts, script_problems = read_script_file(script)
            problems.extend(f"backends.{name}: {problem}" for problem in script_problems)
    elif kind == "replay":
        raw_dir = payload.get("cache_dir")
        if not raw_dir:
            problems.append(f"backends.{name}: replay backend needs a 'cache_dir'")
            return None
        cache_dir = (base_dir / raw_dir).resolve()
        if payload.get("record"):  # a recorder makes cache_dir as a run starts, under its nearest existing path
            nearest = next(path for path in (cache_dir, *cache_dir.parents) if path.exists())
            if not nearest.is_dir() or (nearest != cache_dir and not os.access(nearest, os.W_OK | os.X_OK)):
                problems.append(f"backends.{name}.cache_dir: {str(cache_dir)!r} cannot be made a directory")
    elif kind == "http" and payload.get("base_url") and not payload["base_url"].lower().startswith(HTTP_SCHEMES):
        problems.append(f"backends.{name}.base_url: must start with http:// or https://, got {payload['base_url']!r}")
    return BackendDef(
        name=name,
        kind=kind,
        scripts=tuple(scripts),
        cache_dir=cache_dir,
        record=bool(payload.get("record", False)),
        inner=payload.get("inner"),
        base_url=payload.get("base_url"),
        timeout=float(payload.get("timeout", 60.0)),
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    path = Path(path)
    problems: list[str] = []
    try:
        raw = read_json(read_file(path)[0])
    except OSError as exc:  # not regular: no errno; absent: ENOENT, or ENOTDIR under a file
        missing = exc.errno in (None, errno.ENOENT, errno.ENOTDIR)
        raise ConfigError([f"{path}: no such config file" if missing else f"{path}: {exc.strerror}"]) from exc
    except ValueError as exc:
        raise ConfigError([f"{path}: invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: config root must be a JSON object"])
    base_dir = path.resolve().parent

    graph = _load_graph(raw.get("graph"), problems)
    report = validate_graph(graph)
    for violation in report.violations:
        problems.append(f"graph: {violation.code} on {violation.subject}: {violation.detail}")

    agents: dict[str, AgentConfig] = {}
    for name, payload in _object("agents", raw.get("agents"), problems).items():
        agent = _load_agent(name, payload, problems)
        if agent is not None:
            agents[name] = agent

    backends: dict[str, BackendDef] = {}
    for name, payload in _object("backends", raw.get("backends"), problems).items():
        backend = _load_backend(name, payload, base_dir, problems)
        if backend is not None:
            backends[name] = backend
    for name, backend in backends.items():
        if backend.kind == "replay" and backend.inner is not None and backend.inner not in backends:
            problems.append(f"backends.{name}: inner backend {backend.inner!r} is not defined")
    inner_of = {name: b.inner for name, b in backends.items() if b.kind == "replay"}
    for name in inner_of:
        chain = [name]
        while inner_of[chain[-1]] in inner_of and inner_of[chain[-1]] not in chain:
            chain.append(inner_of[chain[-1]])
        if inner_of[chain[-1]] == name == min(chain):  # each cycle once, from its least name
            problems.append(f"backends.{name}: circular replay inner chain {' -> '.join([*chain, name])}")

    knowledge_bases: dict[str, Path] = {}
    for name, raw_dir in _object("knowledge_bases", raw.get("knowledge_bases"), problems).items():
        if not isinstance(raw_dir, str):
            problems.append(f"knowledge_bases.{name}: must be a directory path string, got {type(raw_dir).__name__}")
            continue
        kb_dir = (base_dir / raw_dir).resolve()
        if not kb_dir.is_dir():
            problems.append(f"knowledge_bases.{name}: directory {str(kb_dir)!r} does not exist")
        knowledge_bases[name] = kb_dir

    tools = ToolRegistry()
    register_builtin_tools(tools)
    for tool_name, handler_ref in _object("tool_bindings", raw.get("tool_bindings"), problems).items():
        if not isinstance(handler_ref, str) or handler_ref not in HANDLER_CATALOG:
            problems.append(f"tool_bindings.{tool_name}: unknown handler ref {handler_ref!r}")
            continue
        spec, handler = HANDLER_CATALOG[handler_ref]
        try:
            tools.register_tool(spec._replace(name=tool_name), handler)
        except (ToolError, ValueError) as exc:
            problems.append(f"tool_bindings.{tool_name}: {exc}")

    for node in graph.nodes:
        if node.agent_ref not in agents:
            problems.append(f"graph node {node.id}: unknown agent {node.agent_ref!r}")
    for name, agent in agents.items():
        for role in agent.roles:
            if role.model_ref not in backends:
                problems.append(f"agents.{name}.{role.name}: model_ref {role.model_ref!r} names no backend")
            for tool_name in role.tool_names:
                if tool_name not in tools:
                    problems.append(f"agents.{name}.{role.name}: unknown tool {tool_name!r}")
            for kb_ref in role.knowledge_base_refs:
                if kb_ref not in knowledge_bases:
                    problems.append(f"agents.{name}.{role.name}: unknown knowledge base {kb_ref!r}")

    limits = _object("limits", raw.get("limits"), problems)
    max_exec = limits.get("max_node_executions")
    if not _KINDS["int"][0](max_exec) or max_exec < 1:
        problems.append("limits.max_node_executions: required positive integer")
        max_exec = 0
    elif max_exec < len(graph.nodes):
        problems.append(
            f"limits.max_node_executions: {max_exec} is below the initial node count {len(graph.nodes)}"
        )

    seeds = dict(_object("seeds", raw.get("seeds"), problems))
    # Only in a valid static graph: a dynamic graph's inputs may come from nodes
    # a planner adds, and a graph violation is already a problem of its own.
    if graph.mode == "static" and report.ok:
        problems.extend(
            f"graph node {nid}: input {key} is neither seeded nor an output of an execution ancestor"
            for nid, key in unproduced_inputs(graph, seeds)
        )

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        path=path,
        base_dir=base_dir,
        raw=raw,
        graph=graph,
        agents=agents,
        backends=backends,
        knowledge_bases=knowledge_bases,
        tools=tools,
        seeds=seeds,
        max_node_executions=max_exec,
    )

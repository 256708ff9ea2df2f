"""Command-line surface.

Every failure leaves through ``main``: ``invalid:`` lines for a config's problems, else one ``error:`` line.
Exit codes: 0 success, 1 validation or run failure, 2 usage errors
(argparse's convention).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import TextIO

from .config import load_config
from .eda.fixtures import (
    DEFAULT_PATHS,
    DEFAULT_SEED,
    generate_fixture_set,
    parse_manifest,
    render_score_report,
    score_trace,
    write_fixture_set,
)
from .engine import TraceDocument, run, run_baseline
from .errors import ConfigError, EngineError, KnowledgeError, MarcoError
from .gateway import read_file, read_json
from .graph import export_dot
from .knowledge import load_kb_dir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marco", description="Graph-based task solving framework")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a run config and report every problem")
    p_validate.add_argument("config")

    p_run = sub.add_parser("run", help="execute a configured task graph")
    p_run.add_argument("config")
    p_run.add_argument("--backend", help="run every role against this configured backend")
    p_run.add_argument("--trace-out", help="write the trace document to this path")
    p_run.add_argument("--deterministic", action="store_true", help="zero the wall-clock timings in the trace")
    p_run.add_argument("--baseline", action="store_true", help="collapse the graph into one node first")

    p_graph = sub.add_parser("graph", help="graph inspection commands")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_export = graph_sub.add_parser("export", help="render the configured graph as DOT")
    p_export.add_argument("config")
    p_export.add_argument("--dot", required=True, help="output path, '-' for stdout")

    p_fixtures = sub.add_parser("fixtures", help="synthetic timing fixture commands")
    fixtures_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    p_gen = fixtures_sub.add_parser("gen", help="generate a seeded multi-corner fixture set")
    p_gen.add_argument("--corners", type=int, default=3)
    p_gen.add_argument("--paths", type=int, default=DEFAULT_PATHS)
    p_gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_gen.add_argument("--out", required=True)

    p_score = sub.add_parser("score", help="compare a trace's recovered anomalies against a manifest")
    p_score.add_argument("trace")
    p_score.add_argument("manifest")
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    problems = []
    for name, kb_dir in config.knowledge_bases.items():  # read as a run reads them, so a run cannot fail on one
        try:
            load_kb_dir(name, kb_dir)
        except KnowledgeError as exc:
            problems.append(f"knowledge_bases.{name}: {exc}")
    if problems:
        raise ConfigError(problems)
    print(f"ok: {len(config.graph.nodes)} node(s), {len(config.agents)} agent(s), mode={config.graph.mode}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    runner = run_baseline if args.baseline else run
    # Opened before the run, so a path that cannot be written fails before any model call;
    # opened for appending, so a run that fails without a trace leaves an existing file as it was.
    with open(args.trace_out, "a", encoding="utf-8") if args.trace_out else nullcontext() as out:
        try:
            trace = runner(config, backend_override=args.backend, deterministic=args.deterministic)
        except MarcoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if out and isinstance(exc, EngineError) and exc.trace is not None:
                _replace_contents(out, exc.trace)
                print(f"partial trace written to {args.trace_out}", file=sys.stderr)
            return 1
        for outcome in trace.outcomes:
            print(f"{outcome['node_id']}: {outcome['status']} (turns={outcome['turns_used']})")
        print(f"status: {trace.status}")
        if out:
            _replace_contents(out, trace)
            print(f"trace written to {args.trace_out}")
    return 0


def _replace_contents(out: TextIO, trace: TraceDocument) -> None:
    try:
        if out.seekable():  # a pipe or a terminal has nothing to replace
            out.seek(0)
            out.truncate()
        trace.write(out)
        out.close()  # flushed here, so that a full device's error is named too
    except OSError as exc:  # an error of a write names no path: give it the output's, as _read_input does
        raise OSError(f"{out.name}: {exc}") from exc


def _cmd_graph_export(args: argparse.Namespace) -> int:
    dot = export_dot(load_config(args.config).graph)
    if args.dot == "-":
        sys.stdout.write(dot)
    else:
        Path(args.dot).write_text(dot, encoding="utf-8")
        print(f"dot written to {args.dot}")
    return 0


def _cmd_fixtures_gen(args: argparse.Namespace) -> int:
    fixture_set = generate_fixture_set(args.seed, corners=args.corners, paths=args.paths)
    written = write_fixture_set(fixture_set, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _read_input(path: str) -> bytes:
    """An input file's bytes; a refusal that names no path is given this one."""
    try:
        return read_file(path)[0]
    except OSError as exc:
        if exc.filename is not None:  # an error of the open names its path
            raise
        raise OSError(f"{path}: {exc}") from exc


def _cmd_score(args: argparse.Namespace) -> int:
    trace = read_json(_read_input(args.trace))
    manifest = parse_manifest(_read_input(args.manifest).decode("utf-8"))
    if not isinstance(trace, dict):
        raise ValueError("trace root must be a JSON object")
    if not isinstance(trace.get("blackboard", {}), dict):
        raise ValueError("trace blackboard must be a JSON object")
    result = score_trace(trace, manifest)
    sys.stdout.write(render_score_report(result))
    return 0


_COMMANDS = {"validate": _cmd_validate, "run": _cmd_run, "graph": _cmd_graph_export,
             "fixtures": _cmd_fixtures_gen, "score": _cmd_score}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"invalid: {problem}", file=sys.stderr)
    except (OSError, ValueError) as exc:  # a path that cannot be used, or a bad input or argument
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans and counts at marco's layer boundaries, recorded from outside.

The tracer wraps public entry points where their callers look them up (for
example ``marco.engine.run_node``, not ``marco.agents.run_node``), so
nothing under ``src/`` changes. Each span holds a name, start, end, parent
span index and run id, and is kept in memory until the pass ends. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

DETECTORS = (
    "missing_clock_edges",
    "rc_mismatch_pairs",
    "aggressor_anomalies",
    "slowest_stage_constraints",
    "compare_timing_tables",
)
METRIC_FUNCTIONS = ("timing_distribution", "timing_metric_compare")
COMPLETE_SPANS = ("gateway.mock.complete", "gateway.replay.complete", "gateway.http.complete")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("config.load_config.ms", "ms", "lower"),
    ("graph.ready_frontier.calls", "count", "lower"),
    ("graph.ready_frontier.ms", "ms", "lower"),
    ("graph.from_dict.calls", "count", "lower"),
    ("graph.from_dict.ms", "ms", "lower"),
    ("graph.to_dict.calls", "count", "lower"),
    ("graph.apply_expansion.ms", "ms", "lower"),
    ("engine.trace_validate.calls", "count", "lower"),
    ("engine.trace_validate.ms", "ms", "lower"),
    ("engine.render.ms", "ms", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("agents.run_node.ms_p50", "ms", "lower"),
    ("agents.turns", "count", "lower"),
    ("agents.self_ms", "ms", "lower"),
    ("gateway.complete.ms", "ms", "lower"),
    ("gateway.wait_share", "ratio", "higher"),
    ("gateway.canonical_hash.calls", "count", "lower"),
    ("gateway.canonical_hash.ms", "ms", "lower"),
    ("gateway.hashed_messages", "count", "lower"),
    ("gateway.replay.hits", "count", "higher"),
    ("gateway.replay.misses", "count", "lower"),
    ("gateway.http.requests", "count", "lower"),
    ("gateway.http.connections", "count", "lower"),
    ("gateway.http.max_inflight", "count", "higher"),
    ("gateway.http.retries", "count", "lower"),
    ("tools.invoke.calls", "count", "lower"),
    ("tools.invoke.ms", "ms", "lower"),
    ("tools.invoke.failed", "count", "lower"),
    ("knowledge.load_kb_dir.calls", "count", "lower"),
    ("knowledge.load_kb_dir.ms", "ms", "lower"),
    ("knowledge.docs_ingested", "count", "lower"),
    ("knowledge.retrieve.calls", "count", "lower"),
    ("knowledge.retrieve.ms", "ms", "lower"),
    ("knowledge.token_count.calls", "count", "lower"),
    ("eda.report.parse.calls", "count", "lower"),
    ("eda.report.parse.ms", "ms", "lower"),
    ("eda.report.parse.unique_ratio", "ratio", "higher"),
    *((f"eda.anomalies.{name}.ms", "ms", "lower") for name in DETECTORS),
    *((f"eda.metrics.{name}.ms", "ms", "lower") for name in METRIC_FUNCTIONS),
    ("trace.run_ms_p50_untraced", "ms", "lower"),
    ("trace.run_ms_p50_traced", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, run_id, ok)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.parsed: dict[int, set[str]] = defaultdict(set)
        self.run_id = 0  # graph runs traced so far; the id of the current one
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, ok)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _targets(self):
        import marco.agents
        import marco.config
        import marco.eda.toolpack
        import marco.engine
        import marco.gateway
        from marco.engine import TraceDocument
        from marco.gateway import HttpBackend, MockBackend, ReplayBackend
        from marco.graph import TaskGraph
        from marco.knowledge import KnowledgeBase
        from marco.tools import ToolRegistry

        def docs(args, kb):
            self.counts["knowledge.docs_ingested"] += len(kb)

        def hashed(args, digest):
            self.counts["gateway.hashed_messages"] += len(args[0].messages)

        def invoked(args, result):
            if not result.ok:
                self.counts["tools.invoke.failed"] += 1

        def parsed(args, report):
            self.parsed[self.run_id].add(args[0])

        # (owner, attribute, span name, result hook); a name ending in
        # ".calls" gets a plain counter instead of a span.
        yield marco.config, "load_config", "config.load_config", None
        yield marco.engine, "run", "engine.run", None
        yield marco.engine, "run_baseline", "engine.run", None
        yield TraceDocument, "validate", "engine.trace_validate", None
        yield TraceDocument, "render", "engine.render", None
        yield marco.engine, "ready_frontier", "graph.ready_frontier", None
        yield marco.engine, "apply_expansion", "graph.apply_expansion", None
        yield TaskGraph, "from_dict", "graph.from_dict", None
        yield TaskGraph, "to_dict", "graph.to_dict", None
        yield marco.engine, "run_node", "agents.run_node", None
        yield MockBackend, "complete", "gateway.mock.complete", None
        yield ReplayBackend, "complete", "gateway.replay.complete", None
        yield HttpBackend, "complete", "gateway.http.complete", None
        yield marco.gateway, "canonical_hash", "gateway.canonical_hash", hashed
        yield ToolRegistry, "invoke_tool", "tools.invoke", invoked
        yield marco.engine, "load_kb_dir", "knowledge.load_kb_dir", docs
        yield marco.agents, "retrieve", "knowledge.retrieve", None
        yield KnowledgeBase, "token_count", "knowledge.token_count.calls", None
        yield marco.eda.toolpack, "parse_timing_report", "eda.report.parse", parsed
        for name in DETECTORS:
            yield marco.eda.toolpack, name, f"eda.anomalies.{name}", None
        for name in METRIC_FUNCTIONS:
            yield marco.eda.toolpack, name, f"eda.metrics.{name}", None

    def install(self) -> None:
        """Wrap every boundary; the wrappers are built once and reused."""
        if not self._wrapped:
            for owner, attr, span, hook in self._targets():
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._counter(span, fn) if span.endswith(".calls") else self._wrap(span, fn, hook)
                self._patches.append((owner, attr, raw))
                self._wrapped.append((owner, attr, classmethod(wrapped) if is_classmethod else wrapped))
        for owner, attr, wrapped in self._wrapped:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in self._patches:
            setattr(owner, attr, raw)

    def begin_run(self) -> None:
        self.run_id += 1

    # --- reporting --------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, run_id, ok in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def layer_metrics(self, run_ms: float, http_stats: dict | None = None) -> dict[str, float]:
        """Per-graph-run layer metrics over every traced run so far.

        ``run_ms`` is the mean traced run time, the base of ``wait_share``;
        ``http_stats`` are the chat server's counts per graph run.
        """
        runs = max(self.run_id, 1)
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        run_node_ms = []
        complete_ms = 0.0
        hits = misses = http_calls = 0
        has_inner_call = set()
        selfs = self.self_times()
        for i, (name, start, end, parent, run_id, ok) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += selfs[i] * 1e3
            if name == "agents.run_node":
                run_node_ms.append((end - start) * 1e3)
            if name in COMPLETE_SPANS:
                parent_name = self.spans[parent][0] if parent >= 0 else ""
                if parent_name in COMPLETE_SPANS:
                    has_inner_call.add(parent)
                else:
                    complete_ms += (end - start) * 1e3
                if name == "gateway.http.complete":
                    http_calls += 1
        for i, (name, start, end, parent, run_id, ok) in enumerate(self.spans):
            if name == "gateway.replay.complete":
                if ok and i not in has_inner_call:
                    hits += 1
                else:
                    misses += 1
        parse_calls = calls["eda.report.parse"]
        distinct = sum(len(texts) for texts in self.parsed.values())
        http_stats = http_stats or {"requests": 0.0, "connections": 0.0, "max_inflight": 0}
        values = {
            "config.load_config.ms": self_ms["config.load_config"],
            "graph.ready_frontier.calls": calls["graph.ready_frontier"],
            "graph.ready_frontier.ms": self_ms["graph.ready_frontier"],
            "graph.from_dict.calls": calls["graph.from_dict"],
            "graph.from_dict.ms": self_ms["graph.from_dict"],
            "graph.to_dict.calls": calls["graph.to_dict"],
            "graph.apply_expansion.ms": self_ms["graph.apply_expansion"],
            "engine.trace_validate.calls": calls["engine.trace_validate"],
            "engine.trace_validate.ms": self_ms["engine.trace_validate"],
            "engine.render.ms": self_ms["engine.render"],
            "engine.self_ms": self_ms["engine.run"],
            "agents.turns": sum(calls[name] for name in COMPLETE_SPANS) - len(has_inner_call),
            "agents.self_ms": self_ms["agents.run_node"],
            "gateway.complete.ms": complete_ms,
            "gateway.canonical_hash.calls": calls["gateway.canonical_hash"],
            "gateway.canonical_hash.ms": self_ms["gateway.canonical_hash"],
            "gateway.hashed_messages": self.counts["gateway.hashed_messages"],
            "gateway.replay.hits": hits,
            "gateway.replay.misses": misses,
            "tools.invoke.calls": calls["tools.invoke"],
            "tools.invoke.ms": self_ms["tools.invoke"],
            "tools.invoke.failed": self.counts["tools.invoke.failed"],
            "knowledge.load_kb_dir.calls": calls["knowledge.load_kb_dir"],
            "knowledge.load_kb_dir.ms": self_ms["knowledge.load_kb_dir"],
            "knowledge.docs_ingested": self.counts["knowledge.docs_ingested"],
            "knowledge.retrieve.calls": calls["knowledge.retrieve"],
            "knowledge.retrieve.ms": self_ms["knowledge.retrieve"],
            "knowledge.token_count.calls": self.counts["knowledge.token_count.calls"],
            "eda.report.parse.calls": parse_calls,
            "eda.report.parse.ms": self_ms["eda.report.parse"],
            **{f"eda.anomalies.{n}.ms": self_ms[f"eda.anomalies.{n}"] for n in DETECTORS},
            **{f"eda.metrics.{n}.ms": self_ms[f"eda.metrics.{n}"] for n in METRIC_FUNCTIONS},
        }
        metrics = {name: value / runs for name, value in values.items()}
        metrics["eda.report.parse.unique_ratio"] = distinct / parse_calls if parse_calls else 0.0
        metrics["agents.run_node.ms_p50"] = statistics.median(run_node_ms) if run_node_ms else 0.0
        metrics["gateway.wait_share"] = metrics["gateway.complete.ms"] / run_ms if run_ms else 0.0
        metrics["gateway.http.requests"] = http_stats["requests"]
        metrics["gateway.http.connections"] = http_stats["connections"]
        metrics["gateway.http.max_inflight"] = http_stats["max_inflight"]
        metrics["gateway.http.retries"] = http_stats["requests"] - http_calls / runs if http_stats["requests"] else 0.0
        return metrics

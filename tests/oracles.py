"""Independent oracles and random fixture builders for the test suite.

Everything here re-derives expected results with deliberately naive code
(brute-force enumeration, exhaustive scans) so the production
implementations are checked against a second opinion rather than
against themselves.
"""

from __future__ import annotations

import math
import random
import re
import string
from fractions import Fraction

from marco.eda.anomalies import Anomaly
from marco.eda.report import Aggressor, Stage, TimingPath, TimingReport
from marco.graph import TaskEdge, TaskGraph, TaskNode

_TOKEN = re.compile(r"[a-z0-9]+")


# ---------------------------------------------------------------- retrieval

def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def tfidf_rank(docs: dict[str, str], query: str, k: int) -> list[tuple[str, float]]:
    """Naive tf-idf ranking: score every doc, sort, cut."""
    n = len(docs)
    doc_tokens = {doc_id: tokenize(text) for doc_id, text in docs.items()}
    scored = []
    for doc_id, tokens in doc_tokens.items():
        score = 0.0
        for term in tokenize(query):
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in doc_tokens.values() if term in other)
            score += tf * (math.log((n + 1) / (df + 1)) + 1.0)
        if score > 0:
            scored.append((doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


# ---------------------------------------------------------------- graphs

def is_linear_extension(order: list[str], graph: TaskGraph) -> bool:
    position = {node_id: i for i, node_id in enumerate(order)}
    if len(position) != len(order):
        return False
    for edge in graph.execution_edges():
        if edge.src in position and edge.dst in position:
            if position[edge.src] >= position[edge.dst]:
                return False
    return True


def predecessor_sets(graph: TaskGraph) -> dict[str, set[str]]:
    preds: dict[str, set[str]] = {node.id: set() for node in graph.nodes}
    for edge in graph.execution_edges():
        preds[edge.dst].add(edge.src)
    return preds


def brute_frontier(graph: TaskGraph, done: set[str]) -> list[str]:
    preds = predecessor_sets(graph)
    ready = [nid for nid in preds if nid not in done and preds[nid] <= done]
    return sorted(ready)


def random_node_ids(rng: random.Random, count: int) -> list[str]:
    ids: set[str] = set()
    while len(ids) < count:
        ids.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    return sorted(ids)


def random_dag(rng: random.Random, max_nodes: int = 20, mode: str = "static") -> TaskGraph:
    count = rng.randint(1, max_nodes)
    ids = random_node_ids(rng, count)
    topo = ids[:]
    rng.shuffle(topo)
    nodes = tuple(TaskNode(id=nid, title=nid, goal=f"do {nid}", agent_ref="a") for nid in ids)
    edges = []
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.25:
                edges.append(TaskEdge(src=topo[i], dst=topo[j], kind="execution"))
    return TaskGraph(nodes=nodes, edges=tuple(edges), mode=mode)


def has_execution_cycle(graph: TaskGraph) -> bool:
    """DFS cycle oracle over execution edges."""
    adjacency: dict[str, list[str]] = {node.id: [] for node in graph.nodes}
    for edge in graph.execution_edges():
        adjacency[edge.src].append(edge.dst)
    state: dict[str, int] = {}

    def visit(nid: str) -> bool:
        state[nid] = 1
        for nxt in adjacency[nid]:
            mark = state.get(nxt, 0)
            if mark == 1 or (mark == 0 and visit(nxt)):
                return True
        state[nid] = 2
        return False

    return any(state.get(nid, 0) == 0 and visit(nid) for nid in adjacency)


def reachable_pairs(graph: TaskGraph) -> set[tuple[str, str]]:
    """Every ``(a, b)`` with a path of one or more execution edges from ``a``
    to ``b``: the edge pairs, joined with themselves until nothing is added."""
    pairs = {(edge.src, edge.dst) for edge in graph.execution_edges()}
    while True:
        joined = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not joined:
            return pairs
        pairs |= joined


def oracle_unordered_knowledge(graph: TaskGraph) -> list[TaskEdge]:
    """Knowledge edges whose destination is neither the source nor reachable from it."""
    pairs = reachable_pairs(graph)
    return [
        edge
        for edge in graph.edges
        if edge.kind == "knowledge" and edge.src != edge.dst and (edge.src, edge.dst) not in pairs
    ]


def oracle_unproduced_inputs(graph: TaskGraph, seeded: set[str]) -> list[tuple[str, str]]:
    """Inputs neither seeded nor declared as an output by any node that reaches their node."""
    pairs = reachable_pairs(graph)
    return [
        (node.id, key)
        for node in graph.nodes
        for key in node.inputs
        if key not in seeded
        and not any((other.id, node.id) in pairs and key in other.outputs for other in graph.nodes)
    ]


def oracle_commit_order(graph: TaskGraph) -> list[str]:
    """Repeatedly commit the least id of the brute-force frontier."""
    order: list[str] = []
    while frontier := brute_frontier(graph, set(order)):
        order.append(frontier[0])
    return order


# ---------------------------------------------------------------- conversations
#
# A scripted reply is ``(content, keys)``: with keys, one ``write_artifact``
# call per key (a tool round); without, a content turn. A transcript entry is
# ``(speaker, kind, content)`` with kind one of task, content, tool_call, tool
# and moderator.

def oracle_next_directive(content: str) -> str | None:
    lines = [line.strip() for line in content.split("\n") if line.strip()]
    if not lines or not lines[-1].startswith("NEXT:"):
        return None
    target = lines[-1][len("NEXT:"):].split()
    return target[0] if len(target) == 1 else None


def oracle_next_speaker(topology: str, roles: tuple[str, ...], transcript: list[tuple]) -> str:
    """Who speaks next, read from the whole transcript: a tool round keeps the
    floor; otherwise single stays, round-robin counts content turns, and
    hierarchical returns to the leader unless its last content turn named
    another role."""
    replies = [e for e in transcript if e[1] in ("content", "tool_call")]
    if replies and replies[-1][1] == "tool_call":
        return replies[-1][0]
    if topology == "single":
        return roles[0]
    content = [e for e in replies if e[1] == "content"]
    if topology == "multi_round_robin":
        return roles[len(content) % len(roles)]
    if not content or content[-1][0] != roles[0]:
        return roles[0]
    target = oracle_next_directive(content[-1][2])
    return target if target in roles[1:] else roles[0]


def oracle_termination(
    transcript: list[tuple], board: set[str], outputs: tuple[str, ...],
    stop_phrase: str | None, require_outputs: bool, turns: int, max_turns: int,
) -> str | None:
    """Solved from the last reply in the transcript and the board, else the budget."""
    replies = [e for e in transcript if e[1] in ("content", "tool_call")]
    if (
        replies
        and (stop_phrase is None or stop_phrase in replies[-1][2])
        and (not require_outputs or set(outputs) <= board)
    ):
        return "solved"
    return "budget_exhausted" if turns >= max_turns else None


def oracle_conversation(
    topology: str, roles: tuple[str, ...], scripts: dict[str, list[tuple[str, tuple[str, ...]]]],
    outputs: tuple[str, ...], stop_phrase: str | None, require_outputs: bool, max_turns: int,
) -> tuple[str, int, str, list[str]]:
    """Status, turns used, detail and transcript speakers of a node whose roles
    reply from ``scripts`` in order; no role may run out of replies."""
    transcript: list[tuple] = [("task", "task", "")]
    board: set[str] = set()
    served = dict.fromkeys(roles, 0)
    turns = strikes = 0
    detail = ""
    while True:
        speaker = oracle_next_speaker(topology, roles, transcript)
        content, keys = scripts[speaker][served[speaker]]
        served[speaker] += 1
        turns += 1
        transcript.append((speaker, "tool_call" if keys else "content", content))
        for key in keys:
            transcript.append(("tool:write_artifact", "tool", key))
            if key in outputs:
                board.add(key)
        status = oracle_termination(transcript, board, outputs, stop_phrase, require_outputs, turns, max_turns)
        if status == "solved":
            break
        if topology == "multi_hierarchical" and speaker == roles[0] and not keys:
            if oracle_next_directive(content) in roles[1:]:
                strikes = 0
            else:
                strikes += 1
                if strikes == 2:
                    status = "failed"
                    detail = "FAILED_DELEGATION: leader produced two consecutive messages without a valid NEXT directive"
                    break
                transcript.append(("moderator", "moderator", ""))
        if status == "budget_exhausted":
            detail = f"turn budget {max_turns} exhausted"
            break
    return status, turns, detail, [e[0] for e in transcript]


# ---------------------------------------------------------------- reports

def make_stage(
    index: int,
    net: str = "n",
    cell: str = "U",
    resistance: float = 100.0,
    capacitance: float = 2.0,
    delay: float = 0.05,
    constraint: float = 0.1,
    xtalk_delta: float = 0.0,
    aggressors: tuple[Aggressor, ...] = (),
) -> Stage:
    return Stage(
        index=index,
        net=net,
        cell=cell,
        resistance=resistance,
        capacitance=capacitance,
        delay=delay,
        constraint=constraint,
        xtalk_delta=xtalk_delta,
        aggressors=aggressors,
    )


def make_path(
    path_id: str,
    stages: tuple[Stage, ...],
    clock_edges: frozenset[str] = frozenset({"rise"}),
    slack: float = 0.1,
    clock_net: str = "clk",
) -> TimingPath:
    return TimingPath(
        path_id=path_id,
        startpoint=f"in_{path_id}",
        endpoint=f"out_{path_id}",
        clock_net=clock_net,
        clock_edges=clock_edges,
        slack=slack,
        stages=stages,
    )


def make_report(paths: tuple[TimingPath, ...], corner: str = "c0", mode: str = "func", check: str = "max") -> TimingReport:
    return TimingReport(corner=corner, mode=mode, check=check, paths=paths)


def random_report(rng: random.Random, max_paths: int = 10, max_stages: int = 8, corner: str = "rnd") -> TimingReport:
    """Randomized report hitting the degenerate corners (zeros, empty sets)."""
    paths = []
    for p in range(rng.randint(1, max_paths)):
        stages = []
        for s in range(rng.randint(1, max_stages)):
            aggressors = tuple(
                Aggressor(net=f"x{p}_{s}_{a}", coupling_cap=rng.choice([0.0, round(rng.uniform(0.1, 12.0), 3)]))
                for a in range(rng.randint(0, 3))
            )
            stages.append(
                Stage(
                    index=s,
                    net=f"n{p}_{s}",
                    cell=f"U{p}_{s}",
                    resistance=rng.choice([0.0, round(rng.uniform(1.0, 500.0), 1)]),
                    capacitance=rng.choice([0.0, round(rng.uniform(0.1, 8.0), 3)]),
                    delay=round(rng.uniform(0.0, 1.0), 4),
                    constraint=rng.choice([0.0, round(rng.uniform(0.01, 0.4), 4)]),
                    xtalk_delta=rng.choice([0.0, round(rng.uniform(0.0, 0.6), 6)]),
                    aggressors=aggressors,
                )
            )
        paths.append(
            TimingPath(
                path_id=f"p{p}",
                startpoint=f"in{p}",
                endpoint=f"out{p}",
                clock_net=rng.choice(["clk_a", "clk_b"]),
                clock_edges=frozenset(rng.choice([(), ("rise",), ("fall",), ("rise", "fall")])),
                slack=round(rng.uniform(-0.6, 0.6), 4),
                stages=tuple(stages),
            )
        )
    return TimingReport(corner=corner, mode="func", check="max", paths=tuple(paths))


# ------------------------------------------------------- anomaly oracles

def anomaly_key(anomaly) -> tuple:
    """Normal form for set comparison against oracle findings."""
    return (
        anomaly.kind,
        anomaly.facet,
        anomaly.path_id,
        anomaly.stage_key(),
        tuple(anomaly.subjects),
        anomaly.measure,
    )


def oracle_missing_clock(report: TimingReport) -> set[tuple]:
    found = set()
    for path in report.paths:
        if len(path.clock_edges) == 0:
            found.add(("missing_clock_edge", "", path.path_id, "-", (path.clock_net,), path.slack))
    return found


def _ratio_trigger(a: float, b: float, threshold: float) -> tuple[bool, float]:
    lo, hi = sorted((a, b))
    if lo > 0:
        ratio = hi / lo
        return ratio >= threshold, ratio
    return hi > 0, hi


def oracle_rc_pairs(report, threshold, stage_filter=None, path_filter=None) -> set[tuple]:
    found = set()
    for path in report.paths:
        if path_filter is not None and path.path_id not in set(path_filter):
            continue
        kept = [s for s in path.stages if stage_filter is None or s.index in set(stage_filter)]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                sa, sb = kept[i], kept[j]
                r_hit, r_m = _ratio_trigger(sa.resistance, sb.resistance, threshold)
                c_hit, c_m = _ratio_trigger(sa.capacitance, sb.capacitance, threshold)
                if r_hit or c_hit:
                    measure = max([m for hit, m in ((r_hit, r_m), (c_hit, c_m)) if hit])
                    found.add(
                        ("rc_mismatch", "", path.path_id, f"{sa.index}-{sb.index}", (sa.net, sb.net), measure)
                    )
    return found


def oracle_rc_mismatch_list(report, ratio_threshold, stage_filter=None, path_filter=None) -> list[Anomaly]:
    """The earlier formulation of ``rc_mismatch_pairs``, one ratio-rule call per
    facet and pair: the same anomalies in the same order, with the same
    measures and explanations (the threshold check is left out)."""
    stages_allowed = set(stage_filter) if stage_filter is not None else None
    paths_allowed = set(path_filter) if path_filter is not None else None
    found = []
    for path in report.paths:
        if paths_allowed is not None and path.path_id not in paths_allowed:
            continue
        stages = [s for s in path.stages if stages_allowed is None or s.index in stages_allowed]
        for a_pos in range(len(stages)):
            for b_pos in range(a_pos + 1, len(stages)):
                sa, sb = stages[a_pos], stages[b_pos]
                r_hit, r_measure = _ratio_trigger(sa.resistance, sb.resistance, ratio_threshold)
                c_hit, c_measure = _ratio_trigger(sa.capacitance, sb.capacitance, ratio_threshold)
                if not (r_hit or c_hit):
                    continue
                triggered = [m for hit, m in ((r_hit, r_measure), (c_hit, c_measure)) if hit]
                facets = "+".join(name for hit, name in ((r_hit, "R"), (c_hit, "C")) if hit)
                found.append(
                    Anomaly(
                        kind="rc_mismatch",
                        path_id=path.path_id,
                        stage_pair=(sa.index, sb.index),
                        subjects=(sa.net, sb.net),
                        measure=max(triggered),
                        explanation=(
                            f"{facets} mismatch between stages {sa.index} and {sb.index}"
                            f" of path {path.path_id} (measure {max(triggered):.6g})"
                        ),
                    )
                )
    return found


def oracle_xtalk_constraint(report, threshold, stage_filter=None, path_filter=None) -> set[tuple]:
    found = set()
    for path in report.paths:
        if path_filter is not None and path.path_id not in set(path_filter):
            continue
        for stage in path.stages:
            if stage_filter is not None and stage.index not in set(stage_filter):
                continue
            if stage.constraint == 0:
                if stage.xtalk_delta > 0:
                    found.add(("xtalk_constraint", "", path.path_id, str(stage.index), (stage.net,), stage.xtalk_delta))
            elif stage.xtalk_delta >= threshold * stage.constraint:
                found.add(
                    ("xtalk_constraint", "", path.path_id, str(stage.index), (stage.net,), stage.xtalk_delta / stage.constraint)
                )
    return found


def oracle_aggressor_rc(report, threshold, stage_filter=None, path_filter=None) -> set[tuple]:
    found = set()
    for path in report.paths:
        if path_filter is not None and path.path_id not in set(path_filter):
            continue
        for stage in path.stages:
            if stage_filter is not None and stage.index not in set(stage_filter):
                continue
            hits = []
            for agg in stage.aggressors:
                if stage.capacitance > 0:
                    if agg.coupling_cap >= threshold * stage.capacitance:
                        hits.append((agg.net, agg.coupling_cap / stage.capacitance))
                elif agg.coupling_cap > 0:
                    hits.append((agg.net, agg.coupling_cap))
            if hits:
                found.add(
                    (
                        "aggressor_rc",
                        "",
                        path.path_id,
                        str(stage.index),
                        (stage.net,) + tuple(net for net, _ in hits),
                        max(m for _, m in hits),
                    )
                )
    return found


def oracle_slowest(report, top_k: int) -> list[tuple]:
    """Ordered oracle: full sort of every stage, then the prefix."""
    rows = []
    for path in report.paths:
        for stage in path.stages:
            rows.append((-stage.delay, -(stage.resistance * stage.capacitance), path.path_id, stage.index, stage))
    rows.sort(key=lambda r: r[:4])
    out = []
    for _, _, pid, _, stage in rows[:top_k]:
        out.append(("slow_stage_constraint", "", pid, str(stage.index), (stage.net,), stage.constraint))
    return out


def oracle_table_mismatch(report_a, report_b, tolerance: float = 1e-6) -> set[tuple]:
    map_a = {p.path_id: p for p in report_a.paths}
    map_b = {p.path_id: p for p in report_b.paths}
    found = set()
    for pid in set(map_a) | set(map_b):
        if (pid in map_a) != (pid in map_b):
            present = map_a.get(pid) or map_b[pid]
            found.add(("table_mismatch", "orphan", pid, "-", (present.startpoint, present.endpoint), 0.0))
            continue
        pa, pb = map_a[pid], map_b[pid]
        if len(pa.stages) != len(pb.stages):
            found.add(("table_mismatch", "stage_count", pid, "-", (), float(abs(len(pa.stages) - len(pb.stages)))))
        for sa, sb in zip(pa.stages, pb.stages):
            diff = abs(sa.delay - sb.delay)
            if diff > tolerance:
                found.add(("table_mismatch", "point_delay", pid, str(sa.index), (sa.net,), diff))
        slack_diff = abs(pa.slack - pb.slack)
        if slack_diff > tolerance:
            found.add(("table_mismatch", "slack", pid, "-", (), slack_diff))
    return found


# ------------------------------------------------------- metric oracles

def oracle_bin(slack: float, width: float) -> int:
    """Scan for the k with k*w <= slack < (k+1)*w using exact rationals."""
    s, w = Fraction(slack), Fraction(width)
    k = math.floor(slack / width) if width else 0
    while Fraction(k) * w > s:
        k -= 1
    while Fraction(k + 1) * w <= s:
        k += 1
    return k


def oracle_metric_rows(reports, metric: str) -> dict[tuple[str, str], float]:
    groups: dict[tuple[str, str], list[float]] = {}
    for report in reports:
        slacks = groups.setdefault((report.corner, report.mode), [])
        for path in report.paths:
            slacks.append(path.slack)
    out = {}
    for key, slacks in groups.items():
        if metric == "wns":
            out[key] = min(slacks)
        elif metric == "tns":
            out[key] = float(sum(s for s in slacks if s < 0))
        else:
            out[key] = float(sum(1 for s in slacks if s < 0))
    return out


def oracle_worst(rows: dict[tuple[str, str], float], metric: str) -> tuple[str, str]:
    """Worst (corner, mode): max failing count or min wns/tns, ties by key."""
    if metric == "failing_path_count":
        return min(sorted(rows), key=lambda k: (-rows[k], k))
    return min(sorted(rows), key=lambda k: (rows[k], k))

"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: it writes configs, mock
scripts, reports and notes into a fresh directory, and the same seed always
yields the same bytes. Bundled files are only read; derived configs are
written next to the generated inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BUNDLED_CONFIGS = SRC / "marco" / "data" / "configs"
BUNDLED_FIXTURES = SRC / "marco" / "data" / "fixtures_3corner"

WIDE_WORKERS = 150
WIDE_LAYER = 8
REPORT_PATHS = 100
NOTES_DOCS = 2000

PRIMARY = "ss_0p72v_125c__func__max"
COMPANION = "ss_0p72v_125c_ref__func__max"


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _reply(content: str, calls: list[tuple[str, str, dict]] = ()) -> dict:
    reply: dict = {"content": content}
    if calls:
        reply["tool_calls"] = [{"id": cid, "tool_name": name, "arguments": args} for cid, name, args in calls]
    return reply


def _script(kind: str, value, responses: list[dict]) -> dict:
    return {"matcher": {"kind": kind, "value": value}, "responses": responses}


# --- wide_graph -------------------------------------------------------------

_WORDS = (
    "slack", "setup", "hold", "skew", "latency", "corner", "margin", "path", "stage", "net",
    "cell", "clock", "launch", "capture", "arrival", "required", "derate", "crosstalk", "victim",
    "aggressor", "wire", "load", "drive", "buffer", "fanout", "endpoint", "startpoint", "budget",
)


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def write_wide_graph(seed: int, out: Path) -> Path:
    """A dynamic graph whose single planner adds ``WIDE_WORKERS`` nodes.

    Workers come in layers of ``WIDE_LAYER``; each worker after the first
    layer depends on one or two workers of the layer before. Worker ids
    grow layer by layer, so the engine's sorted frontier runs them in id
    order and the mock serves their replies from one ordered script.
    """
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    ids = [f"w{i:03d}" for i in range(WIDE_WORKERS)]
    layers = [ids[i : i + WIDE_LAYER] for i in range(0, WIDE_WORKERS, WIDE_LAYER)]
    lines = []
    for depth, layer in enumerate(layers):
        for node_id in layer:
            fields = [node_id, f"check {_phrase(rng, 2)}", f"Worker task: review {_phrase(rng, 6)}.", "agent=worker"]
            if depth:
                deps = sorted(rng.sample(layers[depth - 1], rng.randint(1, min(2, len(layers[depth - 1])))))
                fields.append("after=" + ",".join(deps))
            lines.append(" | ".join(fields))
    plan = "Emitting the worker plan.\n\n```PLAN\n" + "\n".join(lines) + "\n```"
    scripts = [
        _script("substring", "Worker task", [_reply(f"{nid} reviewed: {_phrase(rng, 5)}.") for nid in ids]),
        _script("always", None, [_reply(plan)]),
    ]
    config = {
        "graph": {
            "mode": "dynamic",
            "nodes": [
                {
                    "id": "plan_wide",
                    "title": "plan the review",
                    "goal": "Split the review into layered worker tasks and emit one PLAN block.",
                    "agent_ref": "planner",
                    "outputs": ["wide_plan"],
                    "expansion": "planner",
                }
            ],
            "edges": [],
        },
        "agents": {
            "planner": {
                "topology": "single",
                "roles": [{"name": "planner", "system_prompt": "You plan layered reviews.", "model_ref": "mock"}],
                "termination": {"max_turns": 2, "require_outputs": True},
            },
            "worker": {
                "topology": "single",
                "roles": [{"name": "worker", "system_prompt": "You review one item and report.", "model_ref": "mock"}],
                "termination": {"max_turns": 1},
            },
        },
        "backends": {"mock": {"kind": "mock", "script": "scripts.json"}},
        "knowledge_bases": {},
        "tool_bindings": {},
        "seeds": {},
        "limits": {"max_node_executions": WIDE_WORKERS + 1},
    }
    _dump(out / "scripts.json", scripts)
    _dump(out / "wide.json", config)
    return out / "wide.json"


# --- reports_replay ---------------------------------------------------------

# task id -> (output keys, notes topic, topic keyword, detector calls, goal)
_TASKS = (
    ("m1", ("m1_findings",), "clk", "clockscan",
     [("find_missing_clock_edges", {"report": PRIMARY})],
     f"Scan {PRIMARY} for paths whose launch clock has no rise or fall annotation. Store the finding set as m1_findings."),
    ("m2", ("m2_findings",), "rcm", "rcratio",
     [("find_rc_mismatch_pairs", {"report": PRIMARY, "ratio_threshold": 5.0})],
     f"Find resistance or capacitance mismatches between stages of the same path in {PRIMARY} at ratio 5.0. Store the finding set as m2_findings."),
    ("m3", ("m3_findings",), "xtk", "xtalkdelta",
     [("find_aggressor_anomalies", {"report": PRIMARY, "kind": "constraint", "threshold": 2.0})],
     f"Check every stage of {PRIMARY} for a crosstalk delta at or above 2.0 times its constraint. Store the finding set as m3_findings."),
    ("m4", ("m4_findings",), "agg", "couplingcap",
     [("find_aggressor_anomalies", {"report": PRIMARY, "kind": "rc", "threshold": 3.0})],
     f"Flag stages of {PRIMARY} where an aggressor coupling cap reaches 3.0 times the wire capacitance. Store the finding set as m4_findings."),
    ("m5", ("m5_findings",), "slw", "stagedelay",
     [("find_slowest_stages", {"report": PRIMARY, "top_k": 3})],
     f"Rank stage delays in {PRIMARY} and record the constraints of the 3 slowest stages. Store the finding set as m5_findings."),
    ("m6", ("m6_findings",), "tbl", "tablediff",
     [("compare_timing_tables", {"report_a": PRIMARY, "report_b": COMPANION})],
     f"Compare {PRIMARY} against the reference table {COMPANION} and record every divergence. Store the finding set as m6_findings."),
    ("m7", ("m7_rc_findings", "m7_lc_findings"), "fcs", "focuswindow",
     [("find_rc_mismatch_pairs", {"report": PRIMARY, "ratio_threshold": 5.0, "stages": "1,2", "paths": "p5,p6"}),
      ("find_aggressor_anomalies", {"report": PRIMARY, "kind": "constraint", "threshold": 2.0, "stages": "1,2", "paths": "p5,p6"})],
     f"Re-run the resistance mismatch and crosstalk constraint checks restricted to paths p5,p6 and stages 1,2 of {PRIMARY}. Store them as m7_rc_findings and m7_lc_findings."),
)

_NOTE_VOCAB = _WORDS + (
    "signoff", "extraction", "parasitic", "corner", "voltage", "temperature", "ocv", "aocv", "pocv",
    "library", "liberty", "spef", "sdc", "constraint", "multicycle", "false", "generated", "divider",
    "jitter", "uncertainty", "transition", "slew", "glitch", "noise", "coupling", "shielding", "spacing",
    "layer", "via", "resistance", "capacitance", "delay", "ecos", "resize", "swap", "threshold", "leakage",
    "report", "table", "reference", "mismatch", "focus", "window", "rank", "annotation", "edge", "rise", "fall",
)
NOTES_PER_TOPIC = 40


def _notes_text(rng: random.Random, keyword: str | None) -> str:
    words = [rng.choice(_NOTE_VOCAB) for _ in range(rng.randint(40, 80))]
    if keyword is not None:
        for _ in range(rng.randint(2, 4)):
            words.insert(rng.randrange(len(words) + 1), keyword)
    return " ".join(words) + ".\n"


def write_notes(seed: int, out: Path) -> None:
    """A notes corpus: ``NOTES_PER_TOPIC`` docs per task topic, rest general.

    Topic docs carry the topic's keyword, which no other doc contains. A
    task's query is that keyword plus words no note contains, so every hit
    it gets is one of its own topic's notes, and the retrieval still scores
    every document for every query token.
    """
    rng = random.Random(seed * 7919 + 17)
    out.mkdir(parents=True, exist_ok=True)
    n = 0
    for _, _, topic, keyword, _, _ in _TASKS:
        for i in range(NOTES_PER_TOPIC):
            (out / f"{topic}_notes_{i:04d}.txt").write_text(_notes_text(rng, keyword), encoding="utf-8")
            n += 1
    i = 0
    while n < NOTES_DOCS:
        tags = f"tags: {rng.choice(_WORDS)},{rng.choice(_WORDS)}\n" if rng.random() < 0.5 else ""
        (out / f"gen_notes_{i:04d}.txt").write_text(tags + _notes_text(rng, None), encoding="utf-8")
        i += 1
        n += 1


def write_reports_replay(seed: int, out: Path) -> Path:
    """Seven timing_debug-like tasks over generated reports, replay-served.

    Writes ``record.json`` (replay in record mode over the scripted mock)
    and ``replay.json`` (cache-only replay over the same cache). Setup runs
    the first once to fill ``cache/``; the timed runs use the second.
    """
    from marco.eda.fixtures import generate_fixture_set, write_fixture_set

    out.mkdir(parents=True, exist_ok=True)
    write_fixture_set(generate_fixture_set(seed, corners=3, paths=REPORT_PATHS), out / "reports")
    write_notes(seed, out / "notes")

    nodes, edges, scripts, topic_scripts = [], [], [], []
    for idx, (task, keys, topic, keyword, calls, goal) in enumerate(_TASKS):
        nodes.append({"id": task, "title": f"task {task}", "goal": goal, "agent_ref": "crew", "outputs": list(keys)})
        if idx:
            edges.append({"src": _TASKS[idx - 1][0], "dst": task, "kind": "execution"})
        key_text = " and ".join(keys)
        tool_calls = []
        for n, (tool, args) in enumerate(calls, start=1):
            save_as = keys[n - 1]
            tool_calls.append((f"{task}_call_{n}", tool, {**args, "save_as": save_as}))
        scripts.append(
            _script(
                "substring",
                f"{task}_" if task == "m7" else keys[0],
                [
                    _reply(f"Runner, check the notes first, then produce {key_text}.\nNEXT: runner"),
                    _reply(f"Looking up prior notes before producing {key_text}.",
                           [(f"{task}_notes", "retrieve_knowledge", {"kb": "notes", "query": f"{keyword} {task} findings", "k": 3})]),
                    _reply(f"Stored {key_text}."),
                    _reply(f"{key_text} recorded. DONE"),
                ],
            )
        )
        topic_scripts.append(
            _script("substring", f"{topic}_notes_", [_reply(f"Notes read; running the check for {key_text}.", tool_calls)])
        )
    runner_tools = sorted({call[0] for task in _TASKS for call in task[4]})
    config = {
        "graph": {"mode": "static", "nodes": nodes, "edges": edges},
        "agents": {
            "crew": {
                "topology": "multi_hierarchical",
                "roles": [
                    {
                        "name": "lead",
                        "system_prompt": "You lead a timing crew. Delegate with 'NEXT: runner'; close with DONE once findings are stored.",
                        "model_ref": "mock",
                    },
                    {
                        "name": "runner",
                        "system_prompt": "You read the notes, run the matching timing tool with save_as, then summarize.",
                        "model_ref": "mock",
                        "tool_names": runner_tools,
                        "knowledge_base_refs": ["notes", "timing_reports"],
                    },
                ],
                "termination": {"max_turns": 6, "stop_phrase": "DONE", "require_outputs": True},
            }
        },
        "knowledge_bases": {"timing_reports": "reports", "notes": "notes"},
        "tool_bindings": {name: f"eda.{name}" for name in runner_tools},
        "seeds": {},
        "limits": {"max_node_executions": len(nodes)},
    }
    _dump(out / "scripts.json", scripts + topic_scripts)
    _dump(out / "record.json", {**config, "backends": {
        "mock": {"kind": "replay", "cache_dir": "cache", "record": True, "inner": "script"},
        "script": {"kind": "mock", "script": "scripts.json"},
    }})
    _dump(out / "replay.json", {**config, "backends": {"mock": {"kind": "replay", "cache_dir": "cache"}}})
    return out / "replay.json"


# --- live_http --------------------------------------------------------------

def write_live_http(out: Path) -> Path:
    """The bundled mcmm graph and script with the backend swapped for HTTP.

    The roles' ``mock`` model ref becomes a recording replay backend over an
    ``http`` backend whose URL comes from ``MARCO_BASE_URL``; the chat server
    serves the bundled mcmm script. The bundled reports are copied beside
    the config, so the inputs do not depend on the seed, the checkout's
    location or the server's port.
    """
    out.mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    for path in sorted(BUNDLED_FIXTURES.iterdir()):
        (out / "reports" / path.name).write_bytes(path.read_bytes())
    config = json.loads((BUNDLED_CONFIGS / "mcmm.json").read_text(encoding="utf-8"))
    config["backends"] = {
        "mock": {"kind": "replay", "cache_dir": "cache", "record": True, "inner": "http"},
        "http": {"kind": "http", "timeout": 30.0},
    }
    config["knowledge_bases"] = {"timing_reports": "reports"}
    _dump(out / "live.json", config)
    return out / "live.json"

"""Seeded fixture generator with a planted-anomaly manifest, plus scoring.

The generator builds one setup-check report per corner, a companion report
for table comparison, and a manifest of every planted anomaly. Clean value
ranges sit far from every trigger threshold, so detections on generated
fixtures are exactly the planted set for any seed.

Planted layout (first corner's report, 8+ paths, >= 6 stages each):

* p0: clock edge annotation removed
* p1: stage pair (3, 5) gets resistances 60 / 320 (ratio 5.33 vs threshold 5)
* p2: stage 4 crosstalk delta raised to 2.5x its constraint (threshold 2);
      companion perturbs stage 3 delay by +0.01 for the table diff
* p3: stage 3 gains an aggressor coupling at 3.75x wire C (threshold 3);
      companion appends one extra stage
* p4: stages 0..2 get delays 0.9 / 0.8 / 0.7, the report's slowest (top-3)
* p5: stage pair (1, 2) gets resistances 60 / 320, inside the focus window
* p6: stage 2 crosstalk delta raised to 2.5x its constraint, inside the window
* p7: dropped from the companion report (orphan)

The focus-window task restricts to paths p5, p6 and stages 1, 2.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .report import Aggressor, Stage, TimingPath, TimingReport, render_timing_report

MODE = "func"
CHECK = "max"

BASE_CORNERS = ("ss_0p72v_125c", "tt_0p80v_25c", "ff_0p88v_m40c")
_SLACK_RANGES = ((-0.40, -0.10), (-0.05, 0.25), (0.05, 0.45))

RC_RATIO_THRESHOLD = 5.0
XTALK_THRESHOLD = 2.0
AGGRESSOR_RC_THRESHOLD = 3.0
SLOWEST_TOP_K = 3
FOCUS_PATHS = ("p5", "p6")
FOCUS_STAGES = (1, 2)

DEFAULT_SEED = 2024
DEFAULT_PATHS = 8
MAX_CORNERS, MAX_PATHS = 32, 10_000  # so that a typo such as --paths 100000000 fails at once, not after hours


class ManifestEntry(NamedTuple):
    """One planted anomaly: task, path, stage key, dotted kind."""

    task_id: str
    path_id: str
    stage_key: str
    kind: str

    def identity(self) -> str:
        return f"{self.kind}|{self.path_id}|{self.stage_key}"

    def line(self) -> str:
        return "\t".join((self.task_id, self.path_id, self.stage_key, self.kind))


def parse_manifest(text: str) -> list[ManifestEntry]:
    entries = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"manifest line {line_no}: expected 4 fields, got {len(fields)}")
        entries.append(ManifestEntry(*fields))
    return entries


def render_manifest(entries: Iterable[ManifestEntry]) -> str:
    return "".join(entry.line() + "\n" for entry in entries)


class FixtureSet(NamedTuple):
    """Generated reports plus their ground truth."""

    seed: int
    reports: tuple[TimingReport, ...]
    companion: TimingReport
    manifest: tuple[ManifestEntry, ...]
    required_times: Mapping[tuple[str, str], float]

    def primary(self) -> TimingReport:
        return self.reports[0]

    def all_reports(self) -> tuple[TimingReport, ...]:
        return self.reports + (self.companion,)


def _corner_names(corners: int) -> list[str]:
    names = list(BASE_CORNERS[:corners])
    for i in range(len(names), corners):
        names.append(f"pvt{i}_1p00v_25c")
    return names


def _slack_range(index: int) -> tuple[float, float]:
    if index < len(_SLACK_RANGES):
        return _SLACK_RANGES[index]
    lo = 0.10 * (index - 1)
    return (lo, lo + 0.30)


def _clean_stage(rng: random.Random, path_idx: int, stage_idx: int) -> Stage:
    lc = round(rng.uniform(0.05, 0.2), 4)
    capacitance = round(rng.uniform(1.5, 4.0), 3)
    aggressors = tuple(
        Aggressor(net=f"x{path_idx}_{stage_idx}_{k}", coupling_cap=round(rng.uniform(0.2, 1.8) * capacitance, 3))
        for k in range(rng.randint(0, 2))
    )
    return Stage(
        index=stage_idx,
        net=f"n{path_idx}_{stage_idx}",
        cell=f"U{path_idx}_{stage_idx}",
        resistance=round(rng.uniform(80, 240), 1),
        capacitance=capacitance,
        delay=round(rng.uniform(0.01, 0.2), 4),
        constraint=lc,
        xtalk_delta=round(rng.uniform(0.0, 1.2) * lc, 6),
        aggressors=aggressors,
    )


def _clean_path(rng: random.Random, path_idx: int) -> TimingPath:
    """Clean path; its slack is settled after planting."""
    stage_count = rng.randint(6, 8)
    stages = tuple(_clean_stage(rng, path_idx, s) for s in range(stage_count))
    edges = rng.choice((("rise",), ("fall",), ("rise", "fall")))
    return TimingPath(
        path_id=f"p{path_idx}",
        startpoint=f"in_p{path_idx}",
        endpoint=f"out_p{path_idx}",
        clock_net="clk_core",
        clock_edges=frozenset(edges),
        slack=0.0,
        stages=stages,
    )


def _replace_stage(path: TimingPath, index: int, **changes) -> TimingPath:
    stages = list(path.stages)
    stages[index] = stages[index]._replace(**changes)
    return path._replace(stages=tuple(stages))


def _plant(paths: list[TimingPath]) -> list[TimingPath]:
    paths = list(paths)
    paths[0] = paths[0]._replace(clock_edges=frozenset())
    for target, (lo_stage, hi_stage) in ((1, (3, 5)), (5, (1, 2))):
        paths[target] = _replace_stage(paths[target], lo_stage, resistance=60.0)
        paths[target] = _replace_stage(paths[target], hi_stage, resistance=320.0)
    for target, stage_idx in ((2, 4), (6, 2)):
        lc = paths[target].stages[stage_idx].constraint
        paths[target] = _replace_stage(paths[target], stage_idx, xtalk_delta=round(2.5 * lc, 6))
    bully = Aggressor(net="bully_3", coupling_cap=round(3.75 * paths[3].stages[3].capacitance, 3))
    paths[3] = _replace_stage(paths[3], 3, aggressors=paths[3].stages[3].aggressors + (bully,))
    for stage_idx, delay in ((0, 0.9), (1, 0.8), (2, 0.7)):
        paths[4] = _replace_stage(paths[4], stage_idx, delay=delay)
    return paths


def _settle_slacks(
    paths: list[TimingPath],
    targets: list[float],
    corner: str,
    required_times: dict[tuple[str, str], float],
) -> list[TimingPath]:
    settled = []
    for path, target in zip(paths, targets):
        required = target + path.arrival()
        required_times[(corner, path.path_id)] = required
        settled.append(path._replace(slack=required - path.arrival()))
    return settled


def _build_manifest() -> tuple[ManifestEntry, ...]:
    return (
        ManifestEntry("M1", "p0", "-", "missing_clock_edge"),
        ManifestEntry("M2", "p1", "3-5", "rc_mismatch"),
        ManifestEntry("M2", "p5", "1-2", "rc_mismatch"),
        ManifestEntry("M3", "p2", "4", "xtalk_constraint"),
        ManifestEntry("M3", "p6", "2", "xtalk_constraint"),
        ManifestEntry("M4", "p3", "3", "aggressor_rc"),
        ManifestEntry("M5", "p4", "0", "slow_stage_constraint"),
        ManifestEntry("M5", "p4", "1", "slow_stage_constraint"),
        ManifestEntry("M5", "p4", "2", "slow_stage_constraint"),
        ManifestEntry("M6", "p2", "3", "table_mismatch.point_delay"),
        ManifestEntry("M6", "p2", "-", "table_mismatch.slack"),
        ManifestEntry("M6", "p3", "-", "table_mismatch.stage_count"),
        ManifestEntry("M6", "p3", "-", "table_mismatch.slack"),
        ManifestEntry("M6", "p7", "-", "table_mismatch.orphan"),
        ManifestEntry("M7", "p5", "1-2", "rc_mismatch"),
        ManifestEntry("M7", "p6", "2", "xtalk_constraint"),
    )


def generate_fixture_set(seed: int, corners: int = 3, paths: int = DEFAULT_PATHS) -> FixtureSet:
    """Build the full fixture set for one seed; pure function of its inputs."""
    if not 1 <= corners <= MAX_CORNERS:
        raise ValueError(f"corners must be from 1 to {MAX_CORNERS}")
    if not 8 <= paths <= MAX_PATHS:
        raise ValueError(f"paths must be from 8, so every planted anomaly has a home, to {MAX_PATHS}")

    rng = random.Random(seed)
    required_times: dict[tuple[str, str], float] = {}
    reports = []
    for corner_idx, corner in enumerate(_corner_names(corners)):
        lo, hi = _slack_range(corner_idx)
        corner_paths = []
        targets = []
        for path_idx in range(paths):
            corner_paths.append(_clean_path(rng, path_idx))
            targets.append(round(rng.uniform(lo, hi), 4))
        if corner_idx == 0:
            corner_paths = _plant(corner_paths)
        corner_paths = _settle_slacks(corner_paths, targets, corner, required_times)
        reports.append(TimingReport(corner=corner, mode=MODE, check=CHECK, paths=tuple(corner_paths)))

    primary = reports[0]
    companion_corner = f"{primary.corner}_ref"
    companion_paths = []
    for path in primary.paths[:7]:
        if path.path_id == "p2":
            path = _replace_stage(path, 3, delay=path.stages[3].delay + 0.01)
        elif path.path_id == "p3":
            extra = _clean_stage(rng, 3, len(path.stages))
            path = path._replace(stages=path.stages + (extra,))
        required = required_times[(primary.corner, path.path_id)]
        required_times[(companion_corner, path.path_id)] = required
        companion_paths.append(path._replace(slack=required - path.arrival()))
    companion = TimingReport(corner=companion_corner, mode=MODE, check=CHECK, paths=tuple(companion_paths))

    return FixtureSet(
        seed=seed,
        reports=tuple(reports),
        companion=companion,
        manifest=_build_manifest(),
        required_times=required_times,
    )


def report_doc_id(report: TimingReport) -> str:
    return f"{report.corner}__{report.mode}__{report.check}"


def write_fixture_set(fixture_set: FixtureSet, out_dir: str | Path) -> list[Path]:
    """Write one .txt per report plus manifest.tsv; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for report in fixture_set.all_reports():
        path = out / f"{report_doc_id(report)}.txt"
        path.write_text(render_timing_report(report), encoding="utf-8")
        written.append(path)
    manifest_path = out / "manifest.tsv"
    manifest_path.write_text(render_manifest(fixture_set.manifest), encoding="utf-8")
    written.append(manifest_path)
    return written


class TaskScore(NamedTuple):
    task_id: str
    passed: bool
    recovered: frozenset[str]
    planted: frozenset[str]


class ScoreResult(NamedTuple):
    tasks: tuple[TaskScore, ...]

    def passed_count(self) -> int:
        return sum(1 for t in self.tasks if t.passed)

    def pass_rate_line(self) -> str:
        total = len(self.tasks)
        passed = self.passed_count()
        percent = round(100 * passed / total) if total else 0
        return f"pass-rate: {passed}/{total} ({percent}%)"


def score_trace(trace: Mapping, manifest: Iterable[ManifestEntry]) -> ScoreResult:
    """Compare recovered findings in a trace's blackboard to the manifest.

    A task's recovered set is the union of ``identities`` lists over
    blackboard keys named ``<task>_*findings``; the task passes on exact set
    equality with its planted set.
    """
    planted: dict[str, set[str]] = {}
    for entry in manifest:
        planted.setdefault(entry.task_id, set()).add(entry.identity())

    blackboard = trace.get("blackboard", {})
    scores = []
    for task_id in sorted(planted):
        prefix = task_id.lower() + "_"
        recovered: set[str] = set()
        for key, cell in blackboard.items():
            if not (key.lower().startswith(prefix) and key.endswith("findings")):
                continue
            value = cell.get("value") if isinstance(cell, Mapping) else None
            if isinstance(value, Mapping) and isinstance(value.get("identities"), list):
                recovered.update(str(i) for i in value["identities"])
        scores.append(
            TaskScore(
                task_id=task_id,
                passed=recovered == planted[task_id],
                recovered=frozenset(recovered),
                planted=frozenset(planted[task_id]),
            )
        )
    return ScoreResult(tasks=tuple(scores))


def render_score_report(result: ScoreResult) -> str:
    lines = []
    for task in result.tasks:
        verdict = "PASS" if task.passed else "FAIL"
        lines.append(f"{task.task_id}: {verdict} (recovered {len(task.recovered)}, planted {len(task.planted)})")
    lines.append(result.pass_rate_line())
    return "\n".join(lines) + "\n"

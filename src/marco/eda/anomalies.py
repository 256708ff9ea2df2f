"""Deterministic anomaly checks over parsed timing reports.

Each check implements one debugging question with an explicit, documented
rule, so results are reproducible and checkable against brute-force oracles:

* missing_clock_edges: paths whose clock has no rise/fall annotation at all
* rc_mismatch_pairs: stage pairs in a path with extreme R or C ratios
* aggressor_anomalies: crosstalk delta vs constraint, or coupling vs wire C
* slowest_stage_constraints: constraints of the top-k slowest stages
* compare_timing_tables: structural and numeric drift between two reports

Zero denominators never divide: a zero value against a positive one counts
as a mismatch and the positive magnitude stands in for the ratio measure.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..errors import ReportError
from ..record import Record
from .report import TimingReport

ANOMALY_KINDS = (
    "missing_clock_edge",
    "rc_mismatch",
    "xtalk_constraint",
    "aggressor_rc",
    "slow_stage_constraint",
    "table_mismatch",
)

TABLE_TOLERANCE = 1e-6


class Anomaly(Record):
    """One flagged finding; identity is (kind[.facet], path, stage key)."""

    kind: str
    path_id: str
    stage_index: int | None = None
    stage_pair: tuple[int, int] | None = None
    subjects: tuple[str, ...] = ()
    measure: float = 0.0
    explanation: str = ""
    facet: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if self.stage_pair is not None:
            object.__setattr__(self, "stage_pair", tuple(self.stage_pair))
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(f"unknown anomaly kind {self.kind!r}")
        if not math.isfinite(self.measure):
            raise ValueError("anomaly measure must be finite")
        if not self.explanation:
            raise ValueError("anomaly explanation must be non-empty")

    def stage_key(self) -> str:
        if self.stage_pair is not None:
            return f"{self.stage_pair[0]}-{self.stage_pair[1]}"
        if self.stage_index is not None:
            return str(self.stage_index)
        return "-"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "facet": self.facet,
            "path_id": self.path_id,
            "stage_index": self.stage_index,
            "stage_pair": list(self.stage_pair) if self.stage_pair else None,
            "subjects": list(self.subjects),
            "measure": self.measure,
            "explanation": self.explanation,
            "identity": anomaly_identity(self),
        }


def anomaly_identity(anomaly: Anomaly) -> str:
    """Stable string used for manifest matching and scoring."""
    label = anomaly.kind + (f".{anomaly.facet}" if anomaly.facet else "")
    return f"{label}|{anomaly.path_id}|{anomaly.stage_key()}"


def missing_clock_edges(report: TimingReport) -> list[Anomaly]:
    """Paths whose clock carries no edge annotation; partial annotation passes."""
    if report.check != "max":
        raise ReportError("WRONG_CHECK", f"expected a max (setup) report, got check={report.check!r}")
    found = []
    for path in report.paths:
        if not path.clock_edges:
            found.append(
                Anomaly(
                    kind="missing_clock_edge",
                    path_id=path.path_id,
                    subjects=(path.clock_net,),
                    measure=path.slack,
                    explanation=f"clock {path.clock_net} on path {path.path_id} has no rise/fall annotation",
                )
            )
    return found


def _index_filter(indices: Sequence[int] | None) -> set[int] | None:
    return set(indices) if indices is not None else None


def rc_mismatch_pairs(
    report: TimingReport,
    ratio_threshold: float,
    stage_filter: Sequence[int] | None = None,
    path_filter: Iterable[str] | None = None,
) -> list[Anomaly]:
    """Stage pairs within a path whose R or C ratio reaches the threshold."""
    if not ratio_threshold > 1:
        raise ReportError("BAD_THRESHOLD", f"ratio_threshold must be > 1, got {ratio_threshold}")
    stages_allowed = _index_filter(stage_filter)
    paths_allowed = set(path_filter) if path_filter is not None else None

    # Per facet, the pair's larger value over its smaller one must reach the
    # threshold; a zero (or negative, unreachable for parsed R/C) smaller value
    # flags any positive larger one, which is then the measure.
    found = []
    for path in report.paths:
        if paths_allowed is not None and path.path_id not in paths_allowed:
            continue
        rc = [(s, s.resistance, s.capacitance) for s in path.stages if stages_allowed is None or s.index in stages_allowed]
        for a_pos, (sa, ra, ca) in enumerate(rc):
            for sb, rb, cb in rc[a_pos + 1 :]:
                lo, hi = (rb, ra) if rb < ra else (ra, rb)
                r_measure = (hi / lo if hi / lo >= ratio_threshold else None) if lo > 0 else (hi if hi > 0 else None)
                lo, hi = (cb, ca) if cb < ca else (ca, cb)
                c_measure = (hi / lo if hi / lo >= ratio_threshold else None) if lo > 0 else (hi if hi > 0 else None)
                if c_measure is None:
                    if r_measure is None:
                        continue
                    facets, measure = "R", r_measure
                elif r_measure is None:
                    facets, measure = "C", c_measure
                else:
                    facets, measure = "R+C", max(r_measure, c_measure)
                found.append(
                    Anomaly(
                        kind="rc_mismatch",
                        path_id=path.path_id,
                        stage_pair=(sa.index, sb.index),
                        subjects=(sa.net, sb.net),
                        measure=measure,
                        explanation=(
                            f"{facets} mismatch between stages {sa.index} and {sb.index}"
                            f" of path {path.path_id} (measure {measure:.6g})"
                        ),
                    )
                )
    return found


def aggressor_anomalies(
    report: TimingReport,
    kind: str,
    threshold: float,
    stage_filter: Sequence[int] | None = None,
    path_filter: Iterable[str] | None = None,
) -> list[Anomaly]:
    """Crosstalk checks per stage.

    kind=constraint: xtalk_delta >= threshold * constraint (a zero constraint
    flags on any positive delta). kind=rc: any aggressor coupling_cap >=
    threshold * stage capacitance (zero capacitance flags on any positive
    coupling); the measure is the largest triggering ratio.
    """
    if kind not in ("constraint", "rc"):
        raise ReportError("BAD_KIND", f"kind must be constraint or rc, got {kind!r}")
    if not threshold > 0:
        raise ReportError("BAD_THRESHOLD", f"threshold must be > 0, got {threshold}")
    stages_allowed = _index_filter(stage_filter)
    paths_allowed = set(path_filter) if path_filter is not None else None

    found = []
    for path in report.paths:
        if paths_allowed is not None and path.path_id not in paths_allowed:
            continue
        for stage in path.stages:
            if stages_allowed is not None and stage.index not in stages_allowed:
                continue
            if kind == "constraint":
                if stage.constraint == 0:
                    if not stage.xtalk_delta > 0:
                        continue
                    measure = stage.xtalk_delta
                else:
                    if not stage.xtalk_delta >= threshold * stage.constraint:
                        continue
                    measure = stage.xtalk_delta / stage.constraint
                found.append(
                    Anomaly(
                        kind="xtalk_constraint",
                        path_id=path.path_id,
                        stage_index=stage.index,
                        subjects=(stage.net,),
                        measure=measure,
                        explanation=(
                            f"xtalk delta {stage.xtalk_delta:.6g} vs constraint {stage.constraint:.6g}"
                            f" at stage {stage.index} of path {path.path_id}"
                        ),
                    )
                )
            else:
                triggering = []
                for agg in stage.aggressors:
                    if stage.capacitance > 0:
                        if agg.coupling_cap >= threshold * stage.capacitance:
                            triggering.append((agg, agg.coupling_cap / stage.capacitance))
                    elif agg.coupling_cap > 0:
                        triggering.append((agg, agg.coupling_cap))
                if not triggering:
                    continue
                measure = max(m for _, m in triggering)
                found.append(
                    Anomaly(
                        kind="aggressor_rc",
                        path_id=path.path_id,
                        stage_index=stage.index,
                        subjects=(stage.net,) + tuple(a.net for a, _ in triggering),
                        measure=measure,
                        explanation=(
                            f"aggressor coupling vs C {stage.capacitance:.6g} reaches ratio {measure:.6g}"
                            f" at stage {stage.index} of path {path.path_id}"
                        ),
                    )
                )
    return found


def slowest_stage_constraints(report: TimingReport, top_k: int) -> list[Anomaly]:
    """Constraints of the top_k slowest stages across all paths.

    Ranked by delay descending, R*C product descending, then
    (path_id, index) ascending.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ranked = sorted(
        ((path, stage) for path in report.paths for stage in path.stages),
        key=lambda ps: (-ps[1].delay, -ps[1].rc_product(), ps[0].path_id, ps[1].index),
    )
    found = []
    for path, stage in ranked[:top_k]:
        found.append(
            Anomaly(
                kind="slow_stage_constraint",
                path_id=path.path_id,
                stage_index=stage.index,
                subjects=(stage.net,),
                measure=stage.constraint,
                explanation=(
                    f"stage {stage.index} of path {path.path_id} ranks among the {top_k} slowest"
                    f" (delay {stage.delay:.6g}, constraint {stage.constraint:.6g})"
                ),
            )
        )
    return found


def compare_timing_tables(report_a: TimingReport, report_b: TimingReport) -> list[Anomaly]:
    """Structural and numeric drift between two comparable reports.

    Per shared path: stage-count difference, per-index delay differences over
    the common prefix, then slack difference; paths on one side only are
    orphans. Differences at or below 1e-6 ns are noise, not anomalies.
    """
    if (report_a.mode, report_a.check) != (report_b.mode, report_b.check):
        raise ReportError(
            "INCOMPARABLE",
            f"reports disagree on (mode, check): ({report_a.mode}, {report_a.check})"
            f" vs ({report_b.mode}, {report_b.check})",
        )
    map_a, map_b = report_a.path_map(), report_b.path_map()
    found = []
    for pid in sorted(set(map_a) | set(map_b)):
        in_a, in_b = pid in map_a, pid in map_b
        if in_a != in_b:
            present = map_a[pid] if in_a else map_b[pid]
            side = report_a.corner if in_a else report_b.corner
            found.append(
                Anomaly(
                    kind="table_mismatch",
                    facet="orphan",
                    path_id=pid,
                    subjects=(present.startpoint, present.endpoint),
                    measure=0.0,
                    explanation=f"path {pid} appears only in the {side} table",
                )
            )
            continue
        pa, pb = map_a[pid], map_b[pid]
        if len(pa.stages) != len(pb.stages):
            found.append(
                Anomaly(
                    kind="table_mismatch",
                    facet="stage_count",
                    path_id=pid,
                    measure=float(abs(len(pa.stages) - len(pb.stages))),
                    explanation=f"path {pid} has {len(pa.stages)} vs {len(pb.stages)} stages",
                )
            )
        for sa, sb in zip(pa.stages, pb.stages):
            diff = abs(sa.delay - sb.delay)
            if diff > TABLE_TOLERANCE:
                found.append(
                    Anomaly(
                        kind="table_mismatch",
                        facet="point_delay",
                        path_id=pid,
                        stage_index=sa.index,
                        subjects=(sa.net,),
                        measure=diff,
                        explanation=f"stage {sa.index} delay differs by {diff:.6g} on path {pid}",
                    )
                )
        slack_diff = abs(pa.slack - pb.slack)
        if slack_diff > TABLE_TOLERANCE:
            found.append(
                Anomaly(
                    kind="table_mismatch",
                    facet="slack",
                    path_id=pid,
                    measure=slack_diff,
                    explanation=f"path {pid} slack differs by {slack_diff:.6g}",
                )
            )
    return found

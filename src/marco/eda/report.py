"""Synthetic timing-report format: strict line-based parse and render.

One report per file. Line 1 is the header; each path contributes one PATH
line followed by its 2-space-indented STAGE lines:

    corner: <name> mode: <name> check: <max|min>
    PATH <id> start=<net> end=<net> clk=<net> edges=<rise|fall|rise,fall|none> slack=<num>
      STAGE <idx> net=<name> cell=<name> R=<num> C=<num> delay=<num> lc=<num> xtd=<num> aggr=<net:cap;...|none>

Numbers are parsed exactly as written; rendering uses the shortest float
repr, so fixtures emitted by the renderer round-trip byte-identically.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from ..errors import ReportError

CHECKS = ("max", "min")
CLOCK_EDGES = ("rise", "fall")

_NUM = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"

_HEADER_RE = re.compile(rf"^corner: (\S+) mode: (\S+) check: (max|min)$")
_PATH_RE = re.compile(
    rf"^PATH (\S+) start=(\S+) end=(\S+) clk=(\S+) edges=(rise,fall|rise|fall|none) slack=({_NUM})$"
)
_STAGE_RE = re.compile(
    rf"^  STAGE (\d+) net=(\S+) cell=(\S+) R=({_NUM}) C=({_NUM}) delay=({_NUM})"
    rf" lc=({_NUM}) xtd=({_NUM}) aggr=(\S+)$"
)
_AGGR_ITEM_RE = re.compile(rf"^([^:;\s]+):({_NUM})$")


@dataclass(frozen=True)
class Aggressor:
    """A coupled neighbor net and its coupling capacitance (fF)."""

    net: str
    coupling_cap: float

    def to_dict(self) -> dict:
        return {"net": self.net, "coupling_cap": self.coupling_cap}


@dataclass(frozen=True)
class Stage:
    """One path stage: net/cell with RC, delay, check constraint, crosstalk."""

    index: int
    net: str
    cell: str
    resistance: float
    capacitance: float
    delay: float
    constraint: float
    xtalk_delta: float
    aggressors: tuple[Aggressor, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggressors", tuple(self.aggressors))

    def rc_product(self) -> float:
        return self.resistance * self.capacitance

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "net": self.net,
            "cell": self.cell,
            "resistance": self.resistance,
            "capacitance": self.capacitance,
            "delay": self.delay,
            "constraint": self.constraint,
            "xtalk_delta": self.xtalk_delta,
            "aggressors": [a.to_dict() for a in self.aggressors],
        }


@dataclass(frozen=True)
class TimingPath:
    """A launch-to-capture path; empty clock_edges means missing annotation."""

    path_id: str
    startpoint: str
    endpoint: str
    clock_net: str
    clock_edges: frozenset[str]
    slack: float
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clock_edges", frozenset(self.clock_edges))
        object.__setattr__(self, "stages", tuple(self.stages))

    def arrival(self) -> float:
        """Cumulative arrival at the endpoint: stage delays plus xtalk deltas."""
        return sum(s.delay + s.xtalk_delta for s in self.stages)

    def to_dict(self) -> dict:
        return {
            "path_id": self.path_id,
            "startpoint": self.startpoint,
            "endpoint": self.endpoint,
            "clock_net": self.clock_net,
            "clock_edges": sorted(self.clock_edges),
            "slack": self.slack,
            "stages": [s.to_dict() for s in self.stages],
        }


@dataclass(frozen=True)
class TimingReport:
    """All reported paths for one (corner, mode, check) combination."""

    corner: str
    mode: str
    check: str
    paths: tuple[TimingPath, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))

    def path_map(self) -> dict[str, TimingPath]:
        return {p.path_id: p for p in self.paths}

    def to_dict(self) -> dict:
        return {
            "corner": self.corner,
            "mode": self.mode,
            "check": self.check,
            "paths": [p.to_dict() for p in self.paths],
        }


def _fail(line_no: int, expected: str, got: str) -> ReportError:
    return ReportError(
        "PARSE_ERROR",
        f"line {line_no}: expected {expected}, got {got!r}",
        line=line_no,
        expected=expected,
    )


def _parse_aggressors(text: str, line_no: int) -> tuple[Aggressor, ...]:
    if text == "none":
        return ()
    items = []
    for chunk in text.split(";"):
        match = _AGGR_ITEM_RE.match(chunk)
        if not match:
            raise _fail(line_no, "aggr item '<net>:<cap>'", chunk)
        items.append(Aggressor(net=match.group(1), coupling_cap=float(match.group(2))))
    return tuple(items)


def _parse_edges(text: str) -> frozenset[str]:
    if text == "none":
        return frozenset()
    return frozenset(text.split(","))


# A report is a function of its text alone and is frozen all through, so one
# parse serves every run and thread. 16 covers the at most 4 distinct reports a
# bench config touches; a 100-path report parses to about 0.45 MB.
@functools.lru_cache(maxsize=16)
def parse_timing_report(text: str) -> TimingReport:
    """Parse one report; any deviation raises PARSE_ERROR with line context."""
    lines = text.splitlines()
    if not lines:
        raise _fail(1, "header 'corner: ... mode: ... check: ...'", "")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise _fail(1, "header 'corner: <name> mode: <name> check: <max|min>'", lines[0])
    corner, mode, check = header.groups()

    paths: list[TimingPath] = []
    seen_ids: set[str] = set()
    current: dict | None = None
    current_stages: list[Stage] = []

    def close_path(line_no: int) -> None:
        nonlocal current, current_stages
        if current is None:
            return
        if not current_stages:
            raise _fail(line_no, f"at least one STAGE line for path {current['path_id']}", "")
        paths.append(TimingPath(stages=tuple(current_stages), **current))
        current = None
        current_stages = []

    for i, line in enumerate(lines[1:], start=2):
        path_match = _PATH_RE.match(line)
        if path_match:
            close_path(i)
            pid, start, end, clk, edges, slack = path_match.groups()
            if pid in seen_ids:
                raise _fail(i, "a fresh path id", pid)
            seen_ids.add(pid)
            current = {
                "path_id": pid,
                "startpoint": start,
                "endpoint": end,
                "clock_net": clk,
                "clock_edges": _parse_edges(edges),
                "slack": float(slack),
            }
            continue
        stage_match = _STAGE_RE.match(line)
        if stage_match:
            if current is None:
                raise _fail(i, "a PATH line before any STAGE line", line)
            idx_text, net, cell, r, c, delay, lc, xtd, aggr = stage_match.groups()
            try:
                idx = int(idx_text)
            except ValueError:  # int() refuses more than 4,300 digits
                idx = -1
            if idx != len(current_stages):
                raise _fail(i, f"STAGE {len(current_stages)} (indices gapless from 0)", line)
            values = {"R": float(r), "C": float(c), "delay": float(delay)}
            for field_name, value in values.items():
                if value < 0:
                    raise _fail(i, f"non-negative {field_name}", line)
            current_stages.append(
                Stage(
                    index=idx,
                    net=net,
                    cell=cell,
                    resistance=values["R"],
                    capacitance=values["C"],
                    delay=values["delay"],
                    constraint=float(lc),
                    xtalk_delta=float(xtd),
                    aggressors=_parse_aggressors(aggr, i),
                )
            )
            continue
        raise _fail(i, "a PATH or STAGE line", line)

    close_path(len(lines) + 1)
    if not paths:
        raise _fail(2, "at least one PATH line", "")
    return TimingReport(corner=corner, mode=mode, check=check, paths=tuple(paths))


def _num(value: float) -> str:
    return repr(float(value))


def _render_edges(edges: frozenset[str]) -> str:
    if not edges:
        return "none"
    return ",".join(e for e in CLOCK_EDGES if e in edges)


def _render_aggressors(aggressors: tuple[Aggressor, ...]) -> str:
    if not aggressors:
        return "none"
    return ";".join(f"{a.net}:{_num(a.coupling_cap)}" for a in aggressors)


def render_timing_report(report: TimingReport) -> str:
    """Canonical text form; ends with a newline."""
    lines = [f"corner: {report.corner} mode: {report.mode} check: {report.check}"]
    for path in report.paths:
        lines.append(
            f"PATH {path.path_id} start={path.startpoint} end={path.endpoint}"
            f" clk={path.clock_net} edges={_render_edges(path.clock_edges)} slack={_num(path.slack)}"
        )
        for stage in path.stages:
            lines.append(
                f"  STAGE {stage.index} net={stage.net} cell={stage.cell}"
                f" R={_num(stage.resistance)} C={_num(stage.capacitance)} delay={_num(stage.delay)}"
                f" lc={_num(stage.constraint)} xtd={_num(stage.xtalk_delta)}"
                f" aggr={_render_aggressors(stage.aggressors)}"
            )
    return "\n".join(lines) + "\n"

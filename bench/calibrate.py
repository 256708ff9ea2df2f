"""Host-speed calibration: rescale on-CPU time to a fixed reference speed.

The machine the benchmark runs on is a VM on a shared host whose speed
swings by up to 1.7 times within seconds, in spells of seconds to minutes,
with no steal time showing in the guest: process CPU time swings with wall
time. A fixed pure-Python computation timed right next to a graph run slows
down in the same spell by the same factor, so the ratio of the two repeats
where neither alone does.

``rescale`` splits a measured span into the time the thread spent on the CPU
and the time it waited (for a sleep, a socket, another process), scales only
the former by ``REFERENCE_MS / calibration ms`` and adds the wait back
unscaled. A CPU-bound span is so reported as if the host ran at the
reference speed, and a span that waits on a server's sleep keeps that wait
as it was. Graph runs are rescaled by passes timed right beside them;
set-ups, long stretches of process start, compiling and file writing that
a single pass tracks poorly, by the median pass of the whole run.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import time

# One calibration pass takes about this long on the 2-vCPU host the bounds
# were set on, in its fast spells, so rescaled times read close to that
# host's wall times when it is not slowed down.
REFERENCE_MS = 10.0

_rng = random.Random(0)
_DOC = json.dumps(
    {"rows": [{"path": f"p{i}", "slack": round(_rng.uniform(-1, 1), 4), "cells": [f"u{j}/Z" for j in range(8)]}
              for i in range(200)]},
    indent=2,
)
_FIELD = re.compile(r'"(\w+)": (-?[\d.]+)')


def _pass() -> int:
    """JSON round trips, a sort, a regex scan and a word count: the kinds of
    interpreter work marco does when it loads configs, parses reports,
    tokenizes notes and renders traces."""
    n = 0
    for _ in range(5):
        rows = sorted(json.loads(_DOC)["rows"], key=lambda row: row["slack"])
        n += len(json.dumps(rows, sort_keys=True))
        n += sum(1 for _ in _FIELD.finditer(_DOC))
        words: dict[str, int] = {}
        for line in _DOC.splitlines():
            for word in line.split():
                words[word] = words.get(word, 0) + 1
        n += len(words)
    return n


def calibrate(passes: int = 1) -> float:
    """Median wall time of ``passes`` calibration passes, in ms."""
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        _pass()
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def rescale(wall: float, cpu: float, calibration_ms: float) -> float:
    """``wall`` with its on-CPU part ``cpu`` scaled to the reference speed."""
    cpu = min(cpu, wall)
    return (wall - cpu) + cpu * REFERENCE_MS / calibration_ms

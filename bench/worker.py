"""The load generator: one process, one thread, one graph run at a time.

Started by ``run.py`` as ``python3 bench/worker.py SPEC.json``. It imports
marco, prints a ``ready`` line, times its first cycle of graph runs, then
runs a closed loop for the spec's number of seconds: the next graph run
starts when the previous one and its output check complete. Each line it
prints is one JSON object; the last holds the measurements.

With ``trace`` set in the spec, runs alternate between untraced and traced,
so the per-layer numbers and the tracing overhead come from the same loop.

Every timing is rescaled to a reference host speed (see ``calibrate.py``):
the first cycle by calibration passes made right after it, each loop cycle
by the mean of the calibration passes made right before and right after it.
The ``ready`` line carries the CPU time the start took, and the result the
median of all calibration passes, by which ``run.py`` rescales the start.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import marco  # noqa: E402,F401 - imports are paid before the first timed run

import workloads  # noqa: E402
from calibrate import calibrate, rescale  # noqa: E402
from tracer import Tracer  # noqa: E402


def timed_run(graph_run, tracer: Tracer | None = None) -> tuple[float, float, int, str | None]:
    """Time one graph run, then check it: (wall ms, on-CPU ms, nodes executed, failure)."""
    if graph_run.before is not None:
        graph_run.before()
    if tracer is not None:
        tracer.begin_run()
        tracer.install()
    started = time.perf_counter()
    cpu_started = time.thread_time()
    try:
        trace, text = graph_run.execute()
    except Exception as exc:  # noqa: BLE001 - a failed run is counted, the loop goes on
        failure = f"{graph_run.name}: {type(exc).__name__}: {exc}"
        return (time.perf_counter() - started) * 1e3, (time.thread_time() - cpu_started) * 1e3, 0, failure
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed_ms = (time.perf_counter() - started) * 1e3
    cpu_ms = (time.thread_time() - cpu_started) * 1e3
    try:
        graph_run.check(trace, text)
    except Exception as exc:  # noqa: BLE001 - an output the check cannot read is a wrong output
        return elapsed_ms, cpu_ms, len(trace.outcomes), f"{graph_run.name}: {type(exc).__name__}: {exc}"
    return elapsed_ms, cpu_ms, len(trace.outcomes), None


def timed_cycle(runs, tracer: Tracer | None = None) -> tuple[float, float, int, list[str]]:
    """Run each graph run of the workload once: (wall ms, on-CPU ms, nodes, failures)."""
    total_ms = total_cpu_ms = 0.0
    nodes = 0
    failures = []
    for graph_run in runs:
        ms, cpu_ms, executed, failure = timed_run(graph_run, tracer)
        total_ms += ms
        total_cpu_ms += cpu_ms
        nodes += executed
        if failure:
            failures.append(failure)
    return total_ms, total_cpu_ms, nodes, failures


def measure(spec: dict, seconds: float, trace: bool = False, emit=print) -> dict:
    """Time the first cycle of graph runs, then loop over whole cycles.

    A cycle is one graph run, or for ``bundled`` its three graph runs, and
    one timing sample is one cycle that passed its checks, rescaled to the
    reference host speed; ``wall_ms`` keeps the samples as measured. With tracing,
    every second cycle is traced, so per-run counts do not depend on where
    the clock stopped.
    """
    base_url = os.environ.get("MARCO_BASE_URL")
    runs = workloads.graph_runs(spec, base_url)
    tracer = Tracer() if trace else None
    emit(json.dumps({"event": "ready", "cpu_s": time.process_time()}))

    first_wall, first_cpu, _, failures = timed_cycle(runs)
    calibration = calibrate(passes=3)
    calibrations = [calibration]
    first_ms = rescale(first_wall, first_cpu, calibration)
    emit(json.dumps({"event": "first_run", "first_run_ms": first_ms}))

    samples: list[float] = []
    walls: list[float] = []
    traced: list[float] = []
    nodes = 0
    attempted = len(runs)
    stats_before = workloads.server_stats(base_url) if trace else None
    cycles = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cycles += 1
        use_tracer = tracer if trace and cycles % 2 == 0 else None
        wall, cpu, executed, cycle_failures = timed_cycle(runs, use_tracer)
        calibrated_before, calibration = calibration, calibrate()
        calibrations.append(calibration)
        attempted += len(runs)
        failures += cycle_failures
        if not cycle_failures:
            ms = rescale(wall, cpu, (calibrated_before + calibration) / 2)
            (traced if use_tracer else samples).append(ms)
            if not use_tracer:
                walls.append(wall)
            nodes += executed
    result = {
        "event": "result",
        "first_run_ms": first_ms,
        "first_wall_ms": first_wall,
        "calibration_ms": statistics.median(calibrations),
        "samples_ms": samples,
        "wall_ms": walls,
        "nodes": nodes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["traced_ms"] = traced
        after = workloads.server_stats(base_url)
        result["layers"] = layer_report(tracer, traced, samples, stats_before, after, len(runs), cycles)
        if spec.get("spans_out"):
            tracer.write(Path(spec["spans_out"]))
    return result


def layer_report(tracer: Tracer, traced: list[float], untraced: list[float], before, after,
                 runs_per_cycle: int, cycles: int) -> dict:
    """Per-graph-run layer metrics plus the traced and untraced cycle medians."""
    http = None
    loop_runs = cycles * runs_per_cycle
    if before is not None and after is not None and loop_runs:
        http = {
            "requests": (after["requests"] - before["requests"]) / loop_runs,
            "connections": (after["connections"] - before["connections"]) / loop_runs,
            "max_inflight": after["max_inflight"],
        }
    mean_traced_run = statistics.fmean(traced) / runs_per_cycle if traced else 0.0
    layers = tracer.layer_metrics(mean_traced_run, http)
    p50_traced = statistics.median(traced) if traced else 0.0
    p50_untraced = statistics.median(untraced) if untraced else 0.0
    layers["trace.run_ms_p50_untraced"] = p50_untraced
    layers["trace.run_ms_p50_traced"] = p50_traced
    layers["trace.overhead_pct"] = 100.0 * (p50_traced / p50_untraced - 1.0) if p50_untraced else 0.0
    return layers


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = measure(spec, spec["seconds"], spec.get("trace", False), emit=lambda line: print(line, flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""marco's benchmark: one workload, one seed, end-to-end or per-layer numbers.

    python3 bench/run.py --workload bundled --seed 1 --seconds 15 --trace 0

Without tracing it sets the workload up several times, each time in a fresh
directory with a fresh worker process that times its first graph run and
then runs the closed loop for an equal share of ``--seconds``. It reports
the set-up time (the median input set-up plus the median worker start), the
median first run, and percentiles over the pooled loop samples. All times
are rescaled to a reference host speed (``calibrate.py``). With ``--trace 1`` it sets up once and
reports per-layer metrics from a loop that alternates untraced and traced
graph runs. Every graph run's output is checked. The last line printed is
one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402 - none of these imports marco at module level
import workloads  # noqa: E402
from calibrate import rescale  # noqa: E402

WORK = REPO / ".bench_work"
SETUPS = 5
PROBES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("first_run_ms", "ms"),
    ("nodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
# Printed beside the others but not in the result line, so not bounded: on a
# host whose speed swings between two levels, the top decile holds the slow
# spells whenever they exceed a tenth of a run, so it moves far more between
# runs than the median does.
PRINTED_ONLY = {"run_ms_p90": "ms"}


def run_round(workload: str, seed: int, work: Path, seconds: float, trace: bool, probes: int = 0):
    """Set up once, run one worker on the inputs, then ``probes`` more.

    Returns the time the inputs took to prepare (input generation, replay
    recording, chat-server start), the time each worker took from its start
    until it had imported marco and was ready to run, each as a pair of
    wall and on-CPU seconds, and the workers' results: first the looping
    worker's, then those of the probes, fresh processes that each make one
    cycle of graph runs on the same inputs.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started, cpu_started = time.perf_counter(), time.thread_time()
    prepared = workloads.prepare(workload, seed, work / "inputs")
    prepare_s = (time.perf_counter() - started, time.thread_time() - cpu_started)
    try:
        spec = {**prepared.spec, "seconds": seconds, "trace": trace}
        if trace:
            spec["spans_out"] = str(WORK / f"spans-{workload}-seed{seed}.jsonl")
        workers = [run_worker(spec, work, prepared.env)]
        workers += [run_worker({**spec, "seconds": 0, "trace": False}, work, prepared.env) for _ in range(probes)]
        return prepare_s, [start_s for start_s, _ in workers], [result for _, result in workers]
    finally:
        prepared.close()
        shutil.rmtree(work, ignore_errors=True)


def run_worker(spec: dict, work: Path, env: dict) -> tuple[tuple[float, float], dict]:
    """Start one worker; return how long it took to be ready (wall and
    on-CPU seconds), and its result."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.perf_counter()
    worker = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        stdout=subprocess.PIPE, text=True, env={**os.environ, **env},
    )
    try:
        ready = worker.stdout.readline()
        wall = time.perf_counter() - started
        if '"ready"' not in ready:
            raise RuntimeError(f"worker did not start: {ready!r}")
        start_s = (wall, json.loads(ready)["cpu_s"])
        out, _ = worker.communicate(timeout=spec["seconds"] + 120)
        if worker.returncode != 0:
            raise RuntimeError(f"worker exited with code {worker.returncode}")
        return start_s, json.loads(out.strip().splitlines()[-1])
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """``SETUPS`` rounds of set-up, fresh worker, first run and closed loop.

    Each round's loop runs for an equal share of ``seconds`` and is followed
    by ``PROBES`` more fresh workers that time only their first run, so
    set-ups, first runs and loop samples are spread over the whole
    measurement. Set-up times are rescaled by the median of every
    calibration pass the run's workers made: a set-up is one long stretch of
    process start, compiling and file writing, which a single pass timed
    next to it tracks poorly, while over a whole run set-up time follows
    the host's speed.
    """
    prepares, starts, firsts, first_walls, samples, walls, peaks, calibrations = [], [], [], [], [], [], [], []
    nodes = attempted = failed = 0
    failures: list[str] = []
    for k in range(SETUPS):
        work = WORK / f"{workload}-seed{seed}-{k}"
        prepare_s, start_s, results = run_round(workload, seed, work, seconds / SETUPS, False, PROBES)
        prepares.append(prepare_s)
        starts += start_s
        samples += results[0]["samples_ms"]
        walls += results[0]["wall_ms"]
        nodes += results[0]["nodes"]
        peaks.append(results[0]["peak_rss_mb"])
        for result in results:
            firsts.append(result["first_run_ms"])
            first_walls.append(result["first_wall_ms"])
            calibrations.append(result["calibration_ms"])
            attempted += result["attempted"]
            failed += result["failed"]
            failures += result["failures"]
    if len(samples) < 2:
        raise RuntimeError(f"only {len(samples)} checked graph runs completed in {seconds} s")
    calibration = statistics.median(calibrations)
    metrics = {
        "setup_s": statistics.median(rescale(wall, cpu, calibration) for wall, cpu in prepares)
        + statistics.median(rescale(wall, cpu, calibration) for wall, cpu in starts),
        "run_ms_p50": statistics.median(samples),
        "run_ms_p90": p90(samples),
        "first_run_ms": statistics.median(firsts),
        "nodes_per_s": nodes / (sum(samples) / 1e3),
        "peak_rss_mb": max(peaks),
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": f"median of {SETUPS} input set-ups + median of {len(starts)} worker starts, "
                   f"as measured {statistics.median(w for w, _ in prepares) + statistics.median(w for w, _ in starts):.4g} s",
        "run_ms_p50": f"n={len(samples)}, as measured {statistics.median(walls):.4g} ms",
        "run_ms_p90": f"n={len(samples)}, {sum(s > metrics['run_ms_p90'] for s in samples)} beyond",
        "first_run_ms": f"median of {len(firsts)} fresh workers, as measured {statistics.median(first_walls):.4g} ms",
        "nodes_per_s": f"{nodes} nodes",
        "peak_rss_mb": f"max of {SETUPS} workers",
        "ok_ratio": f"fail_ratio={failed / attempted:.4f} ({failed}/{attempted})",
    }
    return metrics, {"attempted": attempted, "failed": failed, "notes": notes}, failures


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    _, _, (result,) = run_round(workload, seed, WORK / f"{workload}-seed{seed}-traced", seconds, True)
    notes = {"trace.run_ms_p50_traced": f"n={len(result['traced_ms'])}",
             "trace.run_ms_p50_untraced": f"n={len(result['samples_ms'])}"}
    tally = {"attempted": result["attempted"], "failed": result["failed"], "notes": notes}
    return result["layers"], tally, result["failures"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "marco" / "__init__.py").is_file():
        print(f"error: marco's sources are missing: no {REPO / 'src' / 'marco'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import marco  # noqa: F401 - fail here, before any set-up, if marco cannot load

    WORK.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    metrics, tally, failures = measure(args.workload, args.seed, args.seconds)
    units = dict(END_TO_END) if not args.trace else {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    printed = {**units, **PRINTED_ONLY} if not args.trace else units

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, unit in printed.items():
        note = tally["notes"].get(name, "")
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit:<6} {note}")
    for failure in failures:
        print(f"  failed: {failure}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

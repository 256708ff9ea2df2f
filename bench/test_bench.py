"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They write only under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture()
def work(request):
    path = REPO / ".bench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "write, seeded",
    [
        (inputs.write_wide_graph, True),
        (inputs.write_reports_replay, True),
        (lambda seed, out: inputs.write_live_http(out), False),
    ],
    ids=["wide_graph", "reports_replay", "live_http"],
)
def test_generators_reproduce_byte_identically_per_seed(work, write, seeded):
    write(7, work / "a")
    write(7, work / "b")
    write(8, work / "c")
    first = tree_bytes(work / "a")
    assert first and first == tree_bytes(work / "b")
    assert (first != tree_bytes(work / "c")) == seeded


@pytest.mark.parametrize("workload", ["bundled", "wide_graph", "reports_replay"])
def test_two_traced_passes_give_identical_counts(work, workload):
    prepared = workloads.prepare(workload, 3, work / "inputs")
    runs = workloads.graph_runs(prepared.spec)
    count_names = [name for name, unit, _ in tracer.LAYER_METRICS if unit == "count"]

    def traced_counts():
        spans = tracer.Tracer()
        for _ in range(2):
            for graph_run in runs:
                assert worker.timed_run(graph_run, spans)[-1] is None
        metrics = spans.layer_metrics(run_ms=1.0)
        return {name: metrics[name] for name in count_names}

    first = traced_counts()
    assert first == traced_counts()
    assert first["agents.turns"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_expected_output_fails_every_run(work, workload, monkeypatch):
    seed = json.loads(workloads.EXPECTED_FILE.read_text(encoding="utf-8"))["default_seed"]
    prepared = workloads.prepare(workload, seed, work / "inputs")
    try:
        for key, value in prepared.env.items():
            monkeypatch.setenv(key, value)
        spec = prepared.spec
        assert spec["expected"], "the default seed must have expected outputs"
        spec["expected"] = {key: "0" * 64 for key in spec["expected"]}
        result = worker.measure(spec, seconds=0.3, emit=lambda line: None)
    finally:
        prepared.close()
    assert result["attempted"] > 1
    assert result["failed"] == result["attempted"]


def run_bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_output_names_every_metric_with_its_unit(trace, section):
    declared = {m["name"]: m["unit"] for m in json.loads((REPO / "BENCHMARK.json").read_text())[section]}
    proc = run_bench("--workload", "bundled", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines[:-1]), name


def test_refuses_to_run_without_the_program(work):
    shutil.copytree(BENCH, work / "bench")
    shutil.copy(REPO / "BENCHMARK.json", work)
    proc = run_bench("--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=work)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_rescale_scales_only_the_time_on_the_cpu():
    from calibrate import REFERENCE_MS, rescale

    # On a host at half the reference speed, 30 ms on the CPU count as 15.
    assert rescale(wall=50.0, cpu=30.0, calibration_ms=2 * REFERENCE_MS) == 20.0 + 15.0
    assert rescale(wall=50.0, cpu=0.0, calibration_ms=2 * REFERENCE_MS) == 50.0
    # CPU time a hair over wall time (separate clocks) counts as all wall time.
    assert rescale(wall=10.0, cpu=10.5, calibration_ms=REFERENCE_MS) == 10.0

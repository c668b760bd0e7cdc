"""The benchmark's own tests: ``python -m pytest perfbench/tests -q``.

They run the real CLI, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path
from time import perf_counter

import pytest

import harness
import run
from tracer import LAYERS, Costs, Tracer, _counting_hooks, calibrate
from workloads import HASH_SEEDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.tick(2.0)

    def middle():
        clock.tick(1.0)
        traced_leaf()
        clock.tick(0.5)
        traced_leaf()

    def outer():
        clock.tick(3.0)
        traced_middle()
        clock.tick(4.0)

    traced_leaf = tracer.wrap("protocols", leaf)
    traced_middle = tracer.wrap("runtime.sync.executor", middle)
    traced_outer = tracer.wrap("analysis.campaign", outer)
    traced_outer()
    clock.tick(10.0)  # outside every span: unattributed

    layers = tracer.report(clock.now)["layers"]
    assert layers["protocols"] == {"calls": 2, "self_s": 4.0}
    assert layers["runtime.sync.executor"] == {"calls": 1, "self_s": 1.5}
    assert layers["analysis.campaign"] == {"calls": 1, "self_s": 7.0}
    assert sum(v["self_s"] for v in layers.values()) == clock.now - 10.0
    assert tracer.stack == []


def test_report_subtracts_calibrated_span_costs():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    hooked = "repro.runtime.faults:SyncFaultInjector.deliver"

    def leaf():
        clock.tick(2.0)

    def outer():
        clock.tick(3.0)
        traced_leaf()
        traced_hooked()
        traced_hooked()

    traced_leaf = tracer.wrap("protocols", leaf)
    traced_hooked = tracer.wrap("runtime.faults", leaf, site=hooked)
    traced_outer = tracer.wrap("analysis.campaign", outer)
    traced_outer()
    traced_leaf()  # no enclosing span: its parent cost is outside all
    t0 = clock()
    clock.tick(0.5)
    tracer.exclude(t0)

    costs = Costs(parent=0.25, own={"": 0.125, hooked: 0.5})
    report = tracer.report(clock.now, costs)
    layers = report["layers"]
    assert layers["protocols"] == {"calls": 2, "self_s": 4.0 - 2 * 0.125}
    assert layers["runtime.faults"] == {"calls": 2, "self_s": 4.0 - 2 * 0.5}
    assert layers["analysis.campaign"] == {
        "calls": 1, "self_s": 3.0 - 0.125 - 3 * 0.25,
    }
    # Own costs of the 5 spans, parent costs of the 3 nested and the 2
    # top-level spans, and the excluded time.
    assert report["overhead_s"] == 3 * 0.125 + 2 * 0.5 + 5 * 0.25 + 0.5


def test_calibrate_measures_every_wrapper_kind():
    costs = calibrate()
    assert costs.parent > 0
    assert set(costs.own) == {""} | set(_counting_hooks(Tracer()))
    assert all(cost > 0 for cost in costs.own.values())


def test_self_time_of_recursive_layer_and_exceptions():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def shrink(depth):
        clock.tick(1.0)
        if depth:
            traced(depth - 1)
        else:
            raise ValueError("leaf")

    traced = tracer.wrap("analysis.campaign.shrink", shrink)
    with pytest.raises(ValueError):
        traced(2)
    layers = tracer.report(clock.now)["layers"]
    assert layers["analysis.campaign.shrink"] == {"calls": 3, "self_s": 3.0}
    assert tracer.stack == []


def test_golden_check_flags_a_perturbed_golden_file(tmp_path):
    workload = WORKLOADS["engines-cli"]
    index = workload.subcommands().index("classify")
    golden = harness.Golden.load(harness.golden_path(workload))
    runner = harness.Runner(deadline=perf_counter() + 120)
    try:
        result = runner.repro(0, workload.commands[index], HASH_SEEDS[0])
    finally:
        harness.remove_work_dir()
    assert golden.check(0, index, result) is None

    data = json.loads(harness.golden_path(workload).read_text())
    text = golden.expected(0, index).replace("ADEQUATE", "INADEQUATE")
    sha = harness.digest(text.encode())
    data["texts"][sha] = text
    data["seeds"]["0"]["stdout"][index] = [sha]
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(data))

    problem = harness.Golden.load(perturbed).check(0, index, result)
    assert problem is not None
    assert "-INADEQUATE" in problem and "+ADEQUATE" in problem


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == run.per_layer_metrics()


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name, trace, monkeypatch):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    try:
        result = run.run_workload(name, seed=1, seconds=0, trace=trace)
    finally:
        harness.remove_work_dir()
    assert result["correct"] and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["import.calls"] > 0
        assert sum(metrics[f"{layer}.share"] for layer in LAYERS) < 1.0
        if WORKLOADS[name].scans:
            assert metrics["analysis.campaign.attempts"] == (
                metrics["run.attempts.total"]
            )
    else:
        assert all(value > 0 for value in metrics.values())


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    # A host at half the reference speed: the reference program takes
    # twice REFERENCE_S, so times halve and throughput doubles.
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(harness.Runner, "reference",
                        lambda self: 2 * harness.REFERENCE_S)
    bench = run.Bench(WORKLOADS["frontier-naive-k8"], 1,
                      harness.Runner(perf_counter() + 120))
    try:
        metrics, reps = bench.timed(0)
    finally:
        harness.remove_work_dir()
    assert reps == 1 and bench.tally.failed == 0
    assert bench.raw["reference_s"] == 2 * harness.REFERENCE_S
    assert metrics["wall_s"] == pytest.approx(bench.raw["wall_s"] / 2)
    assert metrics["setup_s"] == pytest.approx(bench.raw["setup_s"] / 2)
    assert metrics["attempts_per_s"] == pytest.approx(
        bench.raw["attempts_per_s"] * 2
    )
    assert metrics["peak_rss_mb"] == bench.raw["peak_rss_mb"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "engines-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no repro sources" in proc.stderr

"""End-to-end benchmark of the ``repro`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--workload all`` runs every workload in
turn.  Each *rep* of a run executes the workload's commands as fresh
``python -m repro`` processes with telemetry off, for one program seed
from the golden pool (the benchmark seed fixes the order), and checks
every stdout against the golden output.  Reps repeat for about
``--seconds`` (at least ``MIN_REPS``); the metrics are medians over reps.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
fixed machine speed (see ``Bench.timed``).  ``--trace 1`` alternates
untraced reps with reps run under ``tracer.py`` and reports per-layer
metrics, plus a ``--metrics`` run whose ``run.*`` counters cross-check
the tracer's.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from harness import (
    REFERENCE_S, BenchError, Golden, Runner, check_program, golden_path,
    remove_work_dir,
)
from tracer import LAYERS
from workloads import (
    HASH_SEEDS, POOL, STRATA, WORKLOADS, Workload, program_seeds,
)

MIN_REPS = 3
# A run stops starting commands this long after it began, so it ends
# well within the 180 s the harness allows.
DEADLINE_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("attempts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Counters from the program's own telemetry (a `--metrics` run).
RUN_COUNTERS = ("run.attempts.total", "run.rounds.total", "run.faults.injected")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    metrics = []
    for layer in LAYERS:
        metrics += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "fraction", "lower"),
        ]
    metrics += [
        ("runtime.sync.executor.rounds", "count", "lower"),
        ("runtime.faults.injections", "count", "lower"),
        ("runtime.memo.hit_ratio", "fraction", "higher"),
        ("runtime.incremental.rounds_executed", "count", "lower"),
        ("runtime.incremental.replay_ratio", "fraction", "higher"),
        ("graphs.automorphisms.reuse_ratio", "fraction", "higher"),
        ("analysis.campaign.attempts", "count", "higher"),
        ("analysis.campaign.failed", "count", "lower"),
        ("analysis.campaign.shrink.accept_ratio", "fraction", "higher"),
        ("interpreter.self_s", "s", "lower"),
        ("unattributed.self_s", "s", "lower"),
        ("unattributed.share", "fraction", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.residual_overhead", "ratio", "lower"),
        ("run.attempts.total", "count", "higher"),
        ("run.rounds.total", "count", "lower"),
        ("run.faults.injected", "count", "lower"),
    ]
    return metrics


class Tally:
    """Commands attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)

    def fail(self, what: str, problem: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {problem}", file=sys.stderr)


class Bench:
    """One run of one workload."""

    def __init__(self, workload: Workload, seed: int, runner: Runner) -> None:
        self.workload = workload
        self.seed = seed
        self.golden = Golden.load(golden_path(workload))
        self.seeds = program_seeds(
            seed, {s: self.golden.attempts(s) for s in range(POOL)}
        )
        self.runner = runner
        self.tally = Tally()
        # Unscaled end-to-end values of a timed run.
        self.raw: dict[str, float] = {}

    def more(self, rep: int, min_reps: int, t0: float, seconds: float,
             last: float) -> bool:
        """Start another rep?  Until at least ``min_reps`` ran and another
        rep as long as the ``last`` one would end more than half of it
        past ``seconds``; never past the runner's deadline."""
        now = perf_counter()
        return now < self.runner.deadline and (
            rep < min_reps or now - t0 + last / 2 < seconds
        )

    def rep_inputs(self, rep: int) -> tuple[int, str]:
        """Program seed and hash seed of rep ``rep``.  The hash seed
        alternates, shifted per pass over the strata and per benchmark
        seed, so each stratum meets both hash seeds."""
        flip = rep + rep // STRATA + self.seed
        return self.seeds[rep % POOL], HASH_SEEDS[flip % len(HASH_SEEDS)]

    def work(self, seed: int) -> int:
        """Units of work in one rep: campaign attempts scanned, or CLI
        commands for a workload that scans none."""
        if self.workload.scans:
            return self.golden.attempts(seed)
        return len(self.workload.commands)

    def commands(self, seed: int, hash_seed: str) -> tuple[float, int]:
        """Run the workload's commands; returns (wall s, peak RSS KiB)."""
        wall, rss = 0.0, 0
        for index, command in enumerate(self.workload.commands):
            result = self.runner.repro(seed, command, hash_seed)
            wall += result.wall_s
            rss = max(rss, result.maxrss_kb)
            self.tally.record(
                f"seed {seed}: {' '.join(command)}",
                self.golden.check(seed, index, result),
            )
        return wall, rss

    def setup(self, hash_seed: str) -> float:
        """Wall time of ``repro <subcommand> --help`` for every command:
        interpreter start, package import and parser build."""
        total = 0.0
        for sub in self.workload.subcommands():
            result = self.runner.run(
                [sys.executable, "-m", "repro", sub, "--help"], hash_seed
            )
            total += result.wall_s
            ok = result.code == 0 and result.stdout.startswith(b"usage: repro")
            self.tally.record(
                f"{sub} --help", None if ok else f"exit code {result.code}"
            )
        return total

    def timed(self, seconds: float) -> tuple[dict[str, float], int]:
        """End-to-end metrics at the reference speed.

        Each rep runs the reference program (``harness.REFERENCE_PROGRAM``),
        the ``--help`` commands, the workload's commands and the
        reference program again.  ``wall_s``, ``setup_s`` and the
        reference time are medians over reps and over both reference
        runs; ``attempts_per_s`` is the run's total work over its total
        ``wall_s`` (a per-rep ratio would swing with each rep's input).
        The host's speed drifts by up to a third over minutes, and the
        reference slows with it, so the times are multiplied (the
        throughput divided) by ``REFERENCE_S`` over the run's median
        reference time.  ``self.raw`` keeps the unscaled values."""
        samples = defaultdict(list)
        work = 0
        t0 = last = perf_counter()
        rep = 0
        while self.more(rep, MIN_REPS, t0, seconds, perf_counter() - last):
            last = perf_counter()
            seed, hash_seed = self.rep_inputs(rep)
            samples["reference_s"].append(self.runner.reference())
            samples["setup_s"].append(self.setup(hash_seed))
            wall, rss = self.commands(seed, hash_seed)
            samples["reference_s"].append(self.runner.reference())
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss / 1024)
            work += self.work(seed)
            rep += 1
        raw = {k: statistics.median(v) for k, v in samples.items()}
        raw["attempts_per_s"] = work / sum(samples["wall_s"])
        self.raw = raw
        scale = REFERENCE_S / raw["reference_s"]
        metrics = {
            "wall_s": raw["wall_s"] * scale,
            "attempts_per_s": raw["attempts_per_s"] / scale,
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        return metrics, rep

    def traced_rep(self, seed: int, hash_seed: str) -> dict[str, float]:
        """Run the commands under the tracer; returns the rep's per-layer
        values (counters are summed over the commands)."""
        wall = in_process = overhead = 0.0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        counters: Counter = Counter()
        for index, command in enumerate(self.workload.commands):
            result, report = self.runner.traced(seed, command, hash_seed)
            what = f"traced seed {seed}: {' '.join(command)}"
            problem = self.golden.check(seed, index, result)
            if problem is None and report is None:
                problem = "tracer wrote no report"
            self.tally.record(what, problem)
            wall += result.wall_s
            if report is None:
                continue
            in_process += report["wall_s"]
            overhead += report["overhead_s"]
            for layer, totals in report["layers"].items():
                calls[layer] += totals["calls"]
                self_s[layer] += totals["self_s"]
            counters.update(report["counters"])
        if self.workload.scans and (
            counters["analysis.campaign.attempts"] != self.golden.attempts(seed)
        ):
            self.tally.fail(
                f"traced seed {seed}",
                f"tracer counted {counters['analysis.campaign.attempts']} "
                f"attempts, golden has {self.golden.attempts(seed)}",
            )
        # Shares are of the traced wall less the tracer's own cost: the
        # time the program itself took in the traced process.
        program = wall - overhead
        values: dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = calls[layer]
            values[f"{layer}.self_s"] = self_s[layer]
            values[f"{layer}.share"] = self_s[layer] / program
        unattributed = (
            in_process - overhead - sum(self_s[layer] for layer in LAYERS)
        )
        values.update({
            "runtime.sync.executor.rounds": counters["runtime.sync.executor.rounds"],
            "runtime.faults.injections": counters["runtime.faults.injections"],
            "runtime.memo.hit_ratio": _ratio(
                counters["runtime.memo.hits"], counters["runtime.memo.gets"]),
            "runtime.incremental.rounds_executed": counters[
                "runtime.incremental.rounds_executed"],
            "runtime.incremental.replay_ratio": _ratio(
                counters["runtime.incremental.rounds_replayed"],
                counters["runtime.incremental.rounds_replayed"]
                + counters["runtime.incremental.rounds_executed"]),
            "graphs.automorphisms.reuse_ratio": _ratio(
                counters["graphs.automorphisms.reused"],
                counters["graphs.automorphisms.records"]),
            "analysis.campaign.attempts": counters["analysis.campaign.attempts"],
            "analysis.campaign.failed": counters["analysis.campaign.failed"],
            "analysis.campaign.shrink.accept_ratio": _ratio(
                counters["analysis.campaign.shrink.accepted"],
                counters["analysis.campaign.shrink.tried"]),
            "interpreter.self_s": wall - in_process,
            "unattributed.self_s": unattributed,
            "unattributed.share": unattributed / program,
            "trace.wall_s": wall,
            "trace.overhead_s": overhead,
        })
        return values

    def run_counters(self, seed: int, hash_seed: str) -> dict[str, int]:
        """The program's own ``run.*`` counters from a ``--metrics`` run;
        its output above the telemetry summary must still be golden."""
        totals: Counter = Counter({name: 0 for name in RUN_COUNTERS})
        for index, command in enumerate(self.workload.commands):
            result = self.runner.repro(
                seed, command, hash_seed, extra=("--metrics",)
            )
            report, _, summary = result.stdout.partition(b"== telemetry summary ==")
            self.tally.record(
                f"seed {seed}: {' '.join(command)} --metrics",
                self.golden.check(seed, index, result, stdout=report),
            )
            for name in RUN_COUNTERS:
                found = re.search(
                    rb"^\s*" + re.escape(name.encode()) + rb"\s+(\d+)\s*$",
                    summary, re.MULTILINE,
                )
                totals[name] += int(found.group(1)) if found else 0
        if totals["run.attempts.total"] != self.golden.attempts(seed):
            self.tally.fail(
                f"seed {seed} --metrics",
                f"run.attempts.total is {totals['run.attempts.total']}, "
                f"golden has {self.golden.attempts(seed)}",
            )
        return dict(totals)

    def traced(self, seconds: float) -> tuple[dict[str, float], int]:
        """Per-layer metrics.  Every rep runs one program seed, from the
        middle work stratum, so counters are exact counts for that seed
        and the ``--metrics`` cross-check sees the same input."""
        seed = self.seeds[0]
        samples = defaultdict(list)
        untraced = []
        t0 = last = perf_counter()
        rep = 0
        while self.more(rep, 1, t0, seconds, perf_counter() - last):
            last = perf_counter()
            hash_seed = self.rep_inputs(rep)[1]
            untraced.append(self.commands(seed, hash_seed)[0])
            for name, value in self.traced_rep(seed, hash_seed).items():
                samples[name].append(value)
            rep += 1
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        untraced_wall = statistics.median(untraced)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced_wall
        metrics["trace.residual_overhead"] = statistics.median(
            w - o for w, o in
            zip(samples["trace.wall_s"], samples["trace.overhead_s"])
        ) / untraced_wall
        if self.workload.scans:
            metrics.update(self.run_counters(seed, HASH_SEEDS[0]))
        else:
            metrics.update({name: 0 for name in RUN_COUNTERS})
        return metrics, rep


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def warm_up(runner: Runner) -> None:
    """One untimed CLI start: compiles bytecode caches and proves the
    program runs here."""
    result = runner.run([sys.executable, "-m", "repro", "--help"], HASH_SEEDS[0])
    if result.code != 0:
        raise BenchError(
            "python -m repro --help failed: "
            + result.stderr.decode(errors="replace")[-2000:]
        )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the JSON result with every metric's unit."""
    runner = Runner(perf_counter() + DEADLINE_S)
    warm_up(runner)
    bench = Bench(WORKLOADS[name], seed, runner)
    if trace:
        values, reps = bench.traced(seconds)
        units = {n: u for n, u, _ in per_layer_metrics()}
    else:
        values, reps = bench.timed(seconds)
        units = dict(END_TO_END)
    tally = bench.tally
    print(f"== {name}: seed {seed}, {'traced' if trace else 'timed'}, "
          f"medians of {reps} reps ==")
    for metric, unit in units.items():
        print(f"  {metric:44s} {values[metric]:14.6g} {unit}")
    if not trace:
        print(f"  unscaled, at the run's reference time of "
              f"{bench.raw['reference_s']:.4g} s (scaled to {REFERENCE_S} s):")
        for metric in ("wall_s", "attempts_per_s", "setup_s"):
            print(f"    {metric:42s} {bench.raw[metric]:14.6g} {units[metric]}")
    print(f"  {'failed_frac':44s} {tally.failed / max(tally.attempted, 1):14.6g}"
          f" fraction ({tally.failed} of {tally.attempted} commands)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        check_program()
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_work_dir()
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the golden output the benchmark checks every run against.

    python3 perfbench/record_golden.py

For every workload and program seed in the pool, each command runs under
both hash seeds and once under the layer tracer (whose stdout must match
the untraced one, and which supplies the number of campaign attempts the
seed scans).  A command whose stdout differs between the hash seeds gets
both variants recorded, and the benchmark accepts either; README.md
lists the commands where this happens.  The result replaces
``golden/<workload>.json``.  Only re-record when the program's output is
meant to change.  Program seeds are recorded concurrently, one per CPU
this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from harness import (
    GOLDEN_DIR, BenchError, Runner, check_program, digest, golden_path,
    remove_work_dir,
)
from workloads import HASH_SEEDS, POOL, WORKLOADS, Workload


def record_seed(workload: Workload, seed: int) -> tuple[list[set[bytes]], int]:
    """The stdouts each command printed for ``seed`` (one per hash seed,
    so a set of one when output does not depend on string hashing) and
    the campaign attempts the commands scanned."""
    runner = Runner(perf_counter() + 600)
    outputs: list[set[bytes]] = []
    attempts = 0
    for command in workload.commands:
        results = [runner.repro(seed, command, hs) for hs in HASH_SEEDS]
        traced, report = runner.traced(seed, command, HASH_SEEDS[0])
        for result in results + [traced]:
            if result.code != 0:
                raise BenchError(
                    f"{workload.name} seed {seed}: {' '.join(result.argv)} "
                    f"exited {result.code}: {result.stderr.decode()[-2000:]}"
                )
        if traced.stdout != results[0].stdout:
            raise BenchError(
                f"{workload.name} seed {seed}: stdout of {command[0]} "
                "differs under the tracer"
            )
        if report is None:
            raise BenchError(f"{workload.name} seed {seed}: no trace report")
        outputs.append({r.stdout for r in results})
        attempts += report["counters"]["analysis.campaign.attempts"]
    return outputs, attempts


def record(workload: Workload) -> None:
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        recorded = list(
            pool.map(lambda s: record_seed(workload, s), range(POOL))
        )
    texts: dict[str, str] = {}
    seeds: dict[str, dict] = {}
    for seed, (outputs, attempts) in enumerate(recorded):
        accepted = []
        for variants in outputs:
            shas = sorted(digest(out) for out in variants)
            for out in variants:
                texts[digest(out)] = out.decode()
            accepted.append(shas)
        seeds[str(seed)] = {"stdout": accepted, "attempts": attempts}
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(workload).write_text(
        json.dumps({"texts": texts, "seeds": seeds}, indent=1, sort_keys=True)
        + "\n"
    )


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    try:
        check_program()
        for workload in WORKLOADS.values():
            t0 = perf_counter()
            record(workload)
            print(f"{workload.name}: {POOL} seeds in {perf_counter() - t0:.0f} s")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_work_dir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

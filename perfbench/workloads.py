"""The benchmark's workloads: the ``repro`` commands one run executes.

Every command is a real ``python -m repro --seed <s> ...`` invocation.
``<s>`` is a *program seed* from a pool of ``POOL`` seeds whose golden
output is recorded in ``golden/``; the benchmark's own ``--seed`` picks
the order in which a run walks the pool (see :func:`program_seeds`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Program seeds 0..POOL-1 have recorded golden output.
POOL = 64
STRATA = 8

# Each run alternates its commands between these hash seeds, so every
# run checks that output does not depend on string hashing.
HASH_SEEDS = ("1", "2")

# Placeholder for a fresh checkpoint directory, created per command.
CHECKPOINT = "{checkpoint}"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    # True: attempts_per_s counts the campaign attempts the commands
    # scan (recorded per program seed in the golden file).  False: the
    # workload scans none, and attempts_per_s counts CLI commands, so it
    # is the command count over wall time and says nothing wall_s does
    # not.
    scans: bool

    def subcommands(self) -> list[str]:
        return [argv[0] for argv in self.commands]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "campaign-eig-k7",
            (
                (
                    "campaign", "--protocol", "eig", "--graph", "complete:7",
                    "--faults", "2", "--links", "0", "--attempts", "400",
                    "--checkpoint", CHECKPOINT,
                ),
            ),
            scans=True,
        ),
        Workload(
            "frontier-naive-k8",
            (
                (
                    "campaign", "--protocol", "naive", "--graph", "complete:8",
                    "--links", "8", "--rounds", "10", "--attempts", "120",
                    "--frontier", "--incremental", "--orbit-dedup",
                ),
            ),
            scans=True,
        ),
        Workload(
            "engines-cli",
            (
                ("report",),
                ("sweep", "nodes", "--faults", "1", "2"),
                ("sweep", "connectivity", "--faults", "1"),
                ("refute", "byzantine"),
                ("classify", "--graph", "complete:7", "--faults", "2"),
            ),
            scans=False,
        ),
    )
}


def program_seeds(seed: int, work: dict[int, int]) -> list[int]:
    """The pool order one run walks: rep ``i`` uses element ``i % POOL``.

    The pool is split into ``STRATA`` equal strata by ``work`` (the
    campaign attempts each program seed scans, which spread 5x on the
    frontier), and each pass of ``STRATA`` reps draws one seed from
    every stratum.  A run thus covers light and heavy inputs alike, so
    the choice of seeds barely moves its median.  The same benchmark
    seed always yields the same order.
    """
    rng = random.Random(f"perfbench:{seed}")
    ranked = sorted(range(POOL), key=lambda s: (work[s], s))
    size = POOL // STRATA
    strata = [
        rng.sample(ranked[i * size:(i + 1) * size], size)
        for i in range(STRATA)
    ]
    # Middle strata first, then outwards, so a run cut after any number
    # of reps still has its median near the middle stratum.
    visit = sorted(range(STRATA), key=lambda i: abs(2 * i - STRATA + 1))
    return [strata[visit[i % STRATA]][i // STRATA] for i in range(POOL)]

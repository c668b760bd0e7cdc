"""Operational models satisfying the paper's axioms.

:mod:`repro.runtime.sync`
    Synchronous rounds; satisfies the Locality and Fault axioms.
    Hosts Theorems 1, 5, 6 and the round-based protocols.

:mod:`repro.runtime.timed`
    Continuous time with a minimum message delay and hardware clocks;
    additionally satisfies the Bounded-Delay Locality and Scaling
    axioms.  Hosts Theorems 2, 4, 8.

:mod:`repro.runtime.faults`
    Link-level fault injection shared by both runtimes: declarative
    :class:`~repro.runtime.faults.FaultPlan` schedules (drop, corrupt,
    delay, omission bursts, partitions), deterministic injectors, and
    replayable injection traces.

:mod:`repro.runtime.plan`
    Compiled execution plans: everything the executors used to
    re-resolve per node per round/event, pre-resolved once per system.

:mod:`repro.runtime.memo`
    Bounded, content-addressed behavior memoization (determinism makes
    re-execution a cache lookup), with hit/miss counters.

:mod:`repro.runtime.incremental`
    Prefix-sharing incremental execution: a round-level trie of
    execution deltas, so runs whose fault plans agree on a prefix of
    rounds replay that prefix as a lookup instead of re-executing it.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "faults": (
        "FAULT_KINDS", "FaultPlan", "InjectionRecord", "InjectionTrace",
        "LinkFault", "Partition", "SyncFaultInjector", "TimedFaultInjector",
        "partition_between",
    ),
    "incremental": ("ExecutionTrie", "IncrementalContext", "plan_signatures"),
    "memo": (
        "BehaviorCache", "fingerprint", "graph_fingerprint", "plan_fingerprint",
    ),
    "plan": ("SyncPlan", "TimedPlan", "compile_sync_plan", "compile_timed_plan"),
})

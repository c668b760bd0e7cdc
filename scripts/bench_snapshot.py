#!/usr/bin/env python3
"""Snapshot the performance layers into ``BENCH_runtime.json``.

Measures, on this machine, each optimization layer against its
"before" shape — and, more importantly, re-verifies on every run that
each layer is output-invisible:

* ``executor``      — compiled-plan ``run()`` vs the interpretive
                      reference executor (``repro.testing.
                      reference_sync_run``), same workload.
* ``campaign_shrink`` — a shrink-heavy fault campaign, memoized
                      (shared :class:`BehaviorCache`, warm second run)
                      vs unmemoized, identical results required.
* ``orbit_dedup``   — ``run_campaign(orbit_dedup=True)`` vs the plain
                      scan on a symmetric graph: one execution per
                      automorphism orbit, verdicts mapped back,
                      byte-identical sorted-JSON reports required.
* ``incremental_shrink`` — repeated campaign+shrink+replay passes with
                      a shared prefix-sharing execution trie
                      (``incremental=IncrementalContext()``) vs the
                      same passes re-executing every round; identical
                      reports required.
* ``frontier``      — the naive degradation frontier the CLI runs with
                      ``campaign --frontier --incremental --orbit-dedup``
                      (K8, or K5 with ``--smoke``) vs the same sweep
                      with neither; identical rows, examples and
                      first-break summary required.
* ``parallel``      — ``run_campaign(jobs=N)`` vs serial, byte-identical
                      sorted-JSON reports required.  Wall-clock scaling
                      is recorded honestly along with the machine's
                      core count: on a single-core box the pool cannot
                      beat serial and the numbers will say so (and
                      ``ParallelRunner`` now refuses the pool there).
* ``telemetry_overhead`` — the instrumented hot path
                      (``execute_plan``) with telemetry *disabled* vs
                      ``repro.testing.bare_execute_plan``, the verbatim
                      copy with the hooks stripped.  The disabled/bare
                      wall-time ratio is a **hard gate**: above
                      1.05 the script exits nonzero, same as an
                      equivalence failure.  (An informational
                      enabled-telemetry timing rides along.)
* ``eig_kernel``    — the EIG campaigns the CLI runs (K7/f=2 and
                      K10/f=3, node faults only), with devices over the
                      compiled path space (``eig_devices``) vs the
                      dict-tree oracle (``repro.testing.
                      ReferenceEIGDevice``); byte-identical sorted-JSON
                      reports required.
* ``checkpoint_overhead`` — ``run_campaign(store=None)`` vs a bare
                      hand-rolled attempt-scan loop with no run-store
                      branches.  Same hard-gate contract at 1.05;
                      informational journal-to-cold-store and
                      resume-from-warm-store timings ride along.

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py [--out BENCH_runtime.json]
    PYTHONPATH=src python scripts/bench_snapshot.py --smoke   # CI: tiny sizes
    PYTHONPATH=src python scripts/bench_snapshot.py --sections executor,parallel

``--smoke`` shrinks every workload so the script finishes in seconds;
equivalence checks still run at full strictness (that is the point of
the CI job), only the timings become meaningless-but-present.

``--sections`` re-measures only the named sections; the output file is
merged, never clobbered — sections absent from this run (or written by
an older script version) are preserved as-is.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
)

from repro.analysis.campaign import CampaignConfig, run_campaign  # noqa: E402
from repro.analysis.parallel import (  # noqa: E402
    available_parallelism,
    fork_available,
)
from repro.analysis.witness_io import campaign_to_dict  # noqa: E402
from repro.graphs.builders import complete_graph  # noqa: E402
from repro.protocols.eig import eig_devices  # noqa: E402
from repro.protocols.naive import MajorityVoteDevice  # noqa: E402
from repro.runtime.incremental import IncrementalContext  # noqa: E402
from repro.runtime.memo import BehaviorCache  # noqa: E402
from repro.runtime.plan import compile_sync_plan  # noqa: E402
from repro.runtime.sync.executor import run  # noqa: E402
from repro.runtime.sync.system import make_system  # noqa: E402
from repro.testing import (  # noqa: E402
    ReferenceEIGDevice,
    reference_sync_run,
)


def _naive_factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _time(fn, repeats):
    """Best-of-``repeats`` wall time (seconds) and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_executor(smoke):
    n, rounds, repeats = (4, 3, 3) if smoke else (8, 10, 20)
    system = make_system(
        complete_graph(n),
        _naive_factory(complete_graph(n)),
        {u: i % 2 for i, u in enumerate(complete_graph(n).nodes)},
    )
    t_ref, b_ref = _time(lambda: reference_sync_run(system, rounds), repeats)
    compile_sync_plan(system)
    t_plan, b_plan = _time(lambda: run(system, rounds), repeats)
    return {
        "workload": f"K{n} majority, {rounds} rounds",
        "reference_s": t_ref,
        "reference_ops": 1.0 / t_ref if t_ref else None,
        "compiled_s": t_plan,
        "compiled_ops": 1.0 / t_plan if t_plan else None,
        "speedup": t_ref / t_plan if t_plan else None,
        "identical_output": b_ref == b_plan,
    }


def _campaign_config(smoke):
    n, rounds, links, attempts = (4, 3, 3, 12) if smoke else (6, 5, 4, 80)
    return CampaignConfig(
        graph=complete_graph(n),
        device_factory=_naive_factory,
        rounds=rounds,
        max_node_faults=0,
        max_link_faults=links,
        attempts=attempts,
        seed=0,
    )


def bench_campaign_shrink(smoke):
    """The campaign + shrink + replay workload, memoized vs not.

    The memoized leg runs the campaign **four times** against one
    shared cache — the realistic shape (a frontier sweep or a
    re-analysis of the same config re-executes heavily overlapping
    attempts, and the shrinker re-runs overlapping fault subsets) —
    and is compared against four unmemoized runs of the same config.
    """
    config = _campaign_config(smoke)
    repeats = 1 if smoke else 3
    passes = 4

    def cold():
        return [
            run_campaign(config, memoize=False) for _ in range(passes)
        ]

    def warm():
        cache = BehaviorCache(maxsize=4096)
        return (
            [run_campaign(config, cache=cache) for _ in range(passes)],
            cache,
        )

    t_cold, cold_runs = _time(cold, repeats)
    t_warm, (warm_runs, cache) = _time(warm, repeats)
    return {
        "workload": (
            f"{passes}x campaign+shrink+replay on "
            f"K{len(config.graph)}, {config.attempts} attempts, "
            f"k<={config.max_link_faults} links"
        ),
        "unmemoized_s": t_cold,
        "unmemoized_ops": passes / t_cold if t_cold else None,
        "memoized_s": t_warm,
        "memoized_ops": passes / t_warm if t_warm else None,
        "speedup": t_cold / t_warm if t_warm else None,
        "identical_output": cold_runs == warm_runs,
        "cache": cache.stats(),
    }


def _eig_factory(graph):
    return dict(eig_devices(graph, 1))


def bench_orbit_dedup(smoke):
    """Plain campaign scan vs. one-execution-per-orbit on K4.

    The workload is a *surviving* EIG campaign with drop-only faults:
    no early exit, so all attempts are scanned, and the sampled
    scenario space (one dropped link on K4, binary inputs) has only a
    few dozen automorphism orbits — attempts past the first few dozen
    collapse onto already-executed representatives.
    """
    attempts = 60 if smoke else 600
    config = CampaignConfig(
        graph=complete_graph(4),
        device_factory=_eig_factory,
        rounds=2,
        max_node_faults=0,
        max_link_faults=1,
        attempts=attempts,
        seed=11,
        link_kinds=("drop",),
    )
    repeats = 1 if smoke else 3

    t_plain, plain = _time(
        lambda: run_campaign(config, memoize=False), repeats
    )

    t_dedup, dedup = _time(
        lambda: run_campaign(config, memoize=False, orbit_dedup=True),
        repeats,
    )
    # The orbit counters come from one untimed traced run's registry.
    from repro import obs

    obs.enable()
    try:
        run_campaign(config, memoize=False, orbit_dedup=True)
        gauges = obs.get_registry().snapshot("host")["gauges"]
    finally:
        obs.reset()
    prefix = "host.orbit."
    orbits = {
        name[len(prefix):]: int(value)
        for name, value in gauges.items()
        if name.startswith(prefix)
    }
    same = json.dumps(campaign_to_dict(plain), sort_keys=True) == json.dumps(
        campaign_to_dict(dedup), sort_keys=True
    )
    return {
        "workload": (
            f"surviving EIG campaign on K4, {attempts} attempts, "
            "k<=1 drop faults"
        ),
        "plain_s": t_plain,
        "plain_ops": attempts / t_plain if t_plain else None,
        "orbit_dedup_s": t_dedup,
        "orbit_dedup_ops": attempts / t_dedup if t_dedup else None,
        "speedup": t_plain / t_dedup if t_dedup else None,
        "identical_output": same,
        "orbits": orbits,
    }


def bench_incremental_shrink(smoke):
    """Repeated campaign+shrink+replay passes, trie-backed vs not.

    Mirrors the ``campaign_shrink`` repetition shape (re-analysis of
    one config re-executes heavily overlapping attempts) but measures
    the round-level prefix trie instead of whole-run memoization:
    ``memoize=False`` on both legs, so every saving comes from rounds
    replayed out of snapshots.
    """
    n, rounds, links, attempts, passes = (
        (4, 4, 3, 20, 2) if smoke else (8, 10, 8, 120, 6)
    )
    config = CampaignConfig(
        graph=complete_graph(n),
        device_factory=_naive_factory,
        rounds=rounds,
        max_node_faults=0,
        max_link_faults=links,
        attempts=attempts,
        seed=5,
    )
    repeats = 1 if smoke else 3

    def cold():
        return [
            run_campaign(config, memoize=False) for _ in range(passes)
        ]

    def warm():
        context = IncrementalContext()
        return (
            [
                run_campaign(config, memoize=False, incremental=context)
                for _ in range(passes)
            ],
            context,
        )

    t_cold, cold_runs = _time(cold, repeats)
    t_warm, (warm_runs, context) = _time(warm, repeats)
    return {
        "workload": (
            f"{passes}x campaign+shrink+replay on K{n}, "
            f"{attempts} attempts, k<={links} links, {rounds} rounds, "
            "unmemoized both legs"
        ),
        "plain_s": t_cold,
        "plain_ops": passes / t_cold if t_cold else None,
        "incremental_s": t_warm,
        "incremental_ops": passes / t_warm if t_warm else None,
        "speedup": t_cold / t_warm if t_warm else None,
        "identical_output": cold_runs == warm_runs,
        "trie": context.stats(),
    }


def _frontier_json(frontier):
    from repro.analysis.campaign import counterexample_to_dict

    return json.dumps(
        {
            "rows": [
                [
                    row.as_tuple(),
                    row.example and counterexample_to_dict(row.example),
                ]
                for row in frontier.rows
            ],
            "first_break": frontier.first_break,
        },
        sort_keys=True,
        default=repr,
    )


def bench_frontier(smoke):
    """A naive degradation frontier, trie + orbit dedup vs neither.

    The shape of ``repro campaign --protocol naive --graph complete:8
    --links 8 --rounds 10 --attempts 120 --frontier`` (default link
    kinds, seed 0), run in-process with ``incremental=True,
    orbit_dedup=True`` and with neither; the two sweeps must agree on
    every row, example and first-break budget.  Legs are timed
    interleaved, best-of."""
    from repro.analysis.campaign import degradation_frontier

    n, rounds, attempts = (5, 4, 20) if smoke else (8, 10, 120)
    repeats = 1 if smoke else 3
    config = CampaignConfig(
        graph=complete_graph(n),
        device_factory=_naive_factory,
        rounds=rounds,
        max_node_faults=0,
        max_link_faults=n,
        attempts=attempts,
        seed=0,
    )
    legs = {
        "plain": {},
        "optimized": {"incremental": True, "orbit_dedup": True},
    }
    best = dict.fromkeys(legs, float("inf"))
    reports = {}
    for _ in range(repeats):
        for leg, options in legs.items():
            start = time.perf_counter()
            reports[leg] = _frontier_json(
                degradation_frontier(config, **options)
            )
            best[leg] = min(best[leg], time.perf_counter() - start)
    return {
        "workload": (
            f"naive frontier on K{n}, links 0..{n}, {rounds} rounds, "
            f"{attempts} attempts per level"
        ),
        "plain_s": best["plain"],
        "optimized_s": best["optimized"],
        "speedup": (
            best["plain"] / best["optimized"] if best["optimized"] else None
        ),
        "identical_output": reports["plain"] == reports["optimized"],
    }


def bench_sweep(smoke):
    from repro.analysis.sweep import node_bound_sweep

    faults = (1,) if smoke else (1, 2)
    repeats = 1 if smoke else 3
    t_serial, serial = _time(lambda: node_bound_sweep(faults), repeats)
    t_par, parallel = _time(
        lambda: node_bound_sweep(faults, jobs=2), repeats
    )
    return {
        "workload": f"node-bound sweep, f in {list(faults)}",
        "points": len(serial),
        "serial_s": t_serial,
        "serial_ops": len(serial) / t_serial if t_serial else None,
        "jobs2_s": t_par,
        "identical_output": serial == parallel,
    }


def _reference_eig_factory(max_faults):
    def factory(graph):
        roster = tuple(graph.nodes)
        return {u: ReferenceEIGDevice(u, roster, max_faults) for u in roster}

    return factory


def _compiled_eig_factory(max_faults):
    return lambda graph: eig_devices(graph, max_faults)


def _campaign_json(config):
    return json.dumps(campaign_to_dict(run_campaign(config)), sort_keys=True)


def bench_eig_kernel(smoke):
    """EIG campaigns on the compiled path space vs the dict-tree oracle.

    The same campaign as ``repro campaign --protocol eig --graph
    complete:N --faults F --links 0 --attempts A`` (default memo, no
    store), run in-process once per device family; the reports must
    be byte-identical.  The legs are timed interleaved, best-of, so
    clock drift hits both alike."""
    shapes = ((7, 2, 30), (10, 3, 4)) if smoke else ((7, 2, 400), (10, 3, 40))
    repeats = 1 if smoke else 3
    workloads = {}
    for n, f, attempts in shapes:
        configs = {
            leg: CampaignConfig(
                graph=complete_graph(n),
                device_factory=factory(f),
                rounds=f + 1,
                max_node_faults=f,
                max_link_faults=0,
                attempts=attempts,
                seed=0,
            )
            for leg, factory in (
                ("reference", _reference_eig_factory),
                ("compiled", _compiled_eig_factory),
            )
        }
        best = dict.fromkeys(configs, float("inf"))
        reports = {}
        for _ in range(repeats):
            for leg, config in configs.items():
                start = time.perf_counter()
                reports[leg] = _campaign_json(config)
                best[leg] = min(best[leg], time.perf_counter() - start)
        t_ref, t_kernel = best["reference"], best["compiled"]
        workloads[f"K{n}/f={f}"] = {
            "workload": f"EIG campaign on K{n}, f={f}, {attempts} attempts",
            "reference_s": t_ref,
            "reference_ops": attempts / t_ref if t_ref else None,
            "compiled_s": t_kernel,
            "compiled_ops": attempts / t_kernel if t_kernel else None,
            "speedup": t_ref / t_kernel if t_kernel else None,
            "identical_output": reports["reference"] == reports["compiled"],
        }
    return {
        "workloads": workloads,
        "identical_output": all(
            w["identical_output"] for w in workloads.values()
        ),
    }


#: Hard ceiling on the disabled-telemetry / bare hot-path ratio.
TELEMETRY_OVERHEAD_BUDGET = 1.05


def bench_telemetry_overhead(smoke):
    """Disabled-telemetry ``execute_plan`` vs the bare oracle copy.

    The two legs are timed *interleaved* (bare, disabled, bare, ...)
    so clock drift and cache warming hit both equally; each leg keeps
    its best-of.  The workload matches the ``executor`` section's.
    """
    from repro import obs
    from repro.testing import bare_execute_plan

    n, rounds, repeats = (4, 3, 60) if smoke else (8, 10, 120)
    graph = complete_graph(n)
    system = make_system(
        graph,
        _naive_factory(graph),
        {u: i % 2 for i, u in enumerate(graph.nodes)},
    )
    plan = compile_sync_plan(system)
    obs.reset()  # telemetry must be off for the gated leg

    best_bare = best_disabled = float("inf")
    b_bare = b_disabled = None
    for _ in range(repeats):
        start = time.perf_counter()
        b_bare = bare_execute_plan(plan, rounds)
        best_bare = min(best_bare, time.perf_counter() - start)
        start = time.perf_counter()
        b_disabled = run(system, rounds)
        best_disabled = min(best_disabled, time.perf_counter() - start)

    obs.enable()
    try:
        best_enabled = float("inf")
        for _ in range(max(3, repeats // 10)):
            start = time.perf_counter()
            run(system, rounds)
            best_enabled = min(best_enabled, time.perf_counter() - start)
    finally:
        obs.reset()

    ratio = best_disabled / best_bare if best_bare else None
    return {
        "workload": f"K{n} majority, {rounds} rounds, compiled plan",
        "bare_s": best_bare,
        "disabled_s": best_disabled,
        "enabled_s": best_enabled,
        "disabled_over_bare": ratio,
        "budget": TELEMETRY_OVERHEAD_BUDGET,
        "within_budget": (
            ratio is not None and ratio <= TELEMETRY_OVERHEAD_BUDGET
        ),
        "identical_output": b_bare == b_disabled,
    }


#: Hard ceiling on the store-disabled / bare-scan-loop ratio.
CHECKPOINT_OVERHEAD_BUDGET = 1.05


def bench_checkpoint_overhead(smoke):
    """Checkpointing-disabled ``run_campaign`` vs a bare scan loop.

    The run-store hooks ride inside the campaign's attempt loop, so a
    run with ``store=None`` must cost (nearly) nothing extra.  The
    oracle is a hand-rolled sample-execute-check loop with no journal
    branches at all; the two legs are timed *interleaved* and the
    disabled/bare ratio is a **hard gate** (same contract as
    ``telemetry_overhead``).  Informational timings for journaling to
    a cold store and resuming from a fully-warm one ride along.

    The workload is a *surviving* campaign (no early exit), so both
    legs scan every attempt and the journal spans the full run.
    """
    import shutil
    import tempfile

    from repro.analysis.campaign import (
        _sample_attempt,
        campaign_store_key,
        execute_attempt,
    )
    from repro.analysis.runstore import RunStore

    # The full workload costs ~10ms per leg, so smoke keeps it (a
    # 6-attempt scan would leave the fixed per-run cost un-amortized
    # and trip the gate on setup noise, not the loop).
    attempts, repeats = (40, 3) if smoke else (40, 7)
    config = CampaignConfig(
        graph=complete_graph(4),
        device_factory=_eig_factory,
        rounds=2,
        max_node_faults=0,
        max_link_faults=1,
        attempts=attempts,
        seed=5,
        link_kinds=("drop",),
    )

    def bare_scan():
        oks = []
        for attempt in range(1, config.attempts + 1):
            node_faults, plan, inputs = _sample_attempt(config, attempt)
            _, verdict, _ = execute_attempt(
                config, inputs, node_faults, plan, None, None
            )
            oks.append(verdict.ok)
            if not verdict.ok:
                break
        return oks

    best_bare = best_disabled = float("inf")
    oks = disabled = None
    for _ in range(repeats):
        start = time.perf_counter()
        oks = bare_scan()
        best_bare = min(best_bare, time.perf_counter() - start)
        start = time.perf_counter()
        disabled = run_campaign(config, memoize=False)
        best_disabled = min(best_disabled, time.perf_counter() - start)
    assert not disabled.broken, "workload must survive (no early exit)"

    key = campaign_store_key(config)
    reference = json.dumps(campaign_to_dict(disabled), sort_keys=True)
    identical = all(oks) and len(oks) == config.attempts

    tmp = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        best_cold = float("inf")
        for i in range(repeats):
            store_dir = pathlib.Path(tmp) / f"cold{i}"
            start = time.perf_counter()
            with RunStore(store_dir).shard(key) as shard:
                cold = run_campaign(config, memoize=False, store=shard)
            best_cold = min(best_cold, time.perf_counter() - start)
            identical = identical and (
                json.dumps(campaign_to_dict(cold), sort_keys=True)
                == reference
            )
        warm_dir = pathlib.Path(tmp) / "cold0"
        best_warm = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            with RunStore(warm_dir).shard(key) as shard:
                warm = run_campaign(config, memoize=False, store=shard)
            best_warm = min(best_warm, time.perf_counter() - start)
            identical = identical and (
                json.dumps(campaign_to_dict(warm), sort_keys=True)
                == reference
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ratio = best_disabled / best_bare if best_bare else None
    return {
        "workload": (
            f"surviving EIG campaign on K4, {attempts} attempts, "
            "k<=1 drop faults, unmemoized"
        ),
        "bare_s": best_bare,
        "disabled_s": best_disabled,
        "journal_cold_s": best_cold,
        "resume_warm_s": best_warm,
        "disabled_over_bare": ratio,
        "budget": CHECKPOINT_OVERHEAD_BUDGET,
        "within_budget": (
            ratio is not None and ratio <= CHECKPOINT_OVERHEAD_BUDGET
        ),
        "identical_output": identical,
    }


def bench_parallel(smoke):
    config = _campaign_config(smoke)
    repeats = 1 if smoke else 3
    t_serial, serial = _time(lambda: run_campaign(config, jobs=1), repeats)
    rows = {}
    identical = True
    reference = json.dumps(campaign_to_dict(serial), sort_keys=True)
    for jobs in (2, 4):
        t_par, par = _time(lambda: run_campaign(config, jobs=jobs), repeats)
        same = json.dumps(campaign_to_dict(par), sort_keys=True) == reference
        identical = identical and same
        rows[f"jobs{jobs}"] = {
            "wall_s": t_par,
            "speedup_vs_serial": t_serial / t_par if t_par else None,
            "identical_output": same,
        }
    return {
        "workload": f"campaign, {config.attempts} attempts",
        "serial_s": t_serial,
        "fork_available": fork_available(),
        "cores": available_parallelism(),
        "levels": rows,
        "identical_output": identical,
        "note": (
            "speedup is hardware-bound: with a single available core "
            "the pool adds fork overhead and cannot beat serial"
        ),
    }


BENCHES = {
    "executor": bench_executor,
    "campaign_shrink": bench_campaign_shrink,
    "orbit_dedup": bench_orbit_dedup,
    "incremental_shrink": bench_incremental_shrink,
    "frontier": bench_frontier,
    "sweep": bench_sweep,
    "eig_kernel": bench_eig_kernel,
    "parallel": bench_parallel,
    "telemetry_overhead": bench_telemetry_overhead,
    "checkpoint_overhead": bench_checkpoint_overhead,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parents[1]
            / "BENCH_runtime.json"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads for CI; equivalence checks at full strength",
    )
    parser.add_argument(
        "--sections",
        help="comma-separated subset of sections to re-measure "
        f"(default: all of {', '.join(BENCHES)}); the output file is "
        "merged, other sections survive untouched",
    )
    args = parser.parse_args()

    if args.sections:
        names = [s for s in args.sections.split(",") if s]
        unknown = [s for s in names if s not in BENCHES]
        if unknown:
            parser.error(f"unknown sections: {', '.join(unknown)}")
    else:
        names = list(BENCHES)

    sections = {name: BENCHES[name](args.smoke) for name in names}

    # Merge into the existing snapshot rather than clobbering it, so a
    # --sections run (or a newer script against an older file) never
    # drops sections it did not measure.
    out_path = pathlib.Path(args.out)
    snapshot = {"sections": {}}
    if out_path.exists():
        try:
            prior = json.loads(out_path.read_text())
            if isinstance(prior.get("sections"), dict):
                snapshot["sections"].update(prior["sections"])
        except (ValueError, OSError):
            pass  # unreadable prior snapshot: start fresh
    snapshot["sections"].update(sections)
    snapshot["python"] = sys.version.split()[0]
    snapshot["cores"] = available_parallelism()
    snapshot["smoke"] = args.smoke
    out_path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )

    failures = [
        name
        for name, section in sections.items()
        if not section["identical_output"]
    ]
    over_budget = [
        name
        for name, section in sections.items()
        if not section.get("within_budget", True)
    ]
    for name, section in sections.items():
        speed = section.get("speedup")
        extra = f", speedup {speed:.2f}x" if speed else ""
        ratio = section.get("disabled_over_bare")
        if ratio is not None:
            extra += (
                f", disabled/bare {ratio:.3f} "
                f"(budget {section['budget']:.2f})"
            )
        print(
            f"{name}: identical={section['identical_output']}{extra}"
        )
    print(f"wrote {args.out}")
    if failures:
        print(f"EQUIVALENCE FAILURES: {', '.join(failures)}")
        return 1
    if over_budget:
        print(f"OVERHEAD OVER BUDGET: {', '.join(over_budget)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

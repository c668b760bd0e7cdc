"""The search optimizations must be invisible in results.

Orbit dedup, incremental (prefix-trie) execution, and both combined —
serially and through the parallel scan — must produce campaign
reports byte-identical to the plain path, for breaking and surviving
campaigns alike.  The search counters a telemetry-on campaign folds
into the metrics registry and the serial fallback of ParallelRunner
are covered here too.
"""

import json
import logging

from repro import obs
from repro.analysis.campaign import (
    CampaignConfig,
    degradation_frontier,
    run_campaign,
)
from repro.analysis.parallel import ParallelRunner
from repro.analysis.witness_io import campaign_to_dict
from repro.graphs import complete_graph, ring
from repro.protocols import MajorityVoteDevice, eig_devices
from repro.runtime.incremental import IncrementalContext


def _naive_factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _eig_factory(graph):
    return dict(eig_devices(graph, 1))


def _as_json(result):
    return json.dumps(campaign_to_dict(result), sort_keys=True)


def _config(**overrides):
    defaults = dict(
        graph=complete_graph(4),
        device_factory=_naive_factory,
        rounds=3,
        max_node_faults=0,
        max_link_faults=2,
        attempts=40,
        seed=11,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestOptimizedCampaignEquivalence:
    def _assert_all_equal(self, config, jobs=1):
        plain = _as_json(run_campaign(config, jobs=jobs, memoize=False))
        for kwargs in (
            {"orbit_dedup": True},
            {"incremental": True},
            {"orbit_dedup": True, "incremental": True},
        ):
            optimized = run_campaign(
                config, jobs=jobs, memoize=False, **kwargs
            )
            assert _as_json(optimized) == plain, f"diverged under {kwargs}"

    def test_breaking_campaign_identical(self):
        self._assert_all_equal(_config())

    def test_surviving_campaign_identical(self):
        self._assert_all_equal(
            _config(
                device_factory=_eig_factory, rounds=2, max_link_faults=1,
                attempts=30, seed=5,
            )
        )

    def test_node_fault_campaign_identical(self):
        # Node faults force the name-sensitivity guard: orbit keys fall
        # back to identity and must still agree with the plain path.
        self._assert_all_equal(
            _config(max_node_faults=1, attempts=25, seed=3)
        )

    def test_ring_campaign_identical(self):
        self._assert_all_equal(
            _config(graph=ring(5), rounds=4, attempts=30, seed=9)
        )

    def test_parallel_scan_identical(self):
        self._assert_all_equal(_config(), jobs=2)
        self._assert_all_equal(
            _config(
                device_factory=_eig_factory, rounds=2, max_link_faults=1,
                attempts=30, seed=5,
            ),
            jobs=2,
        )

    def test_shared_incremental_context_across_campaigns(self):
        config = _config()
        plain = _as_json(run_campaign(config, memoize=False))
        shared = IncrementalContext()
        first = _as_json(
            run_campaign(config, memoize=False, incremental=shared)
        )
        second = _as_json(
            run_campaign(config, memoize=False, incremental=shared)
        )
        assert first == plain
        assert second == plain
        stats = shared.stats()
        # The second pass replays the first pass's rounds as lookups.
        assert stats["rounds_replayed"] > 0

    def test_frontier_identical_with_optimizations(self):
        config = _config(attempts=15)
        plain = degradation_frontier(
            config, max_link_faults=2, attempts_per_level=15
        )
        optimized = degradation_frontier(
            config,
            max_link_faults=2,
            attempts_per_level=15,
            orbit_dedup=True,
            incremental=True,
        )
        assert plain == optimized


def _host_gauges(**kwargs):
    """Run a campaign under fresh telemetry; return (result, host gauges)."""
    obs.enable()
    try:
        result = run_campaign(**kwargs)
        return result, obs.get_registry().snapshot("host")["gauges"]
    finally:
        obs.reset()


class TestSearchStats:
    def test_stats_collects_the_machinery(self):
        config = _config(
            device_factory=_eig_factory, rounds=2, max_link_faults=1,
            attempts=30, seed=5,
        )
        _, gauges = _host_gauges(
            config=config, orbit_dedup=True, incremental=True
        )
        assert "host.cache.misses{cache=behavior}" in gauges
        assert gauges["host.orbit.scenarios_seen"] == config.attempts
        assert gauges["host.trie.runs"] > 0

    def test_stats_empty_without_optimizations(self):
        _, gauges = _host_gauges(config=_config(attempts=5), memoize=False)
        assert not any(
            name.startswith(("host.cache.", "host.orbit.", "host.trie."))
            for name in gauges
        )

    def test_orbit_dedup_actually_saves_runs(self):
        # Drop-only faults on K4 with uniform-ish inputs collapse hard.
        config = _config(
            device_factory=_eig_factory,
            rounds=2,
            max_link_faults=1,
            attempts=80,
            seed=11,
            link_kinds=("drop",),
        )
        result, gauges = _host_gauges(config=config, orbit_dedup=True)
        assert not result.broken
        assert gauges["host.orbit.runs_saved"] > 0


class TestParallelRunnerFallback:
    def test_jobs_one_reports_reason(self):
        runner = ParallelRunner(1)
        assert not runner.parallel
        assert "jobs=1" in runner.fallback_reason

    def test_single_core_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(
            "repro.analysis.parallel.available_parallelism", lambda: 1
        )
        with caplog.at_level(logging.INFO, logger="repro.analysis.parallel"):
            runner = ParallelRunner(4)
        assert not runner.parallel
        assert "1 CPU core" in runner.fallback_reason
        assert any(
            "falling back to serial" in r.message for r in caplog.records
        )

    def test_multi_core_stays_parallel(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.parallel.available_parallelism", lambda: 8
        )
        monkeypatch.setattr(
            "repro.analysis.parallel.fork_available", lambda: True
        )
        runner = ParallelRunner(4)
        assert runner.parallel
        assert runner.fallback_reason is None

    def test_fallback_map_preserves_order(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.parallel.available_parallelism", lambda: 1
        )
        runner = ParallelRunner(8)
        assert runner.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

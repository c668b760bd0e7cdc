"""Tests for content-addressed behavior memoization.

Caching is only sound because execution is deterministic; these tests
pin both halves — the cache mechanics (bounded LRU, counters) and the
equivalence contract (cached results equal fresh executions, through
the campaign engine's shrink/replay paths).
"""

import pytest

from repro.analysis.campaign import (
    CampaignConfig,
    execute_attempt,
    run_campaign,
)
from repro.graphs.builders import complete_graph
from repro.protocols.naive import MajorityVoteDevice
from repro.runtime.faults import FaultPlan, LinkFault
from repro.runtime.memo import (
    BehaviorCache,
    fingerprint,
    graph_fingerprint,
    plan_fingerprint,
)
from repro.runtime.sync.executor import run
from repro.runtime.sync.system import make_system


def _factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _system(n=4):
    g = complete_graph(n)
    return make_system(
        g, _factory(g), {u: i % 2 for i, u in enumerate(g.nodes)}
    )


def _plan(graph, seed=17):
    nodes = list(graph.nodes)
    return FaultPlan(
        link_faults=(
            LinkFault(edge=(nodes[0], nodes[1]), kind="drop", start=0, end=2),
        ),
        seed=seed,
    )


class TestBehaviorCache:
    def test_miss_then_hit(self):
        cache = BehaviorCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats() == {
            "hits": 1, "misses": 1, "size": 1, "maxsize": 4,
        }

    def test_lru_eviction_order(self):
        cache = BehaviorCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_rejects_none_values(self):
        with pytest.raises(ValueError):
            BehaviorCache().put("k", None)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            BehaviorCache(maxsize=0)

    def test_clear_resets_counters(self):
        cache = BehaviorCache()
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        cache.clear()
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0
        assert len(cache) == 0

    def test_describe_mentions_hit_rate(self):
        cache = BehaviorCache()
        cache.put("k", 1)
        cache.get("k")
        assert "hit rate" in cache.describe()


class TestFingerprints:
    def test_fingerprint_is_content_addressed(self):
        assert fingerprint("a", 1) == fingerprint("a", 1)
        assert fingerprint("a", 1) != fingerprint("a", 2)

    def test_plan_fingerprint_equal_for_equal_plans(self):
        g = complete_graph(4)
        assert plan_fingerprint(_plan(g)) == plan_fingerprint(_plan(g))
        assert plan_fingerprint(_plan(g)) != plan_fingerprint(
            _plan(g, seed=99)
        )
        assert plan_fingerprint(None) == "fault-free"

    def test_graph_fingerprint_distinguishes_shapes(self):
        assert graph_fingerprint(complete_graph(4)) == graph_fingerprint(
            complete_graph(4)
        )
        assert graph_fingerprint(complete_graph(4)) != graph_fingerprint(
            complete_graph(5)
        )


class TestCampaignMemoization:
    def _config(self, attempts=30, seed=11):
        return CampaignConfig(
            graph=complete_graph(4),
            device_factory=_factory,
            rounds=3,
            attempts=attempts,
            seed=seed,
            max_link_faults=2,
        )

    def test_execute_attempt_cached_equals_uncached(self):
        config = self._config()
        plan = _plan(config.graph)
        inputs = {u: i % 2 for i, u in enumerate(config.graph.nodes)}
        cache = BehaviorCache()
        uncached = execute_attempt(config, inputs, (), plan)
        first = execute_attempt(config, inputs, (), plan, cache)
        second = execute_attempt(config, inputs, (), plan, cache)
        assert first == uncached
        assert second == first
        assert cache.stats()["hits"] == 1

    def test_run_campaign_memoize_on_off_identical(self):
        config = self._config()
        with_memo = run_campaign(config, memoize=True)
        without = run_campaign(config, memoize=False)
        assert with_memo == without

    def test_shrink_and_replay_hit_the_cache(self):
        # MajorityVote breaks under link faults; the shrinker's
        # re-executions overlap, so a campaign that found and shrunk a
        # counterexample must have cache hits.
        config = self._config()
        cache = BehaviorCache()
        result = run_campaign(config, cache=cache)
        assert result.broken
        assert cache.stats()["hits"] > 0
        # The shrunk counterexample replays to the same verdict.
        from repro.analysis.campaign import replay_counterexample

        _, verdict, trace = replay_counterexample(
            config, result.shrunk, cache
        )
        assert not verdict.ok
        assert trace == result.injection_trace

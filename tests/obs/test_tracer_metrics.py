"""Tracer spans and the metrics registry."""

from repro import obs
from repro.obs import MetricsRegistry


class TestTracer:
    def test_span_emits_paired_events_with_enclosed_count(self):
        obs.enable()
        tracer = obs.get_tracer()
        with tracer.span("campaign.attempt", attempt=1):
            obs.emit(obs.ROUND_START, round=0)
            obs.emit(obs.ROUND_END, round=0, messages=0, injected=0)
        kinds = [e.kind for e in obs.get_log().events("run")]
        assert kinds == [
            obs.SPAN_START,
            obs.ROUND_START,
            obs.ROUND_END,
            obs.SPAN_END,
        ]
        end = obs.get_log().events("run")[-1]
        assert dict(end.fields)["events"] == 2

    def test_enclosed_count_ignores_host_events(self):
        obs.enable()
        with obs.get_tracer().span("s"):
            obs.emit(obs.CACHE_HIT, cache="behavior")
            obs.emit(obs.ROUND_START, round=0)
        end = obs.get_log().events("run")[-1]
        assert dict(end.fields)["events"] == 1

    def test_wall_time_aggregates_not_in_events(self):
        obs.enable()
        with obs.get_tracer().span("s"):
            pass
        obs.observe_span("s", 0.25)
        stats = obs.get_tracer().stats()["s"]
        assert stats["count"] == 2
        assert stats["total_s"] >= 0.25
        for event in obs.get_log().events("run"):
            assert "seconds" not in dict(event.fields)
        assert obs.get_tracer().render().startswith("span")

    def test_span_disabled_is_noop(self):
        tracer_cls = type(obs.get_tracer()) if obs.get_tracer() else None
        assert tracer_cls is None  # telemetry off: no tracer exists
        obs.observe_span("s", 1.0)  # must not raise


class TestRegistryDerivation:
    def test_run_counters_derived_from_events(self):
        obs.enable()
        obs.emit(obs.ROUND_END, round=0, messages=6, injected=2)
        obs.emit(obs.ATTEMPT_END, attempt=1, ok=True)
        obs.emit(obs.ATTEMPT_END, attempt=2, ok=False)
        obs.emit(obs.ORBIT_REUSE, attempt=3)
        obs.emit(obs.SHRINK_STEP, attempt=2, deleted="atom", atoms=1, nodes=0)
        obs.emit(obs.TIMED_EVENT, time=0.5, node="p", event="deliver")
        obs.emit(obs.SWEEP_POINT, sweep="node-bound", n=4)
        obs.emit(obs.FRONTIER_LEVEL, budget=1, attempts=5, broken="-")
        counters = obs.get_registry().run_counters()
        assert counters["run.rounds.total"] == 1
        assert counters["run.messages.delivered"] == 6
        assert counters["run.faults.injected"] == 2
        assert counters["run.attempts.total"] == 2
        assert counters["run.attempts.ok"] == 1
        assert counters["run.attempts.violations"] == 1
        assert counters["run.orbit.reused"] == 1
        assert counters["run.shrink.deletions"] == 1
        assert counters["run.timed.events"] == 1
        assert counters["run.sweep.points"] == 1
        assert counters["run.frontier.levels"] == 1

    def test_captured_events_do_not_touch_registry_until_replayed(self):
        obs.enable()
        with obs.capture() as capsule:
            obs.emit(obs.ROUND_END, round=0, messages=3, injected=0)
        assert obs.get_registry().get_counter("run.rounds.total") == 0
        obs.replay(capsule.payload())
        assert obs.get_registry().get_counter("run.rounds.total") == 1

    def test_scope_snapshot_filtering(self):
        obs.enable()
        obs.emit(obs.ROUND_START, round=0)
        obs.emit(obs.CACHE_HIT, cache="behavior")
        registry = obs.get_registry()
        run = registry.snapshot(scope="run")["counters"]
        host = registry.snapshot(scope="host")["counters"]
        assert "run.events.round_start" in run
        assert "host.events.cache_hit" in host
        assert not any(k.startswith("host.") for k in run)

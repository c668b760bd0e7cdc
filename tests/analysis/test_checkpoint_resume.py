"""Checkpointing must be invisible: resumed runs are byte-identical.

The contract under test: a campaign/frontier/sweep journaling to a run
store, interrupted at any point (journal truncation here, a literal
SIGKILL of the driver process in ``TestKillAndResume``) and resumed
against the same store, produces byte-identical results, witness
files, and exported telemetry traces to an uninterrupted run — for any
``--jobs`` value and with ``--orbit-dedup --incremental`` on.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.campaign import (
    CampaignConfig,
    campaign_store_key,
    degradation_frontier,
    frontier_store_key,
    run_campaign,
)
from repro.analysis.runstore import RunStore
from repro.analysis.sweep import node_bound_sweep, sweep_store_key
from repro.analysis.witness_io import campaign_to_dict
from repro.graphs.builders import complete_graph
from repro.protocols.eig import eig_devices
from repro.protocols.naive import MajorityVoteDevice


def _naive_factory(graph):
    return {u: MajorityVoteDevice() for u in graph.nodes}


def _eig_factory(graph):
    return dict(eig_devices(graph, 1))


def _surviving_config():
    # EIG tolerates these tiny drop-only budgets: the campaign scans
    # every attempt, so the journal exercises the full span.
    return CampaignConfig(
        graph=complete_graph(4),
        device_factory=_eig_factory,
        rounds=2,
        max_link_faults=1,
        attempts=6,
        seed=5,
        link_kinds=("drop",),
    )


def _breaking_config():
    return CampaignConfig(
        graph=complete_graph(4),
        device_factory=_naive_factory,
        rounds=3,
        max_link_faults=2,
        attempts=40,
        seed=11,
    )


def _as_json(result):
    return json.dumps(campaign_to_dict(result), sort_keys=True)


def _run_traced(fn):
    """Run ``fn`` under fresh telemetry; return (result, trace lines)."""
    obs.enable()
    try:
        result = fn()
        return result, list(obs.trace_lines())
    finally:
        obs.reset()


def _truncate_journal(store_dir, key, keep):
    path = Path(store_dir) / "shards" / f"{key}.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) > keep, "journal too short to truncate meaningfully"
    # Leave a torn tail behind the kept prefix — the crash signature.
    path.write_text("\n".join(lines[:keep]) + '\n{"k": "attempt')
    return len(lines)


def _journal(store_dir, key):
    return (Path(store_dir) / "shards" / f"{key}.jsonl").read_text()


class TestCampaignResumeEquivalence:
    @pytest.mark.parametrize("breaking", [False, True])
    @pytest.mark.parametrize(
        "jobs,resume_jobs", [(1, 1), (4, 4), (1, 4), (4, 1)]
    )
    @pytest.mark.parametrize("optimized", [False, True])
    def test_resumed_equals_uninterrupted(
        self, tmp_path, jobs, resume_jobs, optimized, breaking
    ):
        config = _breaking_config() if breaking else _surviving_config()
        options = dict(
            orbit_dedup=optimized,
            incremental=True if optimized else None,
        )
        plain = run_campaign(config)
        key = campaign_store_key(config)
        # The uninterrupted serial run: result, trace and final journal.
        with RunStore(tmp_path / "golden").shard(key) as shard:
            golden, golden_trace = _run_traced(
                lambda: run_campaign(config, store=shard, **options)
            )
        golden_journal = _journal(tmp_path / "golden", key)

        store = tmp_path / "store"
        with RunStore(store).shard(key) as shard:
            first, first_trace = _run_traced(
                lambda: run_campaign(config, jobs=jobs, store=shard, **options)
            )
        assert _journal(store, key) == golden_journal
        total = _truncate_journal(store, key, keep=3)
        expected = golden.found.attempt if breaking else config.attempts
        assert total == expected
        with RunStore(store).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: run_campaign(
                    config, jobs=resume_jobs, store=shard, **options
                )
            )

        assert (
            _as_json(plain) == _as_json(golden) == _as_json(first)
            == _as_json(resumed)
        )
        assert golden_trace == first_trace == resumed_trace
        assert _journal(store, key) == golden_journal

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scan_stops_at_the_first_violation(
        self, tmp_path, monkeypatch, jobs
    ):
        from repro.analysis import campaign

        config = _breaking_config()
        k = run_campaign(config).found.attempt
        assert k > 1
        calls = []
        scanned = []
        execute = campaign.execute_attempt
        finish = campaign._finish_campaign

        def counting_execute(*args, **kwargs):
            calls.append(1)
            return execute(*args, **kwargs)

        def noting_finish(*args, **kwargs):
            scanned.append(len(calls))
            return finish(*args, **kwargs)

        monkeypatch.setattr(campaign, "execute_attempt", counting_execute)
        monkeypatch.setattr(campaign, "_finish_campaign", noting_finish)
        key = campaign_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            result = run_campaign(config, jobs=jobs, store=shard)
        assert result.found.attempt == k
        assert len(_journal(tmp_path, key).splitlines()) == k
        if jobs == 1:
            # Forked workers' calls are invisible here; the serial scan
            # must execute exactly the attempts up to the violation.
            assert scanned == [k]

    def test_breaking_campaign_resumes_to_same_counterexample(
        self, tmp_path
    ):
        config = _breaking_config()
        golden = run_campaign(config)
        assert golden.broken
        key = campaign_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            first = run_campaign(config, store=shard)
        with RunStore(tmp_path).shard(key) as shard:
            resumed = run_campaign(config, store=shard)
        assert _as_json(golden) == _as_json(first) == _as_json(resumed)

    def test_checkpoint_reuse_events_are_host_scope(self, tmp_path):
        config = _surviving_config()
        key = campaign_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            _run_traced(lambda: run_campaign(config, store=shard))
        obs.enable()
        try:
            with RunStore(tmp_path).shard(key) as shard:
                run_campaign(config, store=shard)
            counts = obs.get_log().kind_counts
            assert counts.get(obs.CHECKPOINT_REUSE, 0) == config.attempts
            # Reuse facts must never reach the exported trace.
            assert not any(
                f'"kind": "{obs.CHECKPOINT_REUSE}"' in line
                for line in obs.trace_lines()
            )
        finally:
            obs.reset()

    def test_telemetry_off_journal_not_reused_by_traced_resume(
        self, tmp_path
    ):
        # Records journaled without telemetry carry no event payload;
        # a traced resume must re-execute them to keep the trace whole.
        config = _surviving_config()
        key = campaign_store_key(config)
        with RunStore(tmp_path).shard(key) as shard:
            run_campaign(config, store=shard)  # telemetry off
        golden, golden_trace = _run_traced(lambda: run_campaign(config))
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: run_campaign(config, store=shard)
            )
        assert _as_json(golden) == _as_json(resumed)
        assert golden_trace == resumed_trace


class TestFrontierResumeEquivalence:
    def test_resumed_frontier_identical(self, tmp_path):
        config = _breaking_config()
        golden, golden_trace = _run_traced(
            lambda: degradation_frontier(
                config, max_link_faults=2, attempts_per_level=12
            )
        )
        key = frontier_store_key(
            config, max_link_faults=2, attempts_per_level=12
        )
        with RunStore(tmp_path).shard(key) as shard:
            first, first_trace = _run_traced(
                lambda: degradation_frontier(
                    config, max_link_faults=2, attempts_per_level=12,
                    store=shard,
                )
            )
        # Drop the last journaled level; resume recomputes just it.
        path = tmp_path / "shards" / f"{key}.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: degradation_frontier(
                    config, max_link_faults=2, attempts_per_level=12,
                    store=shard,
                )
            )
        assert golden == first == resumed
        assert golden_trace == first_trace == resumed_trace


class TestSweepResumeEquivalence:
    def test_resumed_sweep_identical(self, tmp_path):
        golden, golden_trace = _run_traced(lambda: node_bound_sweep((1,)))
        key = sweep_store_key("nodes", [1])
        with RunStore(tmp_path).shard(key) as shard:
            first, first_trace = _run_traced(
                lambda: node_bound_sweep((1,), store=shard)
            )
        path = tmp_path / "shards" / f"{key}.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1]) + "\n")
        with RunStore(tmp_path).shard(key) as shard:
            resumed, resumed_trace = _run_traced(
                lambda: node_bound_sweep((1,), store=shard)
            )
        assert golden == first == resumed
        assert golden_trace == first_trace == resumed_trace


class TestKillAndResume:
    """SIGKILL the driver mid-campaign, then ``repro resume``."""

    ARGS = [
        "--seed", "5", "campaign", "--protocol", "eig",
        "--graph", "complete:4", "--links", "1", "--kinds", "drop",
        "--rounds", "2", "--attempts", "600",
    ]

    def _env(self):
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        return env

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        env = self._env()
        golden_json = tmp_path / "golden.json"
        golden_trace = tmp_path / "golden.trace"
        subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--json", str(golden_json), "--trace", str(golden_trace)],
            check=True, env=env, cwd=tmp_path, capture_output=True,
        )

        store = tmp_path / "store"
        out_json = tmp_path / "out.json"
        out_trace = tmp_path / "out.trace"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--json", str(out_json), "--trace", str(out_trace),
             "--checkpoint", str(store)],
            env=env, cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Kill once a few attempts are journaled.  If the run finishes
        # first, resume still must reproduce the golden output.
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                shards = list((store / "shards").glob("*.jsonl")) if (
                    store / "shards"
                ).is_dir() else []
                if shards and len(
                    shards[0].read_text().splitlines()
                ) >= 3:
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.05)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "resume", str(store)],
            check=True, env=env, cwd=tmp_path, capture_output=True,
            text=True,
        )
        assert resumed.returncode == 0
        assert out_json.read_text() == golden_json.read_text()
        assert out_trace.read_bytes() == golden_trace.read_bytes()

    def test_resume_on_missing_store_is_clean_error(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "resume",
             str(tmp_path / "nowhere")],
            env=self._env(), cwd=tmp_path, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")


class TestCrossVersionResume:
    """A store checkpointed by an earlier release resumes unchanged.

    ``data/parent_store`` was written by the release before the shared
    scan driver: ``TestKillAndResume.ARGS`` with ``--json out.json
    --trace out.trace --checkpoint store``, its journal cut after the
    first 8 of 42 attempts (a kill between two appends).  Its
    ``meta.json`` still holds the since-removed ``cache_stats`` flag.
    Shard file names fingerprint the device factory's source location,
    which moves with the checkout, so the journal is installed under
    the name this checkout computes.
    """

    FIXTURE = Path(__file__).parent / "data" / "parent_store"

    def _key(self):
        from repro.cli import _campaign_factory, parse_graph

        factory, _ = _campaign_factory("eig", 0)
        return campaign_store_key(
            CampaignConfig(
                graph=parse_graph("complete:4"),
                device_factory=factory,
                rounds=2,
                max_link_faults=1,
                attempts=600,
                seed=5,
                link_kinds=("drop",),
            )
        )

    def test_parent_store_resumes_byte_identically(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        key = self._key()
        golden_dir = tmp_path / "golden"
        golden_dir.mkdir()
        monkeypatch.chdir(golden_dir)
        assert main(
            TestKillAndResume.ARGS
            + ["--json", "out.json", "--trace", "out.trace",
               "--checkpoint", "store"]
        ) == 0
        golden_out = capsys.readouterr().out

        resume_dir = tmp_path / "resume"
        (resume_dir / "store" / "shards").mkdir(parents=True)
        journal = (self.FIXTURE / "shards" / "campaign.jsonl").read_text()
        (resume_dir / "store" / "meta.json").write_text(
            (self.FIXTURE / "meta.json").read_text()
        )
        (resume_dir / "store" / "shards" / f"{key}.jsonl").write_text(journal)
        monkeypatch.chdir(resume_dir)
        assert main(["resume", "store"]) == 0
        assert capsys.readouterr().out == golden_out
        for name in ("out.json", "out.trace"):
            assert (resume_dir / name).read_bytes() == (
                golden_dir / name
            ).read_bytes()
        # The old records were reused, not re-run into a fresh shard,
        # and the finished journal is the one an uninterrupted run leaves.
        shards = resume_dir / "store" / "shards"
        assert [p.name for p in shards.iterdir()] == [f"{key}.jsonl"]
        resumed = _journal(resume_dir / "store", key)
        assert resumed.startswith(journal)
        assert resumed == _journal(golden_dir / "store", key)

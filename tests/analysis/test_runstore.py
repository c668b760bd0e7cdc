"""The run store: atomic writes, torn-tail journals, resume metadata."""

import json
import os

import pytest

from repro import obs
from repro.analysis.parallel import ParallelRunner
from repro.analysis.runstore import (
    RunStore,
    RunStoreError,
    Shard,
    atomic_write_text,
    decode_payload,
    encode_payload,
    journaled_map,
    reusable,
    run_scope_payload,
)


class TestAtomicWriteText:
    def test_writes_and_returns_path(self, tmp_path):
        path = atomic_write_text(tmp_path / "out.json", '{"a": 1}')
        assert path.read_text() == '{"a": 1}'

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_write_leaves_no_droppings(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_text(tmp_path / "out.json", object())  # not str
        assert list(tmp_path.iterdir()) == []


class TestShard:
    def test_append_and_get(self, tmp_path):
        with Shard(tmp_path / "s.jsonl") as shard:
            shard.append("a", {"ok": True})
            shard.append("b", {"ok": False})
            assert shard.get("a") == {"ok": True}
            assert shard.get("missing") is None
            assert len(shard) == 2

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
        reloaded = Shard(path)
        assert reloaded.get("a") == {"ok": True}
        assert reloaded.keys() == ["a"]

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
            shard.append("a", {"ok": False})
        assert Shard(path).get("a") == {"ok": False}

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
            shard.append("b", {"ok": True})
        # Simulate a crash mid-append: the final line is truncated.
        text = path.read_text()
        path.write_text(text + '{"k": "c", "v": {"ok"')
        survivor = Shard(path)
        assert survivor.get("a") == {"ok": True}
        assert survivor.get("b") == {"ok": True}
        assert survivor.get("c") is None

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        # Resume after a crash, then crash again: the records appended
        # after the torn tail must not fuse with it into one bad line.
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
        torn = path.read_text()
        for tail in ('{"k": "b", "v": {"ok"', json.dumps({"k": "b", "v": {}})):
            path.write_text(torn + tail)
            with Shard(path) as shard:
                assert shard.keys() == ["a"]
                shard.append("b", {"ok": True})
                shard.append("c", {"ok": False})
            assert path.read_text() == torn + "".join(
                json.dumps({"k": k, "v": {"ok": ok}}, separators=(",", ":"))
                + "\n"
                for k, ok in (("b", True), ("c", False))
            )
            assert Shard(path).keys() == ["a", "b", "c"]

    def test_mid_file_garbage_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        lines = [
            json.dumps({"k": "a", "v": {"ok": True}}),
            "definitely not json",
            json.dumps({"k": "b", "v": {"ok": True}}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunStoreError, match="corrupt journal"):
            Shard(path)

    def test_non_record_final_line_is_torn_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"k": "a", "v": {}}) + "\n" + json.dumps(["list"])
        )
        assert Shard(path).keys() == ["a"]

    def test_append_after_reload_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("a", {"ok": True})
        with Shard(path) as shard:
            shard.append("b", {"ok": False})
        assert len(path.read_text().splitlines()) == 2
        assert len(Shard(path)) == 2


class TestRunStore:
    def test_meta_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.write_meta("campaign", 7, {"attempts": 10})
        meta = store.read_meta()
        assert meta["command"] == "campaign"
        assert meta["seed"] == 7
        assert meta["args"] == {"attempts": 10}

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(RunStoreError, match="no run store"):
            RunStore(tmp_path / "nowhere", create=False)

    def test_missing_meta_is_clear(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(RunStoreError, match="not a run store"):
            store.read_meta()

    def test_corrupt_meta_is_clear(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.meta_path.write_text('{"format": "repro-runsto')
        with pytest.raises(RunStoreError, match="corrupt or truncated"):
            store.read_meta()

    def test_foreign_format_rejected(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.meta_path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(RunStoreError, match="is not repro-runstore"):
            store.read_meta()

    def test_shards_live_under_shard_dir(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with store.shard("abc123") as shard:
            shard.append("x", {})
        assert (tmp_path / "store" / "shards" / "abc123.jsonl").exists()

    def test_runstore_error_is_value_error(self):
        # The CLI maps ValueError to a one-line `error: ...` exit.
        assert issubclass(RunStoreError, ValueError)


class TestPayloadRoundTrip:
    PAYLOAD = (
        ("round_start", (("round", 1),)),
        ("cache_hit", (("cache", "behavior"), ("op", "sync-run"))),
        ("round_end", (("round", 1),)),
    )

    def test_encode_decode_inverse(self):
        data = json.loads(json.dumps(encode_payload(self.PAYLOAD)))
        assert decode_payload(data) == self.PAYLOAD

    def test_run_scope_strips_host_events(self):
        kept = run_scope_payload(self.PAYLOAD)
        assert [kind for kind, _ in kept] == ["round_start", "round_end"]

    def test_reusable_rules(self):
        assert not reusable(None)
        assert reusable({"ok": True})  # telemetry off: no payload needed
        obs.enable()
        try:
            assert not reusable({"ok": True})
            assert reusable({"ok": True, "obs": []})
        finally:
            obs.reset()


class TestJournaledMap:
    def test_without_shard_is_plain_map(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x * x

        out = journaled_map(
            ParallelRunner(1), fn, [1, 2, 3], None,
            key_fn=str, encode=lambda r: {"r": r}, decode=lambda d: d["r"],
        )
        assert out == [1, 4, 9]
        assert calls == [1, 2, 3]

    def test_journaled_items_skip_execution(self, tmp_path):
        calls = []

        def fn(x):
            calls.append(x)
            return x * x

        def run(shard):
            return journaled_map(
                ParallelRunner(1), fn, [1, 2, 3], shard,
                key_fn=str,
                encode=lambda r: {"r": {"v": r}},
                decode=lambda d: d["r"]["v"],
            )

        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            first = run(shard)
        calls.clear()
        with Shard(path) as shard:
            second = run(shard)
        assert first == second == [1, 4, 9]
        assert calls == []  # everything came from the journal

    def test_partial_journal_executes_only_the_rest(self, tmp_path):
        calls = []

        def fn(x):
            calls.append(x)
            return -x

        path = tmp_path / "s.jsonl"
        with Shard(path) as shard:
            shard.append("2", {"r": {"v": -2}})
            out = journaled_map(
                ParallelRunner(1), fn, [1, 2, 3], shard,
                key_fn=str,
                encode=lambda r: {"r": {"v": r}},
                decode=lambda d: d["r"]["v"],
            )
        assert out == [-1, -2, -3]
        assert calls == [1, 3]

    def test_fsync_every_bounds_unsynced_appends(self, tmp_path):
        from repro.analysis import runstore

        synced = []
        shard = Shard(tmp_path / "s.jsonl")
        original = os.fsync
        try:
            os.fsync = lambda fd: synced.append(fd)
            for i in range(runstore.FSYNC_EVERY + 1):
                shard.append(str(i), {})
        finally:
            os.fsync = original
        shard.close()
        assert synced  # at least one periodic fsync fired

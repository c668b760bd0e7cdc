"""Crash-safe run store: durable journals of campaign progress.

The ROADMAP's north star — "heavy traffic, as many scenarios as you can
imagine" — means searches that outlive a single uninterrupted process.
This module makes partial progress durable: every completed work item
(a campaign attempt, a degradation-frontier budget level, a sweep
point) is journaled to an append-only JSONL *shard* the moment it
finishes, and a later run against the same store skips the journaled
items and continues from the exact index position where the previous
process died.

Layout and guarantees
---------------------
::

    <store>/
      meta.json               # how to re-run: command + args (atomic)
      shards/<key>.jsonl      # one journal per run content-fingerprint

* **Content-addressed shards.**  A shard's filename is a fingerprint
  over everything that determines the run's item stream (graph shape,
  device factory, budgets, seed, link kinds — see
  :func:`repro.analysis.campaign.campaign_store_key` and friends), so
  one store directory can be shared across many runs: a resumed run
  finds exactly its own journal, and an unrelated run gets a fresh one.
* **Atomic metadata.**  ``meta.json`` is written via
  :func:`atomic_write_text` (tmp file + ``fsync`` + ``os.replace``): a
  crash mid-write can never leave a truncated file behind.
* **Append-only journals with torn-tail recovery.**  Each record is one
  JSON line, written and flushed in a single call; a process killed
  mid-append can tear at most the final line, which the loader detects
  and discards (the item simply re-executes on resume) and the next
  append cuts off, so a store survives any number of kills.  Garbage
  *before* the last line is real corruption and raises
  :class:`RunStoreError` with a clear message.  ``fsync`` runs at merge
  points (:meth:`Shard.sync`), every :data:`FSYNC_EVERY` appends, and
  on close — bounding loss to the unsynced suffix even on power
  failure, while keeping the per-item cost to a buffered write.
* **Equivalence.**  A journaled record stores the item's result *and*
  (when telemetry is enabled) the run-scope event payload the original
  execution emitted.  Resume replays the payload instead of
  re-executing, so a resumed run's traces and ``run.*`` metrics are
  byte-identical to an uninterrupted run's.  Records journaled with
  telemetry off carry no payload and are deliberately **not** reused by
  a telemetry-on resume — the item re-executes so the trace stays
  complete.  Checkpoint reuse/write facts themselves are host-scope
  events, invisible in exported traces.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import Any, TypeVar

from .. import obs

T = TypeVar("T")
R = TypeVar("R")

STORE_FORMAT = "repro-runstore/1"
META_NAME = "meta.json"
SHARD_DIR = "shards"

#: Appends between forced ``fsync`` calls (crash loss bound on power
#: failure; a plain SIGKILL loses nothing past the buffered write).
FSYNC_EVERY = 64


class RunStoreError(ValueError):
    """A run store is missing, malformed, or corrupt.

    Subclasses :class:`ValueError` so CLI error handling reports it as
    a clear one-line message instead of a traceback.
    """


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically: tmp + fsync + rename.

    The temporary file lives in the destination directory (rename is
    only atomic within a filesystem) and is fsynced before the
    ``os.replace``, so a crash at any point leaves either the old file
    or the complete new one — never a truncated hybrid.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


# -- telemetry payload round-trip -------------------------------------------


def encode_payload(payload: Sequence[tuple]) -> list:
    """A captured event payload as a JSON-safe nested list."""
    return [
        [kind, [[name, value] for name, value in fields]]
        for kind, fields in payload
    ]


def decode_payload(data: Iterable) -> tuple:
    """The inverse of :func:`encode_payload` (lists back to tuples, as
    :func:`repro.obs.replay` expects)."""
    return tuple(
        (kind, tuple((name, value) for name, value in fields))
        for kind, fields in data
    )


def run_scope_payload(payload: Sequence[tuple]) -> tuple:
    """Strip host-scope events (cache luck, worker pools, checkpoint
    facts) from a captured payload, leaving the deterministic stream a
    journal record may durably store."""
    return tuple(
        (kind, fields)
        for kind, fields in payload
        if kind not in obs.HOST_KINDS
    )


def reusable(record: dict | None) -> bool:
    """May this journal record satisfy the current run's needs?

    A record without a stored event payload cannot reproduce the item's
    trace, so it only counts when telemetry is off.
    """
    if record is None:
        return False
    return not obs.is_enabled() or "obs" in record


# -- the journal ------------------------------------------------------------


class Shard:
    """One append-only JSONL journal of completed work items.

    Records are ``{"k": item_key, "v": {...}}`` lines; the constructor
    loads any existing journal into memory (last record wins per key,
    torn tail tolerated).  :meth:`append` writes and flushes one line —
    a SIGKILL immediately after still finds the record on disk — and
    :meth:`sync` fsyncs at merge points.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        self._fh = None
        self._unsynced = 0
        self._torn_at: int | None = None  # byte offset of a torn tail
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise RunStoreError(
                f"cannot read journal shard {self.path}: {exc}"
            ) from exc
        pending: dict[str, dict] = {}
        bad_line: int | None = None
        offset = 0
        lines = data.split(b"\n")
        for lineno, line in enumerate(lines, 1):
            start, offset = offset, offset + len(line) + 1
            if not line.strip():
                continue
            if bad_line is not None:
                # Parseable-or-not, content after a bad line means the
                # bad line was not a torn tail: corruption.
                raise RunStoreError(
                    f"corrupt journal shard {self.path}: unparseable "
                    f"record at line {bad_line} is not the final line; "
                    "the store cannot be trusted for resume"
                )
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                record = None
            if (
                lineno == len(lines)  # no newline: the append was cut
                or not isinstance(record, dict)
                or "k" not in record
            ):
                bad_line, self._torn_at = lineno, start
                continue
            pending[str(record["k"])] = record.get("v", {})
        # A trailing unterminated or unparseable line is the signature
        # of a crash mid-append: drop it (the item re-executes on
        # resume), and cut it off before the next append.
        self._records = pending

    def get(self, item_key: str) -> dict | None:
        """The journaled record for ``item_key``, or ``None``."""
        return self._records.get(item_key)

    def append(self, item_key: str, value: dict) -> None:
        """Journal one completed item (write + flush, periodic fsync)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
            if self._torn_at is not None:
                self._fh.truncate(self._torn_at)
                self._torn_at = None
        line = json.dumps(
            {"k": item_key, "v": value},
            sort_keys=True,
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        self._records[item_key] = value
        self._unsynced += 1
        obs.emit(obs.CHECKPOINT_WRITE, item=item_key)
        if self._unsynced >= FSYNC_EVERY:
            self.sync()

    def sync(self) -> None:
        """fsync the journal (called at merge points and on close)."""
        if self._fh is not None and self._unsynced:
            os.fsync(self._fh.fileno())
        self._unsynced = 0

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> list[str]:
        return list(self._records)

    def __enter__(self) -> "Shard":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class RunStore:
    """A directory of journal shards plus resume metadata."""

    def __init__(self, root: str | Path, create: bool = True) -> None:
        self.root = Path(root)
        if create:
            (self.root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise RunStoreError(f"no run store at {self.root}")

    @property
    def meta_path(self) -> Path:
        return self.root / META_NAME

    def shard(self, key: str) -> Shard:
        """The journal shard for content fingerprint ``key``."""
        return Shard(self.root / SHARD_DIR / f"{key}.jsonl")

    def write_meta(self, command: str, seed: int, args: dict) -> None:
        """Atomically record how to re-run this store's command."""
        meta = {
            "format": STORE_FORMAT,
            "command": command,
            "seed": seed,
            "args": args,
        }
        atomic_write_text(
            self.meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )

    def read_meta(self) -> dict:
        """The resume metadata; raises :class:`RunStoreError` on a
        missing, truncated, or foreign file."""
        try:
            text = self.meta_path.read_text()
        except FileNotFoundError:
            raise RunStoreError(
                f"{self.meta_path} not found: not a run store (was the "
                "run started with --checkpoint?)"
            ) from None
        except OSError as exc:
            raise RunStoreError(
                f"cannot read {self.meta_path}: {exc}"
            ) from exc
        try:
            meta = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RunStoreError(
                f"corrupt or truncated run-store metadata in "
                f"{self.meta_path}: {exc}"
            ) from exc
        if not isinstance(meta, dict) or meta.get("format") != STORE_FORMAT:
            raise RunStoreError(
                f"{self.meta_path} is not {STORE_FORMAT} metadata "
                f"(format={meta.get('format') if isinstance(meta, dict) else None!r})"
            )
        return meta


# -- the scan driver --------------------------------------------------------


def journaled_map(
    runner: Any,
    fn: Callable[[T], R],
    items: Iterable[T],
    shard: Shard | None = None,
    key_fn: Callable[[T], str] = str,
    encode: Callable[[R], dict] | None = None,
    decode: Callable[[dict], R] | None = None,
    *,
    dedup: Callable[[T], Any] | None = None,
    stop: Callable[[R], bool] | None = None,
    begin: Callable[[T], None] | None = None,
    end: Callable[[T, R], None] | None = None,
) -> list[R]:
    """The one index-ordered scan: ``fn`` over ``items``, merged in
    item order, journaled, deduplicated and stopped early on request.

    Every scan in the package runs here — campaign attempts, indexed
    attacks, frontier levels and sweep points — so the rules below hold
    for all of them, at any ``runner.jobs``:

    * **Order.**  Results, events and journal appends are merged in
      item order; ``begin(item)`` / ``end(item, result)`` bracket each
      merged item's events.
    * **Journal skip.**  An item whose record (under ``key_fn(item)``)
      is in ``shard`` and :func:`reusable` is never dispatched: its
      recorded run-scope events are replayed and ``decode(record)`` is
      its result.  Fresh items are journaled as ``encode(result)`` plus,
      with telemetry on, their run-scope events under ``"obs"``.
    * **Dedup.**  With ``dedup``, only the first item of each
      ``dedup(item)`` key runs; later items with that key reuse its
      result (journaled items seed keys too) and emit
      :data:`~repro.obs.ORBIT_REUSE` instead of running — the orbit
      filter.
    * **Stop.**  The scan ends after the first item whose result
      matches ``stop``; nothing past it is replayed, journaled or
      returned.
    * **Batching.**  A parallel ``runner`` gets the fresh items in
      batches of ``max(4 * jobs, 8)``, with an fsync at each batch's
      merge point.  Otherwise items run one at a time, at their merge
      position, so a serial scan never executes an item past the stop.

    A resumed scan therefore returns, emits and journals exactly what an
    uninterrupted one does: reused items replay the run-scope events
    their original execution emitted.
    """
    work = list(items)
    parallel = runner.parallel
    chunk = max(4 * runner.jobs, 8) if parallel else 1
    capture = shard is not None and obs.is_enabled()
    first: dict[Any, R] = {}  # dedup key -> result of its first item
    claimed: set[Any] = set()  # dedup keys whose first item is scheduled
    results: list[R] = []

    def run_here(item: T, key: Any, fresh: bool) -> R:
        if fresh:
            return fn(item)
        obs.emit(obs.ORBIT_REUSE, attempt=item)
        return first[key]

    stopped = False
    for lo in range(0, len(work), chunk):
        batch = []  # (item, reusable record or None, dedup key, fresh)
        for item in work[lo:lo + chunk]:
            record = shard.get(key_fn(item)) if shard is not None else None
            if not reusable(record):
                record = None
            key = dedup(item) if dedup is not None else None
            fresh = record is None and (dedup is None or key not in claimed)
            claimed.add(key)
            batch.append((item, record, key, fresh))
        pooled = None
        if parallel:
            pooled = iter(runner.map_captured(
                fn, [item for item, _, _, fresh in batch if fresh]
            ))
        for item, record, key, fresh in batch:
            if begin is not None:
                begin(item)
            if record is not None:
                obs.emit(obs.CHECKPOINT_REUSE, item=key_fn(item))
                obs.replay(decode_payload(record.get("obs", ())))
                result = decode(record)
            else:
                if fresh and pooled is not None:
                    result, payload = next(pooled)
                    obs.replay(payload)
                elif capture:
                    with obs.capture() as capsule:
                        result = run_here(item, key, fresh)
                    payload = capsule.payload()
                    obs.replay(payload)
                else:
                    result = run_here(item, key, fresh)
                if shard is not None:
                    value = encode(result)
                    if capture:
                        value["obs"] = encode_payload(
                            run_scope_payload(payload)
                        )
                    shard.append(key_fn(item), value)
            if dedup is not None:
                first.setdefault(key, result)
            if end is not None:
                end(item, result)
            results.append(result)
            if stop is not None and stop(result):
                stopped = True
                break
        if parallel and shard is not None:
            shard.sync()
        if stopped:
            break
    if shard is not None:
        shard.sync()
    return results


__all__ = [
    "FSYNC_EVERY",
    "META_NAME",
    "RunStore",
    "RunStoreError",
    "STORE_FORMAT",
    "Shard",
    "atomic_write_text",
    "decode_payload",
    "encode_payload",
    "journaled_map",
    "reusable",
    "run_scope_payload",
]

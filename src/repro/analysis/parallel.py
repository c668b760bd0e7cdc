"""Deterministic parallel drivers for campaigns and sweeps.

Every unit of work this repo fans out — a campaign attempt, a sweep
point, a degradation-frontier budget level — is already deterministic
given its index and a seed.  That makes parallelism *embarrassingly*
safe: evaluate items in any order, merge results back **in item
order**, and the outcome is byte-identical to the serial run.  This
module supplies the one primitive everything else needs:

:class:`ParallelRunner` — an ordered ``map`` over a process pool, with
a serial fallback whenever the platform cannot fork, the pool cannot
be built, or ``jobs <= 1``.

Design notes
------------
* **Fork, not spawn.**  Work functions are closures over configs that
  hold device-factory lambdas; those never survive pickling.  With the
  ``fork`` start method the closure is *inherited* by the children via
  the parent's memory image — only the items (ints, small tuples) and
  the results cross the pipe, so work functions stay arbitrary.  The
  module-level :func:`_call` trampoline is what actually gets pickled
  (by name), and it reads the closure from :data:`_WORK`, set in the
  parent immediately before the pool forks.
* **Results must be picklable.**  Callers return value objects
  (verdict tuples, rows, counterexamples) — never configs carrying
  lambdas.
* **Determinism.**  ``map`` preserves item order (``Pool.map``), so
  "first violation" style reductions in the caller see the same order
  serial execution produced.
* **Per-item fault tolerance.**  A worker exception does not abort the
  whole map: the trampolines ship failures back as values (with the
  item's partially captured telemetry), and the parent re-executes the
  failed item serially.  Only when the serial retry *also* fails does
  the error surface — as an :class:`ItemError` carrying the item's
  index, the item itself, and the worker's captured event payload, so
  a post-mortem knows exactly which unit died and what it had logged.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from typing import Any, TypeVar

from .. import obs

T = TypeVar("T")
R = TypeVar("R")


def _logger():
    # ``logging`` and ``multiprocessing`` load only on the ``jobs > 1``
    # paths: serial runs (every default command) never import them.
    import logging

    return logging.getLogger(__name__)


class ItemError(RuntimeError):
    """One work item failed in a worker *and* in the serial retry.

    Carries the item's identity (``index`` into the mapped sequence and
    the ``item`` value itself — for campaigns that is the attempt index
    that seeds the failing scenario) plus ``payload``, the telemetry
    events the worker captured before dying, so the failure's partial
    trace is preserved rather than silently dropped.  The retry's
    exception is chained as ``__cause__``.
    """

    def __init__(
        self,
        index: int,
        item: Any,
        error: BaseException | str,
        payload: tuple = (),
    ) -> None:
        self.index = index
        self.item = item
        self.payload = payload
        super().__init__(
            f"work item #{index} ({item!r}) failed after serial retry: "
            f"{error}"
        )


#: The current work closure, inherited by forked workers.  Only ever
#: set in the parent, immediately before a pool is created.
_WORK: Callable[[Any], Any] | None = None


def _call(item: Any) -> tuple[bool, Any, str | None]:
    """Module-level trampoline (picklable by name) around :data:`_WORK`.

    Returns ``(ok, result, error)`` — exceptions become values so a
    crashing item neither aborts ``Pool.map`` nor loses its identity.
    """
    assert _WORK is not None, "worker forked before _WORK was set"
    try:
        return (True, _WORK(item), None)
    except Exception as exc:
        return (False, None, repr(exc))


def _call_captured(item: Any) -> tuple[bool, tuple[Any, tuple], str | None]:
    """Trampoline that also captures the item's telemetry.

    Forked workers inherit the parent's enabled telemetry; the capture
    sink redirects the item's events into a picklable capsule that
    rides back over the result pipe alongside the result, so the
    parent can replay them in item order.  On failure the partial
    capsule still rides back — post-mortem traces stay complete.
    """
    assert _WORK is not None, "worker forked before _WORK was set"
    with obs.capture() as capsule:
        try:
            result = _WORK(item)
        except Exception as exc:
            return (False, (None, capsule.payload()), repr(exc))
    return (True, (result, capsule.payload()), None)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (Linux, most Unix)."""
    import multiprocessing

    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def available_parallelism() -> int:
    """Best-effort count of cores *this process may actually use*.

    ``os.cpu_count()`` reports the machine's cores, which over-reports
    inside cgroup- or affinity-restricted environments (containers, CI
    runners pinned to one core) and would defeat the single-core
    serial-fallback guard below.  The scheduling affinity mask is the
    honest number where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # macOS/Windows: no affinity API
        return os.cpu_count() or 1


class ParallelRunner:
    """An ordered parallel ``map`` with a serial fallback.

    ``jobs <= 1`` (or no fork support, a single-core box, or a pool
    failure) degrades to a plain in-process loop — same results, same
    order.  ``jobs > 1`` on a multi-core machine fans items over a
    fork-based process pool.  On one core the pool is pure overhead
    (fork + pipe costs with zero concurrency — the recorded bench run
    measured 0.14x), so it is skipped, with the reason logged once.

    A worker exception fails only its own item: the parent re-executes
    that item serially (see :func:`_call` / :meth:`_retry`), so one
    crashed or OOM-killed unit of work no longer aborts a campaign.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self.fallback_reason: str | None = None
        if self.jobs <= 1:
            self.fallback_reason = f"jobs={self.jobs} requests no parallelism"
        elif not fork_available():
            self.fallback_reason = "fork start method unavailable"
        elif available_parallelism() <= 1:
            self.fallback_reason = (
                f"only {available_parallelism()} CPU core available; "
                "a process pool would add overhead without concurrency"
            )
        if self.fallback_reason is not None and self.jobs > 1:
            _logger().info(
                "ParallelRunner falling back to serial: %s",
                self.fallback_reason,
            )

    @property
    def parallel(self) -> bool:
        return self.fallback_reason is None

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results in item order.

        ``fn`` may be any callable (closures welcome — see module
        docstring); items and results must be picklable when running
        parallel.
        """
        work: Sequence[T] = list(items)
        if not self.parallel or len(work) <= 1:
            return [fn(item) for item in work]
        if obs.is_enabled():
            # Replay each worker's captured events in item order — the
            # merged stream is byte-identical to the serial run's.
            captured = self._pool_map(_call_captured, fn, work)
            results = []
            for result, payload in captured:
                obs.replay(payload)
                results.append(result)
            return results
        return self._pool_map(_call, fn, work)

    def map_captured(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> list[tuple[R, tuple]]:
        """Like :meth:`map`, but return ``(result, telemetry payload)``
        pairs *without* replaying the payloads.

        For callers whose serial semantics stop consuming results early
        (first-violation reductions): they replay payloads themselves,
        in item order, exactly as far as the serial run would have
        executed.  Payloads are empty when telemetry is disabled.
        """
        work: Sequence[T] = list(items)
        if not self.parallel or len(work) <= 1:
            out: list[tuple[R, tuple]] = []
            for item in work:
                with obs.capture() as capsule:
                    result = fn(item)
                out.append((result, capsule.payload()))
            return out
        return self._pool_map(_call_captured, fn, work)

    def _retry(
        self,
        captured: bool,
        fn: Callable[[T], Any],
        item: T,
        index: int,
        error: str,
        worker_payload: tuple,
    ) -> Any:
        """Serially re-execute one item whose worker failed.

        A success replaces the failed result (re-captured from scratch,
        so the merged event stream is exactly what an all-healthy run
        produces — the worker's partial capsule is discarded).  A
        second failure raises :class:`ItemError`, preserving the
        worker's partial capsule for post-mortems.
        """
        _logger().warning(
            "worker failed on item #%d (%r): %s; re-executing serially",
            index, item, error,
        )
        obs.emit(obs.WORKER_RETRY, index=index, error=error)
        try:
            if captured:
                with obs.capture() as capsule:
                    result = fn(item)
                return (result, capsule.payload())
            return fn(item)
        except Exception as exc:
            raise ItemError(index, item, exc, worker_payload) from exc

    def _pool_map(
        self,
        trampoline: Callable[[Any], Any],
        fn: Callable[[T], Any],
        work: Sequence[T],
    ) -> list[Any]:
        global _WORK
        previous = _WORK
        _WORK = fn
        captured = trampoline is _call_captured
        processes = min(self.jobs, len(work))
        try:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=processes) as pool:
                obs.emit(obs.WORKER_POOL, processes=processes, items=len(work))
                wrapped = pool.map(trampoline, work)
                obs.emit(obs.WORKER_MERGE, items=len(wrapped))
        except (OSError, ValueError) as exc:  # pool could not be built
            _logger().info(
                "ParallelRunner falling back to serial: pool failed (%s)",
                exc,
            )
            if captured:
                out = []
                for item in work:
                    with obs.capture() as capsule:
                        result = fn(item)
                    out.append((result, capsule.payload()))
                return out
            return [fn(item) for item in work]
        finally:
            _WORK = previous
        results: list[Any] = []
        for index, (ok, value, error) in enumerate(wrapped):
            if ok:
                results.append(value)
                continue
            worker_payload = value[1] if captured and value else ()
            results.append(
                self._retry(
                    captured, fn, work[index], index, error or "unknown",
                    worker_payload,
                )
            )
        return results


__all__ = [
    "ItemError",
    "ParallelRunner",
    "available_parallelism",
    "fork_available",
]

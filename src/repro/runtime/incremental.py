"""Prefix-sharing incremental execution for the synchronous runtime.

The campaign shrinker's candidates differ from their parent by one
deleted fault atom; most sampled plans in a campaign touch only a few
rounds.  Executing each such variant from round 0 repeats work: two
runs of the *same compiled system* whose fault plans act identically on
rounds ``0..k-1`` evolve identically through round ``k-1`` (devices are
pure, the injector is deterministic, and delayed messages in flight are
part of the injector's state).  This module caches execution prefixes
in a round-level **trie**:

* Each fault plan is summarized round by round into a *signature* — a
  canonical description of the transformation the injector applies in
  that round (which edges a partition cuts, which faults fire on which
  edge in plan order, with their parameters).  Equal signatures ⇒ the
  injector treats that round identically, whatever the messages are.
* An :class:`ExecutionTrie` stores, per signature path, the round's
  execution *delta*: each node's new state, the round's message row,
  the injector's trace records and in-flight delayed messages.  The
  state at any round boundary is the concatenation of the deltas
  along the path — so snapshots cost O(nodes + edges) per round, not
  a full copy of the growing histories.
* A new run walks the trie as deep as its signatures match, rebuilds
  that prefix state from the deltas in one pass, and executes only the
  remaining rounds — recording fresh deltas as it goes.

The replayed rounds are *lookups*, not re-executions, yet the final
:class:`~repro.runtime.sync.behavior.SyncBehavior` and
:class:`~repro.runtime.faults.InjectionTrace` are byte-identical to a
from-scratch run: the trie has no round loop of its own.  It resumes
the executor's loop (:func:`~repro.runtime.sync.executor.advance`)
from the restored prefix and records each executed round through the
loop's ``record`` callback, and the golden tests diff both paths
against the interpretive :func:`repro.testing.reference_sync_run`
oracle.

:class:`IncrementalContext` keys tries by execution context (compiled
system content: config, inputs, node faults) with a bounded LRU, so
the campaign engine reuses one trie across a whole shrink ladder while
memory stays bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from .. import obs
from .faults import FaultPlan, InjectionTrace, SyncFaultInjector, _PlanIndex
from .plan import SyncPlan
from .sync.behavior import SyncBehavior
from .sync.executor import (
    ExecutionError,
    _NodeRun,
    advance,
    behavior_of,
    emit_phase_events,
    init_runs,
)


def plan_signatures(plan: FaultPlan, rounds: int) -> tuple[tuple, ...]:
    """Per-round canonical signatures of a fault plan's actions.

    The signature for round ``r`` captures exactly what
    :class:`~repro.runtime.faults.SyncFaultInjector` consults that
    round: the set of partition-cut edges, and per edge the ordered
    sequence of faults that *fire* (active window, and a won coin for
    probabilistic faults — the coin is deterministic, so it is resolved
    here rather than encoded).  Fault parameters that shape the effect
    ride along: a delay carries its round offset; a corruption carries
    the plan seed and pool, which key its replacement draw.  Two plans
    with equal signatures on rounds ``0..k-1`` drive the executor and
    injector through identical prefixes.

    Same-edge fault order is preserved (the injector applies it in plan
    order); cross-edge order is sorted away, as the injector never
    observes it.
    """
    index = _PlanIndex(plan)
    pool_token = repr(tuple(plan.corrupt_pool))
    signatures: list[tuple] = []
    for r in range(rounds):
        cut = sorted(
            {
                repr(edge)
                for p in plan.partitions
                if p.start <= r < p.end
                for edge in p.edges
            }
        )
        per_edge: list[tuple] = []
        for edge, faults in index.faults_by_edge.items():
            tokens: list[tuple] = []
            for fault in faults:
                if not fault.active_at(r):
                    continue
                if not index.coin(fault, edge, r):
                    continue
                if fault.kind in ("drop", "omit"):
                    # Both manifest as a dropped slot; identical effect,
                    # identical trace record.
                    tokens.append(("drop",))
                elif fault.kind == "delay":
                    tokens.append(("delay", int(fault.delay)))
                else:  # corrupt: replacement rng is keyed by seed+edge+t
                    tokens.append(("corrupt", plan.seed, pool_token))
            if tokens:
                per_edge.append((repr(edge), tuple(tokens)))
        per_edge.sort()
        signatures.append((tuple(cut), tuple(per_edge)))
    return tuple(signatures)


class _TrieNode:
    """One round boundary: the delta this round contributed, plus the
    children keyed by the next round's signature.

    ``states`` holds each node's state *appended* this round (the init
    states at the root), ``messages`` the round's message row (slot
    order, see :class:`~repro.runtime.plan.SyncPlan`), ``trace`` the
    injection records emitted, ``decisions`` the full (small) per-node
    ``(decision, decided_at)`` vector, and ``pending`` the injector's
    full in-flight delayed-message map at the boundary (tiny: only
    live delays appear in it).
    """

    __slots__ = ("states", "decisions", "messages", "pending", "trace",
                 "children")

    def __init__(
        self,
        states: tuple[Any, ...],
        decisions: tuple[tuple[Any, int | None], ...],
        messages: list[Any] | tuple[()],
        pending: tuple,
        trace: tuple,
    ) -> None:
        self.states = states
        self.decisions = decisions
        self.messages = messages
        self.pending = pending
        self.trace = trace
        self.children: dict[tuple, _TrieNode] = {}


def _freeze_pending(injector: SyncFaultInjector) -> tuple:
    return tuple(
        (edge, tuple((due, tuple(msgs)) for due, msgs in dues.items() if msgs))
        for edge, dues in injector._pending.items()
        if any(msgs for msgs in dues.values())
    )


class ExecutionTrie:
    """Round-level delta trie over one compiled synchronous plan.

    All runs through a trie share the compiled plan (device objects,
    contexts, routing tables) — sound because synchronous devices are
    pure by contract and the plan layer carries no per-run state — and
    any two runs share the deepest common signature prefix of their
    fault plans.
    """

    def __init__(self, plan: SyncPlan) -> None:
        self.plan = plan
        self.root: _TrieNode | None = None
        self.runs = 0
        self.rounds_replayed = 0
        self.rounds_executed = 0
        self.nodes_stored = 0

    def prepare(self, fault_plan: FaultPlan, rounds: int) -> "TrieRun":
        """Stage a run: resolve signatures and walk the shared prefix.
        No device code runs until :meth:`TrieRun.execute` (so a
        crashing device crashes there, exactly as in the plain
        executor)."""
        if rounds < 0:
            raise ExecutionError("rounds must be non-negative")
        return TrieRun(self, fault_plan, rounds)

    def execute(
        self, fault_plan: FaultPlan, rounds: int
    ) -> tuple[SyncBehavior, InjectionTrace]:
        """One-call convenience: prepare + execute."""
        run = self.prepare(fault_plan, rounds)
        behavior = run.execute()
        return behavior, run.trace

    def stats(self) -> dict[str, int]:
        return {
            "runs": self.runs,
            "rounds_replayed": self.rounds_replayed,
            "rounds_executed": self.rounds_executed,
            "snapshots": self.nodes_stored,
        }


class TrieRun:
    """One staged execution against a trie (single-use).

    ``trace`` is live — after a device exception it holds the partial
    trace, mirroring how callers of the plain executor read
    ``injector.trace`` after a crash.
    """

    def __init__(
        self, trie: ExecutionTrie, fault_plan: FaultPlan, rounds: int
    ) -> None:
        self.trie = trie
        self.rounds = rounds
        self.signatures = plan_signatures(fault_plan, rounds)
        self.injector = SyncFaultInjector(fault_plan)
        self._path: list[_TrieNode] = []
        if trie.root is not None:
            node = trie.root
            self._path.append(node)
            depth = 0
            while depth < rounds and self.signatures[depth] in node.children:
                node = node.children[self.signatures[depth]]
                self._path.append(node)
                depth += 1

    @property
    def trace(self) -> InjectionTrace:
        return self.injector.trace

    def _restore(self) -> tuple[list[_NodeRun], list[list[Any]]]:
        """Rebuild the execution state at the end of the walked prefix
        by concatenating the path's deltas (one pass, front to back)."""
        tip = self._path[-1]
        runs = [
            _NodeRun(states=[node.states[i] for node in self._path],
                     decision=dec, decided_at=at)
            for i, (dec, at) in enumerate(tip.decisions)
        ]
        rows = [node.messages for node in self._path[1:]]
        records: list = []
        for node in self._path:
            records.extend(node.trace)
        self.injector.trace = InjectionTrace(records=records)
        self.injector._pending = {
            edge: {due: list(msgs) for due, msgs in dues}
            for edge, dues in tip.pending
        }
        return runs, rows

    def execute(self) -> SyncBehavior:
        """Run the staged execution; replays the shared prefix from the
        trie's deltas and executes only the remaining rounds."""
        trie = self.trie
        plan = trie.plan
        injector = self.injector

        if trie.root is None:
            # First run ever: perform the init phase and root it.
            runs = init_runs(plan)
            rows: list[list[Any]] = []
            trie.root = _TrieNode(
                states=tuple(r.states[0] for r in runs),
                decisions=tuple((r.decision, r.decided_at) for r in runs),
                messages=(),
                pending=(),
                trace=(),
            )
            trie.nodes_stored += 1
            self._path = [trie.root]
        else:
            runs, rows = self._restore()

        depth = len(self._path) - 1
        trie.runs += 1
        trie.rounds_replayed += depth

        if obs.is_enabled() and depth:
            # Replayed rounds are lookups, not executions — but the
            # run-scope event stream must not know that.  Synthesize,
            # from the stored deltas, exactly the events the round loop
            # would have emitted for the prefix; the replay fact itself
            # is a host-scope event.
            obs.emit(obs.TRIE_REPLAY, rounds=depth)
            for replay_index, node in enumerate(self._path[1:]):
                obs.emit(obs.ROUND_START, round=replay_index)
                emit_phase_events(plan, replay_index, node.messages, node.trace)
                obs.emit(
                    obs.ROUND_END,
                    round=replay_index,
                    messages=len(node.messages),
                    injected=len(node.trace),
                )

        records = injector.trace.records
        mark = len(records)
        tip = self._path[-1]

        def record(round_index: int, row: list[Any]) -> None:
            nonlocal mark, tip
            child = _TrieNode(
                states=tuple(r.states[-1] for r in runs),
                decisions=tuple((r.decision, r.decided_at) for r in runs),
                messages=row,
                pending=_freeze_pending(injector),
                trace=tuple(records[mark:]),
            )
            mark = len(records)
            tip.children[self.signatures[round_index]] = child
            tip = child
            trie.rounds_executed += 1
            trie.nodes_stored += 1

        advance(plan, runs, rows, injector, depth, self.rounds, record)
        return behavior_of(plan, runs, rows)


class IncrementalContext:
    """Bounded LRU of :class:`ExecutionTrie` objects, keyed by execution
    context (a content fingerprint of config + inputs + node faults).

    The campaign engine asks for the trie of each attempt's context;
    the shrink ladder — dozens of plan variants over one context — then
    runs through a single trie.  Evicted tries fold their counters into
    the context totals, so :meth:`stats` reports lifetime numbers.
    """

    def __init__(self, max_contexts: int = 64) -> None:
        self.max_contexts = max_contexts
        self._tries: OrderedDict[str, ExecutionTrie] = OrderedDict()
        self._retired = {
            "runs": 0,
            "rounds_replayed": 0,
            "rounds_executed": 0,
            "snapshots": 0,
        }
        self.contexts_created = 0

    def get(self, key: str) -> ExecutionTrie | None:
        trie = self._tries.get(key)
        if trie is not None:
            self._tries.move_to_end(key)
        return trie

    def put(self, key: str, trie: ExecutionTrie) -> None:
        self._tries[key] = trie
        self._tries.move_to_end(key)
        self.contexts_created += 1
        while len(self._tries) > self.max_contexts:
            _, evicted = self._tries.popitem(last=False)
            for name in self._retired:
                self._retired[name] += evicted.stats()[name]

    def stats(self) -> dict[str, int]:
        totals = dict(self._retired)
        for trie in self._tries.values():
            for name, value in trie.stats().items():
                totals[name] += value
        totals["contexts"] = self.contexts_created
        totals["live_contexts"] = len(self._tries)
        return totals

    def describe(self) -> str:
        s = self.stats()
        total = s["rounds_replayed"] + s["rounds_executed"]
        ratio = s["rounds_replayed"] / total if total else 0.0
        return (
            f"incremental execution: {s['runs']} runs over "
            f"{s['contexts']} contexts, "
            f"{s['rounds_replayed']}/{total} rounds replayed from "
            f"snapshots ({ratio:.0%}), {s['snapshots']} snapshots held"
        )


__all__ = [
    "ExecutionTrie",
    "IncrementalContext",
    "TrieRun",
    "plan_signatures",
]

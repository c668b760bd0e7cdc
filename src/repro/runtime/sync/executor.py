"""The synchronous executor.

Runs a :class:`~repro.runtime.sync.system.SyncSystem` for a fixed
number of rounds and records the full system behavior.  The executor
is the operational guarantee behind the paper's axioms:

* **Locality** holds because a node's next state is computed from its
  device, its input, its port labels and the messages on its inedges —
  nothing else is ever passed in.
* **Determinism** (one behavior per system) holds because devices are
  required to be pure; :func:`check_determinism` re-runs a system and
  compares traces.

The executor runs **compiled plans** (:mod:`repro.runtime.plan`):
:func:`run` compiles the system once — device objects, contexts,
valid-port sets, slot tables — and :func:`advance` is the one round
loop.  A round's messages are one flat row, a slot per directed edge:
each node's send fills its contiguous block of slots, the fault
injector rewrites only the slots of edges its plan touches, and each
inbox is read from the row through the receiver's slot table.
:func:`execute_plan` runs it from round 0; the execution trie
(:mod:`repro.runtime.incremental`) resumes it from a stored prefix and
records each round it executes.  The observable behavior is
byte-identical to the interpretive loop kept as
:func:`repro.testing.reference_sync_run` and differentially tested,
injection traces included.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ... import obs
from ...graphs.graph import DirectedEdge, NodeId
from ..faults import SyncFaultInjector
from ..plan import SyncPlan, compile_sync_plan
from .behavior import EdgeBehavior, NodeBehavior, SyncBehavior
from .device import NodeContext, SyncDevice
from .system import SyncSystem


class ExecutionError(RuntimeError):
    """Raised when a device misbehaves structurally (bad port label,
    changed decision, ...)."""


@dataclass
class _NodeRun:
    states: list[Any]
    decision: Any | None = None
    decided_at: int | None = None

    def observe_choice(
        self, device: SyncDevice, ctx: NodeContext, round_index: int, node: NodeId
    ) -> None:
        value = device.choose(ctx, self.states[-1])
        if value is None:
            return
        if self.decision is None:
            self.decision = value
            self.decided_at = round_index
        elif self.decision != value:
            raise ExecutionError(
                f"device at {node!r} changed its decision from "
                f"{self.decision!r} to {value!r} at round {round_index}"
            )


def init_runs(plan: SyncPlan) -> list[_NodeRun]:
    """Every node's initial state, with its round-0 decision observed."""
    runs = []
    for cn in plan.nodes:
        node_run = _NodeRun(states=[cn.device.init_state(cn.ctx)])
        runs.append(node_run)
        node_run.observe_choice(cn.device, cn.ctx, 0, cn.node)
    return runs


def touched_slots(
    plan: SyncPlan, injector: SyncFaultInjector | None
) -> list[tuple[tuple[int, DirectedEdge], ...]]:
    """Per node, the ``(slot, edge)`` pairs of its out-edges that the
    injector's plan touches, in routing order."""
    by_node: dict[NodeId, list] = {}
    if injector is not None:
        slots = plan.edge_slots
        for slot in sorted(slots[e] for e in injector.touched if e in slots):
            edge = plan.slot_edges[slot]
            by_node.setdefault(edge[0], []).append((slot, edge))
    return [tuple(by_node.get(cn.node, ())) for cn in plan.nodes]


def _reject_ports(cn, out) -> None:
    """Name the first label in ``out`` that is not one of the node's
    ports."""
    for label in out:
        if label not in cn.valid_ports:
            raise ExecutionError(
                f"device at {cn.node!r} sent on unknown port {label!r}"
            )


def advance(
    plan: SyncPlan,
    runs: list[_NodeRun],
    rows: list[list[Any]],
    injector: SyncFaultInjector | None,
    start: int,
    stop: int,
    record: Callable[[int, list[Any]], None] | None = None,
) -> None:
    """Run rounds ``start .. stop - 1``: the one synchronous round loop.

    ``runs`` holds each node's state history and ``rows`` each earlier
    round's message row; both grow by one entry per round.  The
    injector sees only the slots its plan touches, right after the
    sender's send and in routing order, so its trace (also the partial
    one a crashing device leaves) is the one a per-edge pass would
    write.  ``record(round_index, row)``, if given, runs after each
    round; the row is final by then and is never mutated again.
    """
    compiled = plan.nodes
    hits = touched_slots(plan, injector)
    deliver = injector.deliver if injector is not None else None

    # Telemetry is hoisted to one boolean per call; when off, its only
    # per-round cost below is this flag check.
    obs_on = obs.is_enabled()

    for round_index in range(start, stop):
        if obs_on:
            round_t0 = perf_counter()
            obs.emit(obs.ROUND_START, round=round_index)
            trace_mark = (
                len(injector.trace.records) if injector is not None else 0
            )

        # Phase 1: every node fills its slots of this round's row.
        row: list[Any] = []
        for cn, node_run, node_hits in zip(compiled, runs, hits):
            out = cn.device.send(cn.ctx, node_run.states[-1], round_index)
            if not cn.valid_ports.issuperset(out):
                _reject_ports(cn, out)
            row.extend(map(out.get, cn.out_labels))
            for slot, edge in node_hits:
                row[slot] = deliver(edge, round_index, row[slot])
        rows.append(row)

        if obs_on:
            fresh = (
                injector.trace.records[trace_mark:]
                if injector is not None else ()
            )
            emit_phase_events(plan, round_index, row, fresh)

        # Phase 2: every node consumes its inbox and moves.
        for cn, node_run in zip(compiled, runs):
            inbox = {label: row[slot] for label, slot in cn.in_slots}
            state = cn.device.transition(
                cn.ctx, node_run.states[-1], round_index, inbox
            )
            node_run.states.append(state)
            node_run.observe_choice(cn.device, cn.ctx, round_index + 1, cn.node)

        if obs_on:
            obs.emit(
                obs.ROUND_END,
                round=round_index,
                messages=len(row),
                injected=len(fresh),
            )
            obs.observe_span("executor.round", perf_counter() - round_t0)
        if record is not None:
            record(round_index, row)


def emit_phase_events(
    plan: SyncPlan, round_index: int, row: list[Any], records
) -> None:
    """One round's delivery and injection events.

    They are emitted in sorted-edge order, not routing order: routing
    follows the graph's neighbor lists, which graphs built from edge
    sets (``relabel``, say) fill in a hash-dependent order, so sorting
    by ``repr`` is what keeps the stream stable across interpreter
    processes (and identical for rounds the trie replays)."""
    slot_edges = plan.slot_edges
    for slot in sorted(range(len(row)), key=lambda s: repr(slot_edges[s])):
        edge = slot_edges[slot]
        obs.emit(
            obs.MESSAGE_DELIVERY,
            round=round_index,
            src=str(edge[0]),
            dst=str(edge[1]),
            empty=row[slot] is None,
        )
    for rec in sorted(records, key=lambda r: (repr(r.edge), r.action, r.time)):
        obs.emit(
            obs.FAULT_INJECTION,
            round=round_index,
            src=str(rec.edge[0]),
            dst=str(rec.edge[1]),
            action=rec.action,
            time=rec.time,
        )


def behavior_of(
    plan: SyncPlan, runs: list[_NodeRun], rows: list[list[Any]]
) -> SyncBehavior:
    """The system behavior of a finished run: node state histories,
    and each edge's column of the message rows (in ``plan.edges``
    order)."""
    columns = list(zip(*rows)) or [()] * len(plan.slot_edges)
    slots = plan.edge_slots
    return SyncBehavior(
        graph=plan.graph,
        rounds=len(rows),
        node_behaviors={
            cn.node: NodeBehavior(
                states=tuple(r.states),
                decision=r.decision,
                decided_at=r.decided_at,
            )
            for cn, r in zip(plan.nodes, runs)
        },
        edge_behaviors={
            edge: EdgeBehavior(columns[slots[edge]]) for edge in plan.edges
        },
    )


def execute_plan(
    plan: SyncPlan,
    rounds: int,
    injector: SyncFaultInjector | None = None,
) -> SyncBehavior:
    """Execute a compiled plan for ``rounds`` rounds.

    Executing the same plan twice yields equal behaviors (plans carry
    no per-run state).
    """
    if rounds < 0:
        raise ExecutionError("rounds must be non-negative")
    runs = init_runs(plan)
    rows: list[list[Any]] = []
    advance(plan, runs, rows, injector, 0, rounds)
    return behavior_of(plan, runs, rows)


def run(
    system: SyncSystem,
    rounds: int,
    injector: SyncFaultInjector | None = None,
) -> SyncBehavior:
    """Execute ``system`` for ``rounds`` rounds; return its behavior.

    Compiles the system to a :class:`~repro.runtime.plan.SyncPlan`
    (memoized on the system object, so repeated runs compile once) and
    executes it.  With an ``injector`` (see :mod:`repro.runtime.faults`)
    the message slots of the edges its plan touches pass through it
    between the send and receive phases; edge behaviors then record
    what the channel *delivered*, and the injector's trace records
    what it did.
    """
    return execute_plan(compile_sync_plan(system), rounds, injector)


def check_determinism(system: SyncSystem, rounds: int) -> bool:
    """Run the system twice — through one shared compiled plan — and
    compare traces.

    A ``True`` result is necessary (not sufficient) evidence that the
    devices are pure, i.e. that the system has the single behavior the
    paper's model demands.  Because both runs execute the *same*
    :class:`~repro.runtime.plan.SyncPlan`, this doubles as the plan
    layer's self-check: a plan that accumulated per-run state (or a
    compilation step that consulted mutable device state) would make
    the two executions diverge here.
    """
    plan = compile_sync_plan(system)
    first = execute_plan(plan, rounds)
    second = execute_plan(plan, rounds)
    return (
        dict(first.node_behaviors) == dict(second.node_behaviors)
        and dict(first.edge_behaviors) == dict(second.edge_behaviors)
    )

"""Compiled execution plans for both runtimes.

The interpretive executors resolve the same questions over and over:
*which device runs at node ``u``? what are its port labels? which edge
does its ``i``-th port feed? which clock does it read?*  None of the
answers change between rounds (or events) — they are fixed the moment
a :class:`~repro.runtime.sync.system.SyncSystem` or
:class:`~repro.runtime.timed.system.TimedSystem` is built.  This
module resolves them **once per system** into flat, precomputed
structures, so the executors' hot loops touch only local tuples and
dict lookups:

* :func:`compile_sync_plan` → :class:`SyncPlan`: per node, the device,
  its (single, shared) :class:`NodeContext`, the valid-port set for
  send validation, and its *slot tables*: a round's messages live in
  one flat row with a slot per directed edge, which the node fills in
  the send phase and reads its inbox from in the receive phase.
* :func:`compile_timed_plan` → :class:`TimedPlan`: per node, the
  context, hardware clock (plus its lazily computed inverse), the
  ``port label → neighbor`` map, and the global ``edge → receiver
  port`` table.

Plans are pure *data*; execution stays in the executors
(:func:`repro.runtime.sync.executor.execute_plan` runs a
:class:`SyncPlan`, and the timed ``_Run`` reads a :class:`TimedPlan`).
A plan never caches per-run state — timed device *instances* in
particular are still created fresh for every run — so executing the
same plan twice yields the same behavior, byte for byte, exactly as
re-running the system did before compilation existed.

Compilation is memoized on the system instance itself (systems are
frozen; the plan is stashed in ``__dict__`` the same way
``functools.cached_property`` does), so repeated ``run()`` calls on
one system — the campaign shrinker's bread and butter — compile once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping

from ..graphs.graph import DirectedEdge, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .sync.behavior import SyncBehavior
    from .sync.device import NodeContext, PortLabel, SyncDevice
    from .sync.system import SyncSystem
    from .timed.clocks import ClockFunction
    from .timed.device import TimedContext
    from .timed.system import TimedSystem
    from .faults import SyncFaultInjector

_SYNC_PLAN_ATTR = "_compiled_sync_plan"
_TIMED_PLAN_ATTR = "_compiled_timed_plan"


# -- synchronous plans -----------------------------------------------------


@dataclass(frozen=True)
class CompiledSyncNode:
    """Everything the round loop needs about one node, pre-resolved.

    A round's messages form one flat *row*, one slot per directed
    edge.  Slots are laid out in routing order — node by node in graph
    order, each node's out-edges in neighbor order (the order the
    interpretive executor visited) — so a node's send fills a
    contiguous block of the row: ``out_labels`` is the port label of
    each of its out-edges, in slot order.  ``in_slots`` lists ``(port
    label at this node, slot of the inedge)`` in in-neighbor order, so
    the inbox dict is built with identical keys and insertion order.
    """

    node: NodeId
    device: "SyncDevice"
    ctx: "NodeContext"
    valid_ports: frozenset
    out_labels: tuple[Any, ...]
    in_slots: tuple[tuple[Any, int], ...]


@dataclass(frozen=True)
class SyncPlan:
    """A compiled synchronous system: flat per-node tables plus the
    slot layout of a round's message row.  ``edges`` keeps the graph's
    edge order (the order of a behavior's edge map); ``slot_edges`` is
    the edge of each slot and ``edge_slots`` its inverse."""

    system: "SyncSystem"
    nodes: tuple[CompiledSyncNode, ...]
    edges: tuple[DirectedEdge, ...]
    slot_edges: tuple[DirectedEdge, ...]
    edge_slots: Mapping[DirectedEdge, int]

    @property
    def graph(self):
        return self.system.graph

    def run(
        self, rounds: int, injector: "SyncFaultInjector | None" = None
    ) -> "SyncBehavior":
        """Execute this plan (delegates to the synchronous executor)."""
        from .sync.executor import execute_plan

        return execute_plan(self, rounds, injector)


def _slot_layout(graph) -> tuple[tuple[DirectedEdge, ...], dict]:
    """The graph-only part of every plan on ``graph``: the edge of each
    slot, in routing order, and its inverse.  Computed once per graph
    (graphs are immutable; see ``analytics_cache``)."""
    cache = graph.analytics_cache()
    layout = cache.get("sync_slots")
    if layout is None:
        slot_edges = tuple(
            (u, v) for u in graph.nodes for v in graph.neighbors(u)
        )
        layout = (slot_edges, {e: s for s, e in enumerate(slot_edges)})
        cache["sync_slots"] = layout
    return layout


def compile_sync_plan(system: "SyncSystem") -> SyncPlan:
    """Compile (and memoize on the system) a :class:`SyncPlan`.

    The same system object always returns the same plan object; systems
    derived via ``with_devices`` / ``with_inputs`` are new objects and
    compile their own plans.
    """
    cached = system.__dict__.get(_SYNC_PLAN_ATTR)
    if cached is not None:
        return cached
    graph = system.graph
    slot_edges, edge_slots = _slot_layout(graph)
    compiled = []
    for u in graph.nodes:
        assignment = system.assignments[u]
        ctx = assignment.context()
        ports = assignment.port_of_neighbor
        compiled.append(
            CompiledSyncNode(
                node=u,
                device=assignment.device,
                ctx=ctx,
                valid_ports=frozenset(ctx.ports),
                out_labels=tuple(ports[v] for v in graph.neighbors(u)),
                in_slots=tuple(
                    (ports[v], edge_slots[(v, u)])
                    for v in graph.in_neighbors(u)
                ),
            )
        )
    plan = SyncPlan(
        system=system,
        nodes=tuple(compiled),
        edges=tuple(graph.edges),
        slot_edges=slot_edges,
        edge_slots=edge_slots,
    )
    # Frozen dataclasses forbid setattr; writing through __dict__ is the
    # same trick functools.cached_property uses.
    system.__dict__[_SYNC_PLAN_ATTR] = plan
    return plan


# -- timed plans -----------------------------------------------------------


@dataclass(frozen=True)
class CompiledTimedNode:
    """Per-node tables for the discrete-event loop: the context and
    clock are resolved once instead of once per event."""

    node: NodeId
    rank: int
    ctx: "TimedContext"
    clock: "ClockFunction"
    neighbor_of_port: Mapping

    @cached_property
    def clock_inverse(self) -> "ClockFunction":
        """The clock's functional inverse, computed on first use (some
        exotic clocks may not implement ``inverse`` and are only an
        error if a device actually sets a timer through them)."""
        return self.clock.inverse()


@dataclass(frozen=True)
class TimedPlan:
    """A compiled timed system: per-node tables plus the global
    ``directed edge → receiver port`` map (``(u, v) → v``'s label for
    ``u``), which the interpretive executor re-derived on every send."""

    system: "TimedSystem"
    by_node: Mapping[NodeId, CompiledTimedNode]
    receiver_port: Mapping[DirectedEdge, Any]

    @property
    def graph(self):
        return self.system.graph


def compile_timed_plan(system: "TimedSystem") -> TimedPlan:
    """Compile (and memoize on the system) a :class:`TimedPlan`.

    Device *factories* are deliberately not called here: timed device
    instances are stateful per run and must stay per-run.
    """
    cached = system.__dict__.get(_TIMED_PLAN_ATTR)
    if cached is not None:
        return cached
    graph = system.graph
    by_node = {}
    receiver_port: dict[DirectedEdge, Any] = {}
    for rank, u in enumerate(graph.nodes):
        assignment = system.assignments[u]
        by_node[u] = CompiledTimedNode(
            node=u,
            rank=rank,
            ctx=assignment.context(),
            clock=assignment.clock,
            neighbor_of_port=dict(assignment.neighbor_of_port),
        )
        for v in graph.in_neighbors(u):
            receiver_port[(v, u)] = assignment.port_of_neighbor[v]
    plan = TimedPlan(
        system=system, by_node=by_node, receiver_port=receiver_port
    )
    system.__dict__[_TIMED_PLAN_ATTR] = plan
    return plan


__all__ = [
    "CompiledSyncNode",
    "CompiledTimedNode",
    "SyncPlan",
    "TimedPlan",
    "compile_sync_plan",
    "compile_timed_plan",
]

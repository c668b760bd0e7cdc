"""Parameter sweeps around the paper's thresholds.

The headline experiments: sweep ``n`` (or the connectivity ``κ``)
across the ``3f + 1`` (or ``2f + 1``) boundary, running a matching
protocol on the adequate side and the impossibility engine on the
inadequate side.  The result rows show the sharp threshold the paper
proves — protocol success at exactly ``3f + 1`` / ``2f + 1`` and an
engine-constructed counterexample one step below.

Sweep points are independent deterministic runs, so both sweeps take
``jobs=N`` to fan points across a process pool
(:class:`~repro.analysis.parallel.ParallelRunner`); rows are merged in
point order, so parallel output is identical to serial.  Both sweeps
also accept a run-store shard (``store=``; see
:func:`sweep_store_key`): completed points are journaled as they merge
and an interrupted sweep resumes from the first unfinished point with
byte-identical rows and traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .. import obs
from ..runtime.memo import json_fingerprint
from .parallel import ParallelRunner
from .runstore import Shard, journaled_map

from ..core.byzantine import refute_connectivity, refute_node_bound
from ..graphs.adequacy import classify
from ..graphs.builders import circulant, complete_graph
from ..graphs.connectivity import node_connectivity
from ..graphs.graph import CommunicationGraph
from ..problems.byzantine import ByzantineAgreementSpec
from ..protocols.eig import eig_devices
from ..protocols.naive import MajorityVoteDevice
from ..runtime.sync.adversary import RandomLiarDevice
from ..runtime.sync.executor import run
from ..runtime.sync.system import make_system

_SPEC = ByzantineAgreementSpec()


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: a graph size/shape against a fault budget."""

    n_nodes: int
    connectivity: int
    max_faults: int
    adequate: bool
    outcome: str
    detail: str

    def as_tuple(self) -> tuple[Any, ...]:
        return (
            self.n_nodes,
            self.connectivity,
            self.max_faults,
            self.adequate,
            self.outcome,
            self.detail,
        )


def _run_protocol_point(
    graph: CommunicationGraph, max_faults: int, seed: int = 0
) -> SweepRow:
    """Adequate point: run EIG under a Byzantine liar adversary."""
    devices = dict(eig_devices(graph, max_faults))
    nodes = list(graph.nodes)
    faulty = nodes[-max_faults:] if max_faults else []
    for i, node in enumerate(faulty):
        devices[node] = RandomLiarDevice(seed + i)
    inputs = {u: (1 if i % 2 else 0) for i, u in enumerate(nodes)}
    behavior = run(make_system(graph, devices, inputs), max_faults + 1)
    correct = [u for u in nodes if u not in faulty]
    verdict = _SPEC.check(inputs, behavior.decisions(), correct)
    report = classify(graph, max_faults)
    return SweepRow(
        n_nodes=len(graph),
        connectivity=report.connectivity,
        max_faults=max_faults,
        adequate=report.adequate,
        outcome="protocol SOLVED" if verdict.ok else "protocol FAILED",
        detail=(
            f"EIG, {max_faults + 1} rounds, {len(faulty)} Byzantine"
            if verdict.ok
            else verdict.describe()
        ),
    )


def _run_engine_point(
    graph: CommunicationGraph, max_faults: int, by: str, rounds: int = 4
) -> SweepRow:
    """Inadequate point: the engine constructs the counterexample."""
    devices = {u: MajorityVoteDevice() for u in graph.nodes}
    if by == "nodes":
        witness = refute_node_bound(
            graph, devices, max_faults, rounds, require_violation=False
        )
    else:
        witness = refute_connectivity(
            graph, devices, max_faults, rounds, require_violation=False
        )
    report = classify(graph, max_faults)
    violated = witness.violated
    conditions = sorted(
        {v.condition for c in violated for v in c.verdict.violations}
    )
    return SweepRow(
        n_nodes=len(graph),
        connectivity=report.connectivity,
        max_faults=max_faults,
        adequate=report.adequate,
        outcome="IMPOSSIBLE (witness found)" if violated else "no witness!?",
        detail=(
            f"violated {'/'.join(conditions)} in "
            f"{', '.join(c.label for c in violated)}"
        ),
    )


def sweep_store_key(
    dimension: str, faults: "int | list[int] | tuple[int, ...]",
    n_nodes: int = 8,
) -> str:
    """Content fingerprint naming a sweep's run-store shard.

    Covers the sweep dimension and the knobs that determine its point
    list (``faults`` is the value list for the node sweep, a single
    budget for the connectivity sweep), so one store directory can hold
    checkpoints for many sweeps.
    """
    if isinstance(faults, tuple):
        faults = list(faults)
    return json_fingerprint(
        {
            "kind": "sweep",
            "dimension": dimension,
            "faults": faults,
            "n_nodes": n_nodes,
        }
    )


def _row_to_jsonable(row: SweepRow) -> dict[str, Any]:
    return {
        "n_nodes": row.n_nodes,
        "connectivity": row.connectivity,
        "max_faults": row.max_faults,
        "adequate": row.adequate,
        "outcome": row.outcome,
        "detail": row.detail,
    }


def _row_from_jsonable(data: dict[str, Any]) -> SweepRow:
    return SweepRow(**data)


def _node_bound_point(point: tuple[int, int]) -> SweepRow:
    """Evaluate one (f, n) point (module-level: picklable by name)."""
    f, n = point
    graph = complete_graph(n)
    if n <= 3 * f:
        row = _run_engine_point(graph, f, by="nodes")
    else:
        row = _run_protocol_point(graph, f)
    _emit_sweep_point("node-bound", row)
    return row


def node_bound_sweep(
    max_faults_values: tuple[int, ...] = (1, 2),
    jobs: int = 1,
    store: Shard | None = None,
) -> list[SweepRow]:
    """Sweep ``n`` across ``3f + 1`` on complete graphs (TIGHT-N)."""
    if any(f < 1 for f in max_faults_values):
        # f = 0 would give an empty n-range and silently drop its rows.
        raise ValueError("the fault bound f must be at least 1")
    points = [
        (f, n)
        for f in max_faults_values
        for n in range(3, 3 * f + 3)
    ]
    return journaled_map(
        ParallelRunner(jobs),
        _node_bound_point,
        points,
        store,
        key_fn=lambda point: f"point:{point!r}",
        encode=_row_to_jsonable,
        decode=_row_from_jsonable,
    )


def _connectivity_point(point: tuple[tuple[int, ...], int, int]) -> SweepRow:
    """Evaluate one (offsets, f, n) circulant point."""
    offsets, max_faults, n_nodes = point
    graph = circulant(n_nodes, list(offsets))
    kappa = node_connectivity(graph)
    if kappa < 2 * max_faults + 1:
        row = _run_engine_point(graph, max_faults, by="connectivity")
    else:
        # Adequate by connectivity; for a full protocol run we also
        # need n >= 3f+1, which holds here.
        row = _relay_point(graph, max_faults)
    _emit_sweep_point("connectivity", row)
    return row


def _emit_sweep_point(sweep: str, row: SweepRow) -> None:
    obs.emit(
        obs.SWEEP_POINT,
        sweep=sweep,
        n=row.n_nodes,
        connectivity=row.connectivity,
        f=row.max_faults,
        adequate=row.adequate,
        outcome=row.outcome,
    )


def connectivity_sweep(
    max_faults: int = 1,
    n_nodes: int = 8,
    jobs: int = 1,
    store: Shard | None = None,
) -> list[SweepRow]:
    """Sweep connectivity across ``2f + 1`` on circulant graphs
    (TIGHT-K).  Circulants with offsets ``1..k`` have connectivity
    ``2k``; adding the half-way chord raises it further."""
    points = [
        ((1,), max_faults, n_nodes),
        ((1, 2), max_faults, n_nodes),
        ((1, 2, 3), max_faults, n_nodes),
    ]
    return journaled_map(
        ParallelRunner(jobs),
        _connectivity_point,
        points,
        store,
        key_fn=lambda point: f"point:{point!r}",
        encode=_row_to_jsonable,
        decode=_row_from_jsonable,
    )


def _relay_point(graph: CommunicationGraph, max_faults: int) -> SweepRow:
    from ..protocols.dolev_relay import relay_devices, transmission_rounds

    nodes = list(graph.nodes)
    source, target = nodes[0], nodes[len(nodes) // 2]
    devices = dict(relay_devices(graph, source, target, max_faults))
    intermediaries = [u for u in nodes if u not in (source, target)]
    for i in range(max_faults):
        devices[intermediaries[i]] = RandomLiarDevice(31 + i)
    inputs = {u: ("MSG" if u == source else None) for u in nodes}
    rounds = transmission_rounds(graph, source, target, max_faults) + 1
    behavior = run(make_system(graph, devices, inputs), rounds)
    delivered = behavior.decision(target)
    report = classify(graph, max_faults)
    ok = delivered == "MSG"
    return SweepRow(
        n_nodes=len(graph),
        connectivity=report.connectivity,
        max_faults=max_faults,
        adequate=report.adequate,
        outcome="relay DELIVERED" if ok else "relay CORRUPTED",
        detail=f"{source}->{target} over 2f+1 disjoint paths",
    )


SWEEP_HEADERS = ("n", "κ", "f", "adequate", "outcome", "detail")

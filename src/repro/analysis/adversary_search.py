"""Randomized adversary search: attack a protocol empirically.

The engines *construct* counterexamples on inadequate graphs; on
adequate graphs the theorems are silent, and the natural question is
"can some adversary still break this implementation?".  This harness
searches randomized Byzantine strategies — seeded liars, two-faced
splits, replayed message scripts, crash times — against a protocol
configuration and reports the first specification violation found (or
that the budget survived).

Useful both as a testing tool for new protocols and as an empirical
companion to the bounds: the search breaks every naive device on
adequate graphs quickly, yet exhausts its budget against EIG.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from .. import obs
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.byzantine import ByzantineAgreementSpec
from ..problems.spec import SpecVerdict
from ..runtime.sync.adversary import (
    CrashDevice,
    RandomLiarDevice,
    ReplayDevice,
    SilentDevice,
    TwoFacedDevice,
)
from ..runtime.sync.device import SyncDevice
from ..runtime.sync.executor import run
from ..runtime.sync.system import make_system
from .parallel import ParallelRunner
from .runstore import journaled_map


@dataclass(frozen=True)
class Attack:
    """One adversarial configuration: faulty nodes, their strategies,
    and the input assignment."""

    faulty: Mapping[NodeId, str]
    inputs: Mapping[NodeId, Any]
    seed: int


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an adversary search."""

    attempts: int
    broken: bool
    attack: Attack | None
    verdict: SpecVerdict | None

    def describe(self) -> str:
        if not self.broken:
            return f"protocol survived {self.attempts} randomized attacks"
        assert self.attack is not None and self.verdict is not None
        strategies = ", ".join(
            f"{node}={kind}" for node, kind in self.attack.faulty.items()
        )
        return (
            f"broken after {self.attempts} attacks by [{strategies}] with "
            f"inputs {dict(self.attack.inputs)}: {self.verdict.describe()}"
        )


STRATEGIES = ("silent", "liar", "crash", "replay", "two-faced")


def build_adversary(
    kind: str,
    node: NodeId,
    honest: SyncDevice,
    graph: CommunicationGraph,
    rounds: int,
    rng: random.Random,
    value_pool: Sequence[Any],
) -> SyncDevice:
    """Build one faulty device of the named strategy ``kind``, drawing
    any randomness from ``rng`` (deterministic given the rng state).
    Shared with the campaign engine (:mod:`repro.analysis.campaign`)."""
    if kind == "silent":
        return SilentDevice()
    if kind == "liar":
        return RandomLiarDevice(rng.randrange(2**30), value_pool)
    if kind == "crash":
        return CrashDevice(honest, crash_round=rng.randrange(rounds + 1))
    if kind == "replay":
        return ReplayDevice(
            {
                neighbor: [rng.choice(value_pool) for _ in range(rounds)]
                for neighbor in graph.neighbors(node)
            }
        )
    if kind == "two-faced":
        neighbors = list(graph.neighbors(node))
        rng.shuffle(neighbors)
        half = neighbors[: max(1, len(neighbors) // 2)]
        return TwoFacedDevice(honest, honest, half)
    raise ValueError(kind)


def _attack_attempt(
    graph: CommunicationGraph,
    device_factory: Callable[[CommunicationGraph], Mapping[NodeId, SyncDevice]],
    max_faults: int,
    rounds: int,
    value_pool: Sequence[Any],
    spec: ByzantineAgreementSpec,
    rng: random.Random,
) -> tuple[Mapping[NodeId, str], Mapping[NodeId, Any], Any]:
    """One attack attempt drawn from ``rng``; returns the strategy map,
    the inputs, and the spec verdict."""
    nodes = list(graph.nodes)
    honest = dict(device_factory(graph))
    faulty_nodes = rng.sample(nodes, max_faults)
    strategies: dict[NodeId, str] = {}
    devices = dict(honest)
    for node in faulty_nodes:
        kind = rng.choice(STRATEGIES)
        strategies[node] = kind
        devices[node] = build_adversary(
            kind, node, honest[node], graph, rounds, rng, value_pool
        )
    inputs = {u: rng.choice(value_pool) for u in nodes}
    behavior = run(make_system(graph, devices, inputs), rounds)
    correct = [u for u in nodes if u not in strategies]
    verdict = spec.check(inputs, behavior.decisions(), correct)
    return (strategies, inputs, verdict)


def search_agreement_attacks(
    graph: CommunicationGraph,
    device_factory: Callable[[CommunicationGraph], Mapping[NodeId, SyncDevice]],
    max_faults: int,
    rounds: int,
    attempts: int = 200,
    seed: int = 0,
    value_pool: Sequence[Any] = (0, 1),
    spec: ByzantineAgreementSpec | None = None,
    jobs: int | None = None,
) -> SearchResult:
    """Randomly attack a Byzantine-agreement protocol.

    ``device_factory(graph)`` builds a fresh honest device assignment;
    each attempt replaces a random ``f``-subset with random strategies
    and random inputs, runs, and checks the spec over correct nodes.

    ``jobs=None`` (the default) keeps the historical sampling format:
    one rng stream threaded through all attempts.  Any integer ``jobs``
    switches to *indexed* sampling — a private stream per attempt,
    seeded by ``(seed, attempt)`` — which is what lets attempts fan out
    across a process pool.  Both scan through
    :func:`~repro.analysis.runstore.journaled_map` up to the first
    violation.  Indexed results are identical for every ``jobs`` value
    (``jobs=1`` runs the same samples serially); they just differ from
    the legacy stream's draws.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    spec = spec or ByzantineAgreementSpec()

    stream = random.Random(seed)  # the legacy format's shared stream

    def probe(attempt: int):
        rng = (
            stream if jobs is None
            else random.Random(f"{seed}:attack:{attempt}")
        )
        return _attack_attempt(
            graph, device_factory, max_faults, rounds, value_pool, spec, rng
        )

    outcomes = journaled_map(
        ParallelRunner(1 if jobs is None else jobs),
        probe,
        range(1, attempts + 1),
        stop=lambda outcome: not outcome[2].ok,
        begin=lambda attempt: obs.emit(obs.ATTEMPT_START, attempt=attempt),
        end=lambda attempt, outcome: obs.emit(
            obs.ATTEMPT_END, attempt=attempt, ok=outcome[2].ok
        ),
    )
    if outcomes and not outcomes[-1][2].ok:
        strategies, inputs, verdict = outcomes[-1]
        return SearchResult(
            attempts=len(outcomes),
            broken=True,
            attack=Attack(faulty=strategies, inputs=inputs, seed=seed),
            verdict=verdict,
        )
    return SearchResult(
        attempts=attempts, broken=False, attack=None, verdict=None
    )

"""Differential tests: the flat-row round loop against the interpretive
oracle (``repro.testing.reference_sync_run``).

Every path through the loop — ``run``, ``bare_execute_plan`` and the
execution trie, fresh or resuming a shared prefix — must produce the
oracle's behavior and injection trace on random graphs (identity and
shuffled port labels, covering installs), under random fault plans
(partitions, delays past the horizon, corruption, omissions, coins
with probability < 1).  A device that raises mid-round must leave the
same partial trace, and with telemetry on, the run-scope event stream
must be the one the oracle's behavior and trace imply.
"""

import math
import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graphs import CommunicationGraph
from repro.graphs.coverings import hexagon_cover_of_triangle, ring_cover_of_triangle
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultPlan,
    LinkFault,
    Partition,
    SyncFaultInjector,
)
from repro.runtime.incremental import ExecutionTrie
from repro.runtime.plan import compile_sync_plan
from repro.runtime.sync.device import FunctionDevice
from repro.runtime.sync.executor import execute_plan, run
from repro.runtime.sync.system import (
    NodeAssignment,
    SyncSystem,
    install_in_covering,
)
from repro.testing import bare_execute_plan, reference_sync_run

SEEDS = st.integers(0, 2**32 - 1)


def _crc(value) -> int:
    return zlib.crc32(repr(value).encode())


def _gossip(salt, crash_at=None):
    """Sends small values on a state-dependent subset of its ports,
    folds its inbox *in insertion order* into its state, and decides
    once.  With ``crash_at``, its send raises in that round."""

    def init(ctx):
        return (_crc((salt, ctx.input)), None)

    def send(ctx, state, r):
        if r == crash_at:
            raise RuntimeError(f"device {salt} crashed in round {r}")
        h = state[0]
        return {p: (h + i) % 5 for i, p in enumerate(ctx.ports) if (h >> i) % 3}

    def transition(ctx, state, r, inbox):
        h, decided = state
        h = _crc((h, r, tuple(inbox.items())))
        if decided is None and h % 4 == 0:
            decided = h % 2
        return (h, decided)

    return FunctionDevice(init, send, transition, lambda ctx, state: state[1])


def _system(rng: random.Random, crash=False) -> SyncSystem:
    """A random system: a random graph with identity or shuffled port
    labels, or base devices installed in a covering of the triangle."""
    shape = rng.choice(["graph", "graph", "relabeled", "covering"])
    if shape == "covering":
        covering = rng.choice(
            [hexagon_cover_of_triangle(), ring_cover_of_triangle(9)]
        )
        system = install_in_covering(
            covering,
            {w: _gossip(w) for w in covering.base.nodes},
            {u: rng.randrange(2) for u in covering.cover.nodes},
        )
    else:
        n = rng.randrange(2, 7)
        nodes = (
            [f"n{i}" for i in range(n)] if rng.random() < 0.5 else list(range(n))
        )
        graph = CommunicationGraph(
            nodes,
            [
                (a, b)
                for i, a in enumerate(nodes)
                for b in nodes[i + 1:]
                if rng.random() < 0.6
            ],
        )
        assignments = {}
        for u in graph.nodes:
            neighbors = list(graph.neighbors(u))
            labels = list(neighbors)
            if shape == "relabeled":
                labels = [f"p{k}" for k in range(len(neighbors))]
                rng.shuffle(labels)
            assignments[u] = NodeAssignment(
                device=_gossip(u),
                input=rng.randrange(2),
                port_of_neighbor=dict(zip(neighbors, labels)),
            )
        system = SyncSystem(graph, assignments)
    if crash:
        victim = rng.choice(system.graph.nodes)
        system = system.with_devices(
            {victim: _gossip(victim, crash_at=rng.randrange(3))}
        )
    return system


def _fault_plan(rng: random.Random, graph, rounds: int) -> FaultPlan:
    edges = sorted(graph.edges, key=repr)
    link_faults = []
    for _ in range(rng.randrange(6) if edges else 0):
        kind = rng.choice(FAULT_KINDS)
        start = rng.randrange(rounds + 2)
        period = rng.randrange(1, 4)
        link_faults.append(
            LinkFault(
                edge=rng.choice(edges),
                kind=kind,
                start=start,
                end=rng.choice([math.inf, start + rng.randrange(4)]),
                # Up to two rounds past the horizon: lost in flight.
                delay=rng.randrange(1, rounds + 3),
                burst=rng.randrange(1, period + 1),
                period=period,
                probability=rng.choice([1.0, 1.0, 0.5, 0.25]),
            )
        )
    partitions = []
    for _ in range(rng.randrange(3) if edges else 0):
        cut = {e for e in edges if rng.random() < 0.3}
        if rng.random() < 0.2:
            cut.add(("ghost", edges[0][0]))  # not an edge: never fires
        start = rng.randrange(rounds + 1)
        partitions.append(
            Partition(
                edges=frozenset(cut),
                start=start,
                end=rng.choice([math.inf, start + rng.randrange(1, 3)]),
            )
        )
    return FaultPlan(
        link_faults=tuple(link_faults),
        partitions=tuple(partitions),
        seed=rng.randrange(100),
        corrupt_pool=rng.choice([(0, 1), (0, 1, 2, "x"), (3,)]),
    )


def _oracle(system, rounds, fault_plan):
    injector = SyncFaultInjector(fault_plan)
    return reference_sync_run(system, rounds, injector), injector.trace


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_every_path_matches_the_oracle(seed):
    rng = random.Random(seed)
    system = _system(rng)
    rounds = rng.randrange(6)
    fault_plan = _fault_plan(rng, system.graph, rounds)
    behavior, trace = _oracle(system, rounds, fault_plan)
    plan = compile_sync_plan(system)

    injector = SyncFaultInjector(fault_plan)
    assert run(system, rounds, injector) == behavior
    assert injector.trace == trace

    injector = SyncFaultInjector(fault_plan)
    assert bare_execute_plan(plan, rounds, injector) == behavior
    assert injector.trace == trace

    trie_behavior, trie_trace = ExecutionTrie(plan).execute(fault_plan, rounds)
    assert trie_behavior == behavior
    assert trie_trace == trace
    assert list(trie_behavior.edge_behaviors) == list(plan.edges)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_crash_mid_round_leaves_the_same_partial_trace(seed):
    rng = random.Random(seed)
    system = _system(rng, crash=True)
    rounds = rng.randrange(1, 5)
    fault_plan = _fault_plan(rng, system.graph, rounds)
    plan = compile_sync_plan(system)

    def partial(execute):
        injector = SyncFaultInjector(fault_plan)
        try:
            execute(injector)
        except RuntimeError as exc:
            return str(exc), injector.trace.records
        return None, injector.trace.records

    expected = partial(lambda inj: reference_sync_run(system, rounds, inj))
    assert partial(lambda inj: execute_plan(plan, rounds, inj)) == expected
    assert partial(lambda inj: bare_execute_plan(plan, rounds, inj)) == expected

    staged = ExecutionTrie(plan).prepare(fault_plan, rounds)
    try:
        staged.execute()
        error = None
    except RuntimeError as exc:
        error = str(exc)
    assert (error, staged.trace.records) == expected


def _variants(rng, base: FaultPlan, graph, rounds):
    """Plans sharing prefixes with ``base``: atoms deleted (a shrink
    ladder), late faults added, and unrelated plans."""
    plans = [base]
    for _ in range(rng.randrange(2, 7)):
        move = rng.choice(["delete", "late", "fresh"])
        if move == "delete" and base.size:
            doomed = rng.sample(range(base.size), rng.randrange(1, base.size + 1))
            plans.append(base.without_atoms(doomed))
        elif move == "late" and graph.edges:
            late = LinkFault(
                edge=rng.choice(sorted(graph.edges, key=repr)),
                kind=rng.choice(FAULT_KINDS),
                start=rng.randrange(max(rounds, 1)),
            )
            plans.append(
                FaultPlan(
                    link_faults=base.link_faults + (late,),
                    partitions=base.partitions,
                    seed=base.seed,
                    corrupt_pool=base.corrupt_pool,
                )
            )
        else:
            plans.append(_fault_plan(rng, graph, rounds))
        plans.append(rng.choice(plans))  # exact repeats replay fully
    return plans


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_shared_trie_sequences_equal_plain_runs(seed):
    rng = random.Random(seed)
    system = _system(rng)
    rounds = rng.randrange(1, 6)
    plan = compile_sync_plan(system)
    trie = ExecutionTrie(plan)
    base = _fault_plan(rng, system.graph, rounds)
    for fault_plan in _variants(rng, base, system.graph, rounds):
        behavior, trace = trie.execute(fault_plan, rounds)
        injector = SyncFaultInjector(fault_plan)
        assert behavior == execute_plan(plan, rounds, injector)
        assert trace == injector.trace
        assert (behavior, trace) == _oracle(system, rounds, fault_plan)
    assert trie.rounds_replayed + trie.rounds_executed == trie.runs * rounds


def _implied_events(system, rounds, fault_plan):
    """The run-scope events a round loop must emit, derived from the
    oracle's behavior and trace alone."""
    behavior, trace = _oracle(system, rounds, fault_plan)
    edges = sorted(system.graph.edges, key=repr)
    events = []
    for r in range(rounds):
        events.append((obs.ROUND_START, (("round", r),)))
        for u, v in edges:
            message = behavior.edge_behaviors[(u, v)].messages[r]
            events.append((obs.MESSAGE_DELIVERY, tuple(sorted({
                "round": r, "src": str(u), "dst": str(v),
                "empty": message is None,
            }.items()))))
        fired = sorted(
            (rec for rec in trace.records if rec.time == r),
            key=lambda rec: (repr(rec.edge), rec.action, rec.time),
        )
        for rec in fired:
            events.append((obs.FAULT_INJECTION, tuple(sorted({
                "round": r, "src": str(rec.edge[0]), "dst": str(rec.edge[1]),
                "action": rec.action, "time": rec.time,
            }.items()))))
        events.append((obs.ROUND_END, tuple(sorted({
            "round": r, "messages": len(edges), "injected": len(fired),
        }.items()))))
    return events


def _recorded(execute):
    obs.enable()
    try:
        execute()
        return [
            (e.kind, tuple(sorted(e.fields)))
            for e in obs.get_log().events("run")
        ]
    finally:
        obs.reset()


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_telemetry_streams_match_across_paths(seed):
    obs.reset()
    rng = random.Random(seed)
    system = _system(rng)
    rounds = rng.randrange(1, 5)
    fault_plan = _fault_plan(rng, system.graph, rounds)
    other = _fault_plan(rng, system.graph, rounds)
    plan = compile_sync_plan(system)
    expected = _implied_events(system, rounds, fault_plan)

    plain = _recorded(
        lambda: execute_plan(plan, rounds, SyncFaultInjector(fault_plan))
    )
    assert plain == expected

    trie = ExecutionTrie(plan)
    trie.execute(other, rounds)  # a prefix the next run may replay
    assert _recorded(lambda: trie.execute(fault_plan, rounds)) == expected
    # A full replay synthesizes every round from stored deltas.
    assert _recorded(lambda: trie.execute(fault_plan, rounds)) == expected
    assert not obs.is_enabled()

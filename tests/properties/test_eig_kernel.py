"""Differential tests: the compiled EIG path space (``EIGDevice``)
against the dict-tree oracle (``repro.testing.ReferenceEIGDevice``).

Both device families run the same systems — same graph, inputs, port
labels and faulty devices — and must agree on every decision, every
``decided_at`` and every message on every edge (compared by ``repr``,
so ``1`` and ``True`` count as different), or raise the same error.
Faults include well-formed payloads outside the compiled space, which
switch the compiled device to the dict tree mid-run, and malformed
ones, which both devices ignore.
"""

import pickle
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CommunicationGraph, complete_graph
from repro.protocols import EIGDevice, eig_devices
from repro.runtime.sync import (
    CrashDevice,
    DelayedEchoDevice,
    NodeContext,
    RandomLiarDevice,
    ReplayDevice,
    SilentDevice,
    TwoFacedDevice,
    make_system,
    run,
)
from repro.runtime.sync.system import NodeAssignment, SyncSystem
from repro.testing import ReferenceEIGDevice

VALUES = (0, 1, True, 2, None, "v")
FAULTS = (
    "silent", "liar", "crash", "replay", "two-faced", "echo", "impostor",
    "ghost-id", "duplicate", "wrong-level", "list-path", "list-entry",
    "repeated-id", "unhashable-value", "unhashable-id", "bool-id",
)
JUNK = FAULTS[7:]


def _graph(n: int, ids: str) -> CommunicationGraph:
    if ids == "str":
        return complete_graph(n)
    nodes = list(range(n)) if ids == "int" else [1, "1", *range(2, n)]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    return CommunicationGraph(nodes, edges)


def _junk(kind, roster, level, rng):
    """One payload of fault ``kind`` for round ``level``."""
    valid = list(permutations(roster, level))
    entries = tuple(
        (path, rng.choice(VALUES))
        for path in rng.sample(valid, min(3, len(valid)))
    )
    head = entries[0][0]
    if kind == "ghost-id" and level:
        return entries + ((head[:-1] + ("ghost",), 1),)
    if kind == "duplicate":
        return entries + ((head, rng.choice(VALUES)),)
    if kind == "wrong-level":
        return entries + ((tuple(roster[: level + 1]), 1),)
    if kind == "list-path":
        return entries + ((list(head), 1),)
    if kind == "list-entry":
        return entries + ([head, 1],)
    if kind == "repeated-id" and level >= 2:
        return entries + (((head[0],) * level, 1),)
    if kind == "unhashable-value":
        return ((head, [1]),) + entries[1:]
    if kind == "unhashable-id" and level:
        return entries + ((([0],) + head[1:], 1),)
    if kind == "bool-id" and level and 1 in roster:
        # Equal to a roster path, but not the same on the wire.
        others = tuple(x for x in roster if x != 1)
        return entries + (((True,) + others[: level - 1], 0),)
    return entries


def _faulty(kind, node, honest, roster, rounds, rng):
    """A faulty device; ``honest`` is this node's device of the family
    under test."""
    peers = [u for u in roster if u != node]
    if kind == "silent":
        return SilentDevice()
    if kind == "liar":
        return RandomLiarDevice(rng.randrange(2**20), VALUES)
    if kind == "crash":
        return CrashDevice(honest, crash_round=rng.randrange(rounds + 1))
    if kind == "replay":
        return ReplayDevice(
            {p: [rng.choice(VALUES) for _ in range(rounds)] for p in peers}
        )
    if kind == "two-faced":
        return TwoFacedDevice(honest, honest, rng.sample(peers, len(peers) // 2))
    if kind == "echo":
        return DelayedEchoDevice()
    if kind == "impostor":  # runs a peer's honest device under its own id
        return type(honest)(rng.choice(peers), roster, rounds - 1)
    return ReplayDevice(
        {
            p: [_junk(kind, roster, r, rng) for r in range(rounds)]
            for p in peers
        }
    )


def _behavior(family, graph, f, inputs, faults, relabel, seed):
    """Run one system built on ``family``; the outcome, or the error."""
    roster = tuple(graph.nodes)
    devices = {u: family(u, roster, f) for u in roster}
    rng = random.Random(seed)
    for node, kind in faults:
        devices[node] = _faulty(kind, node, devices[node], roster, f + 1, rng)
    assignments = {}
    for u in roster:
        labels = {v: v for v in graph.neighbors(u)}
        if relabel == "alias" and u == roster[0]:
            labels[roster[-1]] = ("alias", roster[-1])
        elif relabel == "copy":  # equal, not identical, labels
            labels = {
                v: "".join(list(v)) if isinstance(v, str) else v
                for v in labels
            }
        assignments[u] = NodeAssignment(devices[u], inputs[u], labels)
    try:
        return run(SyncSystem(graph, assignments), f + 1), None
    except TypeError as error:
        return None, (type(error), str(error))


def _outcome(behavior):
    nodes = tuple(
        (repr(u), repr(nb.decision), nb.decided_at)
        for u, nb in behavior.node_behaviors.items()
    )
    edges = sorted(
        (repr(edge), repr(eb.messages))
        for edge, eb in behavior.edge_behaviors.items()
    )
    return nodes, edges


def assert_same_run(graph, f, inputs, faults=(), relabel=None, seed=0):
    compiled, error = _behavior(
        EIGDevice, graph, f, inputs, faults, relabel, seed
    )
    reference, reference_error = _behavior(
        ReferenceEIGDevice, graph, f, inputs, faults, relabel, seed
    )
    assert error == reference_error
    if error is not None:
        return None
    assert _outcome(compiled) == _outcome(reference)
    for nb in compiled.node_behaviors.values():
        for state in nb.states:
            assert pickle.loads(pickle.dumps(state)) == state
    return compiled


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from((4, 5, 7)))
    f = (n - 1) // 3
    ids = draw(st.sampled_from(("str", "str", "int", "colliding")))
    graph = _graph(n, ids)
    roster = list(graph.nodes)
    inputs = {u: draw(st.sampled_from(VALUES[:4])) for u in roster}
    bad = draw(
        st.lists(st.sampled_from(roster), max_size=f + 1, unique=True)
    )
    faults = tuple((u, draw(st.sampled_from(FAULTS))) for u in bad)
    relabel = draw(st.sampled_from((None, None, "alias", "copy")))
    return graph, f, inputs, faults, relabel, draw(st.integers(0, 2**16))


class TestCompiledAgainstReference:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_same_decisions_and_messages(self, scenario):
        assert_same_run(*scenario)

    @pytest.mark.parametrize("kind", JUNK + ("impostor",))
    @pytest.mark.parametrize("ids", ("str", "int"))
    @pytest.mark.parametrize("n", (4, 7))
    def test_every_junk_kind_on_every_port(self, kind, ids, n):
        f = (n - 1) // 3
        graph = _graph(n, ids)
        faulty = tuple(graph.nodes)[2]
        inputs = {u: i % 2 for i, u in enumerate(graph.nodes)}
        for seed in range(4):
            assert_same_run(
                graph, f, inputs, faults=((faulty, kind),), seed=seed
            )

    def test_junk_switches_the_rest_of_the_run_to_the_dict_tree(self):
        graph = complete_graph(4)
        inputs = {u: 1 for u in graph.nodes}
        behavior = assert_same_run(
            graph, 1, inputs, faults=(("n3", "ghost-id"),)
        )
        states = behavior.node("n0").states
        assert isinstance(states[1][0], tuple)  # round 0 is in the space
        assert isinstance(states[2][0], dict)  # round 1 named "ghost"

    def test_unhashable_value_raises_like_the_reference(self):
        graph = complete_graph(4)
        inputs = {u: 0 for u in graph.nodes}
        _, error = _behavior(
            EIGDevice, graph, 1, inputs, (("n3", "unhashable-value"),),
            None, 0,
        )
        assert error is not None and error[0] is TypeError
        assert_same_run(graph, 1, inputs, faults=(("n3", "unhashable-value"),))

    def test_f0_replayed_level0_payload(self):
        """The one-round ablation: a replayed ``(((), 1),)`` splits a
        2-2 tie at one correct node only."""
        graph = complete_graph(4)
        roster = tuple(graph.nodes)
        inputs = {"n0": 1, "n1": 1, "n2": 0, "n3": 0}
        outcomes = []
        for family in (EIGDevice, ReferenceEIGDevice):
            devices = {u: family(u, roster, 0) for u in roster}
            devices["n3"] = ReplayDevice(
                {"n0": [(((), 1),)], "n1": [(((), 1),)], "n2": [(((), 0),)]}
            )
            behavior = run(make_system(graph, devices, inputs), 1)
            outcomes.append(_outcome(behavior))
            assert behavior.decision("n0") != behavior.decision("n2")
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("relabel", ("alias", "copy"))
    def test_port_labels_off_the_roster(self, relabel):
        graph = complete_graph(5)
        inputs = {u: i % 2 for i, u in enumerate(graph.nodes)}
        assert_same_run(graph, 1, inputs, relabel=relabel)

    def test_colliding_ids_use_the_dict_tree_throughout(self):
        graph = _graph(4, "colliding")
        device = EIGDevice(1, tuple(graph.nodes), 1)
        ctx = NodeContext(ports=("1", 2, 3), input=0)
        assert isinstance(device.init_state(ctx)[0], dict)
        inputs = {u: 1 for u in graph.nodes}
        assert_same_run(graph, 1, inputs, faults=((2, "two-faced"),))

    def test_unhashable_default_uses_the_dict_tree(self):
        graph = complete_graph(4)
        roster = tuple(graph.nodes)
        inputs = {u: i % 2 for i, u in enumerate(roster)}
        outcomes = []
        for family in (EIGDevice, ReferenceEIGDevice):
            devices = {u: family(u, roster, 1, default=[]) for u in roster}
            devices["n3"] = SilentDevice()
            try:
                outcomes.append(
                    _outcome(run(make_system(graph, devices, inputs), 2))
                )
            except TypeError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]

    def test_k10_f3(self):
        graph = complete_graph(10)
        rng = random.Random(3)
        inputs = {u: rng.randint(0, 1) for u in graph.nodes}
        faults = (("n0", "two-faced"), ("n4", "crash"), ("n9", "liar"))
        assert_same_run(graph, 3, inputs, faults=faults, seed=5)


def test_eig_devices_are_compiled():
    devices = eig_devices(complete_graph(7), 2)
    assert all(type(d) is EIGDevice for d in devices.values())
    state = devices["n0"].init_state(NodeContext(ports=(), input=1))
    assert state == ((((0,), (1,)),), None)

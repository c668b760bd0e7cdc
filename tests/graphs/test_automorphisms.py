"""Automorphism groups and orbit canonicalization.

The group computation is cross-checked against known orders; the
orbit keys are checked *semantically* — applying any automorphism to a
fault plan must not change its canonical key, and name-sensitive
scenarios must refuse to collapse with anything but themselves.
"""

import itertools
import random

import pytest

from repro.graphs import CommunicationGraph
from repro.graphs.automorphisms import (
    OrbitIndex,
    apply_automorphism,
    automorphism_count,
    automorphism_group,
    node_orbits,
    scenario_is_name_sensitive,
)
from repro.graphs.builders import (
    complete_graph,
    diamond,
    line,
    ring,
    star,
    triangle,
    wheel,
)
from repro.runtime.faults import FaultPlan, LinkFault, Partition


class TestGroupOrders:
    """|Aut| of standard graphs is textbook material."""

    @pytest.mark.parametrize(
        "graph,order",
        [
            (triangle(), 6),           # S_3
            (complete_graph(4), 24),   # S_4
            (ring(5), 10),             # dihedral D_5
            (ring(6), 12),             # dihedral D_6
            (diamond(), 8),            # a 4-cycle here: dihedral D_4
            (star(4), 24),             # S_4 on the leaves
            (line(3), 2),              # flip
            (wheel(5), 10),            # D_5 fixing the hub
        ],
    )
    def test_known_orders(self, graph, order):
        assert automorphism_count(graph) == order

    def test_identity_always_present(self):
        group, exact = automorphism_group(ring(4))
        assert exact
        identity = {u: u for u in ring(4).nodes}
        assert identity in group

    def test_group_is_closed_under_composition(self):
        graph = complete_graph(3)
        group, exact = automorphism_group(graph)
        assert exact
        members = {tuple(sorted(g.items())) for g in group}
        for a in group:
            for b in group:
                composed = {u: a[b[u]] for u in graph.nodes}
                assert tuple(sorted(composed.items())) in members

    def test_every_member_preserves_adjacency(self):
        graph = wheel(6)
        group, _ = automorphism_group(graph)
        for sigma in group:
            for u, v in graph.edges:
                assert graph.has_edge(sigma[u], sigma[v])

    def test_asymmetric_graph_has_trivial_group(self):
        # A path with one pendant off an interior node: no symmetry.
        g = CommunicationGraph(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"), ("e", "d")],
        )
        # b has degree 3, uniquely; the rest are pinned by distances.
        assert automorphism_count(g) in (1, 2)

    def test_limit_reports_truncation(self):
        group, exact = automorphism_group(complete_graph(5), limit=10)
        assert not exact
        assert len(group) <= 10

    def test_memoized_on_instance(self):
        g = ring(5)
        first = automorphism_group(g)
        assert automorphism_group(g) is first


def _graph(edges):
    return CommunicationGraph.from_undirected(edges)


def _k33():
    return _graph([(f"a{i}", f"b{j}") for i in range(3) for j in range(3)])


def _petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return _graph(outer + spokes + inner)


def _cube():
    return _graph(
        [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    )


def _asymmetric_tree():
    # A 6-path with a leaf on its third node: the branches at the
    # degree-3 node have lengths 1, 2 and 3, so nothing can move.
    return _graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])


def _brute_force_order(graph):
    nodes = list(graph.nodes)
    return sum(
        all(graph.has_edge(p[nodes.index(u)], p[nodes.index(v)])
            for u, v in graph.edges)
        for p in itertools.permutations(nodes)
    )


KNOWN_GROUPS = [
    ("C5", lambda: ring(5), 10),
    ("C7", lambda: ring(7), 14),
    ("K5", lambda: complete_graph(5), 120),
    ("K33", _k33, 72),
    ("Petersen", _petersen, 120),
    ("Q3", _cube, 48),
    ("asymmetric tree", _asymmetric_tree, 1),
]


class TestOrderBound:
    """The stabilizer-chain order decides ``exact`` before anything is
    enumerated: it must equal the enumerated group's size exactly."""

    @pytest.mark.parametrize(
        "build,order", [(b, o) for _, b, o in KNOWN_GROUPS],
        ids=[name for name, _, _ in KNOWN_GROUPS],
    )
    def test_order_equals_enumeration(self, build, order):
        group, exact = automorphism_group(build(), limit=order)
        assert exact and len(group) == order
        assert len({tuple(sorted(g.items(), key=repr)) for g in group}) == order
        # One below the order: the bound alone says "too big".
        group, exact = automorphism_group(build(), limit=order - 1)
        assert not exact and group == ()

    @pytest.mark.parametrize(
        "build,order",
        [(b, o) for name, b, o in KNOWN_GROUPS if name != "Petersen"],
        ids=[name for name, _, _ in KNOWN_GROUPS if name != "Petersen"],
    )
    def test_order_matches_brute_force(self, build, order):
        assert _brute_force_order(build()) == order

    @pytest.mark.parametrize("n", [8, 10])
    def test_huge_group_is_rejected_without_enumerating(self, n, monkeypatch):
        # Enumerating 5 001 elements of Aut(K8) costs ~245 000
        # adjacency tests; bounding the order costs a few thousand.
        calls = 0
        has_edge = CommunicationGraph.has_edge

        def counting(self, u, v):
            nonlocal calls
            calls += 1
            return has_edge(self, u, v)

        monkeypatch.setattr(CommunicationGraph, "has_edge", counting)
        graph = complete_graph(n)
        index = OrbitIndex(graph)
        assert not index.exact and index.group_order == 1
        assert calls < 10_000
        assert [
            result
            for key, result in graph.analytics_cache().items()
            if key[0] == "automorphism_group"
        ] == [((), False)]


class TestNodeOrbits:
    def test_complete_graph_single_orbit(self):
        g = complete_graph(5)
        orbits = node_orbits(g)
        assert orbits == (frozenset(g.nodes),)

    def test_wheel_hub_is_fixed(self):
        g = wheel(5)
        orbits = set(node_orbits(g))
        assert frozenset(["hub"]) in orbits or any(
            len(o) == 1 for o in orbits
        )
        assert sum(len(o) for o in orbits) == len(g)

    def test_line_orbits_pair_endpoints(self):
        orbits = node_orbits(line(4))
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [2, 2]


def _drop(edge, start=0, end=1):
    return LinkFault(edge=edge, kind="drop", start=start, end=end)


class TestOrbitKeys:
    def _key(self, index, inputs, plan, node_faults=(), pool=(0, 1)):
        return index.canonical_key(inputs, node_faults, plan, pool)

    def test_key_invariant_along_orbit(self):
        graph = complete_graph(4)
        index = OrbitIndex(graph)
        group, _ = automorphism_group(graph)
        rng = random.Random(0)
        for _ in range(10):
            u, v = rng.sample(list(graph.nodes), 2)
            plan = FaultPlan(link_faults=(_drop((u, v)),))
            inputs = {w: rng.choice((0, 1)) for w in graph.nodes}
            base = self._key(index, inputs, plan)
            for sigma in group:
                image_plan = apply_automorphism(plan, sigma)
                image_inputs = {sigma[w]: val for w, val in inputs.items()}
                assert self._key(index, image_inputs, image_plan) == base

    def test_distinct_orbits_get_distinct_keys(self):
        graph = ring(6)
        index = OrbitIndex(graph)
        inputs = {u: 0 for u in graph.nodes}
        # A fault on one edge vs. faults on two adjacent edges cannot be
        # automorphic images of each other.
        one = FaultPlan(link_faults=(_drop(("r0", "r1")),))
        two = FaultPlan(
            link_faults=(_drop(("r0", "r1")), _drop(("r1", "r2")))
        )
        assert self._key(index, inputs, one) != self._key(index, inputs, two)

    def test_same_edge_fault_order_is_preserved(self):
        graph = complete_graph(3)
        index = OrbitIndex(graph)
        inputs = {u: 0 for u in graph.nodes}
        corrupt = LinkFault(edge=("n0", "n1"), kind="corrupt", start=0, end=1)
        drop = _drop(("n0", "n1"))
        a = FaultPlan(link_faults=(corrupt, drop))
        b = FaultPlan(link_faults=(drop, corrupt))
        # corrupt-then-drop drops the slot; drop-then-corrupt also drops
        # it, but the injector trace differs — the key must not conflate
        # differently-ordered same-edge sequences.
        assert self._key(index, inputs, a) != self._key(index, inputs, b)

    def test_partition_keys_are_order_insensitive(self):
        graph = ring(4)
        index = OrbitIndex(graph)
        inputs = {u: 0 for u in graph.nodes}
        p1 = Partition(edges=frozenset([("r0", "r1")]), start=0, end=1)
        p2 = Partition(edges=frozenset([("r2", "r3")]), start=0, end=1)
        a = FaultPlan(partitions=(p1, p2))
        b = FaultPlan(partitions=(p2, p1))
        assert self._key(index, inputs, a) == self._key(index, inputs, b)

    def test_record_counts_saved_runs(self):
        index = OrbitIndex(complete_graph(3))
        assert index.record("k") is False
        assert index.record("k") is True
        assert index.record("other") is False
        s = index.stats()
        assert s["scenarios_seen"] == 3
        assert s["orbits"] == 2
        assert s["orbits_collapsed"] == 1
        assert s["runs_saved"] == 1
        assert "orbit dedup" in index.describe()

    def test_large_group_degrades_to_identity(self):
        index = OrbitIndex(complete_graph(4), max_group=5)
        assert index.group_order == 1
        assert not index.exact
        inputs = {u: 0 for u in complete_graph(4).nodes}
        a = FaultPlan(link_faults=(_drop(("n0", "n1")),))
        b = FaultPlan(link_faults=(_drop(("n2", "n3")),))
        # Identity fallback: automorphic plans no longer share keys.
        assert self._key(index, inputs, a) != self._key(index, inputs, b)


    def test_large_group_stops_enumerating_past_max_group(self):
        """K8 has 8! = 40 320 automorphisms; the index stops after
        ``max_group + 1`` of them instead of building the whole group."""
        graph = complete_graph(8)
        index = OrbitIndex(graph)
        enumerations = [
            result
            for key, result in graph.analytics_cache().items()
            if key[0] == "automorphism_group"
        ]
        assert enumerations
        for group, exact in enumerations:
            assert not exact
            assert len(group) <= 5_000 + 1
        assert index.group_order == 1
        assert "|Aut|=1 (identity fallback)" in index.describe()


class TestNameSensitivity:
    def test_plain_drop_is_name_free(self):
        plan = FaultPlan(link_faults=(_drop(("n0", "n1")),))
        assert not scenario_is_name_sensitive(plan)

    def test_node_faults_are_sensitive(self):
        plan = FaultPlan()
        assert scenario_is_name_sensitive(plan, node_faults=(object(),))

    def test_probabilistic_fault_is_sensitive(self):
        flaky = LinkFault(
            edge=("n0", "n1"), kind="drop", start=0, end=2, probability=0.5
        )
        assert scenario_is_name_sensitive(FaultPlan(link_faults=(flaky,)))

    def test_binary_pool_corruption_is_name_free(self):
        corrupt = LinkFault(edge=("n0", "n1"), kind="corrupt", start=0, end=1)
        plan = FaultPlan(link_faults=(corrupt,))
        assert not scenario_is_name_sensitive(plan, value_pool=(0, 1))
        assert scenario_is_name_sensitive(plan, value_pool=(0, 1, 2))

    def test_sensitive_scenarios_only_collapse_with_themselves(self):
        graph = complete_graph(3)
        index = OrbitIndex(graph)
        inputs = {u: 0 for u in graph.nodes}
        flaky = LinkFault(
            edge=("n0", "n1"), kind="drop", start=0, end=2, probability=0.5
        )
        relabeled = LinkFault(
            edge=("n1", "n2"), kind="drop", start=0, end=2, probability=0.5
        )
        k1 = index.canonical_key(inputs, (), FaultPlan(link_faults=(flaky,)))
        k2 = index.canonical_key(
            inputs, (), FaultPlan(link_faults=(relabeled,))
        )
        k1_again = index.canonical_key(
            inputs, (), FaultPlan(link_faults=(flaky,))
        )
        assert k1 != k2
        assert k1 == k1_again

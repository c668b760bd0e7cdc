"""Automorphism groups of communication graphs, and orbit
canonicalization of fault scenarios.

The paper compresses its arguments with symmetry: a covering map
identifies nodes that are locally indistinguishable, so one argument
covers a whole orbit of nodes at once.  The campaign/frontier/sweep
drivers can play the same trick operationally — most sampled
:class:`~repro.runtime.faults.FaultPlan` configurations are equivalent
under an automorphism of the communication graph, so executing one
representative per orbit and mapping the verdict back to every member
saves the bulk of the work on the symmetric graphs (``K_n``, rings,
circulants, covering graphs) this repo lives on.

Two layers:

* :func:`automorphism_group` — the full automorphism group, computed by
  equitable-partition refinement (1-WL color refinement) followed by
  class-respecting backtracking.  Exact for the ≤20-node graphs used
  here; a ``limit`` caps enumeration on pathologically symmetric inputs
  (``K_20`` has ``20!`` automorphisms): the group's order is bounded
  first along a stabilizer chain, and a group over the limit is
  reported *truncated* without being enumerated, so callers fall back
  to identity-only dedup, which is always sound.
* :class:`OrbitIndex` — canonicalizes a campaign scenario (inputs +
  node faults + fault plan) to the lexicographically minimal image
  under the group, with hit counters (``orbits_collapsed``,
  ``runs_saved``).  Soundness guards are built in: scenarios whose
  outcome could depend on concrete node *names* (seeded per-node
  adversaries, corruption draws from pools with more than two values,
  probabilistic faults) canonicalize to themselves, so they only ever
  collapse with byte-identical scenarios.

Groups are memoized on the graph instance (see
:meth:`CommunicationGraph.analytics_cache`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from ..runtime.faults import FaultPlan, LinkFault, Partition
from .graph import CommunicationGraph, NodeId

#: Default cap on group enumeration.  Large enough for every graph the
#: experiments use (|Aut(K_8)| = 40320), small enough that a runaway
#: backtrack on a huge complete graph stops early instead of hanging.
DEFAULT_GROUP_LIMIT = 50_000

Automorphism = dict[NodeId, NodeId]


def _refine_colors(graph: CommunicationGraph) -> dict[NodeId, int]:
    """Equitable-partition (1-WL) refinement: iteratively color nodes by
    (own color, sorted multiset of neighbor colors) until stable.  Two
    nodes in different color classes can never be exchanged by an
    automorphism."""
    colors: dict[NodeId, int] = {u: graph.degree(u) for u in graph.nodes}
    while True:
        signatures = {
            u: (colors[u], tuple(sorted(colors[v] for v in graph.neighbors(u))))
            for u in graph.nodes
        }
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
        refined = {u: palette[signatures[u]] for u in graph.nodes}
        if refined == colors:
            return colors
        colors = refined


def automorphism_group(
    graph: CommunicationGraph, limit: int = DEFAULT_GROUP_LIMIT
) -> tuple[tuple[Automorphism, ...], bool]:
    """All adjacency-preserving node bijections of ``graph``.

    Returns ``(group, exact)``: the tuple of automorphisms (each a
    ``node -> node`` dict, identity included) and whether it is the
    whole group.  The group's order is computed first, without
    enumerating it; when it exceeds ``limit`` nothing is enumerated,
    the tuple is empty and ``exact`` is ``False`` — callers must then
    treat the group as unusable (:class:`OrbitIndex` falls back to
    identity-only keys).

    Memoized per graph instance and per ``limit``.
    """
    cache = graph.analytics_cache()
    key = ("automorphism_group", limit)
    hit = cache.get(key)
    if hit is not None:
        return hit

    nodes = list(graph.nodes)
    colors = _refine_colors(graph)
    by_color: dict[int, list[NodeId]] = {}
    for v in nodes:
        by_color.setdefault(colors[v], []).append(v)

    # Order nodes to fail fast: most-constrained color class first,
    # then maximize adjacency with already-placed nodes.
    order: list[NodeId] = []
    placed: set[NodeId] = set()
    remaining = set(nodes)
    while remaining:
        best = min(
            remaining,
            key=lambda u: (
                len(by_color[colors[u]]),
                -sum(1 for v in graph.neighbors(u) if v in placed),
                str(u),
            ),
        )
        order.append(best)
        placed.add(best)
        remaining.discard(best)

    mapping: Automorphism = {}
    used: set[NodeId] = set()

    def compatible(u: NodeId, v: NodeId) -> bool:
        for neighbor in graph.neighbors(u):
            if neighbor in mapping and not graph.has_edge(v, mapping[neighbor]):
                return False
        for placed_u, placed_v in mapping.items():
            if graph.has_edge(u, placed_u) != graph.has_edge(v, placed_v):
                return False
        return True

    def search(index: int, found) -> bool:
        """Depth-first over class-respecting extensions of ``mapping``
        to ``order[index:]``; ``found()`` runs on each automorphism and
        returns whether to go on.  Returns False once it said no."""
        if index == len(order):
            return found()
        u = order[index]
        for v in by_color[colors[u]]:
            if v in used or not compatible(u, v):
                continue
            mapping[u] = v
            used.add(v)
            go_on = search(index + 1, found)
            del mapping[u]
            used.discard(v)
            if not go_on:
                return False
        return True

    # |Aut(G)| by orbit-stabilizer along ``order``: with order[:i]
    # fixed, the images of order[i] that extend to an automorphism are
    # its orbit under that pointwise stabilizer, and the group order is
    # the product of the orbit sizes.  One extension search per
    # candidate image, so a group too big to enumerate is known to be
    # so after a few levels (K_8 stops at 8*7*6*5*4 > 5 000).
    group_order = 1
    for index, u in enumerate(order):
        orbit = 0
        for v in by_color[colors[u]]:
            if v in used or not compatible(u, v):
                continue
            mapping[u] = v
            used.add(v)
            orbit += not search(index + 1, lambda: False)
            del mapping[u]
            used.discard(v)
        group_order *= orbit
        if group_order > limit:
            break
        mapping[u] = u
        used.add(u)
    mapping.clear()
    used.clear()

    group: list[Automorphism] = []
    exact = group_order <= limit
    if exact:
        search(0, lambda: group.append(dict(mapping)) or True)
    result = (tuple(group), exact)
    cache[key] = result
    return result


def automorphism_count(graph: CommunicationGraph) -> int:
    """|Aut(G)| (exact for graphs within the enumeration limit)."""
    group, exact = automorphism_group(graph)
    if not exact:
        raise ValueError("automorphism group exceeds the enumeration limit")
    return len(group)


def node_orbits(graph: CommunicationGraph) -> tuple[frozenset[NodeId], ...]:
    """The node orbits under the automorphism group, in canonical
    (sorted-representative) order.  Falls back to refinement classes if
    the group is truncated (coarser, still sound as an upper bound on
    symmetry is never claimed)."""
    group, exact = automorphism_group(graph)
    if exact:
        seen: set[NodeId] = set()
        orbits: list[frozenset[NodeId]] = []
        for u in graph.nodes:
            if u in seen:
                continue
            orbit = frozenset(sigma[u] for sigma in group)
            seen |= orbit
            orbits.append(orbit)
        return tuple(orbits)
    colors = _refine_colors(graph)
    by_color: dict[int, set[NodeId]] = {}
    for u in graph.nodes:
        by_color.setdefault(colors[u], set()).add(u)
    return tuple(
        frozenset(members)
        for _, members in sorted(by_color.items())
    )


# -- orbit canonicalization of fault scenarios ------------------------------


def _apply_to_plan(plan: FaultPlan, sigma: Automorphism) -> FaultPlan:
    """The image of a fault plan under an automorphism: every edge
    endpoint is relabeled; windows, kinds and parameters are carried
    unchanged."""
    link_faults = tuple(
        LinkFault(
            edge=(sigma[f.edge[0]], sigma[f.edge[1]]),
            kind=f.kind,
            start=f.start,
            end=f.end,
            delay=f.delay,
            burst=f.burst,
            period=f.period,
            probability=f.probability,
        )
        for f in plan.link_faults
    )
    partitions = tuple(
        Partition(
            edges=frozenset((sigma[u], sigma[v]) for (u, v) in p.edges),
            start=p.start,
            end=p.end,
        )
        for p in plan.partitions
    )
    return FaultPlan(
        link_faults=link_faults,
        partitions=partitions,
        seed=plan.seed,
        corrupt_pool=plan.corrupt_pool,
    )


def apply_automorphism(
    plan: FaultPlan, sigma: Mapping[NodeId, NodeId]
) -> FaultPlan:
    """Public wrapper around plan relabeling (used by tests to check
    that orbit keys are invariant along orbits)."""
    return _apply_to_plan(plan, dict(sigma))


def _relabeled_plan_tokens(
    names: Mapping[NodeId, str],
    link_atoms: Sequence[tuple],
    part_atoms: Sequence[tuple],
) -> tuple:
    """Canonical serialization of a plan's atoms under a node renaming.

    The injector applies multiple faults on the *same* edge in plan
    order (a corrupt-then-drop is not a drop-then-corrupt), so the
    per-edge fault sequence is kept in order; only the order *across*
    edges — which the injector never observes, per-edge slots being
    independent — is sorted away.  Partition activation is an
    order-insensitive ``any()``, so partitions sort freely.
    """
    by_edge: dict[tuple[str, str], list[tuple]] = {}
    for u, v, params in link_atoms:
        by_edge.setdefault((names[u], names[v]), []).append(params)
    links = tuple(
        sorted((edge, tuple(seq)) for edge, seq in by_edge.items())
    )
    cuts = tuple(
        sorted(
            (
                tuple(sorted((names[u], names[v]) for (u, v) in edges)),
                start,
                end,
            )
            for edges, start, end in part_atoms
        )
    )
    return (links, cuts)


def scenario_is_name_sensitive(
    plan: FaultPlan,
    node_faults: Sequence[Any] = (),
    value_pool: Sequence[Any] = (0, 1),
) -> bool:
    """Could executing a relabeled copy of this scenario produce a
    different verdict than the original?

    Three (conservative) reasons to say yes:

    * **node faults** — seeded adversary devices draw their private
      randomness from keys that embed the node name and consume it in
      neighbor order, neither of which survives relabeling;
    * **corruption with a rich pool** — replacement values are drawn
      from an rng keyed by the edge *name* whenever more than one
      replacement is possible (with a binary pool the replacement is
      forced and name-independent);
    * **probabilistic faults** — the per-slot coin is keyed by the
      edge name.

    Name-sensitive scenarios still dedup — but only against
    byte-identical copies of themselves (the identity automorphism),
    which is trivially sound.
    """
    if node_faults:
        return True
    distinct = len(set(map(repr, value_pool)))
    for fault in plan.link_faults:
        if fault.probability < 1.0:
            return True
        if fault.kind == "corrupt" and distinct > 2:
            return True
    return False


class OrbitIndex:
    """Canonical keys for campaign scenarios under graph symmetry.

    One index serves one graph; :meth:`canonical_key` maps a scenario
    (inputs, node faults, fault plan) to a string key equal for every
    scenario in the same automorphism orbit.  The campaign engine
    executes the first scenario of each orbit and reuses its verdict
    for the rest; :meth:`stats` reports how much that saved.

    A scenario flagged by :func:`scenario_is_name_sensitive` keys to
    its identity form, so it can only collapse with exact duplicates.
    When the graph's group exceeds ``limit`` (astronomically symmetric
    inputs) the index degrades the same way for *every* scenario —
    still sound, never wrong, just less effective.
    """

    def __init__(
        self,
        graph: CommunicationGraph,
        limit: int = DEFAULT_GROUP_LIMIT,
        max_group: int = 5_000,
    ) -> None:
        self.graph = graph
        # Canonicalization applies every group element to every
        # scenario; past a few thousand elements that costs more than
        # the execution it saves, so degrade to identity-only — and
        # stop enumerating as soon as the group is known to be that big.
        group, exact = automorphism_group(graph, limit=min(limit, max_group))
        if exact:
            self.group: tuple[Automorphism, ...] = group
            self.exact = True
        else:
            identity = {u: u for u in graph.nodes}
            self.group = (identity,)
            self.exact = False
        # Canonicalization works on string node names; resolving each
        # sigma to a name map once keeps the per-scenario loop to tuple
        # building and comparisons.
        self._names: tuple[dict[NodeId, str], ...] = tuple(
            {u: str(v) for u, v in sigma.items()} for sigma in self.group
        )
        self._identity_names: dict[NodeId, str] = {
            u: str(u) for u in graph.nodes
        }
        self.scenarios_seen = 0
        self.runs_saved = 0
        self._members: dict[str, int] = {}
        # Input vectors are drawn from a small pool and repeat heavily
        # across attempts; their stage-1 minimization (the loop over
        # the whole group) is cached per distinct vector.
        self._input_stage: dict[tuple, tuple] = {}

    @property
    def group_order(self) -> int:
        return len(self.group)

    def canonical_key(
        self,
        inputs: Mapping[NodeId, Any],
        node_faults: Sequence[Any],
        plan: FaultPlan,
        value_pool: Sequence[Any] = (0, 1),
    ) -> str:
        """The orbit-canonical key of one fully specified scenario.

        Lexicographically minimal ``(inputs, plan)`` form over the
        group, computed in two stages: minimize the relabeled input
        vector first, then relabel the plan only under the
        automorphisms achieving that minimum (usually a handful —
        inputs break most of the symmetry)."""
        input_items = tuple((u, repr(v)) for u, v in inputs.items())
        link_atoms = tuple(
            (
                f.edge[0],
                f.edge[1],
                (f.kind, f.start, f.end, f.delay, f.burst, f.period,
                 f.probability),
            )
            for f in plan.link_faults
        )
        part_atoms = tuple(
            (tuple(p.edges), p.start, p.end) for p in plan.partitions
        )
        suffix = (
            tuple((str(nf.node), nf.kind, nf.key) for nf in node_faults),
            plan.seed,
            tuple(repr(v) for v in plan.corrupt_pool),
        )
        if len(self.group) == 1 or scenario_is_name_sensitive(
            plan, node_faults, value_pool
        ):
            names = self._identity_names
            form = (
                tuple(sorted((names[u], rv) for u, rv in input_items)),
                _relabeled_plan_tokens(names, link_atoms, part_atoms),
            )
            return repr((form, suffix))
        staged = self._input_stage.get(input_items)
        if staged is None:
            best_inputs = None
            stabilizer: list[dict[NodeId, str]] = []
            for names in self._names:
                form = tuple(sorted((names[u], rv) for u, rv in input_items))
                if best_inputs is None or form < best_inputs:
                    best_inputs = form
                    stabilizer = [names]
                elif form == best_inputs:
                    stabilizer.append(names)
            staged = (best_inputs, tuple(stabilizer))
            self._input_stage[input_items] = staged
        best_inputs, stabilizer = staged
        # Plan tokens only see the names of nodes the plan touches, so
        # stabilizer elements agreeing on those nodes are redundant
        # (with uniform inputs the stabilizer is the whole group, but a
        # one-edge plan has few distinct restrictions).
        plan_nodes = tuple(
            dict.fromkeys(
                node
                for u, v, _ in link_atoms
                for node in (u, v)
            )
        ) + tuple(
            dict.fromkeys(
                node
                for edges, _, _ in part_atoms
                for (u, v) in edges
                for node in (u, v)
            )
        )
        best_plan = None
        seen_restrictions: set[tuple[str, ...]] = set()
        for names in stabilizer:
            restriction = tuple(names[u] for u in plan_nodes)
            if restriction in seen_restrictions:
                continue
            seen_restrictions.add(restriction)
            form = _relabeled_plan_tokens(names, link_atoms, part_atoms)
            if best_plan is None or form < best_plan:
                best_plan = form
        return repr(((best_inputs, best_plan), suffix))

    def record(self, key: str) -> bool:
        """Note one scenario keyed ``key``; returns True if an earlier
        scenario already occupies the orbit (i.e. this run is saved)."""
        self.scenarios_seen += 1
        count = self._members.get(key, 0)
        self._members[key] = count + 1
        if count:
            self.runs_saved += 1
            return True
        return False

    def stats(self) -> dict[str, int]:
        collapsed = sum(1 for c in self._members.values() if c > 1)
        return {
            "group_order": self.group_order,
            "exact_group": int(self.exact),
            "scenarios_seen": self.scenarios_seen,
            "orbits": len(self._members),
            "orbits_collapsed": collapsed,
            "runs_saved": self.runs_saved,
        }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"orbit dedup: |Aut|={s['group_order']}"
            f"{'' if s['exact_group'] else ' (identity fallback)'}, "
            f"{s['scenarios_seen']} scenarios -> {s['orbits']} orbits, "
            f"{s['orbits_collapsed']} collapsed, "
            f"{s['runs_saved']} runs saved"
        )


__all__ = [
    "DEFAULT_GROUP_LIMIT",
    "OrbitIndex",
    "apply_automorphism",
    "automorphism_count",
    "automorphism_group",
    "node_orbits",
    "scenario_is_name_sensitive",
]

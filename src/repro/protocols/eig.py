"""Exponential Information Gathering (EIG) Byzantine agreement
[PSL 1980 / LSP 1982], the classical matching upper bound for the
paper's ``3f + 1`` node lower bound.

On a complete graph with ``n >= 3f + 1`` nodes, EIG reaches Byzantine
agreement in ``f + 1`` rounds against any ``f`` Byzantine nodes.  Each
node relays everything it has heard every round, building a tree of
claims ``"j_r said that ... j_1's input is v"`` indexed by paths of
distinct node ids; decisions resolve the tree bottom-up by majority.

Unlike the covering-refutation candidates, protocol devices know their
own identity (``my_id``) and the full roster — identities are part of
the problem setup for agreement algorithms, and adequate-graph
protocols are never installed in coverings.

Two implementations share one wire format:

* :class:`ReferenceEIGDevice` — the textbook dict tree from paths to
  values.  It is the differential oracle (``repro.testing``) and the
  fallback below.
* :class:`EIGDevice` — the same protocol over a **compiled path
  space**.  For a fixed roster and ``f`` the set of paths is fixed, so
  it is enumerated once per ``(roster, f)`` (:class:`_PathSpace`): paths
  by level in wire order, per-sender relay tables and per-level child
  groups.  A state holds one ``{position: value}`` dict per level,
  shared across rounds; receiving is one position lookup per entry,
  the own relay is a gather and the decision is ``f + 1`` bottom-up
  majority passes over flat lists.  A well-formed payload naming a
  path outside the compiled space (a non-roster id, say) switches the
  device to the reference algorithm for the rest of the run, so every
  message and decision equals the reference device's.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import permutations, repeat
from operator import is_, itemgetter
from typing import Any

from ..graphs.graph import CommunicationGraph, GraphError, NodeId
from ..runtime.sync.device import Message, NodeContext, PortLabel, State, SyncDevice

Path = tuple[Any, ...]


class ReferenceEIGDevice(SyncDevice):
    """One node's EIG state machine over a dict tree of claims.

    Parameters
    ----------
    my_id:
        This node's identity (must equal its port label at peers).
    all_ids:
        The full roster, in canonical order shared by all nodes.
    max_faults:
        The bound ``f``; the protocol runs ``f + 1`` rounds.
    default:
        Tie-breaking / missing-value default.
    """

    def __init__(
        self,
        my_id: NodeId,
        all_ids: Sequence[NodeId],
        max_faults: int,
        default: Any = 0,
    ) -> None:
        if my_id not in all_ids:
            raise GraphError("my_id must appear in the roster")
        self.my_id = my_id
        self.all_ids = tuple(all_ids)
        self.f = max_faults
        self.default = default
        self.rounds = max_faults + 1

    # State: (tree, decided) with tree a dict from paths to values.

    def init_state(self, ctx: NodeContext) -> State:
        return ({(): ctx.input}, None)

    def _level_entries(self, tree: Mapping[Path, Any], level: int) -> dict:
        return {path: v for path, v in tree.items() if len(path) == level}

    def send(
        self, ctx: NodeContext, state: State, round_index: int
    ) -> dict[PortLabel, Message]:
        tree, _decided = state
        if round_index >= self.rounds:
            return {}
        payload = tuple(
            sorted(
                self._level_entries(tree, round_index).items(),
                key=lambda kv: tuple(map(str, kv[0])),
            )
        )
        return {port: payload for port in ctx.ports}

    def transition(
        self,
        ctx: NodeContext,
        state: State,
        round_index: int,
        inbox: Mapping[PortLabel, Message],
    ) -> State:
        tree, decided = state
        if round_index >= self.rounds:
            return state
        tree = dict(tree)
        # Own relays: "I said that <path>" — known without a message.
        for path, value in self._level_entries(tree, round_index).items():
            if self.my_id not in path:
                tree[path + (self.my_id,)] = value
        for sender, payload in inbox.items():
            if payload is None:
                continue
            if not self._well_formed(payload, round_index):
                continue  # garbage from a faulty node: ignore
            for path, value in payload:
                if sender not in path and len(path) == round_index:
                    tree[tuple(path) + (sender,)] = value
        if round_index == self.rounds - 1:
            decided = self._resolve(tree, ())
        return (tree, decided)

    def choose(self, ctx: NodeContext, state: State) -> Any | None:
        return state[1]

    # -- helpers -----------------------------------------------------------

    def _well_formed(self, payload: Any, level: int) -> bool:
        if not isinstance(payload, tuple):
            return False
        for entry in payload:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return False
            path = entry[0]
            if not isinstance(path, tuple) or len(path) != level:
                return False
            if len(set(path)) != len(path):
                return False
        return True

    def _resolve(self, tree: Mapping[Path, Any], path: Path) -> Any:
        """Bottom-up majority resolution (``newval`` in Lynch's book)."""
        if len(path) == self.rounds:
            return tree.get(path, self.default)
        children = [
            self._resolve(tree, path + (q,))
            for q in self.all_ids
            if q not in path
        ]
        return _strict_majority(children, self.default)


def _strict_majority(values: Sequence[Any], default: Any) -> Any:
    tally: dict[Any, int] = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    for value, count in tally.items():
        if count * 2 > len(values):
            return value
    return default


class EIGDevice(ReferenceEIGDevice):
    """One node's EIG state machine over the compiled path space.

    Same parameters, messages and decisions as
    :class:`ReferenceEIGDevice`.  The state is ``(levels, decided)``;
    ``levels[L]`` is a pair of tuples ``(positions, values)``: the
    ascending positions in the compiled space of the level-``L`` paths
    heard so far, and their values.  Levels are shared between the
    states of successive rounds, never copied.  A run that
    receives a well-formed payload outside the compiled space continues
    on the reference algorithm, whose dict-tree state then replaces
    ``levels``.  Rosters the space does not cover (ids that collide
    under ``==`` or ``str``, or ``n <= f``) and an unhashable
    ``default`` (which the reference tally trips over level by level)
    use the reference algorithm throughout.
    """

    def __init__(
        self,
        my_id: NodeId,
        all_ids: Sequence[NodeId],
        max_faults: int,
        default: Any = 0,
    ) -> None:
        super().__init__(my_id, all_ids, max_faults, default)
        space = _path_space(self.all_ids, max_faults)
        me = None if space is None else space.index_of(my_id)
        self._space = space if me is not None and _hashable(default) else None
        self._me = me

    def init_state(self, ctx: NodeContext) -> State:
        if self._space is None:
            return super().init_state(ctx)
        return ((((0,), (ctx.input,)),), None)

    def send(
        self, ctx: NodeContext, state: State, round_index: int
    ) -> dict[PortLabel, Message]:
        levels = state[0]
        if levels.__class__ is dict:
            return super().send(ctx, state, round_index)
        if round_index >= self.rounds:
            return {}
        if round_index < len(levels):
            ks, vs = levels[round_index]
            paths = self._space.paths[round_index]
            payload = tuple(zip(map(paths.__getitem__, ks), vs))
            self._space.sent(payload, round_index, self._me, ks, vs)
        else:
            payload = ()
        return dict.fromkeys(ctx.ports, payload)

    def transition(
        self,
        ctx: NodeContext,
        state: State,
        round_index: int,
        inbox: Mapping[PortLabel, Message],
    ) -> State:
        levels, decided = state
        if levels.__class__ is dict:
            return super().transition(ctx, state, round_index, inbox)
        if round_index >= self.rounds:
            return state
        space = self._space
        if len(levels) != round_index + 1:
            return super().transition(
                ctx, (space.tree(levels), decided), round_index, inbox
            )
        relays = space.relays[round_index]
        ks, vs = levels[round_index]
        # Paths that already hold the relaying node map to key -1, which
        # is dropped once every write is in (the last write still wins).
        new = dict(zip(map(relays[self._me].__getitem__, ks), vs))
        claims_of = space.claims
        for sender, payload in inbox.items():
            if payload is None:
                continue
            claims = claims_of(payload, round_index, sender)
            if claims is not None:
                new.update(claims)
            elif self._well_formed(payload, round_index):
                # Well-formed but outside the compiled space: replay
                # this round, and the rest of the run, on the dict tree.
                return super().transition(
                    ctx, (space.tree(levels), decided), round_index, inbox
                )
        new.pop(-1, None)
        if round_index == self.rounds - 1:
            decided = space.resolve(new, self.default)
        ks = sorted(new)
        return (levels + ((tuple(ks), tuple(map(new.__getitem__, ks))),), decided)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _exact(a: Any, b: Any) -> bool:
    """``a`` and ``b`` are interchangeable on the wire: equal, of one
    type and with one ``repr`` (so ``1`` is not ``True``)."""
    return a is b or (type(a) is type(b) and a == b and repr(a) == repr(b))


_path = itemgetter(0)
_value = itemgetter(1)


# Sent payloads noted per path space; more than one round's worth.
_SENT_NOTES = 256
_TUPLE = {tuple}
_PAIR = {2}


class _PathSpace:
    """Every EIG path for one roster and ``f``, compiled to positions.

    ``paths[L]`` lists the level-``L`` paths (``L = 0 .. f + 1``) sorted
    by the wire's key, ``tuple(map(str, path))``, so a level's present
    positions in ascending order are the reference payload's order.
    ``positions[L]`` inverts ``paths[L]`` for ``L <= f``.
    ``relays[L][s]`` maps a level-``L`` position to the position of the
    path extended by roster member ``s``, or ``-1`` when ``s`` is on the
    path.  The child groups of the decision are blocks of the leaves in
    depth-first order (see :meth:`resolve`).

    The space also notes the last few hundred payloads its devices sent
    (:meth:`sent`), so that receivers skip re-locating them.  The notes
    only save work: :meth:`claims` returns the same with or without
    them.
    """

    def __init__(self, roster: tuple[NodeId, ...], f: int) -> None:
        n = len(roster)
        self.roster = roster
        self._index = {x: i for i, x in enumerate(roster)}
        # Paths as tuples of roster indices, level by level, wire order.
        by_level: list[list[tuple[int, ...]]] = []
        for level in range(f + 2):
            by_level.append(
                sorted(
                    permutations(range(n), level),
                    key=lambda ip: tuple(str(roster[i]) for i in ip),
                )
            )
        where = [{ip: k for k, ip in enumerate(ips)} for ips in by_level]
        self.paths = tuple(
            tuple(tuple(roster[i] for i in ip) for ip in ips)
            for ips in by_level
        )
        self.positions = tuple(
            {path: k for k, path in enumerate(level_paths)}
            for level_paths in self.paths[: f + 1]
        )
        self.relays = tuple(
            tuple(
                [-1 if s in ip else where[level + 1][ip + (s,)] for ip in ips]
                for s in range(n)
            )
            for level, ips in enumerate(by_level[: f + 1])
        )
        # Leaves in roster-lexicographic order, the reference's
        # depth-first order: there, the children of each level-L path
        # are one contiguous block of n - L values.
        self._leaves_dfs = tuple(
            where[f + 1][ip] for ip in permutations(range(n), f + 1)
        )
        self._widths = tuple(range(n - f, n + 1))
        self._sent: dict[int, tuple[tuple, int, NodeId, dict[int, Any]]] = {}

    def index_of(self, node: Any) -> int | None:
        """``node``'s roster position, if it is exactly a roster id."""
        i = self._index.get(node)
        if i is None or not _exact(self.roster[i], node):
            return None
        return i

    def sent(
        self,
        payload: tuple,
        level: int,
        sender: int,
        ks: Sequence[int],
        vs: Sequence[Any],
    ) -> None:
        """Note that roster member ``sender`` sent ``payload``, its
        level-``level`` claims at positions ``ks`` with values ``vs``, so
        that every receiver takes the relayed claims from the note.  The
        note holds the payload, so its ``id`` is not reused while
        noted."""
        if len(self._sent) >= _SENT_NOTES:
            self._sent.clear()
        relay = self.relays[level][sender]
        self._sent[id(payload)] = (
            payload,
            level,
            self.roster[sender],
            dict(zip(map(relay.__getitem__, ks), vs)),
        )

    def claims(
        self, payload: Any, level: int, sender: Any
    ) -> dict[int, Any] | None:
        """What ``payload`` from port ``sender`` adds at level
        ``level + 1``, as ``{position: value}`` (key ``-1`` collects the
        entries whose path already holds the sender), or ``None``
        unless the sender is a roster id and every entry a ``(path,
        value)`` tuple with a compiled level-``level`` path — which
        makes the payload well-formed."""
        note = self._sent.get(id(payload))
        if (
            note is not None
            and note[0] is payload
            and note[1] == level
            and note[2] is sender
        ):
            return note[3]
        index = self.index_of(sender)
        if index is None:
            return None
        ks = self._locate(payload, level)
        if ks is None:
            return None
        relay = self.relays[level][index]
        return dict(zip(map(relay.__getitem__, ks), map(_value, payload)))

    def _locate(self, payload: Any, level: int) -> list[int] | None:
        """The positions of ``payload``'s paths at ``level``, or ``None``
        unless it is a tuple of ``(path, value)`` tuples whose paths are
        all (exact copies of) compiled level-``level`` paths."""
        if payload.__class__ is not tuple:
            return None
        if not payload:
            return []
        try:
            if {*map(type, payload)} != _TUPLE or {*map(len, payload)} != _PAIR:
                return None
            got = list(map(_path, payload))
            ks = list(map(self.positions[level].__getitem__, got))
        except (KeyError, TypeError):  # unknown or unhashable path
            return None
        listed = list(map(self.paths[level].__getitem__, ks))
        if all(map(is_, listed, got)) or all(map(_exact, listed, got)):
            return ks
        return None

    def resolve(self, leaves: Mapping[int, Any], default: Any) -> Any:
        """Bottom-up strict majority, level by level, over the leaves in
        depth-first order, where each level's child groups are blocks.

        Per group this is :func:`_strict_majority`, shortcut when the
        first value wins: the tally's first key is the first value, and
        ``count`` merges equal values (``1`` and ``True``) as the tally
        does.  The leaves are hashed first, in the reference's order, so
        an unhashable one raises the tally's error (``default`` is
        hashable, see :class:`EIGDevice`)."""
        values = list(map(leaves.get, self._leaves_dfs, repeat(default)))
        set(values)
        for width in self._widths:
            values = [
                group[0]
                if group.count(group[0]) * 2 > width
                else _strict_majority(group, default)
                for group in zip(*[iter(values)] * width)
            ]
        return values[0]

    def tree(self, levels: Sequence[tuple[tuple, tuple]]) -> dict[Path, Any]:
        """The reference device's dict tree holding the same claims."""
        return {
            paths[k]: v
            for paths, (ks, vs) in zip(self.paths, levels)
            for k, v in zip(ks, vs)
        }


def _path_space(roster: tuple[NodeId, ...], f: int) -> _PathSpace | None:
    """The compiled space for ``roster`` and ``f``, or ``None`` when its
    ids collide under ``==`` or ``str`` (the wire order would then
    depend on arrival order, which only the dict tree reproduces) or
    some path has no children (``n <= f``).

    Spaces are shared between rosters whose ids are :func:`_exact`
    copies of each other, so ``1`` and ``True`` never share one."""
    try:
        return _cached_path_space(
            roster, f, tuple((type(x), repr(x)) for x in roster)
        )
    except TypeError:  # unhashable ids
        return None


@lru_cache(maxsize=16)
def _cached_path_space(
    roster: tuple[NodeId, ...], f: int, _exact_key: tuple
) -> _PathSpace | None:
    n = len(roster)
    if n <= f or len(set(roster)) != n or len({str(x) for x in roster}) != n:
        return None
    return _PathSpace(roster, f)


def eig_devices(
    graph: CommunicationGraph, max_faults: int, default: Any = 0
) -> dict[NodeId, EIGDevice]:
    """An EIG device per node of a complete graph."""
    if not graph.is_complete():
        raise GraphError(
            "EIG requires a complete graph; relay over vertex-disjoint "
            "paths (protocols.dolev_relay) extends it to 2f+1-connected "
            "graphs"
        )
    if len(graph) < 3 * max_faults + 1:
        raise GraphError(
            f"EIG requires n >= 3f+1 (= {3 * max_faults + 1}); "
            f"got n = {len(graph)} — and the core engines prove no "
            "protocol can do better"
        )
    roster = tuple(graph.nodes)
    return {
        u: EIGDevice(u, roster, max_faults, default) for u in graph.nodes
    }

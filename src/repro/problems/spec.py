"""Problem specifications as executable checkers.

Each consensus problem in the paper is a pair (or triple) of conditions
on *correct system behaviors* — behaviors with at least ``n - f``
correct nodes.  Here every condition is a function from the observable
outcome of a behavior (decisions, decision times, logical clock
readings) to a verdict listing the violated conditions.

The checkers deliberately operate on plain data (mappings from node to
value) rather than runtime objects, so the same specs serve the
synchronous engines, the timed engines, and the protocol test suites.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from ..graphs.graph import NodeId


@dataclass(frozen=True)
class Violation:
    """One broken condition of a problem specification."""

    condition: str
    detail: str
    nodes: tuple[NodeId, ...] = ()

    def __str__(self) -> str:
        where = f" (nodes: {', '.join(map(str, self.nodes))})" if self.nodes else ""
        return f"[{self.condition}] {self.detail}{where}"


@dataclass(frozen=True)
class SpecVerdict:
    """The outcome of checking one behavior against one spec."""

    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "all conditions satisfied"
        return "; ".join(str(v) for v in self.violations)


def in_node_order(
    nodes: Iterable[NodeId], outcome: Mapping[NodeId, Any]
) -> list[NodeId]:
    """``nodes`` as a list.  A set comes out in the order of ``outcome``
    (decisions, fire times or clocks, built in the graph's node order),
    so a verdict names its nodes in an order that does not depend on
    string hashing (``PYTHONHASHSEED``)."""
    if isinstance(nodes, (set, frozenset)):
        return [u for u in outcome if u in nodes]
    return list(nodes)


def _undecided(
    decisions: Mapping[NodeId, Any | None]
) -> tuple[NodeId, ...]:
    return tuple(u for u, v in decisions.items() if v is None)

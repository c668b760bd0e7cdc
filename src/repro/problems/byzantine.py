"""Byzantine agreement and weak agreement specifications (Sections 3–4).

*Byzantine agreement* (strong validity):
    Agreement — every correct node chooses the same value.
    Validity  — if all the **correct** nodes have the same input, that
                input must be the value chosen.

*Weak agreement* (Lamport's weak Byzantine generals):
    Agreement — every correct node chooses the same value.
    Validity  — if **all** nodes are correct and have the same input,
                that input must be the value chosen.
    Choice    — a correct node must choose after a finite amount of
                time (checked against an explicit deadline).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from ..graphs.graph import NodeId
from .spec import SpecVerdict, Violation, _undecided, in_node_order


def check_agreement(
    decisions: Mapping[NodeId, Any | None], correct: Iterable[NodeId]
) -> list[Violation]:
    """All correct, decided nodes chose the same value."""
    correct = in_node_order(correct, decisions)
    decided = {u: decisions[u] for u in correct if decisions[u] is not None}
    values = set(decided.values())
    if len(values) > 1:
        by_value: dict[Any, list[NodeId]] = {}
        for u, v in decided.items():
            by_value.setdefault(v, []).append(u)
        detail = "correct nodes disagree: " + ", ".join(
            f"{sorted(map(str, nodes))} chose {value!r}"
            for value, nodes in sorted(by_value.items(), key=lambda kv: repr(kv[0]))
        )
        return [Violation("agreement", detail, tuple(correct))]
    return []


def check_termination(
    decisions: Mapping[NodeId, Any | None], correct: Iterable[NodeId]
) -> list[Violation]:
    """Every correct node decided (within the observation horizon)."""
    missing = [
        u for u in in_node_order(correct, decisions) if decisions[u] is None
    ]
    if missing:
        return [
            Violation(
                "termination",
                "correct nodes never chose a value within the horizon",
                tuple(missing),
            )
        ]
    return []


@dataclass(frozen=True)
class ByzantineAgreementSpec:
    """Agreement + strong validity + termination, per Section 3."""

    def check(
        self,
        inputs: Mapping[NodeId, Any],
        decisions: Mapping[NodeId, Any | None],
        correct: Iterable[NodeId],
    ) -> SpecVerdict:
        correct = in_node_order(correct, decisions)
        violations = check_termination(decisions, correct)
        violations += check_agreement(decisions, correct)
        correct_inputs = {inputs[u] for u in correct}
        if len(correct_inputs) == 1:
            (common,) = correct_inputs
            dissenters = [
                u
                for u in correct
                if decisions[u] is not None and decisions[u] != common
            ]
            if dissenters:
                violations.append(
                    Violation(
                        "validity",
                        f"all correct inputs are {common!r} but these nodes "
                        "chose otherwise",
                        tuple(dissenters),
                    )
                )
        return SpecVerdict(tuple(violations))


@dataclass(frozen=True)
class WeakAgreementSpec:
    """Agreement + weak validity + choice, per Section 4.

    Weak validity binds only behaviors in which *every* node is correct;
    pass ``all_correct=True`` for those.
    """

    def check(
        self,
        inputs: Mapping[NodeId, Any],
        decisions: Mapping[NodeId, Any | None],
        correct: Iterable[NodeId],
        all_correct: bool,
    ) -> SpecVerdict:
        correct = in_node_order(correct, decisions)
        violations = check_termination(decisions, correct)
        violations += check_agreement(decisions, correct)
        if all_correct:
            all_inputs = {inputs[u] for u in correct}
            if len(all_inputs) == 1:
                (common,) = all_inputs
                dissenters = [
                    u
                    for u in correct
                    if decisions[u] is not None and decisions[u] != common
                ]
                if dissenters:
                    violations.append(
                        Violation(
                            "validity",
                            f"all nodes are correct with input {common!r} but "
                            "these nodes chose otherwise",
                            tuple(dissenters),
                        )
                    )
        return SpecVerdict(tuple(violations))


__all__ = [
    "ByzantineAgreementSpec",
    "WeakAgreementSpec",
    "check_agreement",
    "check_termination",
    "_undecided",
]

"""Approximate agreement specifications (Section 6).

*Simple approximate agreement* [DLPSW]:
    Agreement — the spread of chosen values is strictly smaller than the
                spread of the correct inputs (or equal if that is zero).
    Validity  — each correct node chooses a value within the range of
                the correct inputs.

*(ε, δ, γ)-agreement* [MS]:
    Inputs are promised to lie in an interval of length at most δ.
    Agreement — chosen values are all at most ε apart.
    Validity  — each chosen value lies in ``[r_min - γ, r_max + γ]``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..graphs.graph import NodeId
from .byzantine import check_termination
from .spec import SpecVerdict, Violation, in_node_order


def _spread(values: Iterable[float]) -> float:
    vals = list(values)
    return max(vals) - min(vals) if vals else 0.0


@dataclass(frozen=True)
class SimpleApproximateAgreementSpec:
    """Section 6.1's (very weak) version of [DLPSW] approximate
    agreement, over real inputs in ``[0, 1]``."""

    def check(
        self,
        inputs: Mapping[NodeId, float],
        decisions: Mapping[NodeId, float | None],
        correct: Iterable[NodeId],
    ) -> SpecVerdict:
        correct = in_node_order(correct, decisions)
        violations = check_termination(decisions, correct)
        decided = {
            u: decisions[u] for u in correct if decisions[u] is not None
        }
        input_spread = _spread(inputs[u] for u in correct)
        output_spread = _spread(decided.values())
        if decided:
            if input_spread == 0.0:
                if output_spread != 0.0:
                    violations.append(
                        Violation(
                            "agreement",
                            f"inputs all equal but outputs spread "
                            f"{output_spread}",
                            tuple(decided),
                        )
                    )
            elif output_spread >= input_spread:
                violations.append(
                    Violation(
                        "agreement",
                        f"output spread {output_spread} not strictly below "
                        f"input spread {input_spread}",
                        tuple(decided),
                    )
                )
            low = min(inputs[u] for u in correct)
            high = max(inputs[u] for u in correct)
            outliers = [
                u for u, v in decided.items() if not low <= v <= high
            ]
            if outliers:
                violations.append(
                    Violation(
                        "validity",
                        f"chosen values escape the input range "
                        f"[{low}, {high}]",
                        tuple(outliers),
                    )
                )
        return SpecVerdict(tuple(violations))


@dataclass(frozen=True)
class EpsilonDeltaGammaSpec:
    """Section 6.2's (ε, δ, γ)-agreement, after [MS].

    Trivially solvable by echoing the input when ``ε >= δ``; Theorem 6
    shows it is unsolvable in inadequate graphs when ``ε < δ``.
    """

    epsilon: float
    delta: float
    gamma: float

    def __post_init__(self) -> None:
        if min(self.epsilon, self.delta, self.gamma) <= 0:
            raise ValueError("ε, δ, γ must all be positive")

    def check(
        self,
        inputs: Mapping[NodeId, float],
        decisions: Mapping[NodeId, float | None],
        correct: Iterable[NodeId],
    ) -> SpecVerdict:
        correct = in_node_order(correct, decisions)
        r_min = min(inputs[u] for u in correct)
        r_max = max(inputs[u] for u in correct)
        if r_max - r_min > self.delta + 1e-12:
            raise ValueError(
                f"input promise broken: spread {r_max - r_min} > δ = "
                f"{self.delta}"
            )
        violations = check_termination(decisions, correct)
        decided = {
            u: decisions[u] for u in correct if decisions[u] is not None
        }
        if decided:
            output_spread = _spread(decided.values())
            if output_spread > self.epsilon + 1e-12:
                violations.append(
                    Violation(
                        "agreement",
                        f"output spread {output_spread} exceeds ε = "
                        f"{self.epsilon}",
                        tuple(decided),
                    )
                )
            low = r_min - self.gamma
            high = r_max + self.gamma
            outliers = [
                u
                for u, v in decided.items()
                if not low - 1e-12 <= v <= high + 1e-12
            ]
            if outliers:
                violations.append(
                    Violation(
                        "validity",
                        f"chosen values escape [r_min - γ, r_max + γ] = "
                        f"[{low}, {high}]",
                        tuple(outliers),
                    )
                )
        return SpecVerdict(tuple(violations))

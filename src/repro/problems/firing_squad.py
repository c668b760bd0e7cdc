"""The Byzantine firing squad specification (Section 5).

One or more nodes may receive a stimulus at time 0 (input ``1``; the
absence of the stimulus is input ``0``).  Correct behaviors must
satisfy:

    Agreement — if a correct node enters the FIRE state at time ``t``,
                every correct node enters the FIRE state at time ``t``.
    Validity  — if all nodes are correct and the stimulus occurs at any
                node, all nodes fire after some finite delay; if the
                stimulus does not occur and all nodes are correct, no
                node ever fires.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..graphs.graph import NodeId
from .spec import SpecVerdict, Violation, in_node_order


@dataclass(frozen=True)
class FiringSquadSpec:
    """Checks fire times (``None`` = never fired within the horizon).

    ``time_tolerance`` absorbs floating-point jitter when comparing
    fire instants; simultaneity in the model is exact, so the default
    is exact comparison.
    """

    time_tolerance: float = 0.0

    def _simultaneous(self, s: float, t: float) -> bool:
        return abs(s - t) <= self.time_tolerance

    def check(
        self,
        inputs: Mapping[NodeId, int],
        fire_times: Mapping[NodeId, float | None],
        correct: Iterable[NodeId],
        all_correct: bool,
    ) -> SpecVerdict:
        correct = in_node_order(correct, fire_times)
        violations: list[Violation] = []
        fired = {u: fire_times[u] for u in correct if fire_times[u] is not None}
        if fired:
            reference = min(fired.values())
            stragglers = [
                u
                for u in correct
                if fire_times[u] is None
                or not self._simultaneous(fire_times[u], reference)
            ]
            if stragglers:
                violations.append(
                    Violation(
                        "agreement",
                        f"a correct node fired at time {reference} but these "
                        "correct nodes did not fire at that time",
                        tuple(stragglers),
                    )
                )
        if all_correct:
            stimulated = any(inputs[u] == 1 for u in correct)
            if stimulated and len(fired) < len(correct):
                missing = [u for u in correct if fire_times[u] is None]
                violations.append(
                    Violation(
                        "validity",
                        "stimulus occurred but these nodes never fired "
                        "within the horizon",
                        tuple(missing),
                    )
                )
            if not stimulated and fired:
                violations.append(
                    Violation(
                        "validity",
                        "no stimulus occurred yet these nodes fired",
                        tuple(fired),
                    )
                )
        return SpecVerdict(tuple(violations))

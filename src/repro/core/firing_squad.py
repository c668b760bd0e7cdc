"""Theorem 4, executable: the Byzantine firing squad problem cannot be
solved in inadequate graphs under the Bounded-Delay Locality axiom.

Section 5's construction mirrors weak agreement: measure ``t``, the
fire time of the all-correct stimulated behavior; pick ``k >= t/δ`` (a
multiple of 3); run the ``4k``-ring cover with one half stimulated.
The stimulated middle fires at ``t`` (its view is identical to the
stimulated triangle run through ``k·δ >= t``), the unstimulated middle
does not (its view is identical to the quiet run), yet every adjacent
pair is a correct behavior of the triangle whose correct nodes must
fire simultaneously or not at all.  Somewhere around the ring that
breaks, and the engine returns the pair.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graphs.builders import triangle
from ..graphs.coverings import ring_cover_of_triangle
from ..graphs.graph import CommunicationGraph, NodeId
from ..problems.firing_squad import FiringSquadSpec
from ..runtime.timed.device import DeviceFactory
from ..runtime.timed.executor import run_timed
from ..runtime.timed.system import install_in_covering_timed, make_timed_system
from .timed_argument import TimedArgumentError, build_base_behavior_timed
from .weak import _AllCorrectStub, ring_parameter
from .witness import CheckedBehavior, ImpossibilityWitness

_SPEC = FiringSquadSpec()


def refute_firing_squad(
    factories: Mapping[NodeId, DeviceFactory],
    delta: float,
    fire_deadline: float,
    base: CommunicationGraph | None = None,
    horizon_slack: float = 2.0,
    require_violation: bool = True,
) -> ImpossibilityWitness:
    """Refute claimed firing-squad devices for the triangle.

    ``fire_deadline`` is the claimed bound on the fire time when the
    stimulus occurs and all nodes are correct; missing it (or firing
    without a stimulus) is already a validity violation.
    """
    base = base or triangle()
    stimulated = run_timed(
        make_timed_system(
            base, factories, {u: 1 for u in base.nodes}, delay=delta
        ),
        horizon=fire_deadline,
    )
    quiet = run_timed(
        make_timed_system(
            base, factories, {u: 0 for u in base.nodes}, delay=delta
        ),
        horizon=fire_deadline,
    )
    for label, reference, inputs in (
        ("all-stimulated", stimulated, {u: 1 for u in base.nodes}),
        ("all-quiet", quiet, {u: 0 for u in base.nodes}),
    ):
        verdict = _SPEC.check(
            inputs, reference.fire_times(), base.nodes, all_correct=True
        )
        if not verdict.ok:
            return ImpossibilityWitness(
                problem="byzantine-firing-squad",
                bound="3f+1 nodes",
                graph=base,
                max_faults=1,
                checked=(
                    CheckedBehavior(
                        constructed=_AllCorrectStub(
                            label=label,
                            scenario_nodes=tuple(base.nodes),
                            correct_nodes=frozenset(base.nodes),
                        ),
                        verdict=verdict,
                    ),
                ),
                extra={"stage": "all-correct reference runs"},
            )

    fire_times = [stimulated.node(u).fire_time for u in base.nodes]
    t_fire = max(fire_times)
    k = ring_parameter(t_fire, delta)  # k·δ > t ≥ the paper's k ≥ t/δ
    ring_size = 4 * k
    covering = ring_cover_of_triangle(ring_size, base)
    ring_nodes = covering.cover.nodes
    cover_inputs = {
        node: 1 if index < 2 * k else 0
        for index, node in enumerate(ring_nodes)
    }
    cover_system = install_in_covering_timed(
        covering, factories, cover_inputs, delay=delta
    )
    horizon = max(k * delta, t_fire) * horizon_slack
    cover_behavior = run_timed(cover_system, horizon)

    # The indistinguishability step, checked operationally.
    middles = []
    for index, reference in ((k - 1, stimulated), (k, stimulated),
                             (3 * k - 1, quiet), (3 * k, quiet)):
        node = ring_nodes[index]
        if not cover_behavior.node(node).prefix_equal(
            reference.node(covering(node)), through=t_fire
        ):
            raise TimedArgumentError(
                f"bounded-delay indistinguishability failed at {node!r}"
            )
        middles.append(
            {
                "node": node,
                "stimulated": cover_inputs[node] == 1,
                "fire_time": cover_behavior.node(node).fire_time,
            }
        )

    checked: list[CheckedBehavior] = []
    for i in range(ring_size):
        pair = [ring_nodes[i], ring_nodes[(i + 1) % ring_size]]
        constructed = build_base_behavior_timed(
            covering, cover_system, cover_behavior, pair, factories,
            label=f"E{i}",
        )
        verdict = _SPEC.check(
            constructed.inputs,
            constructed.fire_times(),
            constructed.correct_nodes,
            all_correct=False,
        )
        checked.append(
            CheckedBehavior(constructed=constructed, verdict=verdict)
        )

    witness = ImpossibilityWitness(
        problem="byzantine-firing-squad",
        bound=f"3f+1 nodes (Bounded-Delay Locality, δ={delta})",
        graph=base,
        max_faults=1,
        checked=tuple(checked),
        extra={
            "fire_time": t_fire,
            "k": k,
            "ring_size": ring_size,
            "middles": middles,
        },
    )
    if require_violation:
        witness.require_found()
    return witness


def fire_time_profile(witness: ImpossibilityWitness) -> list[tuple[str, dict]]:
    """Fire times of the correct pair in each constructed behavior —
    showing the FIRE wave break around the ring."""
    profile = []
    for checked in witness.checked:
        constructed = checked.constructed
        profile.append(
            (
                checked.label,
                {
                    str(u): fire_time
                    for u, fire_time in constructed.fire_times().items()
                },
            )
        )
    return profile


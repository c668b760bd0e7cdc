"""Consensus protocols: the positive side of the paper's bounds.

Naive devices (refutation targets for the impossibility engines) plus
the classical algorithms that match the bounds on adequate graphs:

* :mod:`~repro.protocols.eig` — EIG Byzantine agreement, ``n >= 3f+1``
  in ``f+1`` rounds (the matching upper bound for Theorem 1);
* :mod:`~repro.protocols.phase_king` — polynomial-message agreement;
* :mod:`~repro.protocols.authenticated` — Dolev–Strong signed-message
  agreement for any ``f`` (the paper's remark that weakening the Fault
  axiom breaks the bound);
* :mod:`~repro.protocols.dolev_relay` — transmission over ``2f+1``
  vertex-disjoint paths (the matching bound for connectivity);
* :mod:`~repro.protocols.approx_dlpsw` / :mod:`~repro.protocols.
  inexact_ms` — approximate/inexact agreement (Theorems 5/6 duals);
* :mod:`~repro.protocols.clock_sync_avg` — averaging clock
  synchronization (Theorem 8 dual);
* :mod:`~repro.protocols.reductions` — weak agreement and the firing
  squad from Byzantine agreement.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "approx_dlpsw": (
        "IteratedTrimmedMeanDevice", "dlpsw_devices", "trimmed_mean",
    ),
    "authenticated": (
        "AuthenticatedConsensusDevice", "DolevStrongBroadcastDevice",
        "authenticated_consensus_devices", "sign", "signed_core",
        "signer_chain",
    ),
    "clock_sync_avg": (
        "AveragingSyncDevice", "ByzantineClockDevice", "OffsetEnvelope",
        "max_logical_skew",
    ),
    "crash_consensus": ("FloodSetDevice", "floodset_devices"),
    "dolev_relay": ("RelayNodeDevice", "relay_devices", "transmission_rounds"),
    "eig": ("EIGDevice", "eig_devices"),
    "gradecast": ("GradecastDevice", "gradecast_devices"),
    "inexact_ms": (
        "InexactAgreementDevice", "fault_tolerant_midpoint", "inexact_devices",
        "rounds_for_target",
    ),
    "naive": (
        "EchoInputDevice", "FloodValueDevice", "MajorityVoteDevice",
        "MedianDevice", "MidpointDevice", "MinimumDevice",
    ),
    "phase_king": ("PhaseKingDevice", "phase_king_devices"),
    "sparse_agreement": (
        "RelayedAgreementDevice", "build_routing", "sparse_agreement_devices",
    ),
    "reliable_broadcast": (
        "ReliableBroadcastDevice", "reliable_broadcast_devices",
    ),
    "reductions": (
        "FiringSquadFromAgreementDevice", "fire_round_of",
        "firing_squad_devices", "weak_agreement_devices",
    ),
    "timed_naive": (
        "AlarmWeakDevice", "CountdownFireDevice", "ExchangeMidpointClockDevice",
        "ExchangeOnceWeakDevice", "LowerEnvelopeClockDevice", "RelayFireDevice",
    ),
})

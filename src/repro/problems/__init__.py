"""Executable specifications of the paper's five consensus problems."""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "approximate": ("EpsilonDeltaGammaSpec", "SimpleApproximateAgreementSpec"),
    "byzantine": (
        "ByzantineAgreementSpec", "WeakAgreementSpec", "check_agreement",
        "check_termination",
    ),
    "clock_sync": ("ClockSyncSpec",),
    "firing_squad": ("FiringSquadSpec",),
    "spec": ("SpecVerdict", "Violation"),
})

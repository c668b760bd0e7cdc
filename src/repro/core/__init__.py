"""The impossibility engines — the paper's contribution, executable.

Each ``refute_*`` function takes *concrete candidate devices* claimed
to solve a consensus problem on an inadequate graph and mechanically
performs the paper's covering-graph construction, returning an
:class:`~repro.core.witness.ImpossibilityWitness`: a chain of correct
behaviors of the graph, at least one of which violates the problem's
correctness conditions.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "approximate": (
        "refute_epsilon_delta", "refute_epsilon_delta_connectivity",
        "refute_simple_connectivity", "refute_simple_node_bound",
        "ring_size_for_epsilon_delta",
    ),
    "byzantine": ("refute_connectivity", "refute_node_bound"),
    "clock_sync": ("SynchronizationSetting", "choose_k", "refute_clock_sync"),
    "corollaries": (
        "CorollaryOutcome", "corollary_12_linear_envelope",
        "corollary_13_diverging_linear", "corollary_14_offset_clocks",
        "corollary_15_logarithmic",
    ),
    "covering_argument": (
        "ChainLink", "ChainResult", "ConstructedBehavior",
        "CoveringArgumentError", "build_base_behavior",
        "connectivity_scenarios", "node_bound_scenarios",
        "run_scenario_chain", "shared_links",
    ),
    "general": ("collapse_to_triangle", "refute_epsilon_delta_general"),
    "nondeterminism": ("SeededOracle", "refute_nondeterministic"),
    "axioms": (
        "AxiomViolation", "check_bounded_delay_locality", "check_fault_axiom",
        "check_locality_axiom", "check_scaling_axiom",
    ),
    "firing_squad": ("fire_time_profile", "refute_firing_squad"),
    "timed_connectivity": (
        "refute_clock_sync_connectivity", "refute_firing_squad_connectivity",
        "refute_weak_agreement_connectivity",
    ),
    "timed_argument": (
        "TimedArgumentError", "TimedConstructedBehavior",
        "build_base_behavior_timed",
    ),
    "weak": ("agreement_frontier", "refute_weak_agreement", "ring_parameter"),
    "witness": ("CheckedBehavior", "ImpossibilityWitness", "NoViolationFound"),
})

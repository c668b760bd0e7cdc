"""Sweeps, tables and figure renderings for the benchmark harness."""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "diagrams": (
        "diamond_figure", "eight_ring_figure", "hexagon_figure", "ring_figure",
        "triangle_figure", "witness_chain_figure",
    ),
    "sweep": (
        "SWEEP_HEADERS", "SweepRow", "connectivity_sweep", "node_bound_sweep",
        "sweep_store_key",
    ),
    "adversary_search": ("SearchResult", "search_agreement_attacks"),
    "parallel": (
        "ItemError", "ParallelRunner", "available_parallelism",
        "fork_available",
    ),
    "runstore": ("RunStore", "RunStoreError", "Shard", "atomic_write_text"),
    "campaign": (
        "CampaignConfig", "CampaignResult", "Counterexample",
        "DegradationFrontier", "FRONTIER_HEADERS", "FrontierRow", "NodeFault",
        "campaign_store_key", "degradation_frontier",
        "frontier_store_key", "replay_counterexample", "run_campaign",
        "sample_fault_plan", "shrink_counterexample",
    ),
    "convergence": (
        "ConvergenceCurve", "measure_convergence", "theoretical_dlpsw_factor",
    ),
    "report": ("ReportLine", "full_report", "render_report"),
    "witness_io": (
        "campaign_to_dict", "load_campaign", "load_json_file", "save_campaign",
        "save_witness", "witness_to_dict",
    ),
    "metrics": ("COMPARE_HEADERS", "RunMetrics", "compare", "measure"),
    "tables": ("format_table",),
    "traces": (
        "render_fire_times", "render_sync_decisions", "render_sync_messages",
        "render_timed_events",
    ),
})

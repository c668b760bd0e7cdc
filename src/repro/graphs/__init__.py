"""Communication graphs, connectivity, coverings, and adequacy
(Section 2 of FLM 1985)."""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "automorphisms": (
        "OrbitIndex", "apply_automorphism", "automorphism_count",
        "automorphism_group", "node_orbits", "scenario_is_name_sensitive",
    ),
    "adequacy": (
        "AdequacyReport", "classify", "is_adequate", "is_inadequate",
        "max_tolerable_faults", "required_connectivity", "required_nodes",
    ),
    "builders": (
        "butterfly_network", "cheapest_adequate_graph", "harary_graph",
        "circulant", "complete_bipartite", "complete_graph", "diamond", "line",
        "random_connected_graph", "ring", "star", "triangle", "wheel",
    ),
    "connectivity": (
        "analytics_stats", "clear_analytics", "global_min_cut",
        "local_connectivity", "min_vertex_cut", "node_connectivity",
        "vertex_disjoint_paths",
    ),
    "coverings": (
        "CyclicCover", "connectivity_cyclic_cover", "cyclic_cover",
        "CoveringError", "CoveringMap", "DoubleCover",
        "connectivity_double_cover", "cut_partition_for_connectivity",
        "double_cover", "hexagon_cover_of_triangle", "is_covering",
        "node_bound_double_cover", "partition_for_node_bound",
        "ring_cover_of_triangle", "verify_covering",
    ),
    "graph": ("CommunicationGraph", "DirectedEdge", "GraphError", "NodeId"),
    "isomorphism": ("find_isomorphism", "is_isomorphic", "verify_isomorphism"),
})

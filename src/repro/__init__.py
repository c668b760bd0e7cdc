"""repro — an executable reproduction of Fischer, Lynch & Merritt,
"Easy Impossibility Proofs for Distributed Consensus Problems"
(PODC 1985).

The package turns the paper inside out: its abstract model
(communication graphs, devices, behaviors, scenarios, the Locality and
Fault axioms) becomes running code, and its impossibility *proofs*
become *engines* that take any concrete device implementation claimed
to solve Byzantine agreement, weak agreement, the Byzantine firing
squad, approximate agreement, or clock synchronization on an
inadequate graph (fewer than ``3f + 1`` nodes or connectivity below
``2f + 1``) and produce a counterexample execution.

Quickstart::

    from repro.graphs import triangle
    from repro.core import refute_node_bound
    from repro.protocols.naive import MajorityVoteDevice

    g = triangle()
    devices = {u: MajorityVoteDevice() for u in g.nodes}
    witness = refute_node_bound(g, devices, max_faults=1, rounds=3)
    print(witness.describe())

Every package namespace is lazy (see :mod:`repro._lazy`): importing
``repro`` or a subpackage loads nothing else until a name is used.
"""

from ._lazy import lazy_namespace

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "core": None, "graphs": None, "problems": None, "protocols": None,
    "runtime": None,
})
__all__ += ["__version__"]

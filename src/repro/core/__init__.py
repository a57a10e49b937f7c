"""The paper's contribution: the cone-based topology control algorithm (CBTC).

This package implements:

* the basic CBTC(alpha) algorithm (Section 2) as a centralized, per-node
  computation over a :class:`~repro.net.network.Network`
  (:func:`run_cbtc`), and as a distributed protocol running on the
  discrete-event simulator (:class:`CBTCProtocol`);
* construction of the neighbour relation ``N_alpha``, its symmetric closure
  ``E_alpha`` (the graph ``G_alpha``), the largest symmetric subset
  ``E^-_alpha`` and the non-redundant subset used by pairwise edge removal;
* the three optimizations of Section 3 — shrink-back, asymmetric edge
  removal and pairwise edge removal — each preserving connectivity;
* the counterexample constructions behind Figure 2 (asymmetry of
  ``N_alpha``) and Figure 5 / Theorem 2.4 (disconnection for
  ``alpha > 5*pi/6``);
* the reconfiguration machinery of Section 4 (join / leave / angle-change
  events driven by the Neighbor Discovery Protocol);
* analysis helpers that check the paper's theorems on concrete networks
  (connectivity preservation, the redundant-edge theorem, power stretch).

The one-call entry point most users want is :func:`build_topology`, which
runs CBTC with a chosen set of optimizations and returns a
:class:`TopologyResult` with the final graph and per-node power assignment.
"""

from repro.core.constants import (
    ALPHA_CONNECTIVITY_THRESHOLD,
    ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD,
    PAIRWISE_ANGLE_THRESHOLD,
)
from repro.core.state import NeighborRecord, NodeState, CBTCOutcome
from repro.core.cbtc import run_cbtc, run_cbtc_for_node
from repro.core.topology import (
    TopologyResult,
    neighbor_digraph,
    symmetric_closure_graph,
    symmetric_subset_graph,
    topology_from_outcome,
)
from repro.core.optimizations import (
    shrink_back,
    shrink_back_node,
    asymmetric_edge_removal,
    pairwise_edge_removal,
    redundant_edges,
    edge_id,
)
from repro.core.pipeline import build_topology, OptimizationConfig
from repro.core.incremental import IncrementalTopologyBuilder
from repro.core.counterexamples import (
    asymmetry_example,
    disconnection_example,
    AsymmetryExample,
    DisconnectionExample,
)
from repro.core.analysis import (
    preserves_connectivity,
    preserves_max_power_connectivity,
    connectivity_report,
    ConnectivityReport,
    power_stretch_factor,
    verify_theorem_2_1,
    verify_theorem_3_6,
)
from repro.core.protocol import CBTCProtocol, run_distributed_cbtc, DistributedRunResult
from repro.core.reconfiguration import (
    ReconfigurationManager,
    JoinEvent,
    LeaveEvent,
    AngleChangeEvent,
)

__all__ = [
    "ALPHA_CONNECTIVITY_THRESHOLD",
    "ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD",
    "PAIRWISE_ANGLE_THRESHOLD",
    "NeighborRecord",
    "NodeState",
    "CBTCOutcome",
    "run_cbtc",
    "run_cbtc_for_node",
    "TopologyResult",
    "neighbor_digraph",
    "symmetric_closure_graph",
    "symmetric_subset_graph",
    "topology_from_outcome",
    "shrink_back",
    "shrink_back_node",
    "asymmetric_edge_removal",
    "pairwise_edge_removal",
    "redundant_edges",
    "edge_id",
    "build_topology",
    "IncrementalTopologyBuilder",
    "OptimizationConfig",
    "asymmetry_example",
    "disconnection_example",
    "AsymmetryExample",
    "DisconnectionExample",
    "preserves_connectivity",
    "preserves_max_power_connectivity",
    "connectivity_report",
    "ConnectivityReport",
    "power_stretch_factor",
    "verify_theorem_2_1",
    "verify_theorem_3_6",
    "CBTCProtocol",
    "run_distributed_cbtc",
    "DistributedRunResult",
    "ReconfigurationManager",
    "JoinEvent",
    "LeaveEvent",
    "AngleChangeEvent",
]

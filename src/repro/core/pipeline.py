"""High-level topology-construction pipeline.

:func:`build_topology` is the one-call public entry point: it runs
CBTC(alpha) on a network, applies the requested optimizations in the order
the paper composes them (shrink-back, then asymmetric edge removal when
``alpha <= 2*pi/3``, then pairwise edge removal) and returns a
:class:`~repro.core.topology.TopologyResult`.

The paper's Table 1 columns map onto :class:`OptimizationConfig` as::

    Basic                -> OptimizationConfig.none()
    with op1             -> OptimizationConfig(shrink_back=True)
    with op1 and op2     -> OptimizationConfig(shrink_back=True, asymmetric_removal=True)
    with all op          -> OptimizationConfig.all()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.network import Network
from repro.radio.power import PowerSchedule
from repro.core.constants import ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD
from repro.core.cbtc import run_cbtc
from repro.core.optimizations import pairwise_edge_removal, shrink_back
from repro.core.state import CBTCOutcome
from repro.core.topology import TopologyResult, per_node_radius, topology_from_outcome


@dataclass(frozen=True)
class OptimizationConfig:
    """Which of the paper's optimizations to apply.

    ``asymmetric_removal`` is only sound for ``alpha <= 2*pi/3``
    (Theorem 3.2); :func:`build_topology` silently skips it for larger alpha
    so that "all applicable optimizations" can be requested uniformly, as the
    paper does in Figure 6(g).
    """

    shrink_back: bool = False
    asymmetric_removal: bool = False
    pairwise_removal: bool = False
    pairwise_remove_all: bool = False

    @classmethod
    def none(cls) -> "OptimizationConfig":
        """The basic algorithm with no optimizations."""
        return cls()

    @classmethod
    def all(cls) -> "OptimizationConfig":
        """All applicable optimizations (the paper's "with all op" column)."""
        return cls(shrink_back=True, asymmetric_removal=True, pairwise_removal=True)

    @classmethod
    def shrink_only(cls) -> "OptimizationConfig":
        """Only the shrink-back operation (the paper's "with op1" column)."""
        return cls(shrink_back=True)

    @classmethod
    def shrink_and_asymmetric(cls) -> "OptimizationConfig":
        """Shrink-back plus asymmetric edge removal (the "with op1 and op2" column)."""
        return cls(shrink_back=True, asymmetric_removal=True)

    def describe(self) -> str:
        """Short human-readable description of the enabled optimizations."""
        parts = []
        if self.shrink_back:
            parts.append("shrink-back")
        if self.asymmetric_removal:
            parts.append("asymmetric-removal")
        if self.pairwise_removal:
            parts.append("pairwise-removal")
        return "+".join(parts) if parts else "basic"


def build_topology(
    network: Network,
    alpha: float,
    *,
    config: Optional[OptimizationConfig] = None,
    schedule: Optional[PowerSchedule] = None,
    outcome: Optional[CBTCOutcome] = None,
) -> TopologyResult:
    """Run CBTC(alpha) plus the requested optimizations on ``network``.

    Parameters
    ----------
    network:
        The physical network.
    alpha:
        Cone angle.  ``alpha <= 5*pi/6`` is required for the connectivity
        guarantee; larger values are allowed (e.g. to reproduce the
        Theorem 2.4 counterexample) but are the caller's responsibility.
    config:
        Which optimizations to apply; defaults to none (the basic algorithm).
    schedule:
        Power schedule for the growing phase; ``None`` selects the exhaustive
        (idealized) schedule.
    outcome:
        A pre-computed CBTC outcome to reuse (skips re-running the growing
        phase, e.g. when evaluating several optimization configurations on
        the same network, as Table 1 does).

    Returns
    -------
    TopologyResult
        The final graph plus per-node radius/power.
    """
    config = config if config is not None else OptimizationConfig.none()
    if outcome is None:
        outcome = run_cbtc(network, alpha, schedule=schedule)
    working = outcome

    if config.shrink_back:
        working = shrink_back(working)

    apply_asymmetric = (
        config.asymmetric_removal and alpha <= ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD + 1e-12
    )
    symmetric_mode = "subset" if apply_asymmetric else "closure"
    result = topology_from_outcome(working, network, symmetric=symmetric_mode)

    graph = result.graph
    if config.pairwise_removal:
        graph = pairwise_edge_removal(graph, network, remove_all=config.pairwise_remove_all)

    radius = per_node_radius(graph, network)
    power = {node_id: network.power_model.required_power(r) for node_id, r in radius.items()}
    label = f"CBTC(alpha={alpha:.4f}) [{config.describe()}]"
    return TopologyResult(
        graph=graph,
        alpha=alpha,
        label=label,
        outcome=working,
        node_radius=radius,
        node_power=power,
    )


"""Incremental epoch-to-epoch topology construction.

The paper's reconfiguration protocol (Section 4) is explicitly local: a
join, leave or angle change only perturbs nodes within radio range of the
event.  :func:`~repro.core.pipeline.build_topology` throws that locality
away — every call re-applies the optimizations everywhere and rebuilds the
graph from scratch.  :class:`IncrementalTopologyBuilder` keeps the previous
:class:`~repro.core.topology.TopologyResult` plus the intermediate pipeline
state alive and, given the CBTC states the reconfiguration manager
maintains and the set of *dirty* nodes (moved, crashed, recovered, joined,
or with a rewritten CBTC state), recomputes each stage only inside the
affected region:

* **Shrink-back** is a pure per-node function of the raw state, so it is
  re-applied to dirty states only.
* **Symmetric closure/subset graph**: only edges incident to a dirty state
  can appear, disappear or change length; they are spliced into the
  previous graph (``pos`` attributes are refreshed for every moved node).
* **Pairwise edge removal**: a node's redundancy scan depends on its
  adjacency and its neighbours' positions, so scans are redone for the
  dirty region plus its graph neighbourhood (``A1``); the
  longest-non-redundant-edge table additionally depends on incident
  redundancy flags, widening to ``A2 = A1 ∪ N(A1)``; removal decisions are
  re-evaluated for edges incident to ``A2``.
* **Radius/power** are re-derived for nodes whose final incident edge set
  changed.

Correctness contract: after every update the returned result is
**byte-identical** — through :func:`repro.io.results.results_to_json` —
to a from-scratch ``build_topology(network, alpha, config=config,
outcome=outcome)``.  This is enforced by ``tests/core/test_incremental.py``
and by the scenario-level equivalence battery.

Full-rebuild fallback: the builder falls back to a from-scratch build when
(a) it has no previous result, or (b) the dirty region covers most of the
network (splicing would cost more than rebuilding).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.constants import (
    ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD,
    PAIRWISE_ANGLE_THRESHOLD,
)
from repro.core.optimizations import redundant_edges_from_node, shrink_back_node
from repro.core.state import CBTCOutcome, NodeState
from repro.core.topology import (
    TopologyResult,
    edge_length_from_outcome,
    per_node_radius,
    symmetric_closure_graph,
    symmetric_subset_graph,
)
from repro.net.network import Network
from repro.net.node import NodeId
from repro.obs.metrics import COUNT_BUCKETS, Histogram
from repro.obs.trace import get_tracer

Edge = Tuple[NodeId, NodeId]

#: When the dirty region reaches this fraction of the node set, splicing is
#: abandoned for a from-scratch rebuild (the full-rebuild fallback).  Below
#: it a splice is not guaranteed to win: on drift epochs at n = 1000–2000
#: it costs about as much as a rebuild (0.8–1.1×; README, "Performance
#: architecture" §4), and on 80-node serving worlds it is only ~15% cheaper.
FULL_REBUILD_FRACTION = 0.8


def _norm(u: NodeId, v: NodeId) -> Edge:
    return (u, v) if u < v else (v, u)


class IncrementalTopologyBuilder:
    """Maintains a topology across epochs, splicing in per-epoch deltas.

    Parameters mirror :func:`~repro.core.pipeline.build_topology`; one
    builder serves one ``(network, alpha, config)`` combination.  Call
    :meth:`rebuild` to prime (or re-prime) the caches with a full build,
    then :meth:`update` with each epoch's dirty-node set.  Both take the
    CBTC states to build from (the reconfiguration manager's outcome); the
    builder never runs CBTC itself.
    """

    def __init__(
        self,
        network: Network,
        alpha: float,
        *,
        config: Optional["OptimizationConfig"] = None,
    ) -> None:
        from repro.core.pipeline import OptimizationConfig

        self.network = network
        self.alpha = alpha
        self.config = config if config is not None else OptimizationConfig.none()
        self.full_builds = 0
        self.incremental_updates = 0
        # Telemetry only (metrics op): how often splicing was abandoned for a
        # from-scratch rebuild, and how large the per-epoch dirty sets ran.
        self.fallbacks = 0
        self.dirty_size_hist = Histogram(COUNT_BUCKETS)
        self._result: Optional[TopologyResult] = None
        self._working: Optional[CBTCOutcome] = None
        self._in_neighbors: Dict[NodeId, Set[NodeId]] = {}
        self._base = None  # nx.Graph before pairwise removal
        self._closure_mode = True
        self._redundant_from: Dict[NodeId, Set[Edge]] = {}
        self._redundant_count: Dict[Edge, int] = {}
        self._longest: Dict[NodeId, float] = {}
        self._removed: Set[Edge] = set()
        self._radius: Dict[NodeId, float] = {}
        self._power: Dict[NodeId, float] = {}

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Builders pickled by older versions also carry the attributes of a
        # retired mode that ran CBTC itself: only the current ones are kept.
        self.__init__(state["network"], state["alpha"], config=state["config"])
        self.__dict__.update({key: state[key] for key in vars(self) if key in state})

    def matches(self, network: Network, alpha: float, config) -> bool:
        """Whether this builder serves the given pipeline parameters."""
        return self.network is network and self.alpha == alpha and self.config == config

    # ------------------------------------------------------------------ #
    # Full rebuild (priming + fallback)
    # ------------------------------------------------------------------ #
    def rebuild(self, outcome: CBTCOutcome) -> TopologyResult:
        """Run the full pipeline and (re)prime every incremental cache.

        Stage for stage this follows ``build_topology`` exactly; the only
        difference is that the intermediates (working outcome, base graph,
        per-node redundancy contributions, longest-non-redundant table,
        removal set, radius/power maps) are retained for later splicing.
        ``outcome`` is re-read on every update; no snapshot of it is kept.
        """
        with get_tracer().span("topology.rebuild"):
            return self._rebuild(outcome)

    def _rebuild(self, outcome: CBTCOutcome) -> TopologyResult:
        self.full_builds += 1
        network, alpha, config = self.network, self.alpha, self.config
        if config.shrink_back:
            working = CBTCOutcome(alpha=outcome.alpha)
            for state in outcome:
                working.states[state.node_id] = shrink_back_node(state)
        else:
            working = CBTCOutcome(
                alpha=outcome.alpha,
                states={node_id: state.copy() for node_id, state in outcome.states.items()},
            )
        self._working = working

        apply_asymmetric = (
            config.asymmetric_removal and alpha <= ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD + 1e-12
        )
        self._closure_mode = not apply_asymmetric
        base = (
            symmetric_closure_graph(working, network)
            if self._closure_mode
            else symmetric_subset_graph(working, network)
        )
        self._base = base

        self._in_neighbors = {}
        for state in working:
            for neighbor in state.neighbors:
                self._in_neighbors.setdefault(neighbor, set()).add(state.node_id)

        self._redundant_from = {}
        self._redundant_count = {}
        self._longest = {}
        self._removed = set()
        if config.pairwise_removal:
            for u in base.nodes:
                contribution = redundant_edges_from_node(
                    base, network, u, angle_threshold=PAIRWISE_ANGLE_THRESHOLD
                )
                self._redundant_from[u] = contribution
                for edge in contribution:
                    self._redundant_count[edge] = self._redundant_count.get(edge, 0) + 1
            for u in base.nodes:
                self._longest[u] = self._longest_non_redundant(u)
            for u, v, data in base.edges(data=True):
                edge = _norm(u, v)
                if self._redundant_count.get(edge, 0) <= 0:
                    continue
                if config.pairwise_remove_all or self._edge_removable(edge, data["length"]):
                    self._removed.add(edge)

        final = self._final_graph()
        self._radius = per_node_radius(final, network)
        required_power = network.power_model.required_power
        self._power = {node_id: required_power(r) for node_id, r in self._radius.items()}
        self._result = self._materialize(final)
        return self._result

    # ------------------------------------------------------------------ #
    # Incremental update
    # ------------------------------------------------------------------ #
    def update(self, dirty: Iterable[NodeId], outcome: CBTCOutcome) -> TopologyResult:
        """Splice an epoch delta into the previous result.

        ``dirty`` must contain every node whose position or liveness changed
        since the last build *and* every node whose state in ``outcome`` was
        rewritten.  Over-approximation is safe; omission is not.  Returns
        the result for the network's current state, byte-identical to a
        from-scratch build.
        """
        with get_tracer().span("topology.update"):
            return self._update(dirty, outcome)

    def _update(self, dirty: Iterable[NodeId], outcome: CBTCOutcome) -> TopologyResult:
        if self._result is None:
            return self.rebuild(outcome)
        dirty = set(dirty)
        if not dirty:
            return self._result
        self.dirty_size_hist.observe(len(dirty))
        network, config = self.network, self.config
        population = max(len(outcome.states), len(self._working.states), 1)
        if len(dirty) >= FULL_REBUILD_FRACTION * population:
            self.fallbacks += 1
            return self.rebuild(outcome)

        self.incremental_updates += 1
        base = self._base
        if self._result.graph is base:
            # Copy-on-write: the last result still shares the base graph.
            base = self._base = base.copy()
        working = self._working

        # ---- classify the dirty set ---------------------------------- #
        state_dirty = []
        new_states: Dict[NodeId, Optional[NodeState]] = {}
        for d in sorted(dirty):
            new_raw = outcome.states.get(d)
            old_working = working.states.get(d)
            if new_raw is None and old_working is None:
                continue  # position-only dirt on a node outside the topology
            state_dirty.append(d)
            if new_raw is None:
                new_states[d] = None
            else:
                new_states[d] = shrink_back_node(new_raw) if config.shrink_back else new_raw.copy()

        # ---- pass 1: strip old incident edges and in-neighbor links --- #
        touched_edges: Set[Edge] = set()
        for d in state_dirty:
            if d in base:
                for p in list(base.adj[d]):
                    touched_edges.add(_norm(d, p))
                    base.remove_edge(d, p)
            old_working = working.states.get(d)
            if old_working is not None:
                for neighbor in old_working.neighbors:
                    listers = self._in_neighbors.get(neighbor)
                    if listers is not None:
                        listers.discard(d)
                        if not listers:
                            del self._in_neighbors[neighbor]

        # ---- pass 2: swap states, node membership, in-neighbor adds --- #
        for d in state_dirty:
            state = new_states[d]
            if state is None:
                working.states.pop(d, None)
                if d in base:
                    base.remove_node(d)  # isolated after pass 1
            else:
                working.states[d] = state
                if d not in base:
                    base.add_node(d)
                for neighbor in state.neighbors:
                    self._in_neighbors.setdefault(neighbor, set()).add(d)

        # ---- pass 3: re-derive incident edges of the dirty region ----- #
        empty: Set[NodeId] = set()
        for d in state_dirty:
            state = working.states.get(d)
            outs = set(state.neighbors) if state is not None else empty
            ins = self._in_neighbors.get(d, empty)
            partners = (outs | ins) if self._closure_mode else (outs & ins)
            partners.discard(d)
            for p in partners:
                length = edge_length_from_outcome(working, d, p)
                data = base.get_edge_data(d, p)
                if data is None or data["length"] != length:
                    base.add_edge(d, p, length=length)
                    touched_edges.add(_norm(d, p))

        # ``pos`` attributes track current geometry for every state node
        # (stale-edge endpoints without a state carry no ``pos``, exactly as
        # a from-scratch build leaves them).
        for d in dirty:
            if d in base and d in working.states and d in network:
                base.nodes[d]["pos"] = network.node(d).position.as_tuple()

        # ---- pairwise edge removal, scoped --------------------------- #
        flipped_edges: Set[Edge] = set()
        stale_removed = {edge for edge in touched_edges if not base.has_edge(*edge)}
        self._removed -= stale_removed
        if config.pairwise_removal:
            moved_in_base = {d for d in dirty if d in base}
            a1 = set(state_dirty) | moved_in_base
            for edge in touched_edges:
                a1.update(edge)
            for d in moved_in_base:
                a1.update(base.adj[d])
            a1 &= set(base.nodes) | set(self._redundant_from)
            for u in sorted(a1):
                old = self._redundant_from.get(u, set())
                new = (
                    redundant_edges_from_node(
                        base, network, u, angle_threshold=PAIRWISE_ANGLE_THRESHOLD
                    )
                    if u in base
                    else set()
                )
                for edge in old - new:
                    count = self._redundant_count.get(edge, 0) - 1
                    if count <= 0:
                        self._redundant_count.pop(edge, None)
                    else:
                        self._redundant_count[edge] = count
                for edge in new - old:
                    self._redundant_count[edge] = self._redundant_count.get(edge, 0) + 1
                if u in base:
                    self._redundant_from[u] = new
                else:
                    self._redundant_from.pop(u, None)
            a2 = set(a1)
            for u in a1:
                if u in base:
                    a2.update(base.adj[u])
            decide: Set[Edge] = set()
            for u in a2:
                if u not in base:
                    self._longest.pop(u, None)
                    continue
                self._longest[u] = self._longest_non_redundant(u)
                for v in base.adj[u]:
                    decide.add(_norm(u, v))
            for edge in decide:
                u, v = edge
                length = base[u][v]["length"]
                if self._redundant_count.get(edge, 0) > 0 and (
                    config.pairwise_remove_all or self._edge_removable(edge, length)
                ):
                    if edge not in self._removed:
                        self._removed.add(edge)
                        flipped_edges.add(edge)
                elif edge in self._removed:
                    self._removed.discard(edge)
                    flipped_edges.add(edge)

        # ---- radius / power, scoped ---------------------------------- #
        radius_dirty = set(state_dirty)
        for edge in touched_edges | flipped_edges:
            radius_dirty.update(edge)
        required_power = network.power_model.required_power
        for u in radius_dirty:
            if u not in base:
                self._radius.pop(u, None)
                self._power.pop(u, None)
                continue
            best = 0.0
            for v, data in base.adj[u].items():
                if _norm(u, v) in self._removed:
                    continue
                length = data["length"]
                if length > best:
                    best = length
            self._radius[u] = best
            self._power[u] = required_power(best)

        self._result = self._materialize(self._final_graph())
        return self._result

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _final_graph(self):
        """The base graph minus the removed edges.

        With nothing removed the base graph itself is returned, shared with
        the result until the next splice copies it (copy-on-write).
        """
        if not self._removed:
            return self._base
        final = self._base.copy()
        final.remove_edges_from(self._removed)
        return final

    def _longest_non_redundant(self, u: NodeId) -> float:
        """Longest incident edge of ``u`` not marked redundant (0.0 if none)."""
        best = 0.0
        counts = self._redundant_count
        for v, data in self._base.adj[u].items():
            if counts.get(_norm(u, v), 0) > 0:
                continue
            length = data["length"]
            if length > best:
                best = length
        return best

    def _edge_removable(self, edge: Edge, length: float) -> bool:
        """The paper's removal rule: only drop edges that lower a radius."""
        u, v = edge
        return length > self._longest[u] or length > self._longest[v]

    def _materialize(self, final) -> TopologyResult:
        alpha, config = self.alpha, self.config
        label = f"CBTC(alpha={alpha:.4f}) [{config.describe()}]"
        return TopologyResult(
            graph=final,
            alpha=alpha,
            label=label,
            outcome=CBTCOutcome(alpha=self._working.alpha, states=dict(self._working.states)),
            node_radius=dict(self._radius),
            node_power=dict(self._power),
        )

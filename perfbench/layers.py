"""Per-layer metrics of a traced run, computed from its spans.

Times are self times (a span's duration minus the part its child spans
cover) summed over the spans that start inside the timed window, except the
``setup.*`` metrics, which cover the set-up window.  Counters the server
keeps itself (cache hits, queue waits, shed requests) are read from the
``metrics`` op before and after the timed window and reported as the
difference.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spans import Span, layer_totals, read_spans

#: Every per-layer metric with its unit, in the order printed.
PER_LAYER: List[Tuple[str, str]] = [
    ("reconfig.sync_s", "s"), ("reconfig.sync_calls", "count"),
    ("reconfig.apply_s", "s"), ("reconfig.apply_calls", "count"),
    ("reconfig.topology_s", "s"), ("reconfig.topology_calls", "count"),
    ("topology.incremental_updates", "count"), ("topology.full_builds", "count"),
    ("topology.fallbacks", "count"),
    ("pipeline.build_s", "s"), ("pipeline.build_calls", "count"),
    ("geometry.query_s", "s"), ("geometry.query_calls", "count"),
    ("setup.pipeline.build_s", "s"), ("setup.pipeline.build_calls", "count"),
    ("setup.geometry.query_s", "s"), ("setup.geometry.query_calls", "count"),
    ("setup.reconfig.sync_s", "s"),
    ("mobility.step_s", "s"), ("mobility.step_calls", "count"),
    ("measure.connectivity_s", "s"), ("measure.connectivity_calls", "count"),
    ("routing.paths_s", "s"), ("routing.paths_calls", "count"),
    ("routing.hit_ratio", "ratio"), ("routing.lookups", "count"),
    ("traffic.run_s", "s"), ("traffic.run_calls", "count"),
    ("worlds.batch_s", "s"), ("worlds.requests", "count"),
    ("worlds.copy_s", "s"), ("worlds.copy_calls", "count"),
    ("worlds.snapshot_hit_ratio", "ratio"), ("worlds.snapshot_lookups", "count"),
    ("io.encode_s", "s"), ("io.encode_calls", "count"), ("io.encoded_bytes", "bytes"),
    ("io.decode_s", "s"), ("io.decode_calls", "count"),
    ("workers.roundtrip_s", "s"), ("workers.transfer_s", "s"), ("workers.batches", "count"),
    ("service.worker_restarts", "count"),
    ("server.queue_wait_p50_ms", "ms"), ("server.queue_wait_p99_ms", "ms"),
    ("server.queue_wait_samples", "count"), ("server.load_shed", "count"),
    ("wal.commit_s", "s"), ("wal.commit_calls", "count"),
    ("wal.checkpoint_s", "s"), ("wal.checkpoint_calls", "count"),
    ("subs.diff_s", "s"), ("subs.diff_calls", "count"),
    ("subs.frames_pushed", "count"), ("subs.push_bytes", "bytes"), ("subs.resyncs", "count"),
    ("trace.spans", "count"), ("trace.window_s", "s"), ("trace.accounted_s", "s"),
    ("trace.overhead.p50_ms", "ms"), ("trace.overhead.p50_share", "ratio"),
    ("trace.overhead.throughput_share", "ratio"),
]

#: Layers reported as ``<name>_s`` self time plus ``<name>_calls``.
_TIMED = (
    "reconfig.sync", "reconfig.apply", "reconfig.topology", "pipeline.build",
    "geometry.query", "mobility.step", "measure.connectivity", "routing.paths",
    "traffic.run", "worlds.copy", "io.encode", "io.decode", "wal.commit",
    "wal.checkpoint", "subs.diff",
)


def _in(window: Tuple[float, float], span: Span) -> bool:
    return window[0] <= span[3] < window[1]


def _span_metrics(
    spans: Sequence[Span], setup: Tuple[float, float], window: Tuple[float, float]
) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    totals = layer_totals(spans, window)
    for name in _TIMED:
        entry = totals.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}_s"] = entry["self_s"]
        metrics[f"{name}_calls"] = entry["calls"]
    setup_totals = layer_totals(spans, setup)
    for name in ("pipeline.build", "geometry.query"):
        entry = setup_totals.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"setup.{name}_s"] = entry["self_s"]
        metrics[f"setup.{name}_calls"] = entry["calls"]
    metrics["setup.reconfig.sync_s"] = setup_totals.get("reconfig.sync", {}).get("self_s", 0.0)

    batches = totals.get("worlds.batch", {"self_s": 0.0, "total_s": 0.0})
    roundtrips = totals.get("workers.roundtrip", {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    metrics["worlds.batch_s"] = batches["self_s"]
    metrics["worlds.requests"] = sum(
        len(span[5]) for span in spans if span[2] == "worlds.batch" and _in(window, span)
        and isinstance(span[5], list)
    )
    metrics["workers.roundtrip_s"] = roundtrips["total_s"]
    # Transfer = what a round trip costs beyond the worker's own batch
    # execution: pickling, queues and the executor-thread hand-off.
    metrics["workers.transfer_s"] = (
        max(0.0, roundtrips["total_s"] - batches["total_s"]) if roundtrips["calls"] else 0.0
    )
    metrics["workers.batches"] = roundtrips["calls"]

    encoded = [span[6] for span in spans if span[2] == "io.encode" and _in(window, span) and span[6]]
    metrics["io.encoded_bytes"] = sum(info[0] for info in encoded)
    frames = [info for info in encoded if info[1] is not None]
    metrics["subs.frames_pushed"] = len(frames)
    metrics["subs.push_bytes"] = sum(info[0] for info in frames)
    metrics["subs.resyncs"] = sum(1 for info in frames if info[1] == "snapshot")

    metrics["trace.spans"] = sum(1 for span in spans if _in(window, span))
    metrics["trace.window_s"] = window[1] - window[0]
    # A round trip's self time covers the worker's whole batch, whose spans
    # live in another process and are summed on their own; only its transfer
    # share is the front end's time.
    metrics["trace.accounted_s"] = metrics["workers.transfer_s"] + sum(
        entry["self_s"] for name, entry in totals.items()
        if not name.startswith("scenario.") and name != "workers.roundtrip"
    )
    return metrics


def _overhead(untraced: Dict[str, float], traced: Dict[str, float]) -> Dict[str, float]:
    delta = traced["latency_p50_ms"] - untraced["latency_p50_ms"]
    return {
        "trace.overhead.p50_ms": delta,
        "trace.overhead.p50_share": delta / untraced["latency_p50_ms"],
        "trace.overhead.throughput_share": (
            (untraced["throughput_per_s"] - traced["throughput_per_s"]) / untraced["throughput_per_s"]
        ),
    }


def _complete(metrics: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric (absent layers read 0), with its unit."""
    return {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def drift_layers(
    spans: Sequence[Span],
    setup: Tuple[float, float],
    window: Tuple[float, float],
    topology_counts: Dict[str, int],
    untraced: Dict[str, float],
    traced: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    metrics = _span_metrics(spans, setup, window)
    metrics.update(topology_counts)
    metrics.update(_overhead(untraced, traced))
    return _complete(metrics)


def _counter_delta(before: Dict[str, Any], after: Dict[str, Any], name: str) -> float:
    return after["merged"]["counters"].get(name, 0) - before["merged"]["counters"].get(name, 0)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _queue_wait(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Windowed queue-wait percentiles from the front end's histogram buckets."""
    name = "server.queue_wait_seconds"
    late: Optional[Dict[str, Any]] = after["frontend"]["histograms"].get(name)
    early: Optional[Dict[str, Any]] = before["frontend"]["histograms"].get(name)
    if late is None:
        return {}
    counts = list(late["counts"])
    if early is not None:
        counts = [a - b for a, b in zip(counts, early["counts"])]
    total = sum(counts)
    result = {"server.queue_wait_samples": total}
    for label, fraction in (("p50", 0.50), ("p99", 0.99)):
        rank = max(1, math.ceil(fraction * total))
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            if total and cumulative >= rank:
                edge = late["bounds"][index] if index < len(late["bounds"]) else late["max"]
                result[f"server.queue_wait_{label}_ms"] = edge * 1e3
                break
    return result


def serve_layers(
    span_files: List[str],
    traced_phase: Any,
    untraced: Dict[str, float],
    traced: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    spans = read_spans(span_files)
    window = (traced_phase.loop.start, traced_phase.loop.end)
    metrics = _span_metrics(spans, traced_phase.setup_window, window)
    before, after = traced_phase.metrics_before, traced_phase.metrics_after
    route_hits = _counter_delta(before, after, "cache.route.hits")
    route_misses = _counter_delta(before, after, "cache.route.misses")
    snap_hits = _counter_delta(before, after, "cache.snapshot.hits")
    snap_misses = _counter_delta(before, after, "cache.snapshot.misses")
    metrics.update({
        "routing.hit_ratio": _ratio(route_hits, route_misses),
        "routing.lookups": route_hits + route_misses,
        "worlds.snapshot_hit_ratio": _ratio(snap_hits, snap_misses),
        "worlds.snapshot_lookups": snap_hits + snap_misses,
        "topology.incremental_updates": _counter_delta(before, after, "topology.incremental_updates"),
        "topology.full_builds": _counter_delta(before, after, "topology.full_builds"),
        "topology.fallbacks": _counter_delta(before, after, "topology.rebuild_fallbacks"),
        "server.load_shed": _counter_delta(before, after, "server.load_shed"),
        "service.worker_restarts": after["merged"]["gauges"].get("service.worker_restarts", 0),
    })
    metrics.update(_queue_wait(before, after))
    metrics.update(_overhead(untraced, traced))
    return _complete(metrics)

"""Closed-loop load generator for the fleet server.

The generator builds a **deterministic request trace** — per world: one
``create_world``, then a seeded mix of writes (``advance``) and reads
(``query_stats`` / ``query_route`` / ``run_traffic``), closed by one
``snapshot`` — and drives it over ``connections`` concurrent client
connections in a closed loop (each connection issues its next request only
after receiving the previous response; offered load rises with the
connection count, exactly how the server's batching is designed to be fed).

Worlds are partitioned across connections, so every world's requests flow
through exactly one connection in trace order — per-world request order is
preserved no matter how the event loop schedules the connections.  That
makes the run *replayable*: :func:`serial_reference` executes the same
trace on a single in-process :class:`~repro.service.worlds.WorldHost`, and
:func:`verify_snapshots` compares the server's final world snapshots
byte-for-byte against it — the check ``cbtc load --verify`` and the CI
smoke job run after every load.

Latency is recorded per request and condensed into p50/p95/p99 (and per-op
p95) in the :class:`LoadReport`; snapshot payloads are kept out of the
report so its JSON stays a metrics artifact.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.io.results import results_to_json
from repro.obs import clock
from repro.obs.metrics import histogram_delta, hit_rate
from repro.scenarios.catalogue import get_scenario
from repro.service import protocol
from repro.service.client import (
    DEFAULT_DEADLINE,
    DEFAULT_TIMEOUT,
    DeadlineExceeded,
    RetryingClient,
    ServiceClient,
    ServiceError,
)
from repro.service.replay import replay_serial
from repro.service.worlds import DEFAULT_SCENARIO
from repro.sim.randomness import SeededRandom, derive_seed
from repro.traffic.metrics import percentile


@dataclass(frozen=True)
class LoadConfig:
    """One load run, fully determined (trace-wise) by its fields."""

    worlds: int = 8
    requests_per_world: int = 10
    seed: int = 0
    scenario: str = DEFAULT_SCENARIO
    nodes: Optional[int] = 80
    mover_fraction: Optional[float] = 0.1
    write_fraction: float = 0.5
    traffic_fraction: float = 0.2
    connections: int = 4
    #: How many worlds carry a live subscriber: the first ``subscribers``
    #: worlds get a ``subscribe`` in their trace right after the create (so
    #: the serial reference walks the same synchronize schedule) plus a
    #: dedicated watcher connection reconstructing the world from pushed
    #: diffs during the timed phase.
    subscribers: int = 0
    #: Client robustness knobs.  They shape how the trace is *delivered*
    #: (timeouts, retries), never the trace itself — the serial reference
    #: stays byte-identical whatever these are set to.
    request_timeout: float = DEFAULT_TIMEOUT
    deadline: float = DEFAULT_DEADLINE
    max_attempts: int = 8
    retry: bool = True

    def __post_init__(self) -> None:
        if self.worlds < 1:
            raise ValueError("a load run needs at least one world")
        if self.requests_per_world < 0:
            raise ValueError("requests_per_world must be non-negative")
        if self.nodes is not None and self.nodes < 2:
            raise ValueError("a world needs at least 2 nodes (routes need two endpoints)")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must lie in [0, 1]")
        if not 0.0 <= self.traffic_fraction <= 1.0:
            raise ValueError("traffic_fraction must lie in [0, 1]")
        if self.connections < 1:
            raise ValueError("a load run needs at least one connection")
        if self.subscribers < 0:
            raise ValueError("subscribers must be non-negative")
        if self.subscribers > self.worlds:
            raise ValueError("subscribers cannot exceed the world count")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @property
    def node_count(self) -> int:
        """Node population of each world (for route endpoint sampling)."""
        if self.nodes is not None:
            return self.nodes
        return get_scenario(self.scenario).placement.node_count


def world_name(index: int) -> str:
    """The canonical name of the ``index``-th load-generated world."""
    return f"world-{index:03d}"


def build_world_trace(config: LoadConfig, index: int) -> List[Dict[str, Any]]:
    """The deterministic request sequence of one world.

    Derivation is keyed per world name, so traces are order-independent:
    adding worlds to a config never changes the existing worlds' requests.
    """
    wid = world_name(index)
    rng = SeededRandom(derive_seed(config.seed, f"load:{wid}"))
    node_count = config.node_count
    # Reads draw from a small per-world pool of hot keys (route pairs,
    # traffic seeds) — serving workloads are zipfian, and hot keys are what
    # read caches exist for.  The pool is part of the deterministic
    # trace, so replays agree on it.
    route_pool = [rng.sample(range(node_count), 2) for _ in range(4)]
    create_params: Dict[str, Any] = {
        "scenario": config.scenario,
        "seed": derive_seed(config.seed, f"world-seed:{wid}"),
    }
    if config.nodes is not None:
        create_params["nodes"] = config.nodes
    if config.mover_fraction is not None:
        create_params["mover_fraction"] = config.mover_fraction
    trace: List[Dict[str, Any]] = [
        {"op": protocol.CREATE_WORLD, "world": wid, "params": create_params}
    ]
    if index < config.subscribers:
        # Subscribing turns on diff tracking, which changes the world's
        # synchronize schedule from that point on — it must sit at the same
        # trace position (right after the create, before any write) in the
        # live run and the serial reference alike.
        trace.append({"op": protocol.SUBSCRIBE, "world": wid, "params": {}})
    for _ in range(config.requests_per_world):
        if rng.random() < config.write_fraction:
            trace.append({"op": protocol.ADVANCE, "world": wid, "params": {"steps": 1}})
        elif rng.random() < config.traffic_fraction:
            trace.append(
                {
                    "op": protocol.RUN_TRAFFIC,
                    "world": wid,
                    "params": {"flows": 3, "packets": 2, "seed": rng.randrange(2)},
                }
            )
        elif rng.random() < 0.5:
            source, target = route_pool[rng.randrange(len(route_pool))]
            trace.append(
                {
                    "op": protocol.QUERY_ROUTE,
                    "world": wid,
                    "params": {"source": source, "target": target},
                }
            )
        else:
            trace.append({"op": protocol.QUERY_STATS, "world": wid, "params": {}})
    trace.append({"op": protocol.SNAPSHOT, "world": wid, "params": {}})
    return trace


def build_trace(config: LoadConfig) -> List[List[Dict[str, Any]]]:
    """Every world's request sequence."""
    return [build_world_trace(config, index) for index in range(config.worlds)]


def flatten_trace(traces: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """One arrival order interleaving the world traces round-robin.

    Any interleave that preserves per-world order is equivalent for world
    state; round-robin is the canonical one the serial reference uses.
    """
    flat: List[Dict[str, Any]] = []
    cursors = [0] * len(traces)
    remaining = sum(len(trace) for trace in traces)
    while remaining:
        for index, trace in enumerate(traces):
            if cursors[index] < len(trace):
                flat.append(trace[cursors[index]])
                cursors[index] += 1
                remaining -= 1
    return flat


def _percentile(values: List[float], fraction: float) -> float:
    """The ``fraction`` percentile of ``values`` (repo-wide definition)."""
    return percentile(sorted(values), fraction)


@dataclass
class LoadReport:
    """What a load run measured (snapshots are returned separately).

    ``requests``/``requests_per_second``/latency percentiles describe the
    steady-state workload phase only; world creation is a separate setup
    phase (``setup_requests``, ``setup_seconds``) the way serving
    benchmarks conventionally split provisioning from serving.
    """

    worlds: int
    connections: int
    requests: int
    errors: int
    elapsed_seconds: float
    requests_per_second: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    setup_requests: int = 0
    setup_seconds: float = 0.0
    #: Client-side robustness counters: re-issued requests, reconnections,
    #: and ``RETRY_LATER`` (load-shed) responses absorbed by backoff.
    retries: int = 0
    reconnects: int = 0
    shed_responses: int = 0
    #: Subscriber population: worlds watched, push frames received by the
    #: watcher connections, resync (full-snapshot) frames among them, and
    #: how many mirrors ended byte-identical to the served final snapshot.
    subscribers: int = 0
    frames_pushed: int = 0
    subscriber_resyncs: int = 0
    mirrors_verified: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    op_p95_ms: Dict[str, float] = field(default_factory=dict)
    #: Observability sourced from the ``metrics`` op: per-shard qps over the
    #: timed phase, dispatch batch-size distribution, cache hit rates and
    #: queue-wait percentiles, the front end's cumulative serving and
    #: durability counters, plus the full merged registry summary.
    metrics: Optional[Dict[str, Any]] = None

    def as_text(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"setup: {self.setup_requests} worlds created in {self.setup_seconds:.2f} s",
            f"load: {self.requests} requests over {self.worlds} worlds "
            f"x {self.connections} connections in {self.elapsed_seconds:.2f} s "
            f"({self.requests_per_second:.1f} req/s, {self.errors} errors)",
            f"latency: p50 {self.latency_p50_ms:.2f} ms, p95 {self.latency_p95_ms:.2f} ms, "
            f"p99 {self.latency_p99_ms:.2f} ms",
        ]
        if self.retries or self.reconnects or self.shed_responses:
            lines.append(
                f"robustness: {self.retries} retries, {self.reconnects} reconnects, "
                f"{self.shed_responses} shed responses absorbed"
            )
        if self.subscribers:
            lines.append(
                f"subscribers: {self.subscribers} worlds watched, "
                f"{self.frames_pushed} frames pushed "
                f"({self.subscriber_resyncs} resyncs), "
                f"{self.mirrors_verified}/{self.subscribers} mirrors byte-identical"
            )
        for op in sorted(self.op_counts):
            lines.append(
                f"  {op:<13} {self.op_counts[op]:>6} requests, p95 {self.op_p95_ms[op]:.2f} ms"
            )
        if self.metrics is not None:
            server = self.metrics["server"]
            lines.append(
                f"server: {server['batches']} batches, "
                f"max batch {server['max_batch_size']}, "
                f"shard requests {server['shard_requests']}"
            )
            if server["durable"]:
                lines.append(
                    f"durability: {server['recovered_worlds']} worlds "
                    f"recovered, {server['worker_restarts']} worker restarts"
                )
            qps = ", ".join(f"{q:.1f}" for q in self.metrics["per_shard_qps"])
            lines.append(f"shard qps: [{qps}]")
            batch = self.metrics["batch_size"]
            lines.append(
                f"batch size: mean {batch['mean']:.2f}, p95 {batch['p95']:.0f}, "
                f"max {batch['max']:.0f}"
            )
            wait = self.metrics["queue_wait_ms"]
            lines.append(
                f"queue wait: p50 {wait['p50']:.2f} ms, p95 {wait['p95']:.2f} ms, "
                f"p99 {wait['p99']:.2f} ms"
            )
            rates = self.metrics["cache_hit_rates"]
            lines.append(
                "cache hit rates: "
                + ", ".join(
                    f"{name} {rate:.0%}" if rate is not None else f"{name} n/a"
                    for name, rate in sorted(rates.items())
                )
            )
        return "\n".join(lines)


async def run_load_async(
    host: str,
    port: int,
    config: LoadConfig,
) -> Tuple[LoadReport, Dict[str, str]]:
    """Drive the trace against a running server; return (report, snapshots).

    Snapshots map world name to the canonical JSON of the server's final
    ``snapshot`` response — the byte-identity artifact ``--verify`` and the
    CI smoke job compare against :func:`serial_reference`.
    """
    traces = build_trace(config)
    assignments: List[List[List[Dict[str, Any]]]] = [[] for _ in range(config.connections)]
    for index, trace in enumerate(traces):
        assignments[index % config.connections].append(trace)

    latencies: List[Tuple[str, float]] = []
    snapshots: Dict[str, str] = {}
    errors = 0
    setup_requests = 0
    failures: List[BaseException] = []
    watchers: List[ServiceClient] = []
    mirrors_verified = 0
    frames_pushed = 0
    subscriber_resyncs = 0

    async def issue(client: RetryingClient, request: Dict[str, Any], timed: bool) -> None:
        nonlocal errors
        start = clock.wall()
        try:
            result = await client.call(
                request["op"], world=request.get("world"), params=request.get("params")
            )
        except ServiceError as error:
            # Deadline exhausted or a genuine application error — retryable
            # failures (shed, timeouts, worker death) were already absorbed
            # by the retry layer and never reach here.
            errors += 1
            failures.append(error)
            result = None
        if timed:
            latencies.append((request["op"], clock.wall() - start))
        if result is not None and request["op"] == protocol.SNAPSHOT:
            snapshots[request["world"]] = results_to_json(result)

    def _setup_len(trace: List[Dict[str, Any]]) -> int:
        """How many leading requests belong to the provisioning phase."""
        length = 1
        if len(trace) > 1 and trace[1]["op"] == protocol.SUBSCRIBE:
            length = 2
        return length

    async def setup(client, connection_traces) -> None:
        nonlocal setup_requests
        if not connection_traces:
            return
        for trace in connection_traces:
            assert trace[0]["op"] == protocol.CREATE_WORLD
            for request in trace[: _setup_len(trace)]:
                await issue(client, request, timed=False)
                setup_requests += 1

    async def drive(client, connection_traces) -> None:
        if not connection_traces:
            return
        for request in flatten_trace(
            [trace[_setup_len(trace):] for trace in connection_traces]
        ):
            await issue(client, request, timed=True)

    def make_client(index: int) -> RetryingClient:
        # Per-connection retry seed: backoff schedules are deterministic
        # across runs yet uncorrelated across connections (no thundering
        # herd of synchronized retries).  max_attempts=1 disables retrying
        # while keeping the timeout discipline.
        return RetryingClient.to_server(
            host,
            port,
            seed=derive_seed(config.seed, f"load-retry:{index}"),
            timeout=config.request_timeout,
            deadline=config.deadline,
            max_attempts=config.max_attempts if config.retry else 1,
        )

    clients: List[Optional[RetryingClient]] = []
    try:
        for index, assigned in enumerate(assignments):
            clients.append(make_client(index) if assigned else None)
        # Phase 1 — provisioning: every world is created (and primed) before
        # the clock starts; serving benchmarks measure serving, not setup.
        setup_started = clock.wall()
        await asyncio.gather(*(setup(c, a) for c, a in zip(clients, assignments)))
        setup_seconds = clock.wall() - setup_started
        if errors:
            # Nothing listening at all reads as a connection problem, not a
            # load-run problem — surface it as one so callers can point the
            # user at 'cbtc serve'.
            first = failures[0] if failures else None
            if isinstance(first, DeadlineExceeded) and isinstance(
                first.last_error, (ConnectionError, OSError)
            ):
                raise ConnectionError(str(first.last_error))
            # Creation failures (typically: the server still hosts worlds
            # from a previous load run) would skew every later request and
            # make --verify report a phantom determinism failure — fail
            # loudly and early instead.
            raise ServiceError(
                f"{errors} of {setup_requests} world creations failed; the server "
                f"likely still hosts worlds from a previous run — restart it (or "
                f"shut it down with 'cbtc load --shutdown') before loading again"
            )
        # Subscriber population: dedicated watcher connections mirror the
        # subscribed worlds from pushed diffs through the timed phase.
        # They attach after setup (the trace's own subscribe has already
        # turned tracking on) and before the clock starts.
        watched = [world_name(index) for index in range(config.subscribers)]
        watcher_count = min(len(watched), config.connections) or 0
        for index in range(watcher_count):
            watchers.append(
                await ServiceClient.connect(host, port, timeout=config.request_timeout)
            )
        for index, world in enumerate(watched):
            await watchers[index % watcher_count].subscribe(world)
        # The metrics snapshot bracketing the timed phase turns cumulative
        # per-shard request counters into per-shard qps for this run.
        metrics_before = await _fetch_metrics(host, port)
        # Phase 2 — the timed steady-state workload.
        started = clock.wall()
        await asyncio.gather(*(drive(c, a) for c, a in zip(clients, assignments)))
        elapsed = clock.wall() - started
        mirrors_verified = await _settle_watchers(watchers, watched, snapshots)
        frames_pushed = sum(watcher.frames_received for watcher in watchers)
        subscriber_resyncs = sum(
            watcher.mirrors[world].resyncs
            for watcher in watchers
            for world in sorted(watcher.mirrors)
        )
    finally:
        for client in clients:
            if client is not None:
                await client.close()
        for watcher in watchers:
            await watcher.close()

    metrics_after = await _fetch_metrics(host, port)

    live_clients = [client for client in clients if client is not None]
    total_retries = sum(client.retries for client in live_clients)
    total_reconnects = sum(client.reconnects for client in live_clients)
    total_shed = sum(client.shed_responses for client in live_clients)

    all_latencies = [seconds for _, seconds in latencies]
    op_counts: Dict[str, int] = {}
    op_latencies: Dict[str, List[float]] = {}
    for op, seconds in latencies:
        op_counts[op] = op_counts.get(op, 0) + 1
        op_latencies.setdefault(op, []).append(seconds)
    report = LoadReport(
        worlds=config.worlds,
        connections=config.connections,
        requests=len(latencies),
        errors=errors,
        elapsed_seconds=elapsed,
        requests_per_second=len(latencies) / elapsed if elapsed > 0 else 0.0,
        setup_requests=setup_requests,
        setup_seconds=setup_seconds,
        retries=total_retries,
        reconnects=total_reconnects,
        shed_responses=total_shed,
        subscribers=config.subscribers,
        frames_pushed=frames_pushed,
        subscriber_resyncs=subscriber_resyncs,
        mirrors_verified=mirrors_verified,
        latency_p50_ms=_percentile(all_latencies, 0.50) * 1000.0,
        latency_p95_ms=_percentile(all_latencies, 0.95) * 1000.0,
        latency_p99_ms=_percentile(all_latencies, 0.99) * 1000.0,
        op_counts=op_counts,
        op_p95_ms={op: _percentile(values, 0.95) * 1000.0 for op, values in op_latencies.items()},
        metrics=_metrics_report(metrics_before, metrics_after, elapsed),
    )
    return report, snapshots


async def _settle_watchers(
    watchers: List[ServiceClient],
    watched: List[str],
    snapshots: Dict[str, str],
) -> int:
    """Wait for each watcher's mirror to converge on the served snapshot.

    The trace's final ``snapshot`` response is the byte-identity target;
    trailing diff frames can still be in flight when the timed phase ends,
    so each mirror gets a bounded window to catch up.  Returns how many
    worlds converged byte-identically.
    """
    if not watchers:
        return 0
    verified = 0
    count = len(watchers)
    for index, world in enumerate(watched):
        watcher = watchers[index % count]
        target = snapshots.get(world)
        mirror = watcher.mirrors.get(world)
        if target is None or mirror is None:
            continue
        for _ in range(50):
            if mirror.snapshot is not None and results_to_json(mirror.snapshot) == target:
                verified += 1
                break
            if watcher.stale:
                await watcher.heal()
            try:
                await watcher.wait_for(world, timeout=0.2)
            except ServiceError:
                continue  # idle window; re-compare and keep waiting
            except ConnectionError:
                break
    return verified


async def _fetch_metrics(host: str, port: int) -> Dict[str, Any]:
    """One ``metrics`` op round trip on a dedicated connection."""
    async with await ServiceClient.connect(host, port) as client:
        return await client.call(protocol.METRICS)


def _metrics_report(
    before: Dict[str, Any], after: Dict[str, Any], elapsed: float
) -> Dict[str, Any]:
    """Condense two ``metrics`` snapshots into the load report's view.

    Counters and latency histograms are *differenced* across the timed
    window (setup traffic and earlier runs drop out); cache hit rates are
    reported cumulatively — they describe the server's caches, not this
    run's window, and so are the front end's serving and durability
    counters (``server``).
    """

    per_shard_qps: List[float] = []
    shards_before = before.get("shards", [])
    for index, snap in enumerate(after.get("shards", [])):
        current = (snap or {}).get("counters", {}).get("host.requests", 0)
        previous = 0
        if index < len(shards_before) and shards_before[index] is not None:
            previous = shards_before[index].get("counters", {}).get("host.requests", 0)
        per_shard_qps.append((current - previous) / elapsed if elapsed > 0 else 0.0)

    merged_after = after.get("merged", {})
    merged_before = before.get("merged", {})

    def windowed(name: str):
        payload = merged_after.get("histograms", {}).get(name)
        if payload is None:
            return None
        return histogram_delta(payload, merged_before.get("histograms", {}).get(name))

    batch = windowed("server.batch_size")
    wait = windowed("server.queue_wait_seconds")
    counters = merged_after.get("counters", {})

    def rate(prefix: str) -> Optional[float]:
        return hit_rate(
            counters.get(f"{prefix}.hits", 0), counters.get(f"{prefix}.misses", 0)
        )

    frontend = after.get("frontend", {})
    frontend_counters = frontend.get("counters", {})
    frontend_gauges = frontend.get("gauges", {})
    batches = frontend.get("histograms", {}).get("server.batch_size", {})
    server = {
        "worlds": int(frontend_gauges.get("server.worlds", 0)),
        "batches": batches.get("count", 0),
        "max_batch_size": int(batches.get("max") or 0),
        "shard_requests": [
            int(frontend_counters.get(f"server.shard.{shard}.requests", 0))
            for shard in range(len(after.get("shards", [])))
        ],
        # The durability gauges exist only on a server with a store.
        "durable": "service.worker_restarts" in frontend_gauges,
        "worker_restarts": int(frontend_gauges.get("service.worker_restarts", 0)),
        "recovered_worlds": int(frontend_gauges.get("service.recovered_worlds", 0)),
    }

    return {
        "per_shard_qps": per_shard_qps,
        "batch_size": {
            "count": batch.count if batch else 0,
            "mean": (batch.mean if batch else None) or 0.0,
            "p50": (batch.percentile(0.50) if batch else None) or 0.0,
            "p95": (batch.percentile(0.95) if batch else None) or 0.0,
            "max": (batch.max if batch else None) or 0.0,
            "bounds": list(batch.bounds) if batch else [],
            "counts": list(batch.counts) if batch else [],
        },
        "queue_wait_ms": {
            "p50": ((wait.percentile(0.50) if wait else None) or 0.0) * 1000.0,
            "p95": ((wait.percentile(0.95) if wait else None) or 0.0) * 1000.0,
            "p99": ((wait.percentile(0.99) if wait else None) or 0.0) * 1000.0,
        },
        "cache_hit_rates": {
            "frontend_read_cache": rate("server.read_cache"),
        },
        "server": server,
        "registry": merged_after,
    }


def run_load(host: str, port: int, config: LoadConfig) -> Tuple[LoadReport, Dict[str, str]]:
    """Synchronous wrapper around :func:`run_load_async`."""
    return asyncio.run(run_load_async(host, port, config))


async def resnapshot_async(host: str, port: int, config: LoadConfig) -> Dict[str, str]:
    """Re-fetch the final snapshot of every world a previous run created.

    The durability smoke uses this after restarting a ``--state-dir``
    server: a snapshot is an idempotent read of a quiescent world, so the
    recovered fleet must serve byte-for-byte what the pre-restart fleet
    served — i.e. these snapshots must still verify against
    :func:`serial_reference` of the same config.
    """
    snapshots: Dict[str, str] = {}
    async with await ServiceClient.connect(host, port) as client:
        for index in range(config.worlds):
            wid = world_name(index)
            response = await client.request(protocol.SNAPSHOT, world=wid, params={})
            if not response.get("ok"):
                raise ServiceError(f"snapshot of {wid!r} failed: {response.get('error')}")
            snapshots[wid] = results_to_json(response["result"])
    return snapshots


def resnapshot(host: str, port: int, config: LoadConfig) -> Dict[str, str]:
    """Synchronous wrapper around :func:`resnapshot_async`."""
    return asyncio.run(resnapshot_async(host, port, config))


def serial_reference(config: LoadConfig) -> Dict[str, str]:
    """The trace's final snapshots under serial in-process execution."""
    return replay_serial(flatten_trace(build_trace(config)))


def verify_snapshots(config: LoadConfig, observed: Dict[str, str]) -> List[str]:
    """World names whose served snapshot differs from the serial reference.

    An empty list is the pass condition: every world the server built,
    mutated, sharded and batched ended byte-identical to a plain serial
    execution of the same per-world request sequences.
    """
    reference = serial_reference(config)
    # A world missing from ``observed`` reads as ``None`` and therefore
    # mismatches too.
    return [world for world in sorted(reference) if observed.get(world) != reference[world]]

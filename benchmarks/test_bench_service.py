"""Benchmark: fleet-server serving throughput, batched+cached vs naive.

Two measurements, both over the load generator's deterministic mixed
read/write workload (95/5 read/write serving mix, hot route/traffic keys,
5% movers — the regime the read cache and the incremental dirty-set
pipeline serve):

* **engine cells** (8 / 32 / 64 worlds) — the sharded serving engine
  driven directly (no sockets): worlds are provisioned in an untimed setup
  phase, then the steady-state workload is replayed through the consistent-
  hash shard executor in batches.  The *cached* arm is the real serving
  path (the front end's read cache, consulted as each shard dequeues, +
  incremental topology splicing); the *naive* arm is the
  one-request-one-rebuild baseline (full ``build_topology`` per request,
  no cache).  The acceptance bar — **cached ≥ 3× naive requests/sec at 32
  worlds** — is asserted here, beside read-cache hits on the cached arm
  only, so the bar cannot be met with the cache bypassed.
* **server cell** (32 worlds) — the same workload end to end through the
  asyncio front end over TCP (16 closed-loop connections, inline shards),
  reporting requests/sec and p50/p95 latency for both arms.

Every cell also asserts the two arms' final world snapshots are
byte-identical — the read cache and the incremental pipeline are
optimizations, not approximations.

Run with ``--benchmark-json`` to archive the cached-arm timings (the CI
service job uploads them); naive timings and speedups ride in
``extra_info``.
"""

import asyncio
import time

import pytest

from repro.service.loadgen import LoadConfig, build_trace, flatten_trace, run_load_async
from repro.service.replay import ShardedReplayer
from repro.service.server import FleetServer

#: The issue's acceptance bar at 32 worlds.
REQUIRED_SPEEDUP = 3.0

SHARDS = 4


def _serving_config(worlds: int) -> LoadConfig:
    return LoadConfig(
        worlds=worlds,
        requests_per_world=30,
        nodes=100,
        connections=16,
        mover_fraction=0.05,
        write_fraction=0.05,
        seed=0,
    )


def _split_phases(config: LoadConfig):
    """(setup trace, steady-state workload trace) of the load config."""
    traces = build_trace(config)
    creates = [trace[0] for trace in traces]
    workload = flatten_trace([trace[1:] for trace in traces])
    return creates, workload


def _engine_arm(config: LoadConfig, *, naive: bool):
    """Provision untimed, then time the workload; return (rps, snapshots, hits)."""
    creates, workload = _split_phases(config)
    replayer = ShardedReplayer(SHARDS, naive=naive)
    try:
        replayer.execute(creates, schedule_seed=0)
        started = time.perf_counter()
        routed = replayer.execute(workload, schedule_seed=1)
        elapsed = time.perf_counter() - started
        return routed / elapsed, replayer.snapshots(), replayer.read_cache.hits
    finally:
        replayer.close()


@pytest.mark.parametrize("worlds", [8, 32, 64])
def test_bench_service_engine_throughput(benchmark, print_section, worlds):
    config = _serving_config(worlds)

    naive_rps, naive_snapshots, naive_hits = _engine_arm(config, naive=True)

    state = {}

    def cached_arm():
        state["rps"], state["snapshots"], state["hits"] = _engine_arm(config, naive=False)

    benchmark.pedantic(cached_arm, rounds=1, iterations=1, warmup_rounds=0)
    cached_rps, cached_snapshots = state["rps"], state["snapshots"]

    # Optimization, not approximation: byte-identical final worlds.
    assert cached_snapshots == naive_snapshots
    # The cached arm answers repeat reads from the read cache; the naive
    # arm never does.
    assert state["hits"] > 0
    assert naive_hits == 0

    speedup = cached_rps / naive_rps
    benchmark.extra_info.update(
        {
            "worlds": worlds,
            "shards": SHARDS,
            "cached_requests_per_second": round(cached_rps, 1),
            "naive_requests_per_second": round(naive_rps, 1),
            "speedup": round(speedup, 2),
            "read_cache_hits": state["hits"],
        }
    )
    print_section(
        f"serving engine, {worlds} worlds x {SHARDS} shards (steady state)",
        f"batched+cached: {cached_rps:8.1f} req/s\n"
        f"naive rebuild:  {naive_rps:8.1f} req/s\n"
        f"speedup:        {speedup:8.2f} x\n"
        f"read-cache hits: {state['hits']}",
    )
    if worlds == 32:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"batched+cached serving must be >= {REQUIRED_SPEEDUP}x the naive "
            f"one-request-one-rebuild baseline at {worlds} worlds "
            f"(measured {speedup:.2f}x)"
        )


def _server_arm(config: LoadConfig, *, naive: bool):
    async def run():
        server = FleetServer(port=0, shards=SHARDS, inline=True, naive=naive)
        await server.start()
        try:
            return await run_load_async("127.0.0.1", server.port, config)
        finally:
            await server.stop()

    return asyncio.run(run())


def test_bench_service_subs_slo_256_worlds(benchmark, print_section):
    """The roadmap's 256-world SLO gate: subscribed-fleet p99 < naive p50.

    One closed-loop driver connection measures pure per-request service
    time (no queueing term), against 256 worlds all carrying live
    subscriptions — every write computes and pushes a structural diff, and
    the watcher population reconstructs snapshots concurrently.  The gate:
    the served tail (p99) of that fully-instrumented fleet must sit under
    the *median* of the naive one-request-one-rebuild baseline.  The mix is
    the read-dominated serving regime the subsystem exists for (zipfian
    hot keys, ~0.5% writes); ``run_traffic`` is excluded because its
    simulation cost is intrinsic to both arms and would dominate the tail
    with first-touch keys.  The naive arm runs fewer requests per world:
    with no caches, its per-request cost is memoryless, so its p50 does
    not depend on trace length.  World size is n=150: large enough that
    the full-rebuild median clears the subscribed tail by a wide margin
    (>1.4x on a noisy container), small enough that both arms finish in
    about a minute.
    """
    config = LoadConfig(
        worlds=256,
        requests_per_world=10,
        nodes=150,
        connections=1,
        mover_fraction=0.05,
        write_fraction=0.005,
        traffic_fraction=0.0,
        seed=0,
        subscribers=256,
    )
    naive_config = LoadConfig(
        worlds=256,
        requests_per_world=3,
        nodes=150,
        connections=1,
        mover_fraction=0.05,
        write_fraction=0.005,
        traffic_fraction=0.0,
        seed=0,
    )

    naive_report, _ = _server_arm(naive_config, naive=True)

    state = {}

    def subscribed_arm():
        state["report"], state["snapshots"] = _server_arm(config, naive=False)

    benchmark.pedantic(subscribed_arm, rounds=1, iterations=1, warmup_rounds=0)
    report = state["report"]

    assert report.errors == 0 and naive_report.errors == 0
    # Every one of the 256 mirrors converged byte-identical to the served
    # final snapshot — the diff stream is an optimization, not an
    # approximation.
    assert report.mirrors_verified == 256

    benchmark.extra_info.update(
        {
            "worlds": config.worlds,
            "subscribers": config.subscribers,
            "frames_pushed": report.frames_pushed,
            "cached_p99_latency_ms": round(report.latency_p99_ms, 2),
            "naive_p50_latency_ms": round(naive_report.latency_p50_ms, 2),
        }
    )
    print_section(
        "subscription SLO, 256 worlds x 256 subscriptions (service time)",
        f"subscribed fleet: p50 {report.latency_p50_ms:6.2f} ms, "
        f"p99 {report.latency_p99_ms:6.2f} ms "
        f"({report.frames_pushed} frames pushed, "
        f"{report.mirrors_verified}/256 mirrors byte-identical)\n"
        f"naive rebuild:    p50 {naive_report.latency_p50_ms:6.2f} ms, "
        f"p99 {naive_report.latency_p99_ms:6.2f} ms",
    )
    assert report.latency_p99_ms < naive_report.latency_p50_ms, (
        f"subscribed-fleet p99 ({report.latency_p99_ms:.2f} ms) must sit under "
        f"the naive baseline's p50 ({naive_report.latency_p50_ms:.2f} ms)"
    )


def test_bench_service_server_end_to_end(benchmark, print_section):
    config = _serving_config(32)

    naive_report, naive_snapshots = _server_arm(config, naive=True)

    state = {}

    def cached_arm():
        state["report"], state["snapshots"] = _server_arm(config, naive=False)

    benchmark.pedantic(cached_arm, rounds=1, iterations=1, warmup_rounds=0)
    report, snapshots = state["report"], state["snapshots"]

    assert report.errors == 0 and naive_report.errors == 0
    assert snapshots == naive_snapshots

    speedup = report.requests_per_second / naive_report.requests_per_second
    benchmark.extra_info.update(
        {
            "worlds": config.worlds,
            "connections": config.connections,
            "cached_requests_per_second": round(report.requests_per_second, 1),
            "cached_p95_latency_ms": round(report.latency_p95_ms, 2),
            "naive_requests_per_second": round(naive_report.requests_per_second, 1),
            "naive_p95_latency_ms": round(naive_report.latency_p95_ms, 2),
            "speedup": round(speedup, 2),
        }
    )
    print_section(
        "fleet server end to end, 32 worlds x 16 connections (TCP, inline shards)",
        f"batched+cached: {report.requests_per_second:8.1f} req/s, "
        f"p50 {report.latency_p50_ms:6.2f} ms, p95 {report.latency_p95_ms:6.2f} ms\n"
        f"naive rebuild:  {naive_report.requests_per_second:8.1f} req/s, "
        f"p50 {naive_report.latency_p50_ms:6.2f} ms, p95 {naive_report.latency_p95_ms:6.2f} ms\n"
        f"speedup:        {speedup:8.2f} x",
    )
    # The socket stack sits on both arms, so the end-to-end gap is smaller
    # than the engine's; it must still be decisive.
    assert speedup >= 2.0, (
        f"end-to-end batched+cached serving should be >= 2x the naive baseline "
        f"(measured {speedup:.2f}x)"
    )

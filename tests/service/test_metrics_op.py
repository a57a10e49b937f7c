"""The ``metrics`` front-end op, end to end over TCP against 4 shards."""

import asyncio

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import FleetServer


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(body, **kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("inline", True)
    server = FleetServer(port=0, **kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


async def _exercise(client, worlds=4, steps=3):
    for index in range(worlds):
        world = f"m{index}"
        await client.call(
            protocol.CREATE_WORLD,
            world=world,
            params={"nodes": 25, "seed": index, "mover_fraction": 0.2},
        )
        for _ in range(steps):
            await client.call(protocol.ADVANCE, world=world, params={"steps": 1})
            await client.call(protocol.QUERY_STATS, world=world)
        await client.call(protocol.SNAPSHOT, world=world)
        await client.call(protocol.SNAPSHOT, world=world)  # read-cache hit


class TestMetricsOp:
    def test_metrics_merges_all_shards_and_frontend(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await _exercise(client)
                payload = await client.call(protocol.METRICS)
            finally:
                await client.close()

            assert len(payload["shards"]) == 4
            merged = payload["merged"]
            frontend = payload["frontend"]

            # Per-shard registries really are distinct sources.
            shard_sources = [snap["source"] for snap in payload["shards"]]
            assert len(set(shard_sources)) == 4
            assert sorted(merged["sources"]) == sorted(
                shard_sources + [frontend["source"]]
            )

            counters = merged["counters"]
            # Worlds hash across shards; every world op reached some host.
            assert counters["host.requests"] > 0
            # The metrics op itself is answered at the front end (so it is
            # received but never dispatched), while its four shard_metrics
            # probes are dispatched without being received over the wire.
            # Read-cache hits are received and answered at the front end.
            assert (
                counters["server.requests"] + counters["server.read_cache.hits"]
                == counters["server.requests_received"] - 1 + 4
            )
            # Internal probes are excluded from the host workload count.
            # The repeat snapshot of each world is a front-end hit.
            assert counters["server.read_cache.hits"] == 4
            assert frontend["gauges"]["server.read_cache.entries"] >= 4
            assert counters["topology.full_builds"] >= 4
            assert counters["world.writes"] > 0

            histograms = merged["histograms"]
            for name in (
                "server.batch_size",
                "server.queue_wait_seconds",
                "server.execute_seconds",
                "host.batch_size",
            ):
                summary = histograms[name]
                assert summary["count"] > 0
                for key in ("mean", "p50", "p95", "p99"):
                    assert summary[key] is not None
            assert histograms["topology.dirty_set_size"]["count"] >= 0

            gauges = merged["gauges"]
            assert gauges["host.live_worlds"] == 4
            assert gauges["server.worlds"] == 4
            return payload

        run(_with_server(body))

    def test_metrics_op_is_repeatable_and_monotone(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await _exercise(client, worlds=2, steps=1)
                first = await client.call(protocol.METRICS)
                await _exercise_more(client)
                second = await client.call(protocol.METRICS)
            finally:
                await client.close()
            assert (
                second["merged"]["counters"]["host.requests"]
                > first["merged"]["counters"]["host.requests"]
            )

        async def _exercise_more(client):
            await client.call(protocol.ADVANCE, world="m0", params={"steps": 1})
            await client.call(protocol.QUERY_STATS, world="m0")

        run(_with_server(body))

    def test_shard_metrics_requires_no_real_world(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                snap = await client.call(
                    protocol.SHARD_METRICS, world="@shard:probe"
                )
                assert "counters" in snap and "histograms" in snap
            finally:
                await client.close()

        run(_with_server(body))

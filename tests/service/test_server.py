"""The asyncio front end, driven over real TCP connections."""

import asyncio

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import LoadConfig, run_load_async, verify_snapshots
from repro.service.server import FleetServer


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(body, **kwargs):
    """Start an inline-shard server on a free port, run ``body``, stop."""
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("inline", True)
    server = FleetServer(port=0, **kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


class TestFrontend:
    def test_ping(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                result = await client.call(protocol.PING)
                assert result == {"pong": True, "shards": 2}
            finally:
                await client.close()

        run(_with_server(body))

    def test_world_round_trip_and_listing(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                created = await client.call(
                    protocol.CREATE_WORLD,
                    world="w1",
                    params={"nodes": 25, "seed": 2, "mover_fraction": 0.2},
                )
                assert created["nodes"] == 25
                stats = await client.call(protocol.QUERY_STATS, world="w1")
                assert stats["alive_nodes"] == 25
                await client.call(protocol.ADVANCE, world="w1", params={"steps": 1})
                listing = await client.call(protocol.LIST_WORLDS)
                assert list(listing["worlds"]) == ["w1"]
                await client.call(protocol.DELETE_WORLD, world="w1")
                listing = await client.call(protocol.LIST_WORLDS)
                assert listing["worlds"] == {}
            finally:
                await client.close()

        run(_with_server(body))

    def test_error_responses_are_not_fatal(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                with pytest.raises(ServiceError, match="unknown world"):
                    await client.call(protocol.QUERY_STATS, world="ghost")
                # The connection survives an error response.
                assert (await client.call(protocol.PING))["pong"] is True
            finally:
                await client.close()

        run(_with_server(body))

    def test_malformed_line_yields_error_response(self):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                response = protocol.decode_message(await reader.readline())
                assert response["ok"] is False
                assert "malformed" in response["error"]
            finally:
                writer.close()
                await writer.wait_closed()

        run(_with_server(body))

    def test_metrics_counts_requests_and_batches(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(protocol.CREATE_WORLD, world="w1", params={"nodes": 20})
                for _ in range(3):
                    await client.call(protocol.QUERY_STATS, world="w1")
                frontend = (await client.call(protocol.METRICS))["frontend"]
                assert frontend["gauges"]["server.worlds"] == 1
                assert frontend["counters"]["server.requests_received"] >= 5
                assert frontend["histograms"]["server.batch_size"]["count"] >= 4
                # Four world requests plus this op's probe of each shard;
                # the read-cache hits never reach a shard.
                counters = frontend["counters"]
                assert counters["server.requests"] + counters["server.read_cache.hits"] == 4 + 2
                # The durability gauges exist only on a server with a store.
                assert "service.worker_restarts" not in frontend["gauges"]
                # The deprecated stats op is gone from the wire.
                response = await client.request("server_stats")
                assert response["ok"] is False
            finally:
                await client.close()

        run(_with_server(body))

    def test_shutdown_is_acknowledged_then_honoured(self):
        async def body():
            server = FleetServer(port=0, shards=2, inline=True)
            await server.start()
            waiter = asyncio.create_task(server.serve_until_shutdown())
            client = await ServiceClient.connect("127.0.0.1", server.port)
            result = await client.call(protocol.SHUTDOWN)
            assert result == {"stopping": True}
            await client.close()
            await asyncio.wait_for(waiter, timeout=10)

        run(body())


class TestLoadAgainstServer:
    def test_load_run_verifies_against_serial_replay(self):
        async def body(server):
            config = LoadConfig(
                worlds=4, requests_per_world=5, nodes=25, connections=3, seed=11
            )
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            # Creation is the untimed setup phase; the workload phase covers
            # the per-world requests plus the closing snapshot.
            assert report.setup_requests == 4
            assert report.requests == 4 * (5 + 1)
            assert verify_snapshots(config, snapshots) == []
            server_counters = report.metrics["server"]
            assert server_counters["worlds"] == 4
            assert sum(server_counters["shard_requests"]) >= 4 + report.requests
            assert server_counters["durable"] is False
            assert "durability:" not in report.as_text()
            assert "frontend_read_cache" in report.metrics["cache_hit_rates"]
            return report

        report = run(_with_server(body))
        assert report.requests_per_second > 0

    def test_load_run_with_subscribers_converges_byte_identically(self):
        async def body(server):
            config = LoadConfig(
                worlds=4,
                requests_per_world=6,
                nodes=25,
                connections=3,
                seed=13,
                subscribers=3,
            )
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            assert report.subscribers == 3
            assert report.frames_pushed > 0
            # Every watched mirror settled byte-identical to the served
            # final snapshot, and the subscribe ops kept the serial
            # reference aligned with the live run.
            assert report.mirrors_verified == 3
            assert verify_snapshots(config, snapshots) == []
            assert "subscribers: 3 worlds watched" in report.as_text()

        run(_with_server(body))

    def test_second_load_against_the_same_server_fails_fast(self):
        """Leftover worlds from a previous run must yield a clear error,
        not a phantom 'snapshots diverged' verification failure."""
        from repro.service.client import ServiceError

        async def body(server):
            config = LoadConfig(worlds=2, requests_per_world=2, nodes=20, connections=1)
            await run_load_async("127.0.0.1", server.port, config)
            with pytest.raises(ServiceError, match="previous run"):
                await run_load_async("127.0.0.1", server.port, config)

        run(_with_server(body))

    def test_tampered_snapshot_fails_verification(self):
        async def body(server):
            config = LoadConfig(
                worlds=2, requests_per_world=3, nodes=20, connections=2, seed=3
            )
            _, snapshots = await run_load_async("127.0.0.1", server.port, config)
            snapshots["world-000"] = snapshots["world-000"].replace('"alive": true', '"alive": false', 1)
            assert "world-000" in verify_snapshots(config, snapshots)
            del snapshots["world-001"]
            assert verify_snapshots(config, snapshots) == ["world-000", "world-001"]

        run(_with_server(body))


class TestConcurrentCalls:
    """Several requests in flight on one connection, answered by id."""

    def test_gathered_calls_on_one_connection_all_answer(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                pong, listing = await asyncio.gather(
                    client.call(protocol.PING), client.call(protocol.LIST_WORLDS)
                )
                assert pong == {"pong": True, "shards": 2}
                assert listing["worlds"] == {}
            finally:
                await client.close()

        run(_with_server(body))

    def test_gathered_calls_beside_push_frames_keep_the_mirror(self):
        """Responses and the diff frames of a subscribed world interleave
        on one connection; every frame still reaches the mirror."""
        from repro.io.results import results_to_json

        async def body(server):
            async with await ServiceClient.connect("127.0.0.1", server.port) as client:
                await client.call(
                    protocol.CREATE_WORLD,
                    world="w",
                    params={"nodes": 20, "seed": 3, "mover_fraction": 0.3},
                )
                await client.subscribe("w")
                base = client.mirrors["w"].seq
                *advanced, stats, pong = await asyncio.gather(
                    *(
                        client.call(protocol.ADVANCE, world="w", params={"steps": 1})
                        for _ in range(3)
                    ),
                    client.call(protocol.QUERY_STATS, world="w"),
                    client.call(protocol.PING),
                )
                assert len(advanced) == 3
                assert stats["alive_nodes"] == 20
                assert pong["pong"] is True
                mirror = await client.wait_for("w", seq=base + 3, timeout=10.0)
                assert client.frames_received >= 3
                assert not client.stale
                fresh = await client.call(protocol.SNAPSHOT, world="w")
                assert results_to_json(mirror.snapshot) == results_to_json(fresh)

        run(_with_server(body))


class TestDurableServer:
    def test_state_dir_survives_a_server_restart(self, tmp_path):
        """Stop a --state-dir server, start a fresh one on the directory:
        the worlds, their placement, and their exact bytes all come back."""
        state_dir = str(tmp_path / "state")

        async def first_life(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(
                    protocol.CREATE_WORLD,
                    world="w1",
                    params={"nodes": 20, "seed": 3, "mover_fraction": 0.2},
                )
                await client.call(protocol.ADVANCE, world="w1", params={"steps": 2})
                return await client.call(protocol.SNAPSHOT, world="w1")
            finally:
                await client.close()

        async def second_life(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                listing = await client.call(protocol.LIST_WORLDS)
                assert list(listing["worlds"]) == ["w1"]
                gauges = (await client.call(protocol.METRICS))["frontend"]["gauges"]
                assert gauges["service.recovered_worlds"] == 1
                assert gauges["service.worker_restarts"] == 0
                return await client.call(protocol.SNAPSHOT, world="w1")
            finally:
                await client.close()

        before = run(_with_server(first_life, state_dir=state_dir))
        after = run(_with_server(second_life, state_dir=state_dir))
        from repro.io.results import results_to_json

        assert results_to_json(after) == results_to_json(before)

    def test_max_live_worlds_requires_state_dir(self):
        with pytest.raises(ValueError, match="state-dir"):
            FleetServer(max_live_worlds=1)

    def test_bounded_server_serves_evicted_worlds(self, tmp_path):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                snapshots = {}
                for name in ("a1", "a2", "a3"):
                    await client.call(
                        protocol.CREATE_WORLD, world=name, params={"nodes": 15, "seed": 1}
                    )
                    await client.call(protocol.ADVANCE, world=name, params={"steps": 1})
                    snapshots[name] = await client.call(protocol.SNAPSHOT, world=name)
                # Revisit in creation order: the cold ones rehydrate.
                from repro.io.results import results_to_json

                for name, expected in snapshots.items():
                    again = await client.call(protocol.SNAPSHOT, world=name)
                    assert results_to_json(again) == results_to_json(expected)
            finally:
                await client.close()

        run(
            _with_server(
                body, shards=1, state_dir=str(tmp_path / "state"), max_live_worlds=1
            )
        )

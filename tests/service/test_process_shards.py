"""The process-shard server path: real worker processes behind real TCP.

Every other front-end test runs ``inline=True``; these drive the pipe the
dispatchers await (``ProcessShardPool.dispatch``) and its supervision:
byte-identity with the serial replay, durable and non-durable worker
kills, a response written just before the worker dies, and a slow restart
on one shard that must not hold up another.
"""

import asyncio
import threading
import time

import pytest

from repro.service import faults as faultlib
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.faults import FaultPlan, FaultRule
from repro.service.loadgen import LoadConfig, run_load_async, verify_snapshots
from repro.service.replay import replay_serial
from repro.service.server import FleetServer
from repro.service.storage import StoreConfig
from repro.service.workers import ProcessShardPool, WorkerDiedError

from tests.service.test_determinism import WORLD_NAMES, build_trace


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(body, **kwargs):
    """Start a two-process-shard server on a free port, run ``body``, stop."""
    server = FleetServer(port=0, shards=2, inline=False, **kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


def _world_on(server, shard, prefix="w"):
    return next(f"{prefix}{i}" for i in range(100) if server.ring.shard_of(f"{prefix}{i}") == shard)


async def _pipelined(port, requests):
    """Write every request before reading any response; responses by id."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for index, request in enumerate(requests):
            writer.write(protocol.encode_message(dict(request, id=index)))
        await writer.drain()
        responses = {}
        while len(responses) < len(requests):
            response = protocol.decode_message(await reader.readline())
            responses[response["id"]] = response
        return [responses[index] for index in range(len(requests))]
    finally:
        writer.close()
        await writer.wait_closed()


class TestProcessShardServer:
    def test_pipelined_trace_matches_serial_replay(self):
        trace = build_trace(7, 5, node_count=20)
        snapshots = [
            {"op": protocol.SNAPSHOT, "world": world, "params": {}} for world in WORLD_NAMES
        ]

        async def body(server):
            responses = await _pipelined(server.port, trace + snapshots)
            assert all(response["ok"] for response in responses), responses
            return responses[len(trace):]

        from repro.io.results import results_to_json

        served = run(_with_server(body))
        assert {
            world: results_to_json(response["result"])
            for world, response in zip(WORLD_NAMES, served)
        } == replay_serial(trace)

    def test_durable_worker_kill_is_invisible(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.KILL_WORKER, shard=0, at_request=9)])

        async def body(server):
            config = LoadConfig(
                worlds=4, requests_per_world=6, nodes=20, connections=2, seed=8,
                request_timeout=5.0, deadline=30.0,
            )
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            assert verify_snapshots(config, snapshots) == []
            assert report.metrics["server"]["worker_restarts"] >= 1

        run(_with_server(body, faults=plan, state_dir=str(tmp_path)))

    def test_nondurable_worker_kill_errors_then_the_shard_serves(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.KILL_WORKER, shard=0, at_request=2)])

        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=10.0)
            try:
                world = _world_on(server, 0)
                await client.call(protocol.CREATE_WORLD, world=world, params={"nodes": 10})
                response = await client.request(protocol.ADVANCE, world=world, params={"steps": 1})
                assert response["ok"] is False
                assert "worker died" in response["error"]
                # The restarted worker is empty but serving.
                fresh = _world_on(server, 0, prefix="fresh")
                created = await client.call(
                    protocol.CREATE_WORLD, world=fresh, params={"nodes": 10}
                )
                assert created["nodes"] == 10
                assert server._pool.worker_restarts == 1
            finally:
                await client.close()

        run(_with_server(body, faults=plan))

    def test_slow_restart_of_one_shard_does_not_delay_another(self):
        restarting = threading.Event()

        async def body(server):
            pool = server._pool
            restart = pool._restart

            def slow_restart(shard, **kwargs):
                if shard == 0:
                    restarting.set()
                    time.sleep(1.5)
                return restart(shard, **kwargs)

            pool._restart = slow_restart
            first = await ServiceClient.connect("127.0.0.1", server.port, timeout=10.0)
            second = await ServiceClient.connect("127.0.0.1", server.port, timeout=10.0)
            try:
                doomed, other = _world_on(server, 0), _world_on(server, 1)
                for world in (doomed, other):
                    await first.call(protocol.CREATE_WORLD, world=world, params={"nodes": 10})
                pool._workers[0].kill()
                pool._workers[0].join(timeout=10)
                lost = asyncio.ensure_future(
                    first.request(protocol.ADVANCE, world=doomed, params={"steps": 1})
                )
                while not restarting.is_set():
                    await asyncio.sleep(0.01)
                started = time.perf_counter()
                stats = await second.call(protocol.QUERY_STATS, world=other)
                assert time.perf_counter() - started < 1.0
                assert stats["alive_nodes"] == 10
                assert not lost.done()
                response = await lost
                assert "worker died" in response["error"]
            finally:
                await first.close()
                await second.close()

        run(_with_server(body))

    def test_restart_with_fewer_shards_heals_stray_files_in_workers(self, tmp_path):
        """A 4-shard directory booted with two worker processes: the heal
        grows the pool over shard files 2 and 3, drains them through their
        own workers, and shrinks back."""
        from repro.io.results import results_to_json

        async def write_fleet():
            server = FleetServer(port=0, shards=4, inline=True, state_dir=str(tmp_path))
            await server.start()
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                snapshots = {}
                for index in range(8):
                    world = f"world-{index:02d}"
                    await client.call(
                        protocol.CREATE_WORLD, world=world, params={"nodes": 15, "seed": index}
                    )
                    await client.call(protocol.ADVANCE, world=world, params={"steps": 1})
                    snapshots[world] = results_to_json(
                        await client.call(protocol.SNAPSHOT, world=world)
                    )
                return snapshots, sorted(set(server._worlds.values()))
            finally:
                await client.close()
                await server.stop()

        async def body(server):
            # The runtime grown for the heal has shrunk back to the fleet.
            assert server._pool.shard_count == 2 and len(server._dispatchers) == 2
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                listing = await client.call(protocol.LIST_WORLDS)
                served = {
                    world: results_to_json(await client.call(protocol.SNAPSHOT, world=world))
                    for world in listing["worlds"]
                }
            finally:
                await client.close()
            return listing["worlds"], served, server

        snapshots, files = run(write_fleet())
        assert any(shard >= 2 for shard in files)
        worlds, served, server = run(_with_server(body, state_dir=str(tmp_path)))
        assert sorted(worlds) == sorted(snapshots)
        for world, shard in worlds.items():
            assert shard == server.ring.shard_of(world) and shard < 2
        assert served == snapshots
        assert server.metrics.counter("server.placement_healed").value > 0


class TestProcessShardPool:
    def test_response_written_before_death_is_delivered(self):
        """A batch followed by the die sentinel: the worker answers, then
        exits; the pipe holds the answer when the sentinel is also ready."""

        async def body():
            pool = ProcessShardPool(1)
            try:
                batch = [
                    {"id": 1, "op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 8}}
                ]
                pending = asyncio.ensure_future(pool.dispatch(0, batch))
                await asyncio.sleep(0)  # the batch is on the pipe
                pool.kill_worker(0)
                pool._workers[0].join(timeout=10)
                assert pool._workers[0].exitcode == 1
                [response] = await pending
                assert response["ok"], response
                assert pool.worker_restarts == 0
            finally:
                pool.close()

        run(body())

    def test_dispatch_raises_instead_of_hanging_when_recovery_fails(self, tmp_path):
        async def body():
            pool = ProcessShardPool(1, store_config=StoreConfig(path=str(tmp_path)))
            restart = pool._restart

            def restart_then_die(shard, **kwargs):
                restart(shard, **kwargs)
                pool._workers[shard].kill()
                pool._workers[shard].join(timeout=10)

            try:
                pool._restart = restart_then_die
                pool.kill_worker(0)
                pool._workers[0].join(timeout=10)
                with pytest.raises(WorkerDiedError, match="died again"):
                    await pool.dispatch(
                        0, [{"id": 1, "op": protocol.CREATE_WORLD, "world": "w", "params": {}}]
                    )
            finally:
                pool.close()

        run(body())

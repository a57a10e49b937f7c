"""The chaos-hardening battery: faults, backpressure, retries, migration.

Four layers, mirroring the robustness design:

* **fault-plan unit tests** — the JSON schema round-trips, bad plans are
  rejected loudly, and the injector's firing decisions are deterministic
  in the plan's seed (the property that lets chaos runs be replayed).
* **TCP chaos tests** — a real inline-shard server with an installed
  fault plan: dropped/delayed/duplicated responses, refused connections,
  killed workers and frozen shards, each absorbed by the retrying client
  with final snapshots byte-identical to the serial replay.
* **admission control** — a saturated shard queue answers ``RETRY_LATER``
  with a backoff hint instead of queueing without bound; shutdown fails
  queued requests with ``SHUTTING_DOWN`` instead of stranding them.
* **live-resize battery** — hypothesis interleaves ring resizes (and
  crashes) into randomly scheduled sharded replays and requires final
  snapshots byte-identical to :func:`replay_serial`; a TCP test does the
  same through the ``resize`` op against a live server.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import faults as faultlib
from repro.service import protocol
from repro.service.client import (
    DeadlineExceeded,
    RetryingClient,
    ServiceClient,
    ServiceError,
)
from repro.service.faults import FaultInjector, FaultPlan, FaultRule
from repro.service.loadgen import LoadConfig, run_load_async, verify_snapshots
from repro.service.replay import ShardedReplayer, replay_serial
from repro.service.server import FleetServer
from repro.service.storage import MemoryStore

from tests.service.test_determinism import build_trace

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


def _retrying(server, *, seed=0, **options) -> RetryingClient:
    options.setdefault("timeout", 5.0)
    options.setdefault("deadline", 30.0)
    return RetryingClient.to_server("127.0.0.1", server.port, seed=seed, **options)


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan.from_json(
            json.dumps(
                {
                    "seed": 7,
                    "rules": [
                        {"kind": "kill_worker", "shard": 1, "at_request": 4},
                        {"kind": "freeze_shard", "shard": 0, "every": 10, "duration": 0.05},
                        {"kind": "drop_response", "every": 3, "count": 2},
                        {"kind": "delay_response", "probability": 0.5, "duration": 0.01},
                        {"kind": "refuse_connections", "at_request": 2},
                    ],
                }
            )
        )
        assert plan.seed == 7
        assert len(plan.rules) == 5
        assert FaultPlan.from_json(json.dumps(plan.to_dict())).to_dict() == plan.to_dict()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 1, "rules": [{"kind": "drop_response", "every": 5}]}')
        plan = FaultPlan.load(str(path))
        assert plan.rules[0].kind == faultlib.DROP_RESPONSE

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"kind": "melt_cpu", "every": 1}, "unknown fault kind"),
            ({"kind": "drop_response"}, "exactly one of"),
            ({"kind": "drop_response", "every": 2, "at_request": 3}, "exactly one of"),
            ({"kind": "kill_worker", "at_request": 1}, "requires a non-negative 'shard'"),
            ({"kind": "drop_response", "shard": 0, "every": 1}, "does not take a 'shard'"),
            ({"kind": "drop_response", "at_request": 0}, "'at_request' must be"),
            ({"kind": "drop_response", "every": 0}, "'every' must be"),
            ({"kind": "drop_response", "probability": 1.5}, "'probability' must be"),
            ({"kind": "drop_response", "every": 1, "count": 0}, "'count' must be"),
            ({"kind": "drop_response", "every": 1, "surprise": 1}, "unknown fault-rule fields"),
        ],
    )
    def test_bad_rules_rejected(self, payload, match):
        with pytest.raises(ValueError, match=match):
            FaultRule.from_dict(payload)

    def test_bad_plans_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan fields"):
            FaultPlan.from_dict({"seed": 0, "rules": [], "extra": 1})
        with pytest.raises(ValueError, match="'seed' must be an integer"):
            FaultPlan.from_dict({"seed": "zero"})
        with pytest.raises(ValueError, match="'rules' must be a list"):
            FaultPlan.from_dict({"rules": {}})


class TestFaultInjector:
    def test_at_request_fires_once(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.KILL_WORKER, shard=0, at_request=3)])
        injector = FaultInjector(plan)
        kills = [injector.on_shard_request(0)[0] for _ in range(6)]
        assert kills == [False, False, True, False, False, False]
        # A different shard's counter never trips a shard-0 rule.
        assert injector.on_shard_request(1) == (False, 0.0)
        assert injector.counters() == {faultlib.KILL_WORKER: 1}

    def test_every_with_count_budget(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.DROP_RESPONSE, every=2, count=2)])
        injector = FaultInjector(plan)
        drops = [injector.on_response().drop for _ in range(8)]
        assert drops == [False, True, False, True, False, False, False, False]

    def test_probabilistic_rules_replay_identically(self):
        def firings():
            plan = FaultPlan(
                seed=99,
                rules=[FaultRule(kind=faultlib.DELAY_RESPONSE, probability=0.3, duration=0.01)],
            )
            injector = FaultInjector(plan)
            return [bool(injector.on_response()) for _ in range(50)]

        first, second = firings(), firings()
        assert first == second
        assert any(first) and not all(first)

    def test_freeze_duration_accumulates(self):
        plan = FaultPlan(
            rules=[FaultRule(kind=faultlib.FREEZE_SHARD, shard=0, every=1, duration=0.25)]
        )
        injector = FaultInjector(plan)
        assert injector.on_shard_request(0) == (False, 0.25)

    def test_connection_refusal(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.REFUSE_CONNECTIONS, every=2)])
        injector = FaultInjector(plan)
        assert [injector.on_connection() for _ in range(4)] == [False, True, False, True]


# --------------------------------------------------------------------- #
# TCP chaos: response faults, connection refusal, worker kills
# --------------------------------------------------------------------- #
def _chaos_load_config(**overrides):
    defaults = dict(
        worlds=4,
        requests_per_world=6,
        nodes=20,
        connections=2,
        seed=5,
        request_timeout=2.0,
        deadline=30.0,
    )
    defaults.update(overrides)
    return LoadConfig(**defaults)


class TestResponseFaults:
    def test_dropped_responses_are_retried_to_byte_identity(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.DROP_RESPONSE, every=9, count=3)])

        async def body(server):
            config = _chaos_load_config()
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            assert report.retries >= 3
            assert verify_snapshots(config, snapshots) == []
            assert server.metrics.counter("server.faults.responses_dropped").value == 3

        run(_with_server(body, faults=plan))

    def test_duplicated_responses_are_discarded_by_id_matching(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.DUPLICATE_RESPONSE, every=4)])

        async def body(server):
            config = _chaos_load_config(seed=6)
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            assert verify_snapshots(config, snapshots) == []
            assert server.metrics.counter("server.faults.responses_duplicated").value > 0

        run(_with_server(body, faults=plan))

    def test_delayed_responses_stay_correct(self):
        plan = FaultPlan(
            rules=[FaultRule(kind=faultlib.DELAY_RESPONSE, every=7, duration=0.02)]
        )

        async def body(server):
            config = _chaos_load_config(seed=7)
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            assert verify_snapshots(config, snapshots) == []
            assert server.metrics.counter("server.faults.responses_delayed").value > 0

        run(_with_server(body, faults=plan))

    def test_refused_connections_are_reconnected(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.REFUSE_CONNECTIONS, at_request=1)])

        async def body(server):
            # The first connection is refused (closed before any response);
            # the retrying client reconnects and completes the call.
            client = _retrying(server)
            try:
                result = await client.call(protocol.PING)
                assert result["pong"] is True
                assert client.reconnects >= 1
            finally:
                await client.close()
            assert server.metrics.counter("server.faults.connections_refused").value == 1

        run(_with_server(body, faults=plan))


class TestWorkerKills:
    def test_durable_inline_worker_kill_is_invisible(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.KILL_WORKER, shard=0, at_request=9)])

        async def body(server):
            config = _chaos_load_config(seed=8)
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            assert verify_snapshots(config, snapshots) == []
            assert report.metrics["server"]["worker_restarts"] >= 1
            assert "worker restarts" in report.as_text()

        run(_with_server(body, faults=plan, state_dir=str(tmp_path)))

    def test_nondurable_worker_kill_surfaces_errors_not_hangs(self):
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.KILL_WORKER, shard=0, at_request=2)])

        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=10.0)
            try:
                # Find a world hashed to shard 0 so the kill rule triggers.
                world = next(
                    f"w{i}" for i in range(50) if server.ring.shard_of(f"w{i}") == 0
                )
                await client.call(protocol.CREATE_WORLD, world=world, params={"nodes": 10})
                with pytest.raises(ServiceError, match="worker died"):
                    await client.call(protocol.ADVANCE, world=world, params={"steps": 1})
            finally:
                await client.close()

        run(_with_server(body, faults=plan))


# --------------------------------------------------------------------- #
# Admission control & backpressure
# --------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_saturated_shard_sheds_with_retry_hint(self):
        # Freeze every dispatch long enough that pipelined requests pile up
        # behind the 2-deep queue bound and get shed.
        plan = FaultPlan(
            rules=[FaultRule(kind=faultlib.FREEZE_SHARD, shard=0, every=1, duration=0.05)]
        )

        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                world = next(
                    f"w{i}" for i in range(50) if server.ring.shard_of(f"w{i}") == 0
                )
                total = 16
                for index in range(total):
                    op = protocol.CREATE_WORLD if index == 0 else protocol.QUERY_STATS
                    params = {"nodes": 10} if index == 0 else {}
                    writer.write(
                        protocol.encode_message(
                            {"id": index, "op": op, "world": world, "params": params}
                        )
                    )
                await writer.drain()
                responses = []
                for _ in range(total):
                    line = await asyncio.wait_for(reader.readline(), timeout=30.0)
                    assert line, "server closed mid-stream"
                    responses.append(protocol.decode_message(line))
                shed = [r for r in responses if r.get("code") == protocol.RETRY_LATER]
                served = [r for r in responses if r.get("ok")]
                assert shed, "expected RETRY_LATER responses from the saturated shard"
                assert served, "the queue-admitted requests must still be served"
                for response in shed:
                    assert response["retry_after"] > 0
                    assert "saturated" in response["error"]
                assert server.metrics.counter("server.load_shed").value == len(shed)
            finally:
                writer.close()

        run(_with_server(body, faults=plan, max_pending=2, max_inflight=64))

    def test_retrying_client_absorbs_shedding(self):
        plan = FaultPlan(
            rules=[FaultRule(kind=faultlib.FREEZE_SHARD, shard=0, every=3, duration=0.03)]
        )

        async def body(server):
            config = _chaos_load_config(seed=9, connections=4)
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            assert verify_snapshots(config, snapshots) == []

        run(_with_server(body, faults=plan, max_pending=2))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="max_pending"):
            FleetServer(max_pending=0)
        with pytest.raises(ValueError, match="max_inflight"):
            FleetServer(max_inflight=0)

    def test_shutdown_fails_queued_requests_with_structured_error(self):
        # A long freeze parks a batch in the dispatcher while more requests
        # queue behind it; stop() must fail the queued ones immediately with
        # SHUTTING_DOWN rather than strand the connection.
        plan = FaultPlan(
            rules=[FaultRule(kind=faultlib.FREEZE_SHARD, shard=0, every=1, duration=0.3)]
        )

        async def body():
            server = FleetServer(port=0, shards=1, inline=True, faults=plan)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                world = next(
                    f"w{i}" for i in range(50) if server.ring.shard_of(f"w{i}") == 0
                )
                writer.write(
                    protocol.encode_message(
                        {"id": 0, "op": protocol.CREATE_WORLD, "world": world, "params": {"nodes": 10}}
                    )
                )
                await writer.drain()
                # Let the dispatcher pick up the first request and enter its
                # 0.3s freeze, then queue more behind the frozen batch.
                await asyncio.sleep(0.05)
                for index in range(1, 5):
                    writer.write(
                        protocol.encode_message(
                            {"id": index, "op": protocol.QUERY_STATS, "world": world, "params": {}}
                        )
                    )
                await writer.drain()
                await asyncio.sleep(0.05)
                await server.stop()
                responses = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                    if not line:
                        break
                    responses.append(protocol.decode_message(line))
                codes = [r.get("code") for r in responses if not r.get("ok")]
                assert protocol.SHUTTING_DOWN in codes
                # Nothing is silently dropped: every request got an answer.
                assert len(responses) == 5
            finally:
                writer.close()

        run(body())

    def test_requests_after_stop_are_refused(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.call(protocol.SHUTDOWN)
                response = await client.request(
                    protocol.CREATE_WORLD, world="w", params={"nodes": 10}
                )
                assert response.get("code") == protocol.SHUTTING_DOWN
            except (ConnectionError, ServiceError):
                pass  # the listener may already be gone — equally acceptable
            finally:
                await client.close()

        run(_with_server(body))

    def test_internal_ops_are_refused_from_the_wire(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                response = await client.request(
                    protocol.MIGRATE_IN, world="w", params={"state": "AAAA"}
                )
                assert not response["ok"]
                assert "internal" in response["error"]
            finally:
                await client.close()

        run(_with_server(body))


# --------------------------------------------------------------------- #
# Deadline-aware retries
# --------------------------------------------------------------------- #
class TestRetryingClient:
    def test_deadline_exhaustion_raises(self):
        async def body(server):
            # Refuse every connection: the client can never complete.
            client = _retrying(server, deadline=0.3, max_attempts=3)
            with pytest.raises(DeadlineExceeded):
                await client.call(protocol.PING)
            await client.close()

        plan = FaultPlan(rules=[FaultRule(kind=faultlib.REFUSE_CONNECTIONS, every=1)])
        run(_with_server(body, faults=plan))

    def test_application_errors_are_not_retried(self):
        async def body(server):
            client = _retrying(server)
            try:
                with pytest.raises(ServiceError, match="unknown world"):
                    await client.call(protocol.QUERY_STATS, world="nope")
                assert client.retries == 0
            finally:
                await client.close()

        run(_with_server(body))

    def test_backoff_schedule_is_deterministic_in_seed(self):
        a = RetryingClient(lambda: None, seed=4)
        b = RetryingClient(lambda: None, seed=4)
        schedule_a = [a._backoff(i, None) for i in range(6)]
        schedule_b = [b._backoff(i, None) for i in range(6)]
        assert schedule_a == schedule_b
        c = RetryingClient(lambda: None, seed=5)
        assert [c._backoff(i, None) for i in range(6)] != schedule_a

    def test_backoff_honours_server_hint_as_floor(self):
        client = RetryingClient(lambda: None, seed=0, backoff_cap=0.2)
        assert client._backoff(0, 1.5) >= 1.5

    def test_tokens_make_write_retries_exactly_once(self):
        # Drop the response to an advance: the client re-issues under the
        # same token and the server answers from the dedup cache instead of
        # advancing twice.
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.DROP_RESPONSE, at_request=2)])

        async def body(server):
            client = _retrying(server, timeout=1.0)
            try:
                await client.call(protocol.CREATE_WORLD, world="w", params={"nodes": 10, "seed": 1})
                await client.call(protocol.ADVANCE, world="w", params={"steps": 1})
                assert client.retries >= 1
                stats = await client.call(protocol.CACHE_STATS, world="w")
                assert stats["writes"] == 1  # not 2: the retry was deduped
            finally:
                await client.close()

        run(_with_server(body, faults=plan))


# --------------------------------------------------------------------- #
# Live resize over TCP
# --------------------------------------------------------------------- #
class TestLiveResize:
    def test_resize_preserves_byte_identity(self):
        async def body(server):
            config = _chaos_load_config(seed=12, worlds=6)
            # Load in two halves with a grow in between, against the same
            # worlds: run the full load, resize, then verify re-snapshots.
            report, snapshots = await run_load_async("127.0.0.1", server.port, config)
            assert report.errors == 0
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                result = await client.call(protocol.RESIZE, params={"shards": 5})
                assert result["shards"] == 5
                assert result["moved"] > 0
                assert server.shards == 5
                # Placement matches the new ring for every world.
                listing = await client.call(protocol.LIST_WORLDS)
                for world, shard in listing["worlds"].items():
                    assert shard == server.ring.shard_of(world)
                # Worlds still serve, and serve the same bytes.
                after = {}
                from repro.io.results import results_to_json

                for world in listing["worlds"]:
                    after[world] = results_to_json(
                        await client.call(protocol.SNAPSHOT, world=world)
                    )
                assert after == snapshots
                # Shrink below the original count; still byte-identical.
                result = await client.call(protocol.RESIZE, params={"shards": 1})
                assert result["shards"] == 1
                for world in listing["worlds"]:
                    assert server.ring.shard_of(world) == 0
                    assert (
                        results_to_json(await client.call(protocol.SNAPSHOT, world=world))
                        == snapshots[world]
                    )
            finally:
                await client.close()

        run(_with_server(body, shards=3))

    def test_resize_during_traffic_parks_and_replays(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            worlds = [f"world-{i:02d}" for i in range(8)]
            try:
                for index, world in enumerate(worlds):
                    await client.call(
                        protocol.CREATE_WORLD, world=world, params={"nodes": 15, "seed": index}
                    )

                async def churn():
                    churn_client = await ServiceClient.connect(
                        "127.0.0.1", server.port, timeout=30.0
                    )
                    try:
                        for _ in range(3):
                            for world in worlds:
                                await churn_client.call(
                                    protocol.ADVANCE, world=world, params={"steps": 1}
                                )
                    finally:
                        await churn_client.close()

                churn_task = asyncio.create_task(churn())
                result = await client.call(protocol.RESIZE, params={"shards": 4})
                await churn_task
                assert result["shards"] == 4
                # Every world advanced exactly 3 times despite the migration.
                for world in worlds:
                    stats = await client.call(protocol.CACHE_STATS, world=world)
                    assert stats["writes"] == 3
            finally:
                await client.close()

        run(_with_server(body, shards=2))

    def test_resize_validation(self):
        async def body(server):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            try:
                for bad in (0, -1, True, "three"):
                    response = await client.request(protocol.RESIZE, params={"shards": bad})
                    assert not response["ok"]
                same = await client.call(protocol.RESIZE, params={"shards": 2})
                assert same == {"shards": 2, "moved": 0, "parked": 0}
            finally:
                await client.close()

        run(_with_server(body, shards=2))

    def test_durable_resize_survives_restart_under_new_shard_count(self, tmp_path):
        """Write state under 3 shards, resize live to 2, restart with 2:
        the healed placement must serve identical bytes.  Then restart with
        a *different* count again — startup healing migrates strays."""

        async def body():
            from repro.io.results import results_to_json

            state_dir = str(tmp_path)
            server = FleetServer(port=0, shards=3, inline=True, state_dir=state_dir)
            await server.start()
            snapshots = {}
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                for index in range(6):
                    world = f"world-{index:02d}"
                    await client.call(
                        protocol.CREATE_WORLD, world=world, params={"nodes": 15, "seed": index}
                    )
                    await client.call(protocol.ADVANCE, world=world, params={"steps": 2})
                    snapshots[world] = results_to_json(
                        await client.call(protocol.SNAPSHOT, world=world)
                    )
                await client.call(protocol.RESIZE, params={"shards": 2})
            finally:
                await client.close()
                await server.stop()

            # Restart with yet another shard count: worlds live in files
            # 0..1, the ring now spans 4 shards — healing must move them.
            server = FleetServer(port=0, shards=4, inline=True, state_dir=state_dir)
            await server.start()
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                listing = await client.call(protocol.LIST_WORLDS)
                assert sorted(listing["worlds"]) == sorted(snapshots)
                for world, shard in listing["worlds"].items():
                    assert shard == server.ring.shard_of(world)
                for world, expected in snapshots.items():
                    assert (
                        results_to_json(await client.call(protocol.SNAPSHOT, world=world))
                        == expected
                    )
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_restart_with_fewer_shards_heals_stray_files(self, tmp_path):
        """Shard files beyond the new fleet (a 4-shard directory booted
        with --shards 2) are healed at startup: the runtime grows over the
        stray files and their worlds migrate into the fleet through
        :mod:`repro.service.fleet`."""

        async def body():
            from repro.io.results import results_to_json

            state_dir = str(tmp_path)
            server = FleetServer(port=0, shards=4, inline=True, state_dir=state_dir)
            await server.start()
            snapshots = {}
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                for index in range(8):
                    world = f"world-{index:02d}"
                    await client.call(
                        protocol.CREATE_WORLD, world=world, params={"nodes": 15, "seed": index}
                    )
                    snapshots[world] = results_to_json(
                        await client.call(protocol.SNAPSHOT, world=world)
                    )
            finally:
                await client.close()
                await server.stop()

            server = FleetServer(port=0, shards=2, inline=True, state_dir=state_dir)
            await server.start()
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                listing = await client.call(protocol.LIST_WORLDS)
                assert sorted(listing["worlds"]) == sorted(snapshots)
                for world, shard in listing["worlds"].items():
                    assert 0 <= shard < 2
                    assert shard == server.ring.shard_of(world)
                for world, expected in snapshots.items():
                    assert (
                        results_to_json(await client.call(protocol.SNAPSHOT, world=world))
                        == expected
                    )
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_shutdown_mid_resize_loses_no_durable_world(self, tmp_path):
        """A shutdown landing between a world's migrate_out and migrate_in
        must not lose it: the in-flight migration lands, the resize starts
        no other, and the next start heals the rest."""

        async def body():
            from repro.io.results import results_to_json

            state_dir = str(tmp_path)
            server = FleetServer(port=0, shards=3, inline=True, state_dir=state_dir)
            await server.start()
            snapshots = {}
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            stopper = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                for index in range(6):
                    world = f"world-{index:02d}"
                    await client.call(
                        protocol.CREATE_WORLD, world=world, params={"nodes": 15, "seed": index}
                    )
                    await client.call(protocol.ADVANCE, world=world, params={"steps": 2})
                    snapshots[world] = results_to_json(
                        await client.call(protocol.SNAPSHOT, world=world)
                    )
                dispatch = server._pool.dispatch
                fired = []

                async def shutdown_after_first_migrate_out(shard, batch):
                    responses = await dispatch(shard, batch)
                    drained = any(
                        request["op"] == protocol.MIGRATE_OUT and response.get("ok")
                        for request, response in zip(batch, responses)
                    )
                    if drained and not fired:
                        fired.append(shard)
                        await stopper.call(protocol.SHUTDOWN)
                    return responses

                server._pool.dispatch = shutdown_after_first_migrate_out
                result = await client.call(protocol.RESIZE, params={"shards": 2})
                assert fired
            finally:
                await client.close()
                await stopper.close()
                await server.stop()

            server = FleetServer(port=0, shards=2, inline=True, state_dir=state_dir)
            await server.start()
            client = await ServiceClient.connect("127.0.0.1", server.port, timeout=30.0)
            try:
                listing = await client.call(protocol.LIST_WORLDS)
                assert sorted(listing["worlds"]) == sorted(snapshots)
                for world, shard in listing["worlds"].items():
                    assert shard == server.ring.shard_of(world)
                for world, expected in snapshots.items():
                    assert (
                        results_to_json(await client.call(protocol.SNAPSHOT, world=world))
                        == expected
                    )
            finally:
                await client.close()
                await server.stop()
            # Exactly the world in flight moved; the rest were healed.
            assert result["moved"] == 1

        run(body())


# --------------------------------------------------------------------- #
# The hypothesis chaos battery (in-process)
# --------------------------------------------------------------------- #
class TestChaosBattery:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        ops_per_world=st.integers(min_value=1, max_value=6),
        shards=st.integers(min_value=1, max_value=3),
        schedule_seed=st.integers(min_value=0, max_value=2**20),
        max_batch=st.integers(min_value=1, max_value=5),
        resizes=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),  # trace cut position
                st.integers(min_value=1, max_value=5),  # new shard count
            ),
            min_size=1,
            max_size=3,
        ),
        crash_after_resize=st.booleans(),
        snapshot_every=st.integers(min_value=1, max_value=8),
    )
    def test_resizes_and_crashes_preserve_byte_identity(
        self,
        trace_seed,
        ops_per_world,
        shards,
        schedule_seed,
        max_batch,
        resizes,
        crash_after_resize,
        snapshot_every,
    ):
        """Interleave live resizes (and optional shard crashes) at random
        trace positions under random batch schedules; the final snapshots
        must match the uninterrupted serial execution byte for byte."""
        trace = build_trace(trace_seed, ops_per_world, node_count=15)
        serial = replay_serial(trace)
        replayer = ShardedReplayer(
            shards,
            store_factory=lambda shard: MemoryStore(),
            snapshot_every=snapshot_every,
        )
        try:
            cuts = sorted({min(cut, len(trace)) for cut, _ in resizes})
            new_counts = [count for _, count in resizes]
            previous = 0
            for index, position in enumerate(cuts + [len(trace)]):
                replayer.execute(
                    trace[previous:position],
                    schedule_seed=schedule_seed + index,
                    max_batch=max_batch,
                )
                previous = position
                if index < len(cuts):
                    replayer.resize(new_counts[index % len(new_counts)])
                    if crash_after_resize:
                        for shard in range(len(replayer.hosts)):
                            replayer.crash(shard)
            assert replayer.snapshots() == serial
        finally:
            replayer.close()

    def test_resize_without_store_moves_live_state(self):
        """Migration must not depend on durability: an in-memory-only
        replayer resizes by pickling live worlds across hosts."""
        trace = build_trace(3, 4, node_count=15)
        serial = replay_serial(trace)
        replayer = ShardedReplayer(2)
        try:
            half = len(trace) // 2
            replayer.execute(trace[:half], schedule_seed=1)
            replayer.resize(4)
            replayer.execute(trace[half:], schedule_seed=2)
            replayer.resize(1)
            assert replayer.snapshots() == serial
        finally:
            replayer.close()

"""The front end's read cache: repeat reads answered without a shard.

Every server-level test here checks served bytes against a serial oracle:
a naive :class:`~repro.service.worlds.WorldHost` (no caches at all)
executing the same world requests in the same order.  A cached answer must
be the byte-for-byte line that host computes afresh, so a stale hit, a
wrong key or a bad splice all fail the comparison.
"""

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.results import results_to_json
from repro.service import faults as faultlib
from repro.service import loadgen, protocol
from repro.service.faults import FaultPlan, FaultRule
from repro.service.readcache import Miss, ReadCache
from repro.service.replay import ShardedReplayer, replay_serial
from repro.service.server import FleetServer
from repro.service.worlds import WorldHost

from tests.service.test_determinism import build_trace


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(body, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("inline", True)
    server = FleetServer(port=0, **kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


class _Wire:
    """One raw TCP connection: requests out, response lines back, unparsed."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port, limit=protocol.STREAM_LIMIT
        )
        return cls(reader, writer)

    async def send(self, *requests):
        """Write every request, then read one line per request; the lines
        come back in request order (matched by id, as pipelined responses
        are written in completion order)."""
        for request in requests:
            self.writer.write(protocol.encode_message(request))
        await self.writer.drain()
        lines = [await self.reader.readline() for _ in requests]
        by_id = {protocol.decode_message(line)["id"]: line for line in lines}
        return [by_id[request["id"]] for request in requests]

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


def _oracle_lines(host, requests):
    return [protocol.encode_message(host.execute(request)) for request in requests]


def _numbered(requests, start=0):
    return [dict(request, id=start + index) for index, request in enumerate(requests)]


def _create(world, seed=0, nodes=15):
    return {"op": protocol.CREATE_WORLD, "world": world, "params": {"nodes": nodes, "seed": seed}}


def _read(op, world, **params):
    return {"op": op, "world": world, "params": params}


# --------------------------------------------------------------------- #
# The splice
# --------------------------------------------------------------------- #
_json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8) | st.floats(
    allow_nan=False, allow_infinity=False
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
_request_ids = (
    st.none()
    | st.integers()
    | st.text(max_size=10)
    | st.dictionaries(st.text(max_size=4), _json_values, max_size=3)
    | st.lists(_json_values, max_size=3)
)


class TestSplice:
    @settings(max_examples=200, deadline=None)
    @given(request_id=_request_ids, result=_json_values)
    def test_spliced_line_equals_the_encoded_response(self, request_id, result):
        line = protocol.ok_line(request_id, protocol.encode_result(result))
        assert line == protocol.encode_message(protocol.ok_response(request_id, result))


# --------------------------------------------------------------------- #
# Invalidation, unit level
# --------------------------------------------------------------------- #
class TestReadCacheUnit:
    @staticmethod
    def _get(name, world="w"):
        return {"op": protocol.SNAPSHOT, "world": world, "params": {"name": name}}

    @staticmethod
    def _write(world="w"):
        return {"op": protocol.ADVANCE, "world": world, "params": {}}

    def _fill(self, cache, request, response):
        """Route a read through the server's glue, land ``response``; what
        its responder is handed."""
        miss = cache.route(request)
        loop = asyncio.new_event_loop()
        try:
            routed = loop.create_future()
            answered = cache.watch(miss, response["id"], routed)
            routed.set_result(response)
            loop.run_until_complete(asyncio.sleep(0))  # run the done-callbacks
            return answered.result()
        finally:
            loop.close()

    def test_fill_then_hit(self):
        cache = ReadCache(4)
        response = protocol.ok_response(1, {"x": 1})
        # The miss's own line is spliced from the bytes it cached.
        assert self._fill(cache, self._get("k"), response) == protocol.encode_message(response)
        assert cache.route(self._get("k")) == b'{"x":1}'
        assert (cache.hits, cache.misses, cache.entries) == (1, 1, 1)

    def test_write_routed_while_read_in_flight_keeps_it_uncached(self):
        cache = ReadCache(4)
        miss = cache.route(self._get("k"))
        assert cache.route(self._write()) is None
        assert cache.fill(miss, protocol.ok_response(1, {"x": 1})) == b'{"x":1}'
        assert isinstance(cache.route(self._get("k")), Miss)
        assert cache.entries == 0

    def test_clear_while_read_in_flight_keeps_it_uncached(self):
        cache = ReadCache(4)
        miss = cache.route(self._get("k"))
        cache.clear()
        cache.fill(miss, protocol.ok_response(1, 1))
        assert isinstance(cache.route(self._get("k")), Miss)

    def test_cache_stats_neither_hits_nor_invalidates(self):
        cache = ReadCache(4)
        cache.fill(cache.route(self._get("k")), protocol.ok_response(1, 1))
        stats = {"op": protocol.CACHE_STATS, "world": "w", "params": {}}
        assert cache.route(stats) is None
        assert cache.route(self._get("k")) == b"1"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_errors_are_not_cached_and_leave_no_table(self):
        cache = ReadCache(4)
        error = protocol.error_response(1, "unknown world 'ghost'")
        assert self._fill(cache, self._get("k", world="ghost"), error) == error
        assert cache._tables == {}
        assert isinstance(cache.route(self._get("k", world="ghost")), Miss)

    def test_bound_drops_oldest_entry(self):
        cache = ReadCache(2)
        for key in ("a", "b", "c"):
            cache.fill(cache.route(self._get(key)), protocol.ok_response(None, key))
        assert cache.entries == 2
        assert isinstance(cache.route(self._get("a")), Miss)
        assert cache.route(self._get("c")) == b'"c"'

    def test_refill_of_a_present_key_replaces_it_in_place(self):
        """Two identical reads in flight both miss; the second fill finds
        its key present in a full table and must not evict another entry."""
        cache = ReadCache(2)
        cache.fill(cache.route(self._get("a")), protocol.ok_response(None, "a"))
        first, second = cache.route(self._get("b")), cache.route(self._get("b"))
        cache.fill(first, protocol.ok_response(None, "b"))
        cache.fill(second, protocol.ok_response(None, "b"))
        assert cache.entries == 2
        assert cache.route(self._get("a")) == b'"a"'
        assert cache.route(self._get("b")) == b'"b"'

    def test_zero_capacity_never_fills(self):
        cache = ReadCache(0)
        assert cache.route(self._get("k")) is None
        assert cache.route(self._get("k")) is None
        assert (cache.hits, cache.misses, cache.entries) == (0, 2, 0)


# --------------------------------------------------------------------- #
# Served bytes against the serial oracle
# --------------------------------------------------------------------- #
class TestServedBytes:
    def test_repeat_reads_hit_and_match_the_oracle(self):
        near = _read(protocol.QUERY_ROUTE, "w1", source=0, target=5)
        far = _read(protocol.QUERY_ROUTE, "w1", source=2, target=9)
        burst = _read(protocol.RUN_TRAFFIC, "w1", seed=2)
        requests = _numbered(
            [_create("w1", seed=3), near, far, near, far]
            + [_read(protocol.SNAPSHOT, "w1")] * 2
            + [{"op": protocol.ADVANCE, "world": "w1", "params": {"steps": 1}}]
            + [near, near, burst, _read(protocol.RUN_TRAFFIC, "w1", seed=3), burst]
            + [_read(protocol.QUERY_STATS, "w1")] * 2
        )
        host = WorldHost(naive=True)

        async def body(server):
            wire = await _Wire.open(server)
            try:
                lines = [(await wire.send(request))[0] for request in requests]
            finally:
                await wire.close()
            assert lines == _oracle_lines(host, requests)
            # Both routes and the snapshot repeat; after the write, the near
            # route, the seed-2 burst and the stats repeat.
            assert server.read_cache.hits == 6
            assert server.requests_received == len(requests)

        try:
            run(_with_server(body))
        finally:
            host.close()

    def test_write_pipelined_behind_a_read_leaves_it_uncached(self):
        route = _read(protocol.QUERY_ROUTE, "w1", source=1, target=7)
        move = {"op": protocol.APPLY, "world": "w1", "params": {"moves": [[7, 10.0, 10.0]]}}
        requests = _numbered([_create("w1", seed=5), route, move, route, route])
        host = WorldHost(naive=True)

        async def body(server):
            wire = await _Wire.open(server)
            try:
                lines = await wire.send(requests[0])
                # The read is in flight when the write is routed behind it.
                lines += await wire.send(requests[1], requests[2])
                assert server.read_cache.hits == 0
                lines += await wire.send(requests[3])
                assert server.read_cache.hits == 0
                lines += await wire.send(requests[4])
                assert server.read_cache.hits == 1
            finally:
                await wire.close()
            assert lines == _oracle_lines(host, requests)

        try:
            run(_with_server(body))
        finally:
            host.close()

    def test_delete_then_recreate_serves_the_new_world(self):
        snapshot = _read(protocol.SNAPSHOT, "w1")
        requests = _numbered(
            [_create("w1", seed=1), snapshot, snapshot]
            + [{"op": protocol.DELETE_WORLD, "world": "w1", "params": {}}, snapshot, snapshot]
            + [_create("w1", seed=2), snapshot, snapshot]
        )
        host = WorldHost(naive=True)

        async def body(server):
            wire = await _Wire.open(server)
            try:
                lines = [(await wire.send(request))[0] for request in requests]
            finally:
                await wire.close()
            assert lines == _oracle_lines(host, requests)
            assert b"unknown world" in lines[4] and b"unknown world" in lines[5]
            assert lines[7] != lines[1]
            assert server.read_cache.hits == 2

        try:
            run(_with_server(body))
        finally:
            host.close()

    def test_nondurable_worker_kill_serves_no_stale_hits(self):
        # Requests dispatched to shard 0: create (1), snapshot (2), then the
        # stats read is the third and its batch finds the worker dead.
        plan = FaultPlan(rules=[FaultRule(kind=faultlib.KILL_WORKER, shard=0, at_request=3)])

        async def body(server):
            world = next(f"w{i}" for i in range(100) if server.ring.shard_of(f"w{i}") == 0)
            snapshot = _read(protocol.SNAPSHOT, world)
            requests = _numbered(
                [_create(world), snapshot, snapshot, _read(protocol.QUERY_STATS, world), snapshot]
            )
            wire = await _Wire.open(server)
            try:
                lines = [(await wire.send(request))[0] for request in requests]
            finally:
                await wire.close()
            responses = [protocol.decode_message(line) for line in lines]
            assert responses[2] == dict(responses[1], id=2)
            assert "worker died" in responses[3]["error"]
            # The worker's worlds are gone, and the cache knows it.
            assert responses[4] == protocol.error_response(4, f"unknown world {world!r}")
            assert server.read_cache.hits == 1

        run(_with_server(body, faults=plan))

    def test_resize_answers_stay_byte_identical(self):
        worlds = [f"r{i}" for i in range(6)]
        creates = [_create(world, seed=index) for index, world in enumerate(worlds)]
        reads = [_read(protocol.SNAPSHOT, world) for world in worlds] + [
            _read(protocol.QUERY_ROUTE, world, source=0, target=3) for world in worlds
        ]
        before = _numbered(creates + reads + reads)
        after = _numbered(reads + reads, start=len(before))
        host = WorldHost(naive=True)

        async def body(server):
            wire = await _Wire.open(server)
            try:
                lines = [(await wire.send(request))[0] for request in before]
                assert server.read_cache.hits == len(reads)
                resized = protocol.decode_message(
                    (await wire.send({"id": "resize", "op": protocol.RESIZE, "params": {"shards": 3}}))[0]
                )
                assert resized["result"]["moved"] > 0
                assert server.read_cache.entries == 0
                lines += [(await wire.send(request))[0] for request in after]
            finally:
                await wire.close()
            assert lines == _oracle_lines(host, before + after)
            # The first pass after the resize refills; the second hits.
            assert server.read_cache.hits == 2 * len(reads)

        try:
            run(_with_server(body))
        finally:
            host.close()

    def test_naive_server_never_hits(self):
        snapshot = _read(protocol.SNAPSHOT, "w1")
        requests = _numbered([_create("w1"), snapshot, snapshot, snapshot])
        host = WorldHost(naive=True)

        async def body(server):
            wire = await _Wire.open(server)
            try:
                lines = [(await wire.send(request))[0] for request in requests]
            finally:
                await wire.close()
            assert lines == _oracle_lines(host, requests)
            assert server.read_cache.hits == 0
            assert server.read_cache.entries == 0

        try:
            run(_with_server(body, naive=True))
        finally:
            host.close()

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        # At most 57 requests: the whole trace fits under the server's
        # per-connection in-flight cap, so pipelining it cannot stall.
        ops_per_world=st.integers(min_value=1, max_value=6),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_pipelined_random_traces_match_the_oracle(self, trace_seed, ops_per_world, repeats):
        """Random traces with every read repeated, all pipelined on one
        connection: writes land between reads in flight, yet every line
        equals the serial oracle's and the final worlds equal the replay."""
        trace = []
        for request in build_trace(trace_seed, ops_per_world, node_count=12):
            trace += [request] * (repeats if request["op"] in protocol.READ_OPS else 1)
        requests = _numbered(trace)
        host = WorldHost(naive=True)

        async def body(server):
            wire = await _Wire.open(server)
            try:
                lines = await wire.send(*requests)
                final = await wire.send(
                    *_numbered(
                        [_read(protocol.SNAPSHOT, world) for world in ("alpha", "beta", "gamma")],
                        start=len(requests),
                    )
                )
            finally:
                await wire.close()
            assert lines == _oracle_lines(host, requests)
            served = {}
            for line in final:
                result = protocol.decode_message(line)["result"]
                served[result["world"]] = results_to_json(result)
            assert served == replay_serial(trace)

        try:
            run(_with_server(body))
        finally:
            host.close()


# --------------------------------------------------------------------- #
# The in-process engine reads through the same cache
# --------------------------------------------------------------------- #
class TestReplayer:
    @staticmethod
    def _recording(replayer, shard=0):
        """The requests that reach ``shard``'s host from now on."""
        host = replayer.hosts[shard]
        seen = []
        execute_batch = host.execute_batch

        def recording(requests, **kwargs):
            seen.extend(requests)
            return execute_batch(requests, **kwargs)

        host.execute_batch = recording
        return seen

    def test_serving_trace_hits_and_matches_the_serial_replay(self):
        """The engine benchmark's 8-world serving trace: repeat reads are
        answered by the cache at dequeue time, and the worlds end exactly
        where a serial replay leaves them."""
        config = loadgen.LoadConfig(
            worlds=8, requests_per_world=30, nodes=100, connections=16,
            mover_fraction=0.05, write_fraction=0.05, seed=0,
        )
        traces = loadgen.build_trace(config)
        creates = [trace[0] for trace in traces]
        workload = loadgen.flatten_trace([trace[1:] for trace in traces])
        replayer = ShardedReplayer(4)
        try:
            replayer.execute(creates, schedule_seed=0)
            assert replayer.execute(workload, schedule_seed=1) == len(workload)
            assert replayer.read_cache.hits > 0
            assert replayer.snapshots() == replay_serial(creates + workload)
        finally:
            replayer.close()

    def test_read_write_read_in_one_batch_reaches_the_host_twice(self):
        read = _read(protocol.QUERY_ROUTE, "w", source=0, target=9)
        move = {"op": protocol.APPLY, "world": "w", "params": {"moves": [[9, 10.0, 10.0]]}}
        replayer = ShardedReplayer(1)
        try:
            replayer.execute([_create("w", seed=4)])
            seen = self._recording(replayer)
            replayer._dispatch(0, [read, move, read])
            assert seen == [read, move, read]
            # The second read filled the cache with the post-write answer.
            fresh = replayer.hosts[0].execute(read)["result"]
            assert replayer.read_cache.route(read) == protocol.encode_result(fresh)
            # A read routed before a write in its batch fills nothing: the
            # next read must reach the host, not replay pre-write bytes.
            del seen[:]
            replayer._dispatch(0, [move])
            replayer._dispatch(0, [read, move])
            replayer._dispatch(0, [read])
            assert seen == [move, read, move, read]
        finally:
            replayer.close()

    def test_crash_and_resize_empty_the_cache(self):
        from repro.service.storage import MemoryStore

        worlds = [f"c{i}" for i in range(6)]
        reads = [_read(protocol.SNAPSHOT, world) for world in worlds]
        trace = [_create(world, seed=i) for i, world in enumerate(worlds)] + reads
        replayer = ShardedReplayer(2, store_factory=lambda shard: MemoryStore())
        try:
            replayer.execute(trace)
            assert replayer.read_cache.entries == len(worlds)
            replayer.crash(0)
            assert replayer.read_cache.entries == 0
            replayer.execute(reads)
            assert replayer.read_cache.entries == len(worlds)
            assert replayer.resize(3) > 0
            assert replayer.read_cache.entries == 0
            replayer.execute(reads + reads)
            assert replayer.snapshots() == replay_serial(trace)
        finally:
            replayer.close()

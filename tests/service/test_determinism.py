"""The service-layer determinism battery.

The fleet's contract: the final state of every world is a pure function of
the per-world request subsequence — independent of sharding, batching,
scheduling, and transport.  The hypothesis battery replays randomly
generated request traces serially and through the sharded executor under
adversarially sampled batch schedules and requires byte-identical world
snapshots; a separate test drives the real multiprocessing worker pool.
"""

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.replay import replay_serial, replay_sharded
from repro.service.sharding import HashRing
from repro.service.workers import ProcessShardPool
from repro.sim.randomness import SeededRandom

WORLD_NAMES = ("alpha", "beta", "gamma")


def dispatch(pool, shard, batch):
    """Run one ``pool.dispatch`` round trip to completion."""
    return asyncio.run(pool.dispatch(shard, batch))


def _world_ops(rng: SeededRandom, world: str, count: int, node_count: int):
    """A deterministic mixed op sequence for one world."""
    requests = [
        {
            "op": protocol.CREATE_WORLD,
            "world": world,
            "params": {
                "scenario": "random-waypoint-drift",
                "nodes": node_count,
                "seed": rng.randrange(1000),
                "mover_fraction": 0.3,
            },
        }
    ]
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            requests.append({"op": protocol.ADVANCE, "world": world, "params": {"steps": 1}})
        elif kind == 1:
            node = rng.randrange(node_count)
            requests.append(
                {
                    "op": protocol.APPLY,
                    "world": world,
                    "params": {"moves": [[node, float(rng.randrange(1500)), float(rng.randrange(1500))]]},
                }
            )
        elif kind == 2:
            requests.append(
                {"op": protocol.APPLY, "world": world, "params": {"crashes": [rng.randrange(node_count)]}}
            )
        elif kind == 3:
            requests.append({"op": protocol.QUERY_STATS, "world": world, "params": {}})
        elif kind == 4:
            source, target = rng.sample(range(node_count), 2)
            requests.append(
                {"op": protocol.QUERY_ROUTE, "world": world, "params": {"source": source, "target": target}}
            )
        else:
            requests.append({"op": protocol.SNAPSHOT, "world": world, "params": {}})
    return requests


def _interleave(rng: SeededRandom, per_world):
    """A random arrival order preserving each world's request order."""
    cursors = {world: 0 for world in per_world}
    trace = []
    while True:
        open_worlds = [w for w, c in cursors.items() if c < len(per_world[w])]
        if not open_worlds:
            return trace
        world = rng.choice(open_worlds)
        trace.append(per_world[world][cursors[world]])
        cursors[world] += 1


def build_trace(trace_seed: int, ops_per_world: int, node_count: int = 20):
    rng = SeededRandom(trace_seed)
    per_world = {
        world: _world_ops(rng.child(f"ops:{world}"), world, ops_per_world, node_count)
        for world in WORLD_NAMES
    }
    return _interleave(rng.child("interleave"), per_world)


class TestSerialVsSharded:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        ops_per_world=st.integers(min_value=0, max_value=6),
        shards=st.integers(min_value=1, max_value=4),
        schedule_seed=st.integers(min_value=0, max_value=2**20),
        max_batch=st.integers(min_value=1, max_value=7),
    )
    def test_random_interleavings_replay_byte_identically(
        self, trace_seed, ops_per_world, shards, schedule_seed, max_batch
    ):
        trace = build_trace(trace_seed, ops_per_world)
        serial = replay_serial(trace)
        sharded = replay_sharded(
            trace,
            shards=shards,
            schedule_seed=schedule_seed,
            max_batch=max_batch,
        )
        assert serial == sharded

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        ops_per_world=st.integers(min_value=1, max_value=5),
    )
    def test_naive_baseline_replays_byte_identically(self, trace_seed, ops_per_world):
        """The caches and the incremental path never change a single byte."""
        trace = build_trace(trace_seed, ops_per_world, node_count=15)
        assert replay_serial(trace) == replay_serial(trace, naive=True)

    def test_two_different_schedules_agree(self):
        trace = build_trace(99, 5)
        a = replay_sharded(trace, shards=3, schedule_seed=1, max_batch=2)
        b = replay_sharded(trace, shards=2, schedule_seed=1234, max_batch=6)
        assert a == b


class TestProcessWorkers:
    def test_real_worker_pool_matches_serial_replay(self):
        """The multiprocessing path: batches crossing real process pipes."""
        trace = build_trace(7, 6, node_count=25)
        serial = replay_serial(trace)

        shards = 2
        ring = HashRing(shards)
        pool = ProcessShardPool(shards)
        try:
            queues = [[] for _ in range(shards)]
            for request in trace:
                queues[ring.shard_of(request["world"])].append(request)
            # Ship each shard's queue in small batches, round-robin.
            cursors = [0] * shards
            while any(cursor < len(queue) for cursor, queue in zip(cursors, queues)):
                for shard in range(shards):
                    if cursors[shard] < len(queues[shard]):
                        batch = queues[shard][cursors[shard] : cursors[shard] + 3]
                        cursors[shard] += len(batch)
                        responses = dispatch(pool, shard, batch)
                        assert len(responses) == len(batch)
            from repro.io.results import results_to_json

            snapshots = {}
            for world in WORLD_NAMES:
                shard = ring.shard_of(world)
                [response] = dispatch(
                    pool, shard, [{"id": None, "op": protocol.SNAPSHOT, "world": world, "params": {}}]
                )
                assert response["ok"], response
                snapshots[world] = results_to_json(response["result"])
            assert snapshots == serial
        finally:
            pool.close()

"""Durability battery: write-ahead log, crash recovery, eviction.

Three layers of assurance, mirroring the design's trust chain:

* **store unit tests** — both backends implement the WorldStore contract
  identically (group commit, purge-first semantics, the exactly-once batch
  marker);
* **kill-and-recover battery** — hypothesis interleaves host crashes (the
  abandoned-host model: no flush, only committed state survives) into
  randomly scheduled sharded replays and requires the final snapshots to
  stay byte-identical to :func:`replay_serial`, with and without
  checkpoints, under random checkpoint cadences and eviction bounds;
* **process supervision** — a real SIGKILLed worker: with a durable store
  the dispatcher restarts, recovers and re-dispatches (the client never
  sees the crash); without one it surfaces per-request errors instead of
  hanging forever (the regression that motivated this PR).
"""

import os
import pickle
import shutil
import sqlite3
import threading
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import incremental as incremental_module
from repro.io.results import canonical_json
from repro.net import network as network_module
from repro.obs.metrics import COUNT_BUCKETS, Histogram
from repro.service import protocol
from repro.service import worlds as worlds_module
from repro.service.loadgen import LoadConfig, serial_reference
from repro.service.replay import ShardedReplayer, collect_snapshots, replay_serial
from repro.service.sharding import HashRing
from repro.service.storage import (
    Checkpoint,
    MemoryStore,
    SqliteStore,
    StoreConfig,
    scan_world_ids,
    shard_db_path,
)
from repro.service.workers import ProcessShardPool
from repro.service.worlds import WorldHost

from tests.service.test_determinism import WORLD_NAMES, build_trace, dispatch


# --------------------------------------------------------------------- #
# Store contract
# --------------------------------------------------------------------- #
@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryStore()
    else:
        backend = SqliteStore(str(tmp_path / "shard.sqlite"))
    yield backend
    backend.close()


class TestStoreContract:
    def test_empty_store(self, store):
        assert store.last_batch() == (0, None)
        assert store.world_ids() == []
        assert store.world_counts() == {}
        assert store.latest_checkpoint("w") is None
        assert store.records_after("w", 0) == []

    def test_commit_round_trip(self, store):
        records = [
            ("w", 1, {"kind": "op", "op": "create_world", "params": {"nodes": 5}}),
            ("w", 2, {"kind": "op", "op": "advance", "params": {"steps": 1}}),
            ("w", 3, {"kind": "sync"}),
            ("v", 1, {"kind": "op", "op": "create_world", "params": {}}),
        ]
        responses = [{"id": 1, "ok": True, "result": {"x": 1}}]
        store.commit_batch(1, records, responses, [], [])
        assert store.world_ids() == ["v", "w"]
        assert store.world_counts() == {"v": (1, 1), "w": (3, 2)}
        assert store.last_batch() == (1, responses)
        assert store.records_after("w", 0) == [record for _, _, record in records[:3]]
        assert store.records_after("w", 2) == [{"kind": "sync"}]

    def test_checkpoints(self, store):
        checkpoint = Checkpoint(seq=4, state=b"blob")
        store.commit_batch(1, [], [], [("w", checkpoint)], [])
        loaded = store.latest_checkpoint("w")
        assert (loaded.seq, bytes(loaded.state)) == (4, b"blob")
        # A checkpoint-only world still shows up with its seq.
        assert store.world_counts() == {"w": (4, 0)}
        # save_checkpoint (the eviction path) replaces it.
        store.save_checkpoint("w", Checkpoint(seq=9, state=b"newer"))
        loaded = store.latest_checkpoint("w")
        assert (loaded.seq, bytes(loaded.state)) == (9, b"newer")

    def test_purges_apply_before_records(self, store):
        store.commit_batch(
            1,
            [("w", 1, {"kind": "op", "op": "create_world", "params": {}})],
            [],
            [("w", Checkpoint(seq=1, state=b"old"))],
            [],
        )
        # Delete-then-recreate in one batch: the purge must erase the old
        # history, the same batch's records must survive it.
        store.commit_batch(
            2,
            [("w", 1, {"kind": "op", "op": "create_world", "params": {"seed": 7}})],
            [],
            [],
            ["w"],
        )
        assert store.records_after("w", 0) == [
            {"kind": "op", "op": "create_world", "params": {"seed": 7}}
        ]
        assert store.latest_checkpoint("w") is None

    def test_last_batch_marker_is_replaced(self, store):
        store.commit_batch(1, [], [{"id": 1, "ok": True, "result": {}}], [], [])
        store.commit_batch(2, [], [{"id": 2, "ok": True, "result": {}}], [], [])
        seq, responses = store.last_batch()
        assert seq == 2
        assert responses == [{"id": 2, "ok": True, "result": {}}]


class TestSqlitePersistence:
    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "shard.sqlite")
        first = SqliteStore(path)
        first.commit_batch(
            3,
            [("w", 1, {"kind": "op", "op": "create_world", "params": {}})],
            [{"id": 0, "ok": True, "result": {}}],
            [("w", Checkpoint(seq=1, state=b"blob"))],
            [],
        )
        first.close()
        second = SqliteStore(path)
        try:
            assert second.last_batch()[0] == 3
            assert second.world_ids() == ["w"]
            assert bytes(second.latest_checkpoint("w").state) == b"blob"
        finally:
            second.close()

    def test_scan_world_ids(self, tmp_path):
        state_dir = str(tmp_path)
        for shard, world in ((0, "alpha"), (2, "gamma")):
            backend = SqliteStore(shard_db_path(state_dir, shard))
            backend.commit_batch(
                1, [(world, 1, {"kind": "op", "op": "create_world", "params": {}})], [], [], []
            )
            backend.close()
        # Shard 1 has no database file; the scan just skips it.
        assert scan_world_ids(state_dir, 3) == {"alpha": 0, "gamma": 2}


class TestStoreConfig:
    def test_sqlite_requires_path(self):
        with pytest.raises(ValueError, match="state directory"):
            StoreConfig(kind="sqlite", path=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown store kind"):
            StoreConfig(kind="postgres", path="x")

    def test_bounds(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            StoreConfig(kind="memory", snapshot_every=0)
        with pytest.raises(ValueError, match="max_live_worlds"):
            StoreConfig(kind="memory", max_live_worlds=0)

    def test_durability_flag(self):
        assert StoreConfig(kind="sqlite", path="x").durable
        assert not StoreConfig(kind="memory").durable


# --------------------------------------------------------------------- #
# Kill-and-recover battery
# --------------------------------------------------------------------- #
def _replay_with_crashes(
    trace,
    *,
    shards,
    schedule_seed,
    max_batch,
    cuts,
    snapshot_every,
    max_live_worlds,
    use_checkpoints,
    store_factory,
):
    """Sharded replay with every shard crashed-and-recovered at each cut."""
    replayer = ShardedReplayer(
        shards,
        store_factory=store_factory,
        snapshot_every=snapshot_every,
        max_live_worlds=max_live_worlds,
    )
    try:
        positions = sorted(set(min(cut, len(trace)) for cut in cuts))
        previous = 0
        for position in positions + [len(trace)]:
            replayer.execute(
                trace[previous:position], schedule_seed=schedule_seed, max_batch=max_batch
            )
            previous = position
            if position < len(trace):
                for shard in range(shards):
                    replayer.crash(shard, use_checkpoints=use_checkpoints)
        return replayer.snapshots()
    finally:
        replayer.close()


class TestKillAndRecover:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        ops_per_world=st.integers(min_value=1, max_value=6),
        shards=st.integers(min_value=1, max_value=3),
        schedule_seed=st.integers(min_value=0, max_value=2**20),
        max_batch=st.integers(min_value=1, max_value=5),
        cuts=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
        snapshot_every=st.integers(min_value=1, max_value=8),
        use_checkpoints=st.booleans(),
    )
    def test_recovered_replay_is_byte_identical(
        self,
        trace_seed,
        ops_per_world,
        shards,
        schedule_seed,
        max_batch,
        cuts,
        snapshot_every,
        use_checkpoints,
    ):
        """Crash every shard at random trace positions; recovery (from a
        random checkpoint cadence, or from the raw log) must reproduce the
        uninterrupted serial execution byte for byte."""
        trace = build_trace(trace_seed, ops_per_world, node_count=15)
        serial = replay_serial(trace)
        recovered = _replay_with_crashes(
            trace,
            shards=shards,
            schedule_seed=schedule_seed,
            max_batch=max_batch,
            cuts=cuts,
            snapshot_every=snapshot_every,
            max_live_worlds=None,
            use_checkpoints=use_checkpoints,
            store_factory=lambda shard: MemoryStore(),
        )
        assert recovered == serial

    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        ops_per_world=st.integers(min_value=1, max_value=5),
        snapshot_every=st.integers(min_value=1, max_value=6),
        max_live_worlds=st.integers(min_value=1, max_value=2),
    )
    def test_eviction_is_transparent(
        self, trace_seed, ops_per_world, snapshot_every, max_live_worlds
    ):
        """A host bounded to fewer live worlds than the trace touches must
        serve the exact bytes an unbounded host serves — eviction and
        rehydration are invisible to clients."""
        trace = build_trace(trace_seed, ops_per_world, node_count=15)
        serial = replay_serial(trace)
        replayer = ShardedReplayer(
            1,
            store_factory=lambda shard: MemoryStore(),
            snapshot_every=snapshot_every,
            max_live_worlds=max_live_worlds,
        )
        try:
            replayer.execute(trace, schedule_seed=trace_seed, max_batch=3)
            host = replayer.hosts[0]
            if len(host.world_ids()) > max_live_worlds:
                assert host.evictions > 0
            assert replayer.snapshots() == serial
        finally:
            replayer.close()

    def test_memory_and_sqlite_recover_identically(self, tmp_path):
        trace = build_trace(11, 5, node_count=15)
        serial = replay_serial(trace)
        kwargs = dict(
            shards=2,
            schedule_seed=5,
            max_batch=3,
            cuts=[4, 9],
            snapshot_every=3,
            max_live_worlds=None,
            use_checkpoints=True,
        )
        from_memory = _replay_with_crashes(
            trace, store_factory=lambda shard: MemoryStore(), **kwargs
        )
        from_sqlite = _replay_with_crashes(
            trace,
            store_factory=lambda shard: SqliteStore(str(tmp_path / f"shard-{shard}.sqlite")),
            **kwargs,
        )
        assert from_memory == serial
        assert from_sqlite == serial

    def test_delete_and_recreate_survive_a_crash(self):
        store = MemoryStore()
        host = WorldHost(store=store)
        create = {"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10, "seed": 1}}
        host.execute(create)
        host.execute({"op": protocol.ADVANCE, "world": "w", "params": {"steps": 2}})
        # Delete and recreate (different seed) in ONE batch: the purge and
        # the new create commit together.
        recreate = {"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10, "seed": 2}}
        responses = host.execute_batch(
            [{"op": protocol.DELETE_WORLD, "world": "w", "params": {}}, recreate]
        )
        assert all(response["ok"] for response in responses)
        [snapshot] = host.execute_batch(
            [{"op": protocol.SNAPSHOT, "world": "w", "params": {}}]
        )
        recovered_host = WorldHost(store=store)
        recovered_host.recover()
        [recovered] = recovered_host.execute_batch(
            [{"op": protocol.SNAPSHOT, "world": "w", "params": {}}]
        )
        assert recovered["result"] == snapshot["result"]
        assert recovered["result"]["seed"] == 2

    def test_flush_on_close_makes_recovery_checkpoint_only(self):
        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=100)
        host.execute({"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10}})
        host.execute({"op": protocol.ADVANCE, "world": "w", "params": {"steps": 3}})
        host.execute({"op": protocol.QUERY_STATS, "world": "w", "params": {}})
        host.close()  # flushes a checkpoint at the current log position
        checkpoint = store.latest_checkpoint("w")
        assert checkpoint is not None
        assert store.records_after("w", checkpoint.seq) == []

    def test_redispatched_batch_is_not_reexecuted(self):
        host = WorldHost(store=MemoryStore())
        host.execute_batch(
            [{"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10}}],
            batch_seq=1,
        )
        batch = [{"op": protocol.ADVANCE, "world": "w", "params": {"steps": 1}}]
        first = host.execute_batch(batch, batch_seq=2)
        executed = host.requests_executed
        again = host.execute_batch(batch, batch_seq=2)
        assert again == first
        assert host.requests_executed == executed  # answered from the store
        with pytest.raises(RuntimeError, match="already committed"):
            host.execute_batch(batch, batch_seq=1)

    def test_failed_write_is_not_logged(self):
        store = MemoryStore()
        host = WorldHost(store=store)
        host.execute({"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10}})
        response = host.execute(
            {"op": protocol.APPLY, "world": "w", "params": {"moves": [[999, 0.0, 0.0]]}}
        )
        assert not response["ok"]
        # Only the create is durable; the rejected apply staged nothing.
        assert [record["kind"] for record in store.records_after("w", 0)] == ["op"]
        recovered_host = WorldHost(store=store)
        assert recovered_host.recover() == 1


def _snapshot_bytes(host):
    response = host.execute({"op": protocol.SNAPSHOT, "world": "w", "params": {}})
    assert response["ok"]
    return canonical_json(response["result"])


class TestLogReplay:
    @pytest.mark.parametrize("use_checkpoints", [True, False])
    def test_replay_restores_tokens_and_tracking(self, use_checkpoints):
        """Replayed records re-register their idempotency tokens and turn
        tracking on at the logged position: the recovered world serves the
        same bytes and frames, and a retried write is still deduplicated."""
        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=1000)
        create = {
            "op": protocol.CREATE_WORLD,
            "world": "w",
            "token": "t-create",
            "params": {"nodes": 12, "seed": 3},
        }
        apply = {
            "op": protocol.APPLY,
            "world": "w",
            "token": "t-apply",
            "params": {"moves": [[0, 120.0, 80.0]], "joins": [[60.0, 40.0]], "crashes": [3]},
        }
        assert host.execute(create)["ok"]
        assert host.execute(
            {"op": protocol.ADVANCE, "world": "w", "token": "t-advance-1", "params": {"steps": 2}}
        )["ok"]
        # An eviction-style checkpoint here leaves the subscription, the
        # second advance and the apply for the checkpointed leg to replay.
        store.save_checkpoint("w", host._checkpoint("w", host.worlds["w"]))
        assert host.execute({"op": protocol.SUBSCRIBE, "world": "w", "params": {}})["ok"]
        assert host.execute(
            {"op": protocol.ADVANCE, "world": "w", "token": "t-advance-2", "params": {"steps": 3}}
        )["ok"]
        applied = host.execute(apply)
        assert applied["ok"]
        snapshot = _snapshot_bytes(host)
        frames = host.collect_frames({"w": 0})
        assert frames

        recovered = WorldHost(store=store, snapshot_every=1000)  # a crash: no flush
        assert recovered.recover(use_checkpoints=use_checkpoints) == 1
        assert _snapshot_bytes(recovered) == snapshot
        assert recovered.collect_frames({"w": 0}) == frames
        writes = recovered.worlds["w"].writes_applied
        retry = recovered.execute({**apply, "params": {"crashes": [4]}})
        assert retry["result"] == applied["result"]
        assert recovered.worlds["w"].writes_applied == writes
        assert _snapshot_bytes(recovered) == snapshot

    @pytest.mark.parametrize(
        "records",
        [
            [{"kind": "op", "op": protocol.ADVANCE, "params": {"steps": 1}}],
            [{"kind": "sync"}],
            [
                {"kind": "op", "op": protocol.CREATE_WORLD, "params": {"nodes": 10}},
                {"kind": "op", "op": protocol.SNAPSHOT, "params": {}},
            ],
        ],
        ids=["advance-before-create", "sync-before-create", "logged-read"],
    )
    def test_corrupt_log_fails_recovery_and_stays_evicted(self, records):
        store = MemoryStore()
        store.commit_batch(
            1, [("w", seq, record) for seq, record in enumerate(records, 1)], [], [], []
        )
        host = WorldHost(store=store)
        with pytest.raises(RuntimeError, match="'w'"):
            host.recover()
        assert host.world_ids() == ["w"]
        assert not host.worlds


#: The ``checkpoints`` table as older versions created it, with a fourth,
#: nullable ``snapshot`` column that nothing reads any more.
LEGACY_CHECKPOINTS_SCHEMA = """
CREATE TABLE checkpoints (
    world    TEXT    PRIMARY KEY,
    seq      INTEGER NOT NULL,
    state    BLOB    NOT NULL,
    snapshot TEXT
);
"""


class TestCheckpointContents:
    def test_periodic_checkpoint_only_pickles(self, monkeypatch):
        """A batch crossing the cadence on an untracked world checkpoints
        the pickled state alone: no snapshot, no unpickled clone."""
        calls = {"snapshot": 0, "loads": 0}
        snapshot = worlds_module.World.snapshot

        def counting_snapshot(world, params):
            calls["snapshot"] += 1
            return snapshot(world, params)

        def counting_loads(data):
            calls["loads"] += 1
            return pickle.loads(data)

        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=2)
        host.execute({"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10}})
        assert store.latest_checkpoint("w") is None
        monkeypatch.setattr(worlds_module.World, "snapshot", counting_snapshot)
        monkeypatch.setattr(
            worlds_module, "pickle", SimpleNamespace(dumps=pickle.dumps, loads=counting_loads)
        )
        host.execute({"op": protocol.ADVANCE, "world": "w", "params": {"steps": 1}})
        checkpoint = store.latest_checkpoint("w")
        assert checkpoint is not None
        assert checkpoint.seq == len(store.records_after("w", 0))
        assert calls == {"snapshot": 0, "loads": 0}

    def test_legacy_snapshot_column_serves_and_recovers(self, tmp_path):
        """A shard file whose ``checkpoints`` table still has the old
        ``snapshot`` column, holding a value, keeps serving, checkpointing
        and recovering byte-identically."""
        path = shard_db_path(str(tmp_path), 0)
        connection = sqlite3.connect(path)
        connection.executescript(LEGACY_CHECKPOINTS_SCHEMA)
        connection.close()
        trace = build_trace(13, 5, node_count=15)
        half = len(trace) // 2

        host = WorldHost(store=SqliteStore(path), snapshot_every=2)
        for request in trace[:half]:
            assert host.execute(request)["ok"]
        host.close()
        host.store.close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE checkpoints SET snapshot = ?", ('{"legacy": true}',))
        assert connection.execute(
            "SELECT count(*) FROM checkpoints WHERE snapshot IS NOT NULL"
        ).fetchone()[0] > 0
        connection.close()

        host = WorldHost(store=SqliteStore(path), snapshot_every=2)
        host.recover()
        for request in trace[half:]:
            assert host.execute(request)["ok"]
        host.store.close()  # a crash: no flush on the way out

        recovered = WorldHost(store=SqliteStore(path), snapshot_every=2)
        try:
            recovered.recover()
            assert recovered.store.latest_checkpoint(trace[-1]["world"]) is not None
            assert collect_snapshots(recovered) == replay_serial(trace)
        finally:
            recovered.close()
            recovered.store.close()


class _OldDerivedDataCache:
    """``repro.net.network.DerivedDataCache`` as older versions pickled it:
    per-entry dirty sets and lookup counters beside the values.  Pickles
    under the real class's name while patched into its module."""

    __module__ = network_module.__name__
    __qualname__ = "DerivedDataCache"
    __slots__ = ("_values", "_dirty", "hits", "misses")


class _OldBuilder:
    """``repro.core.incremental.IncrementalTopologyBuilder`` as older
    versions pickled it, self-run attributes included.  Pickles under the
    real class's name while patched into its module."""

    __module__ = incremental_module.__name__
    __qualname__ = "IncrementalTopologyBuilder"


#: The state directory under ``golden-state/``: written by ``cbtc serve
#: --shards 2 --state-dir DIR --snapshot-every 4`` under ``cbtc load
#: --worlds 3 --requests 14 --nodes 24 --subscribers 1`` (seed 0), with the
#: server and its workers then killed with SIGKILL, so every world's log
#: runs past its last checkpoint.  It was written before the topology
#: builder's self-run mode and the candidate-patching cache were removed.
GOLDEN_STATE = os.path.join(os.path.dirname(__file__), "golden-state")
GOLDEN_LOAD = LoadConfig(worlds=3, requests_per_world=14, nodes=24, subscribers=1)
GOLDEN_SHARDS = 2


class TestOldState:
    def test_retired_builder_and_cache_state_is_dropped(self, monkeypatch):
        """Worlds checkpointed with an incremental topology builder (self-run
        attributes included) and the old derived-data cache recover without
        them and continue byte-identically."""
        trace = build_trace(21, 6, node_count=15)
        half = len(trace) // 2
        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=3)
        for request in trace[:half]:
            assert host.execute(request)["ok"]
        assert host.worlds
        builds = {}
        for world_id, world in host.worlds.items():
            manager = world.manager
            builds[world_id] = manager.topology_builds + 2
            builder = _OldBuilder()
            builder.network, builder.alpha = world.network, manager.alpha
            builder.full_builds, builder.incremental_updates, builder.fallbacks = 2, 4, 1
            builder._result = manager._last_result
            builder.schedule = None
            builder._raw = manager.outcome.copy()
            builder._positions = {node.node_id: node.position for node in world.network.nodes}
            builder._external_outcome = True
            manager._builder = builder
            manager._retired_incremental_updates = 3
            manager._retired_fallbacks = 1
            manager._retired_dirty_hist = Histogram(COUNT_BUCKETS)
            old = _OldDerivedDataCache()
            old._values = {"probe": [1, 2, 3]}
            old._dirty = {"probe": {0}}
            old.hits, old.misses = 0, 1
            world.network._derived_cache = old
        with monkeypatch.context() as patch:
            patch.setattr(network_module, "DerivedDataCache", _OldDerivedDataCache)
            patch.setattr(incremental_module, "IncrementalTopologyBuilder", _OldBuilder)
            host.close()  # checkpoints every live world

        recovered = WorldHost(store=store, snapshot_every=3)
        try:
            recovered.recover()
            for world_id in sorted(recovered.world_ids()):
                world = recovered._world(world_id)
                for key in (
                    "_builder",
                    "_retired_incremental_updates",
                    "_retired_fallbacks",
                    "_retired_dirty_hist",
                ):
                    assert not hasattr(world.manager, key)
                assert not hasattr(world.network, "_derived_cache")
                assert world.manager.topology_builds == builds[world_id]
            for request in trace[half:]:
                assert recovered.execute(request)["ok"]
            assert collect_snapshots(recovered) == replay_serial(trace)
        finally:
            recovered.close()

    def test_golden_state_directory_recovers_byte_identically(self, tmp_path):
        """A committed state directory written by an older version recovers,
        replaying the log records past each checkpoint, to what a serial
        replay of the same trace serves."""
        state_dir = str(tmp_path / "state")
        shutil.copytree(GOLDEN_STATE, state_dir)
        snapshots = {}
        for shard in range(GOLDEN_SHARDS):
            path = shard_db_path(state_dir, shard)
            connection = sqlite3.connect(path)
            past_checkpoint = connection.execute(
                "SELECT count(*) FROM log JOIN checkpoints USING (world)"
                " WHERE log.seq > checkpoints.seq"
            ).fetchone()[0]
            connection.close()
            assert past_checkpoint > 0
            host = WorldHost(store=SqliteStore(path), snapshot_every=4)
            try:
                assert host.recover() > 0
                snapshots.update(collect_snapshots(host))
            finally:
                host.close(flush=False)
                host.store.close()
        assert snapshots == serial_reference(GOLDEN_LOAD)


# --------------------------------------------------------------------- #
# Process-pool supervision (real SIGKILL)
# --------------------------------------------------------------------- #
class TestProcessPoolSupervision:
    def _bootstrap(self, pool, trace, ring):
        for request in trace:
            [response] = dispatch(pool, ring.shard_of(request["world"]), [request])
            assert response["ok"], response

    def test_durable_pool_survives_worker_kill(self, tmp_path):
        """SIGKILL a worker, then keep serving: the restarted worker must
        recover from its log and the full run must stay byte-identical to
        an uninterrupted serial execution."""
        trace = build_trace(21, 4, node_count=15)
        serial = replay_serial(trace)
        midpoint = len(trace) // 2
        ring = HashRing(2)
        pool = ProcessShardPool(
            2, store_config=StoreConfig(kind="sqlite", path=str(tmp_path))
        )
        try:
            self._bootstrap(pool, trace[:midpoint], ring)
            for worker in pool._workers:
                worker.kill()
            self._bootstrap(pool, trace[midpoint:], ring)
            # Every shard that received post-kill traffic restarted once.
            assert pool.worker_restarts >= 1
            from repro.io.results import results_to_json

            snapshots = {}
            for world in WORLD_NAMES:
                [response] = dispatch(
                    pool,
                    ring.shard_of(world),
                    [{"id": None, "op": protocol.SNAPSHOT, "world": world, "params": {}}],
                )
                assert response["ok"], response
                snapshots[world] = results_to_json(response["result"])
            assert snapshots == serial
        finally:
            pool.close()

    def test_nondurable_pool_reports_errors_instead_of_hanging(self):
        """A round trip to a dead worker must not block forever: it returns
        error responses promptly and leaves the shard serving."""
        pool = ProcessShardPool(1)
        try:
            [response] = dispatch(
                pool, 0, [{"id": 1, "op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 8}}]
            )
            assert response["ok"], response
            pool._workers[0].kill()

            outcome = {}

            def run_batch():
                outcome["responses"] = dispatch(
                    pool, 0, [{"id": 2, "op": protocol.ADVANCE, "world": "w", "params": {}}]
                )

            thread = threading.Thread(target=run_batch, daemon=True)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive(), "dispatcher hung on a dead worker"
            [response] = outcome["responses"]
            assert not response["ok"]
            assert "worker died" in response["error"]
            assert response["id"] == 2
            assert pool.worker_restarts == 1
            # The restarted (empty) worker serves new worlds.
            [response] = dispatch(
                pool, 0, [{"id": 3, "op": protocol.CREATE_WORLD, "world": "w2", "params": {"nodes": 8}}]
            )
            assert response["ok"], response
        finally:
            pool.close()

    def test_mid_batch_kill_recovers_exactly_once(self, tmp_path):
        """Kill the worker *while* a batch executes: the re-dispatched batch
        must apply its writes exactly once."""
        ring = HashRing(1)
        pool = ProcessShardPool(
            1, store_config=StoreConfig(kind="sqlite", path=str(tmp_path))
        )
        try:
            [response] = dispatch(
                pool, 0, [{"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 20, "seed": 3}}]
            )
            assert response["ok"], response
            # A batch slow enough to be killed in flight: many advances.
            batch = [
                {"id": index, "op": protocol.ADVANCE, "world": "w", "params": {"steps": 2}}
                for index in range(30)
            ]
            killer = threading.Timer(0.15, pool._workers[0].kill)
            killer.start()
            try:
                responses = dispatch(pool, 0, batch)
            finally:
                killer.cancel()
            assert all(response["ok"] for response in responses), responses
            # Exactly-once: the final write count equals the trace's writes.
            [stats] = dispatch(
                pool, 0, [{"op": protocol.CACHE_STATS, "world": "w", "params": {}}]
            )
            assert stats["ok"], stats
            assert stats["result"]["writes"] == 30
        finally:
            pool.close()

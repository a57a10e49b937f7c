"""The transport-free fleet core, driven with scripted responses (no hosts).

Each exchange is fed canned shard answers, so the failure policy — absent
world, refused adoption with a put-back, refused put-back — and the frame
collection plan are pinned without a server or a replayer around them.
"""

import pytest

from repro.service import fleet, protocol
from repro.service.sharding import HashRing

OK = {"ok": True, "result": {}}
REFUSED = {"ok": False, "error": "refused"}
DRAINED = {"ok": True, "result": {"world": "w", "state": "STATE"}}


def script(exchange, responses):
    """Feed ``responses`` to ``exchange`` in order; return (steps, result)."""
    steps = []
    answers = iter(responses)

    def execute(shard, request):
        steps.append((shard, request))
        return next(answers)

    return steps, fleet.run(exchange, execute)


class TestMigrate:
    def test_landed_migration_is_out_then_in(self):
        steps, landed = script(fleet.migrate("w", 0, 2), [DRAINED, OK])
        assert landed is True
        assert steps == [
            (0, {"id": None, "op": protocol.MIGRATE_OUT, "world": "w"}),
            (2, {"id": None, "op": protocol.MIGRATE_IN, "world": "w", "params": {"state": "STATE"}}),
        ]

    def test_refused_migrate_out_means_absent(self):
        steps, landed = script(fleet.migrate("w", 1, 0), [REFUSED])
        assert landed is False
        assert [request["op"] for _, request in steps] == [protocol.MIGRATE_OUT]

    def test_refused_migrate_in_puts_the_world_back(self):
        steps, landed = script(fleet.migrate("w", 1, 3), [DRAINED, REFUSED, OK])
        assert landed is False
        put_back = {"id": None, "op": protocol.MIGRATE_IN, "world": "w", "params": {"state": "STATE"}}
        assert steps[1:] == [(3, put_back), (1, put_back)]

    def test_refused_put_back_raises(self):
        with pytest.raises(fleet.MigrationLost, match="'w'"):
            script(fleet.migrate("w", 1, 3), [DRAINED, REFUSED, REFUSED])


class TestPlacement:
    def test_misplaced_is_sorted_and_skips_ring_correct_worlds(self):
        ring = HashRing(3)
        worlds = [f"world-{index}" for index in range(12)]
        right = [(world, ring.shard_of(world)) for world in worlds[:6]]
        wrong = [(world, (ring.shard_of(world) + 1) % 4) for world in worlds[6:]]
        assert fleet.misplaced(reversed(right + wrong), ring) == sorted(wrong)


class TestCollection:
    def test_committed_keeps_only_landed_push_triggers_on_watched_worlds(self):
        requests = [
            {"op": protocol.ADVANCE, "world": "b"},
            {"op": protocol.APPLY, "world": "a"},
            {"op": protocol.ADVANCE, "world": "failed"},
            {"op": protocol.SNAPSHOT, "world": "read"},
            {"op": protocol.ADVANCE, "world": "unwatched"},
            {"op": protocol.ADVANCE, "world": ["not", "a", "string"]},
            {"op": protocol.MIGRATE_IN, "world": "b"},
        ]
        responses = [OK, OK, REFUSED, OK, OK, OK, OK]
        watched = {"a", "b", "failed", "read"}.__contains__
        assert fleet.committed(requests, responses, watched) == ["a", "b"]

    def test_collect_is_shard_addressed(self):
        assert fleet.collect(2, {"w": 4}) == {
            "id": None,
            "op": protocol.SUBS_COLLECT,
            "world": "@shard:2",
            "params": {"cursors": {"w": 4}},
        }

    def test_collect_all_one_request_per_owning_shard_in_order(self):
        ring = HashRing(4)
        cursors = {f"world-{index}": index - 3 for index in range(10)}
        plan = fleet.collect_all(ring, cursors)
        shards = [shard for shard, _ in plan]
        assert shards == sorted(set(ring.shard_of(world) for world in cursors))
        merged = {}
        for shard, request in plan:
            assert request == fleet.collect(shard, request["params"]["cursors"])
            for world in request["params"]["cursors"]:
                assert ring.shard_of(world) == shard
            merged.update(request["params"]["cursors"])
        assert merged == cursors

    def test_collect_all_of_nothing_is_empty(self):
        assert fleet.collect_all(HashRing(2), {}) == []

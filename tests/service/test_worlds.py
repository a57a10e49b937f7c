"""World hosting: request execution, the read path, dirty invalidation."""

import pytest

from repro.io.results import results_to_json
from repro.service import protocol
from repro.service.worlds import WorldHost


def _request(op, world="w", **params):
    return {"id": 1, "op": op, "world": world, "params": params}


@pytest.fixture
def host():
    host = WorldHost()
    yield host
    host.close()


def _create(host, world="w", nodes=30, seed=1, **extra):
    params = {"scenario": "random-waypoint-drift", "nodes": nodes, "seed": seed,
              "mover_fraction": 0.2, **extra}
    response = host.execute({"id": 0, "op": protocol.CREATE_WORLD, "world": world,
                             "params": params})
    assert response["ok"], response
    return response["result"]


class TestLifecycle:
    def test_create_reports_population(self, host):
        result = _create(host, nodes=25)
        assert result == {"world": "w", "scenario": "random-waypoint-drift",
                          "seed": 1, "nodes": 25}

    def test_duplicate_create_is_an_error(self, host):
        _create(host)
        response = host.execute(_request(protocol.CREATE_WORLD))
        assert not response["ok"]
        assert "already exists" in response["error"]

    def test_unknown_world_is_an_error(self, host):
        response = host.execute(_request(protocol.QUERY_STATS, world="nope"))
        assert not response["ok"]
        assert "unknown world" in response["error"]

    def test_unknown_scenario_is_an_error(self, host):
        response = host.execute(_request(protocol.CREATE_WORLD, scenario="not-a-scenario"))
        assert not response["ok"]
        assert "unknown scenario" in response["error"]

    def test_distributed_scenario_is_rejected(self, host):
        response = host.execute(_request(protocol.CREATE_WORLD, scenario="lossy-channel-chaos"))
        assert not response["ok"]
        assert "distributed" in response["error"]

    def test_delete_world_frees_the_name(self, host):
        _create(host)
        assert host.execute(_request(protocol.DELETE_WORLD))["ok"]
        assert not host.execute(_request(protocol.QUERY_STATS))["ok"]
        _create(host)  # the name is reusable

    def test_malformed_request_yields_error_response(self, host):
        response = host.execute({"id": 9, "op": "query_stats"})
        assert response == {"id": 9, "ok": False,
                            "error": "op 'query_stats' requires a non-empty 'world'"}


class TestReads:
    def test_stats_shape(self, host):
        _create(host)
        stats = host.execute(_request(protocol.QUERY_STATS))["result"]
        assert stats["alive_nodes"] == 30
        assert stats["edge_count"] > 0
        assert stats["components"] >= 1
        assert isinstance(stats["connectivity_preserved"], bool)

    def test_route_between_connected_nodes(self, host):
        _create(host)
        route = host.execute(_request(protocol.QUERY_ROUTE, source=0, target=5))["result"]
        if route["reachable"]:
            assert route["path"][0] == 0
            assert route["path"][-1] == 5
            assert route["hops"] == len(route["path"]) - 1
            assert route["cost"] > 0
        else:
            assert "path" not in route

    def test_route_to_missing_node_is_unreachable(self, host):
        _create(host)
        route = host.execute(_request(protocol.QUERY_ROUTE, source=0, target=999))["result"]
        assert route["reachable"] is False

    def test_route_requires_integer_endpoints(self, host):
        _create(host)
        response = host.execute(_request(protocol.QUERY_ROUTE, source="a", target=1))
        assert not response["ok"]

    def test_traffic_report_shape(self, host):
        _create(host)
        report = host.execute(_request(protocol.RUN_TRAFFIC, flows=2, packets=2))["result"]
        assert report["world"] == "w"
        assert 0.0 <= report["delivery_ratio"] <= 1.0

    def test_traffic_rejects_bad_spec(self, host):
        _create(host)
        response = host.execute(_request(protocol.RUN_TRAFFIC, flows=-1))
        assert not response["ok"]

    def test_snapshot_is_canonical_and_complete(self, host):
        _create(host, nodes=25)
        snapshot = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert [node["id"] for node in snapshot["nodes"]] == sorted(
            node["id"] for node in snapshot["nodes"]
        )
        assert len(snapshot["nodes"]) == 25
        assert snapshot["topology"]["edges"]
        # Canonical serialization is reproducible byte for byte.
        again = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert results_to_json(snapshot) == results_to_json(again)


class TestWrites:
    def test_advance_counts_writes(self, host):
        _create(host)
        assert host.execute(_request(protocol.ADVANCE, steps=2))["result"]["writes"] == 1
        assert host.execute(_request(protocol.ADVANCE))["result"]["writes"] == 2

    def test_advance_rejects_negative_steps(self, host):
        _create(host)
        assert not host.execute(_request(protocol.ADVANCE, steps=-1))["ok"]

    def test_apply_delta_round_trips_into_snapshot(self, host):
        _create(host, nodes=20)
        result = host.execute(
            _request(
                protocol.APPLY,
                moves=[[0, 10.0, 20.0]],
                joins=[[700.0, 700.0]],
                crashes=[3],
            )
        )["result"]
        assert result["moved"] == 1
        assert result["joined"] == [20]
        assert result["crashed"] == 1
        snapshot = host.execute(_request(protocol.SNAPSHOT))["result"]
        by_id = {node["id"]: node for node in snapshot["nodes"]}
        assert (by_id[0]["x"], by_id[0]["y"]) == (10.0, 20.0)
        assert by_id[20]["alive"] and by_id[20]["x"] == 700.0
        assert not by_id[3]["alive"]
        # Crashed nodes carry no topology edges.
        assert all(3 not in (e["u"], e["v"]) for e in snapshot["topology"]["edges"])

    def test_apply_recover_rejoins(self, host):
        _create(host, nodes=20)
        host.execute(_request(protocol.APPLY, crashes=[4]))
        host.execute(_request(protocol.APPLY, recovers=[4]))
        snapshot = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert {n["id"]: n["alive"] for n in snapshot["nodes"]}[4] is True

    def test_invalid_delta_applies_nothing(self, host):
        _create(host, nodes=20)
        before = host.execute(_request(protocol.SNAPSHOT))["result"]
        response = host.execute(
            _request(protocol.APPLY, moves=[[0, 1.0, 1.0]], crashes=[999])
        )
        assert not response["ok"]
        after = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert results_to_json(before) == results_to_json(after)

    @pytest.mark.parametrize(
        "delta",
        [
            {"moves": [[0, 1.0]]},  # arity-2 move
            {"moves": [[0, 123.0, 456.0], [1, "oops", 9.0]]},  # bad coordinate after a good move
            {"moves": [[0, None, 2.0]]},
            {"joins": [5]},  # join entry is not a pair
            {"crashes": [[1]]},  # unhashable node id
        ],
    )
    def test_malformed_delta_is_an_error_and_atomic(self, host, delta):
        """Shape/type problems anywhere in the delta yield a friendly error
        response and leave the world byte-identical — no partial apply, no
        exception escaping to kill a dispatcher."""
        _create(host, nodes=20)
        before = host.execute(_request(protocol.SNAPSHOT))["result"]
        response = host.execute(_request(protocol.APPLY, **delta))
        assert not response["ok"]
        assert "malformed delta" in response["error"]
        after = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert results_to_json(before) == results_to_json(after)

    def test_unexpected_handler_failure_yields_error_response(self, host):
        """The per-request containment layer: even a non-RequestError must
        come back as an error response, identically on every backend."""
        _create(host)
        response = host.execute(
            _request(protocol.CREATE_WORLD, world="w2", mover_fraction={})
        )
        assert not response["ok"]
        response = host.execute(_request(protocol.ADVANCE, steps=True))
        # bool is an int subclass; either a validation error or a clean
        # success is acceptable — what is not acceptable is an exception.
        assert "ok" in response


class TestSnapshotCache:
    """A world caches no read results (the front end's ReadCache does);
    what repeat reads of a clean world reuse is the manager's topology."""

    def test_cached_reads_skip_pipeline_work(self, host):
        _create(host)
        host.execute(_request(protocol.QUERY_STATS))
        builds_before = host.execute(_request(protocol.CACHE_STATS))["result"]["topology_builds"]
        for _ in range(5):
            host.execute(_request(protocol.QUERY_STATS))
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["topology_builds"] == builds_before


class TestNaiveBaseline:
    def test_naive_and_cached_agree_byte_for_byte(self):
        cached = WorldHost()
        naive = WorldHost(naive=True)
        try:
            for host in (cached, naive):
                _create(host, nodes=25, seed=7)
                host.execute(_request(protocol.ADVANCE, steps=1))
                host.execute(_request(protocol.APPLY, crashes=[2]))
            for op, params in [
                (protocol.QUERY_STATS, {}),
                (protocol.QUERY_ROUTE, {"source": 0, "target": 9}),
                (protocol.RUN_TRAFFIC, {"flows": 2, "packets": 2}),
                (protocol.SNAPSHOT, {}),
            ]:
                a = cached.execute({"id": 1, "op": op, "world": "w", "params": params})
                b = naive.execute({"id": 1, "op": op, "world": "w", "params": params})
                assert results_to_json(a) == results_to_json(b), op
        finally:
            cached.close()
            naive.close()

    def test_naive_mode_rebuilds_per_request(self, monkeypatch):
        from repro.service import worlds as worlds_module

        host = WorldHost(naive=True)
        try:
            _create(host)
            builds = []
            real_build = worlds_module.build_topology

            def counting_build(*args, **kwargs):
                builds.append(1)
                return real_build(*args, **kwargs)

            monkeypatch.setattr(worlds_module, "build_topology", counting_build)
            for _ in range(3):
                host.execute(_request(protocol.QUERY_STATS))
            assert len(builds) == 3
        finally:
            host.close()


class TestIntegerValidation:
    """bool subclasses int, so isinstance checks used to accept true/false
    off the wire — 'steps': true quietly advanced one step."""

    @pytest.mark.parametrize("steps", [True, False, "3", 1.0, None])
    def test_advance_rejects_non_integers(self, host, steps):
        _create(host)
        response = host.execute(_request(protocol.ADVANCE, steps=steps))
        assert not response["ok"]
        assert "non-negative integer" in response["error"]

    @pytest.mark.parametrize("endpoint", [True, False, 1.5, "0"])
    def test_route_rejects_non_integer_endpoints(self, host, endpoint):
        _create(host)
        for params in ({"source": endpoint, "target": 1}, {"source": 0, "target": endpoint}):
            response = host.execute(_request(protocol.QUERY_ROUTE, **params))
            assert not response["ok"]
            assert "node IDs" in response["error"]

    @pytest.mark.parametrize("nodes", [True, 2.0, "10"])
    def test_create_rejects_non_integer_nodes(self, host, nodes):
        response = host.execute(_request(protocol.CREATE_WORLD, nodes=nodes))
        assert not response["ok"]
        assert "positive integer" in response["error"]

    @pytest.mark.parametrize("seed", [True, False, 0.5, "7"])
    def test_create_rejects_non_integer_seed(self, host, seed):
        response = host.execute(_request(protocol.CREATE_WORLD, seed=seed))
        assert not response["ok"]
        assert "'seed' must be an integer" in response["error"]


class TestCacheAliasing:
    def test_mutating_a_cached_response_does_not_corrupt_later_hits(self, host):
        """The snapshot cache used to hand out its stored dictionary: a
        caller mutating a hit corrupted every later hit of the same key."""
        _create(host)
        first = host.execute(_request(protocol.QUERY_STATS))["result"]
        pristine = results_to_json(first)
        first["alive_nodes"] = -999
        first.pop("edge_count")
        second = host.execute(_request(protocol.QUERY_STATS))["result"]
        assert results_to_json(second) == pristine


class TestFailedCreateCleanup:
    def test_failed_prime_unregisters_every_hook(self, monkeypatch):
        """A create_world whose prime raises must leave nothing behind: no
        hosted world, no staged WAL records, no listeners on the network."""
        from repro.core.reconfiguration import ReconfigurationManager
        from repro.scenarios.spec import ScenarioSpec
        from repro.service.storage import MemoryStore

        networks = []
        original_build = ScenarioSpec.build_network

        def capturing_build(self, seed):
            network = original_build(self, seed)
            networks.append(network)
            return network

        monkeypatch.setattr(ScenarioSpec, "build_network", capturing_build)
        original_synchronize = ReconfigurationManager.synchronize

        def failing_synchronize(self, *args, **kwargs):
            raise RuntimeError("mid-prime failure")

        monkeypatch.setattr(ReconfigurationManager, "synchronize", failing_synchronize)
        store = MemoryStore()
        host = WorldHost(store=store)
        response = host.execute(_request(protocol.CREATE_WORLD))
        assert not response["ok"]
        assert "mid-prime failure" in response["error"]
        # No partial state: the world is not hosted, nothing was staged for
        # the WAL, and the doomed network's hooks were all unwound.
        assert host.world_ids() == []
        assert host._staged == []
        assert host._log_seq == {}
        [network] = networks
        assert network._dirty_listeners == []
        # The name is immediately reusable once the failure is gone.
        monkeypatch.setattr(ReconfigurationManager, "synchronize", original_synchronize)
        assert host.execute(_request(protocol.CREATE_WORLD))["ok"]
        host.close()


class TestOldCheckpoints:
    def test_retired_result_caches_are_dropped_on_rehydration(self):
        """Worlds pickled before the shard-side result caches were deleted
        carry them in their checkpoints; recovery must drop them, so they
        never ride the next checkpoint."""
        import pickle

        from repro.graphs.routing import SourceRouteCache
        from repro.service.storage import MemoryStore

        retired = ("_snapshot_cache", "_route_cache", "_adjacency", "cache_hits", "cache_misses")
        store = MemoryStore()
        host = WorldHost(store=store)
        _create(host, nodes=20)
        host.execute(_request(protocol.ADVANCE, steps=2))
        snapshot = host.execute(_request(protocol.SNAPSHOT))["result"]
        world = host.worlds["w"]
        world.__dict__.update(
            _snapshot_cache={"snapshot:{}": snapshot},
            _route_cache=SourceRouteCache(),
            _adjacency={0: {1: 1.0}, 1: {0: 1.0}},
            cache_hits=3,
            cache_misses=4,
        )
        old_blob = pickle.dumps(world)
        assert all(key.encode() in old_blob for key in retired)
        host.close()  # flushes the parent-shaped world as its checkpoint

        recovered = WorldHost(store=store)
        try:
            assert recovered.recover() == 1
            again = recovered.execute(_request(protocol.SNAPSHOT))["result"]
            assert results_to_json(again) == results_to_json(snapshot)
            clone = recovered.worlds["w"]
            assert not set(retired) & set(vars(clone))
            new_blob = pickle.dumps(clone)
            assert not any(key.encode() in new_blob for key in retired)
            assert len(new_blob) < len(old_blob)
        finally:
            recovered.close()

"""Topology-as-a-service: the fleet server and its clients.

The service layer turns the repository's simulation machinery into a
serving surface: a long-running asyncio front end
(:class:`~repro.service.server.FleetServer`) hosts many live worlds behind
a JSON wire protocol, shards them over worker processes by consistent
hashing (:class:`~repro.service.sharding.HashRing`), coalesces concurrent
requests into per-shard batches, and answers repeat reads from one
read-result cache in front of the shards (:mod:`repro.service.readcache`).
Each live world (:class:`~repro.service.worlds.World`) rides the dirty-set
machinery: a write that moves a handful of nodes re-runs the paper's
reconfiguration rules only where the events land, and the next read
rebuilds the topology from the maintained states.

``cbtc serve`` starts a server; ``cbtc load`` drives the closed-loop load
generator (:mod:`repro.service.loadgen`) against it and can verify the
served snapshots byte-for-byte against a serial in-process replay
(:mod:`repro.service.replay`).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import (
    LoadConfig,
    LoadReport,
    build_trace,
    flatten_trace,
    run_load,
    run_load_async,
    serial_reference,
    verify_snapshots,
)
from repro.service.replay import ShardedReplayer, replay_serial, replay_sharded
from repro.service.server import FleetServer, run_server
from repro.service.sharding import HashRing
from repro.service.workers import InlineShardPool, ProcessShardPool
from repro.service.worlds import World, WorldHost, build_world_spec

__all__ = [
    "FleetServer",
    "HashRing",
    "InlineShardPool",
    "LoadConfig",
    "LoadReport",
    "ProcessShardPool",
    "ServiceClient",
    "ServiceError",
    "ShardedReplayer",
    "World",
    "WorldHost",
    "build_trace",
    "build_world_spec",
    "flatten_trace",
    "replay_serial",
    "replay_sharded",
    "run_load",
    "run_load_async",
    "run_server",
    "serial_reference",
    "verify_snapshots",
]

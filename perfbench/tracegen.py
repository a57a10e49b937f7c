"""Seeded request traces for the TCP serving workloads.

Everything a serving run sends is derived here from ``(workload, seed)``:
the worlds, each world's pool of hot read keys, the subscriptions, and one
request stream per connection.  Each connection owns a disjoint set of
worlds, so the order of every world's requests is fixed by its stream alone
and the run's final state does not depend on how the two connections
interleave — which is what lets :func:`repro.service.replay.replay_serial`
of the executed requests serve as the oracle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

CONNECTIONS = 2


@dataclass(frozen=True)
class ServeShape:
    """The knobs that make one serving workload."""

    worlds: int
    #: Requests per world in every round of a stream, by kind: hot-key
    #: reads, ``advance`` steps and ``apply`` deltas moving one node.
    reads: int
    advances: int
    applies: int
    subscribed_share: float
    route_keys: int
    advance_steps: int
    durable: bool


SHAPES: Dict[str, ServeShape] = {
    "serve-read-hot": ServeShape(
        worlds=32, reads=19, advances=1, applies=0,
        subscribed_share=0.0, route_keys=4, advance_steps=5, durable=False,
    ),
    "serve-write-durable": ServeShape(
        worlds=16, reads=4, advances=4, applies=2,
        subscribed_share=0.5, route_keys=2, advance_steps=1, durable=True,
    ),
}

#: Side of the square deployment region (the catalogue default).
REGION = 1500.0
#: Nodes per world and the share of them that move.
NODES = 80
MOVER_FRACTION = 0.05


@dataclass
class Plan:
    """One serving run's inputs."""

    workload: str
    seed: int
    shape: ServeShape
    world_seeds: Dict[str, int]
    hot_keys: Dict[str, List[Dict[str, Any]]]
    subscribed: List[str]
    owners: Dict[str, int] = field(default_factory=dict)

    def create_requests(self, prefix: str = "") -> List[Dict[str, Any]]:
        """``create_world`` for every world (``prefix`` names a throwaway set)."""
        return [
            {
                "id": f"create:{prefix}{world}",
                "op": "create_world",
                "world": prefix + world,
                "params": {
                    "scenario": "random-waypoint-drift",
                    "nodes": NODES,
                    "mover_fraction": MOVER_FRACTION,
                    "seed": seed,
                },
            }
            for world, seed in sorted(self.world_seeds.items())
        ]

    def subscribe_requests(self, connection: int) -> List[Dict[str, Any]]:
        """The untimed prelude: subscribe to this connection's tracked worlds."""
        return [
            {"id": f"sub:{world}", "op": "subscribe", "world": world, "params": {}}
            for world in self.subscribed
            if self.owners[world] == connection
        ]

    def stream(self, connection: int) -> Iterator[Dict[str, Any]]:
        """The endless, seeded request stream of one connection.

        The stream is a sequence of rounds.  In every round each owned world
        gets exactly its shape's count of reads (continuing a cycle through
        its hot keys), advances and applies, in a seeded shuffled order: the mix is
        exact rather than drawn, so runs with different seeds do the same
        amount of each kind of work.
        """
        rng = random.Random(f"perfbench:{self.workload}:{self.seed}:conn{connection}")
        owned = [world for world in sorted(self.world_seeds) if self.owners[world] == connection]
        shape = self.shape
        index = 0
        reads = 0
        while True:
            slots = []
            for world in owned:
                keys = self.hot_keys[world]
                slots += [(world, keys[(reads + i) % len(keys)]) for i in range(shape.reads)]
                slots += [(world, "advance")] * shape.advances + [(world, "apply")] * shape.applies
            reads += shape.reads
            rng.shuffle(slots)
            for world, kind in slots:
                request: Dict[str, Any] = {"id": f"c{connection}:{index}", "world": world}
                if kind == "advance":
                    request.update(op="advance", params={"steps": shape.advance_steps})
                elif kind == "apply":
                    move = [rng.randrange(NODES), round(rng.uniform(0, REGION), 3),
                            round(rng.uniform(0, REGION), 3)]
                    request.update(op="apply", params={"moves": [move]})
                else:
                    request.update(op=kind["op"], params=dict(kind["params"]))
                index += 1
                yield request


def build_plan(workload: str, seed: int) -> Plan:
    """The worlds, hot keys and subscriptions of ``workload`` for ``seed``."""
    shape = SHAPES[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}:plan")
    world_seeds = {f"w{index:02d}": rng.randrange(1, 2**31) for index in range(shape.worlds)}
    hot_keys: Dict[str, List[Dict[str, Any]]] = {}
    for world in sorted(world_seeds):
        keys: List[Dict[str, Any]] = []
        for _ in range(shape.route_keys):
            source, target = rng.sample(range(NODES), 2)
            keys.append({"op": "query_route", "params": {"source": source, "target": target}})
        keys.append({
            "op": "run_traffic",
            "params": {"flows": 4, "packets": 3, "seed": rng.randrange(1000)},
        })
        if shape.durable:
            keys.append({"op": "snapshot", "params": {}})
            keys.append({"op": "query_stats", "params": {}})
        hot_keys[world] = keys
    worlds = sorted(world_seeds)
    subscribed = worlds[: int(round(shape.subscribed_share * len(worlds)))]
    owners = {world: index % CONNECTIONS for index, world in enumerate(worlds)}
    return Plan(workload, seed, shape, world_seeds, hot_keys, subscribed, owners)


def trace_bytes(workload: str, seed: int, per_connection: int) -> bytes:
    """The first ``per_connection`` requests of every stream, plus the
    creates and subscribes, as canonical JSON lines (for the tests)."""
    plan = build_plan(workload, seed)
    lines = [json.dumps(r, sort_keys=True) for r in plan.create_requests()]
    for connection in range(CONNECTIONS):
        lines += [json.dumps(r, sort_keys=True) for r in plan.subscribe_requests(connection)]
        stream = plan.stream(connection)
        lines += [json.dumps(next(stream), sort_keys=True) for _ in range(per_connection)]
    return ("\n".join(lines) + "\n").encode("utf-8")

"""Benchmark: incremental epoch-to-epoch pipeline vs full per-epoch rebuild.

Each cell runs the same random-waypoint-drift scenario twice at paper
density (region side grows with sqrt(n)):

* **incremental** — the default path: dirty-set CBTC state splicing,
  scoped optimization passes and route caching
  (``ScenarioRunner(spec, seed)``);
* **full rebuild** — a from-scratch ``build_topology`` every epoch and no
  route cache (``ScenarioRunner(spec, seed, incremental=False)``).

Both arms run the same reconfiguration ``synchronize``, which dominates a
drift epoch, so the two timings sit close together; the ratio is recorded,
not gated.  Both must produce byte-identical serialized results (asserted
per cell).  The ``mover_fraction`` axis controls how much of the population
drifts per epoch, i.e. how local the per-epoch delta is.

Run with ``--benchmark-json`` to archive the incremental-arm timings (the
CI benchmark job uploads them as an artifact); the full-rebuild timings and
speedups are attached as ``extra_info`` and printed.
"""

import math
import time

import pytest

from repro.io.results import results_to_json
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import MobilitySpec, PlacementSpec, ScenarioSpec

ALPHA = 5 * math.pi / 6


def _drift_spec(node_count: int, mover_fraction: float, epochs: int = 2) -> ScenarioSpec:
    side = 1500.0 * math.sqrt(node_count / 100.0)
    return ScenarioSpec(
        name=f"bench-incremental-{node_count}-{int(mover_fraction * 100)}",
        placement=PlacementSpec(node_count=node_count, width=side, height=side),
        mobility=MobilitySpec(
            kind="random-waypoint",
            min_speed=5.0,
            max_speed=25.0,
            mover_fraction=mover_fraction,
        ),
        epochs=epochs,
        steps_per_epoch=1,
        alpha=ALPHA,
    )


def _timed_epoch_loop(spec: ScenarioSpec, *, incremental: bool):
    """Prime a runner (initial CBTC + first topology), then time ``run()``."""
    runner = ScenarioRunner(spec, 0, incremental=incremental)
    runner.prime()
    start = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - start


@pytest.mark.parametrize(
    "node_count,mover_fraction",
    [
        (1000, 0.02),
        (1000, 0.10),
        (1000, 1.0),
        (2000, 0.02),
        (2000, 0.10),
        (2000, 1.0),
    ],
)
def test_bench_incremental_vs_full_rebuild(benchmark, print_section, node_count, mover_fraction):
    spec = _drift_spec(node_count, mover_fraction)

    full_result, full_seconds = _timed_epoch_loop(spec, incremental=False)

    state = {}

    def incremental_arm():
        result, seconds = _timed_epoch_loop(spec, incremental=True)
        state["result"], state["seconds"] = result, seconds
        return result

    benchmark.pedantic(incremental_arm, rounds=1, iterations=1, warmup_rounds=0)
    incremental_result, incremental_seconds = state["result"], state["seconds"]

    # The whole point: the incremental path is an optimization, not an
    # approximation — identical serialized results, every epoch.
    assert results_to_json(incremental_result) == results_to_json(full_result)

    speedup = full_seconds / incremental_seconds
    benchmark.extra_info.update(
        {
            "node_count": node_count,
            "mover_fraction": mover_fraction,
            "full_rebuild_seconds": round(full_seconds, 3),
            "incremental_seconds": round(incremental_seconds, 3),
            "speedup": round(speedup, 2),
        }
    )
    print_section(
        f"incremental vs full rebuild (n={node_count}, movers={mover_fraction:.0%})",
        f"full rebuild: {full_seconds:6.2f} s\n"
        f"incremental:  {incremental_seconds:6.2f} s\n"
        f"speedup:      {speedup:6.1f} x",
    )

"""The in-process ``drift-epochs`` workload.

``random-waypoint-drift`` at n = 2000 with the region scaled so the density
equals the catalogue's n = 100 in 1500 x 1500, and 20% of the nodes moving.
A :class:`~repro.scenarios.runner.ScenarioRunner` is built and primed
(``setup_s``), runs one untimed warm-up epoch (the first synchronize after a
fresh CBTC outcome floods join events as every node's neighbourhood
knowledge completes), and then runs timed epochs one ``run()`` call at a
time.  A runner over a one-epoch spec advances its live network by one
epoch per ``run()``; for this scenario (no churn, traffic or channel) the
epoch number feeds nothing, so consecutive calls are consecutive epochs.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from typing import Any, Dict, List, Tuple

from common import OUT, median, percentile, vm_hwm_mb

from repro.io.results import results_to_json
from repro.scenarios.catalogue import get_scenario
from repro.scenarios.runner import ScenarioRunner, ScenarioResult

NODES = 2000
MOVER_FRACTION = 0.2
#: Setup repetitions in an untraced run (``setup_s`` is their median).
SETUP_REPS = 5
#: Epochs ``run_s`` times, and the epochs of each traced-run phase.
RUN_EPOCHS = 8
#: Timed epochs replayed against the ``verify_incremental`` oracle.
VERIFY_EPOCHS = 3


def drift_spec():
    """The constant-density n = 2000 drift scenario, one epoch per ``run()``."""
    base = get_scenario("random-waypoint-drift")
    side = base.placement.width * math.sqrt(NODES / base.placement.node_count)
    return dataclasses.replace(
        base,
        placement=dataclasses.replace(base.placement, node_count=NODES, width=side, height=side),
        mobility=dataclasses.replace(base.mobility, mover_fraction=MOVER_FRACTION),
        epochs=1,
    )


def _setup(seed: int, **kwargs) -> Tuple[ScenarioRunner, float]:
    start = time.perf_counter()
    runner = ScenarioRunner(drift_spec(), seed, **kwargs)
    runner.prime()
    return runner, time.perf_counter() - start


def _epochs(
    runner: ScenarioRunner, *, count: int, seconds: float = 0.0, recorder=None
) -> Tuple[List[float], List[ScenarioResult], Tuple[float, float]]:
    """Run at least ``count`` epochs and until ``seconds`` have passed."""
    times: List[float] = []
    results: List[ScenarioResult] = []
    start = time.perf_counter()
    while len(times) < count or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        if recorder is not None:
            with recorder.span("scenario.epoch"):
                results.append(runner.run())
        else:
            results.append(runner.run())
        times.append(time.perf_counter() - began)
    return times, results, (start, time.perf_counter())


def _checked(results: List[ScenarioResult]) -> Tuple[int, int]:
    """``(attempted, failed)``: every epoch must preserve connectivity (alpha = 5pi/6)."""
    failed = sum(
        1 for result in results for epoch in result.epochs if not epoch.connectivity_preserved
    )
    return len(results), failed


def _compare(left: List[ScenarioResult], right: List[ScenarioResult]) -> Tuple[int, int]:
    """``(attempted, failed)``: epoch-by-epoch result JSON must be byte-identical."""
    failed = sum(1 for a, b in zip(left, right) if results_to_json(a) != results_to_json(b))
    return len(left), failed + abs(len(left) - len(right))


def end_to_end(times: List[float], setup_times: List[float], rss: float) -> Dict[str, float]:
    return {
        "setup_s": median(setup_times),
        "latency_p50_ms": median(times) * 1e3,
        "latency_p99_ms": percentile(times, 0.99) * 1e3,
        "throughput_per_s": len(times) / sum(times),
        "run_s": sum(times[:RUN_EPOCHS]),
        "peak_rss_mb": rss,
        "samples": len(times),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run of ``drift-epochs``; see ``run.py`` for the output."""
    os.makedirs(OUT, exist_ok=True)
    if not trace:
        setup_times = []
        for _ in range(SETUP_REPS):
            runner = None  # release the previous repetition before building the next
            runner, took = _setup(seed)
            setup_times.append(took)
        warm = [runner.run()]
        times, results, _ = _epochs(runner, count=RUN_EPOCHS, seconds=seconds)
        rss = vm_hwm_mb(os.getpid())
        runner = None
        # The oracle: the warm-up and the first timed epochs, replayed with
        # every incremental splice checked against a from-scratch build,
        # must give byte-identical results.
        verified = warm + results[:VERIFY_EPOCHS]
        reference, _ = _setup(seed, verify_incremental=True)
        expected = [reference.run() for _ in verified]
        attempted, failed = _checked(warm + results)
        more = _compare(verified, expected)
        return {
            "attempted": attempted + more[0],
            "failed": failed + more[1],
            "wrong_outputs": failed + more[1],
            "end_to_end": end_to_end(times, setup_times, rss),
        }
    return _traced(seed)


def _traced(seed: int) -> Dict[str, Any]:
    from layers import drift_layers
    from spans import Recorder, install

    import repro.core.reconfiguration as reconfiguration

    runner, setup_untraced = _setup(seed)
    warm_a = [runner.run()]
    times_a, results_a, _ = _epochs(runner, count=RUN_EPOCHS)
    untraced = end_to_end(times_a, [setup_untraced], vm_hwm_mb(os.getpid()))
    runner = None

    recorder = Recorder()
    install(recorder)
    managers: List[Any] = []
    original_init = reconfiguration.ReconfigurationManager.__init__

    def remember(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        managers.append(self)

    reconfiguration.ReconfigurationManager.__init__ = remember
    try:
        setup_start = time.perf_counter()
        with recorder.span("scenario.setup"):
            runner, setup_traced = _setup(seed)
        setup_window = (setup_start, time.perf_counter())
        with recorder.span("scenario.warmup"):
            warm_b = [runner.run()]
        manager = managers[-1]
        before = _topology_counts(manager)
        times_b, results_b, window = _epochs(runner, count=RUN_EPOCHS, recorder=recorder)
        after = _topology_counts(manager)
    finally:
        reconfiguration.ReconfigurationManager.__init__ = original_init
    recorder.flush(os.path.join(OUT, "spans-drift-epochs.jsonl"))
    traced = end_to_end(times_b, [setup_traced], vm_hwm_mb(os.getpid()))
    attempted, failed = _checked(warm_b + results_b)
    more = _compare(warm_a + results_a, warm_b + results_b)
    layers = drift_layers(
        recorder.spans,
        setup_window,
        window,
        {key: after[key] - before[key] for key in after},
        untraced,
        traced,
    )
    return {
        "attempted": attempted + more[0],
        "failed": failed + more[1],
        "wrong_outputs": failed + more[1],
        "per_layer": layers,
    }


def _topology_counts(manager) -> Dict[str, int]:
    return {
        "topology.incremental_updates": manager.incremental_updates,
        "topology.full_builds": manager.topology_builds,
        "topology.fallbacks": manager.rebuild_fallbacks,
    }

"""The committed benchmark trajectory: reference-normalized perf cells.

Raw wall-clock timings are useless as a committed artifact — CI runners,
laptops, and container hosts differ by integer factors.  Every bench run
therefore times a small **pinned reference cell** in-process and reports
each cell as a *ratio* against it: ``cell_seconds / reference_seconds``.
The reference cell exercises the same interpreter, allocator, and cache
hierarchy as the cells, so machine speed divides out and the ratio tracks
*algorithmic* regressions (a cache stops hitting, a memo rebuilds on
every call) rather than hardware.

Reports are canonical JSON committed as ``BENCH_<area>.json`` at the repo
root.  ``diff_reports`` compares a freshly-measured report against the
committed one and flags cells whose ratio grew beyond a tolerance; raw
seconds ride along as ``seconds_hint`` (machine-specific, never compared).

Cells are sized to run in seconds so CI can execute the committed scale
directly — there is no "smoke subset" that diverges from the artifact.
Timing is min-of-repeats over fresh state per repeat (the classic noise
floor estimator), read through :mod:`repro.obs.clock`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.obs import clock

__all__ = [
    "BENCH_VERSION",
    "REFERENCE_CELL",
    "area_names",
    "run_area",
    "diff_reports",
    "format_report",
    "bench_path",
]

BENCH_VERSION = 1

#: Name of the pinned reference cell every report normalizes against.
REFERENCE_CELL = "full-build-100"

#: A cell factory returns a fresh zero-arg thunk per repeat; only the thunk
#: is timed, so per-repeat state construction never pollutes the measurement.
CellFactory = Callable[[], Callable[[], Any]]


# ---------------------------------------------------------------------- #
# Cell definitions
# ---------------------------------------------------------------------- #
def _drift_spec(node_count: int, epochs: int):
    from repro.scenarios.catalogue import get_scenario

    return get_scenario("random-waypoint-drift").scaled(
        node_count=node_count, epochs=epochs
    )


def _reference_factory() -> Callable[[], Any]:
    """The pinned reference: one full pipeline build at the paper's n=100."""
    from repro.core.pipeline import build_topology

    spec = _drift_spec(100, 1)
    network = spec.build_network(seed=0)
    return lambda: build_topology(network, spec.alpha)


def _full_build_factory(node_count: int) -> CellFactory:
    def factory() -> Callable[[], Any]:
        from repro.core.pipeline import build_topology

        spec = _drift_spec(node_count, 1)
        network = spec.build_network(seed=0)
        return lambda: build_topology(network, spec.alpha)

    return factory


def _epochs_factory(node_count: int, epochs: int) -> CellFactory:
    def factory() -> Callable[[], Any]:
        from repro.scenarios.runner import ScenarioRunner

        runner = ScenarioRunner(_drift_spec(node_count, epochs), 0)
        runner.prime()
        return runner.run

    return factory


def _engine_factory(worlds: int, requests: int, *, naive: bool) -> CellFactory:
    def factory() -> Callable[[], Any]:
        from repro.service.loadgen import LoadConfig, build_trace, flatten_trace
        from repro.service.replay import ShardedReplayer

        config = LoadConfig(
            worlds=worlds,
            requests_per_world=requests,
            nodes=60,
            mover_fraction=0.05,
            write_fraction=0.05,
            seed=0,
        )
        traces = build_trace(config)
        creates = [trace[0] for trace in traces]
        workload = flatten_trace([trace[1:] for trace in traces])
        replayer = ShardedReplayer(4, naive=naive)
        replayer.execute(creates, schedule_seed=0)

        def run() -> Any:
            try:
                return replayer.execute(workload, schedule_seed=1)
            finally:
                replayer.close()

        return run

    return factory


def _migrate_factory(worlds: int, requests: int) -> CellFactory:
    """Live-resize cost: drain, serialize, and adopt every moved world.

    The timed thunk performs a grow (4 -> 8 shards) followed by a shrink
    (8 -> 2), so the ratio tracks the full migrate_out/migrate_in path —
    world serialization, durable-history handoff, and ring recomputation —
    against populated hosts.
    """

    def factory() -> Callable[[], Any]:
        from repro.service.loadgen import LoadConfig, build_trace, flatten_trace
        from repro.service.replay import ShardedReplayer

        config = LoadConfig(
            worlds=worlds,
            requests_per_world=requests,
            nodes=60,
            mover_fraction=0.05,
            write_fraction=0.05,
            seed=0,
        )
        replayer = ShardedReplayer(4)
        replayer.execute(flatten_trace(build_trace(config)), schedule_seed=0)

        def run() -> Any:
            try:
                replayer.resize(8)
                return replayer.resize(2)
            finally:
                replayer.close()

        return run

    return factory


def _subs_factory(worlds: int, requests: int, *, subscribers: int) -> CellFactory:
    """Diff-push overhead at fleet scale: the roadmap's 256-world cell.

    The timed thunk replays the steady-state workload with a subscriber
    population attached — every write to a tracked world computes and
    retains a structural diff, and the mirror-collection sweep drains the
    rings exactly as the front end does — so the ratio tracks the full
    epoch-commit → diff → push pipeline against the plain serving path.
    """

    def factory() -> Callable[[], Any]:
        from repro.service.loadgen import LoadConfig, build_trace, flatten_trace, world_name
        from repro.service.replay import ShardedReplayer

        config = LoadConfig(
            worlds=worlds,
            requests_per_world=requests,
            nodes=60,
            mover_fraction=0.05,
            write_fraction=0.3,
            seed=0,
        )
        traces = build_trace(config)
        creates = [trace[0] for trace in traces]
        workload = flatten_trace([trace[1:] for trace in traces])
        replayer = ShardedReplayer(4)
        replayer.execute(creates, schedule_seed=0)
        for index in range(subscribers):
            replayer.attach_mirror(world_name(index))

        def run() -> Any:
            try:
                routed = replayer.execute(workload, schedule_seed=1)
                replayer.collect_all_frames()
                return routed
            finally:
                replayer.close()

        return run

    return factory


def _wal_factory(worlds: int, requests: int) -> CellFactory:
    """Durable write-heavy mix: every write group-commits through sqlite.

    ROADMAP item 5's trajectory cell — a WAL regression (fsync cadence,
    record encoding, checkpoint pressure) shows up in ``cbtc bench diff``
    here rather than only in the dedicated durability benchmarks.
    """

    def factory() -> Callable[[], Any]:
        import shutil
        import tempfile

        from repro.service.loadgen import LoadConfig, build_trace, flatten_trace
        from repro.service.replay import ShardedReplayer
        from repro.service.storage import SqliteStore, shard_db_path

        config = LoadConfig(
            worlds=worlds,
            requests_per_world=requests,
            nodes=60,
            mover_fraction=0.05,
            write_fraction=0.6,
            seed=0,
        )
        traces = build_trace(config)
        creates = [trace[0] for trace in traces]
        workload = flatten_trace([trace[1:] for trace in traces])
        state_dir = tempfile.mkdtemp(prefix="bench-wal-")
        replayer = ShardedReplayer(
            4, store_factory=lambda shard: SqliteStore(shard_db_path(state_dir, shard))
        )
        replayer.execute(creates, schedule_seed=0)

        def run() -> Any:
            try:
                return replayer.execute(workload, schedule_seed=1)
            finally:
                replayer.close()
                shutil.rmtree(state_dir, ignore_errors=True)

        return run

    return factory


#: area -> ordered (cell name, factory) pairs.
_AREAS: Dict[str, Tuple[Tuple[str, CellFactory], ...]] = {
    "topology": (
        ("full-build-250", _full_build_factory(250)),
        # Named for the incremental splice the epochs once used; the name
        # stays so the committed trajectory still compares.
        ("incremental-epochs-150x4", _epochs_factory(150, 4)),
    ),
    "service": (
        ("engine-cached-8x12", _engine_factory(8, 12, naive=False)),
        ("engine-naive-4x6", _engine_factory(4, 6, naive=True)),
        ("migrate-grow-shrink-12x8", _migrate_factory(12, 8)),
        ("subs-diff-push-256x3", _subs_factory(256, 3, subscribers=64)),
        ("wal-write-heavy-8x24", _wal_factory(8, 24)),
    ),
}


def area_names() -> List[str]:
    """All benchmark areas, sorted."""
    return sorted(_AREAS)


def bench_path(area: str) -> str:
    """The conventional committed-report filename for ``area``."""
    return f"BENCH_{area}.json"


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
def _time_cell(factory: CellFactory, repeats: int) -> float:
    """Min-of-repeats wall seconds; fresh state per repeat, setup untimed."""
    best = None
    for _ in range(repeats):
        thunk = factory()
        started = clock.wall()
        thunk()
        elapsed = clock.wall() - started
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best


def run_area(area: str, *, repeats: int = 3) -> Dict[str, Any]:
    """Measure every cell in ``area`` and return a normalized report."""
    try:
        cells = _AREAS[area]
    except KeyError:
        known = ", ".join(area_names())
        raise KeyError(f"unknown bench area {area!r}; known areas: {known}") from None
    if repeats < 1:
        raise ValueError("repeats must be positive")
    reference_seconds = _time_cell(_reference_factory, repeats)
    report_cells: Dict[str, Any] = {}
    for name, factory in cells:
        seconds = _time_cell(factory, repeats)
        report_cells[name] = {
            "ratio": round(seconds / reference_seconds, 4),
            "seconds_hint": round(seconds, 6),
        }
    return {
        "version": BENCH_VERSION,
        "area": area,
        "reference_cell": REFERENCE_CELL,
        "reference_seconds_hint": round(reference_seconds, 6),
        "repeats": repeats,
        "cells": report_cells,
    }


# ---------------------------------------------------------------------- #
# Comparison
# ---------------------------------------------------------------------- #
def diff_reports(
    baseline: Dict[str, Any], current: Dict[str, Any], *, tolerance: float
) -> List[Dict[str, Any]]:
    """Regressions of ``current`` against ``baseline``.

    A cell regresses when its ratio grows past ``baseline * (1 + tolerance)``
    or when it vanished from the current report.  New cells (present only in
    ``current``) are not failures — they are trajectory growth.  Only ratios
    are compared; ``seconds_hint`` values are machine-specific.
    """

    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    regressions: List[Dict[str, Any]] = []
    baseline_cells = baseline.get("cells", {})
    current_cells = current.get("cells", {})
    for name in sorted(baseline_cells):
        old = baseline_cells[name].get("ratio")
        entry = current_cells.get(name)
        if entry is None:
            regressions.append(
                {"cell": name, "kind": "missing", "baseline_ratio": old}
            )
            continue
        new = entry.get("ratio")
        limit = old * (1.0 + tolerance)
        if new > limit:
            regressions.append(
                {
                    "cell": name,
                    "kind": "slower",
                    "baseline_ratio": old,
                    "current_ratio": new,
                    "limit": round(limit, 4),
                }
            )
    return regressions


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of one area report."""
    lines = [
        f"area: {report['area']}  (reference: {report['reference_cell']}, "
        f"{report['reference_seconds_hint']:.4f}s on this machine, "
        f"min of {report['repeats']} repeats)"
    ]
    for name, entry in sorted(report.get("cells", {}).items()):
        lines.append(
            f"  {name:<28} ratio {entry['ratio']:>8.3f}   "
            f"({entry['seconds_hint']:.4f}s here)"
        )
    return "\n".join(lines)


def format_regressions(regressions: List[Dict[str, Any]]) -> str:
    """Human-readable rendering of a regression list."""
    lines = []
    for item in regressions:
        if item["kind"] == "missing":
            lines.append(
                f"  {item['cell']}: present in baseline "
                f"(ratio {item['baseline_ratio']}) but missing from this run"
            )
        else:
            lines.append(
                f"  {item['cell']}: ratio {item['current_ratio']} exceeds "
                f"baseline {item['baseline_ratio']} + tolerance "
                f"(limit {item['limit']})"
            )
    return "\n".join(lines)

"""Command-line interface.

``python -m repro.cli <command>`` (or the installed ``cbtc`` script) exposes
the experiment harnesses:

* ``table1`` — regenerate the paper's Table 1 (use ``--networks`` to trade
  accuracy for speed);
* ``figure6`` — regenerate the eight Figure 6 panels as summary rows and,
  with ``--ascii``, ASCII renderings;
* ``alpha-sweep`` — degree/radius/connectivity as a function of alpha;
* ``counterexample`` — verify the Figure 2 and Figure 5 constructions;
* ``reconfig`` — the Section 4 mobility/failure experiment;
* ``scenarios list|run|report`` — the scenario catalogue and the parallel
  scenario × seed experiment runner (results persisted as JSON, cached
  across re-runs);
* ``traffic run|report`` — packet-level traffic workloads (CBR / hotspot /
  uniform / burst) over CBTC and baseline topologies, with optional SINR
  interference and finite batteries;
* ``serve`` — the topology-as-a-service fleet server (asyncio front end,
  consistent-hash sharding over worker processes, batched dispatch,
  snapshot caching);
* ``load`` — the closed-loop load generator, with byte-identity
  verification of the served world snapshots against a serial in-process
  replay (``--verify``);
* ``lint`` — the ``detlint`` static determinism/concurrency contract
  checker (AST rules, ``# detlint: ignore[rule-id]`` suppressions,
  committed-baseline diffing, human or canonical-JSON output);
* ``watch`` — subscribe to a world on a running fleet server and print its
  epoch-commit diff frames live (``--verify`` requires the reconstructed
  snapshot to be byte-identical to a fresh fetch);
* ``metrics`` — fetch a running fleet server's merged metrics registry
  (per-shard counters, cache hit rates, canonical histogram percentiles);
* ``bench run|diff`` — the committed benchmark trajectory: reference-
  normalized perf cells written as ``BENCH_<area>.json``, with ``diff``
  failing when a ratio regresses past tolerance.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from repro.core import (
    asymmetry_example,
    disconnection_example,
    preserves_connectivity,
    run_cbtc,
    symmetric_closure_graph,
)
from repro.experiments import (
    run_alpha_sweep,
    run_figure6,
    run_reconfiguration_experiment,
    run_table1,
)
from repro.experiments.runner import format_report, run_grid, summarize_grid
from repro.io.results import write_json
from repro.net.placement import PAPER_CONFIG, PlacementConfig
from repro.scenarios import get_scenario, scenario_names
from repro.service.loadgen import LoadConfig, resnapshot, run_load, verify_snapshots
from repro.service.client import DEFAULT_DEADLINE, DEFAULT_TIMEOUT
from repro.service.server import DEFAULT_MAX_INFLIGHT, DEFAULT_MAX_PENDING, run_server
from repro.service.worlds import DEFAULT_SCENARIO, DEFAULT_SNAPSHOT_EVERY
from repro.traffic import (
    TOPOLOGIES,
    TrafficSpec,
    WORKLOAD_KINDS,
    aggregate_results,
    compare_topologies,
    format_traffic_report,
    summarize_traffic,
)
from repro.traffic.spec import ROUTING_POLICIES
from repro.viz import ascii_topology


def _table1(args: argparse.Namespace) -> int:
    result = run_table1(network_count=args.networks, base_seed=args.seed)
    print(f"Table 1 ({result.network_count} random networks, {result.node_count} nodes each)")
    print(result.as_table())
    return 0


def _figure6(args: argparse.Namespace) -> int:
    result = run_figure6(seed=args.seed)
    print(f"Figure 6 (seed {result.seed})")
    print(result.summary_table())
    if args.ascii:
        for name in sorted(result.panels):
            panel = result.panels[name]
            print()
            print(f"--- panel ({name}): {panel.description} ---")
            print(ascii_topology(panel.graph, result.network, width=args.width, height=args.height))
    return 0


def _alpha_sweep(args: argparse.Namespace) -> int:
    points = run_alpha_sweep(network_count=args.networks, base_seed=args.seed)
    header = f"{'alpha/pi':>9}{'avg degree':>12}{'avg radius':>12}{'connected':>11}{'boundary %':>12}"
    print(header)
    print("-" * len(header))
    for point in points:
        print(
            f"{point.alpha / math.pi:>9.3f}{point.average_degree:>12.2f}{point.average_radius:>12.1f}"
            f"{point.connectivity_preserved_fraction:>11.2f}{100 * point.boundary_node_fraction:>11.1f}%"
        )
    return 0


def _counterexample(args: argparse.Namespace) -> int:
    example = asymmetry_example()
    outcome = run_cbtc(example.network, example.alpha)
    asymmetric = (
        example.u0 in outcome.state(example.v).neighbors
        and example.v not in outcome.state(example.u0).neighbors
    )
    print(f"Figure 2 (asymmetry, alpha = {example.alpha / math.pi:.3f}*pi): "
          f"N_alpha asymmetric = {asymmetric}")

    broken = disconnection_example()
    outcome = run_cbtc(broken.network, broken.alpha)
    reference = broken.network.max_power_graph()
    controlled = symmetric_closure_graph(outcome, broken.network)
    print(
        f"Figure 5 (alpha = 5*pi/6 + {broken.epsilon / math.pi:.4f}*pi): "
        f"G_R connected = {reference.number_of_edges() > 0 and preserves_connectivity(reference, reference)}, "
        f"G_alpha preserves connectivity = {preserves_connectivity(reference, controlled)}"
    )
    return 0


def _reconfig(args: argparse.Namespace) -> int:
    config = PlacementConfig(
        width=PAPER_CONFIG.width,
        height=PAPER_CONFIG.height,
        node_count=args.nodes,
        max_range=PAPER_CONFIG.max_range,
    )
    result = run_reconfiguration_experiment(epochs=args.epochs, seed=args.seed, config=config)
    print(f"Reconfiguration experiment (alpha = {result.alpha / math.pi:.3f}*pi)")
    header = f"{'epoch':>6}{'crashed':>9}{'events':>8}{'reruns':>8}{'connected':>11}{'avg degree':>12}"
    print(header)
    print("-" * len(header))
    for epoch in result.epochs:
        print(
            f"{epoch.epoch:>6}{epoch.crashed_nodes:>9}{epoch.events_applied:>8}{epoch.reruns:>8}"
            f"{str(epoch.connectivity_preserved):>11}{epoch.average_degree:>12.2f}"
        )
    return 0


def _scenarios_list(args: argparse.Namespace) -> int:
    header = f"{'name':<24}{'nodes':>7}{'epochs':>8}{'protocol':>17}  description"
    print(header)
    print("-" * len(header))
    for name in scenario_names():
        spec = get_scenario(name)
        print(
            f"{spec.name:<24}{spec.placement.node_count:>7}{spec.epochs:>8}"
            f"{spec.protocol:>17}  {spec.description}"
        )
    return 0


def _scenarios_run(args: argparse.Namespace) -> int:
    if args.workers <= 0:
        print(
            f"--workers must be at least 1 (got {args.workers}); "
            f"use --workers 1 for a serial run",
            file=sys.stderr,
        )
        return 1
    names = scenario_names() if args.all else args.scenario
    if not names:
        print("no scenario selected: pass --scenario NAME (repeatable) or --all", file=sys.stderr)
        return 2
    specs = []
    for name in names:
        try:
            spec = get_scenario(name)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 1
        if args.nodes is not None or args.epochs is not None:
            spec = spec.scaled(node_count=args.nodes, epochs=args.epochs)
        specs.append(spec)
    try:
        summary = run_grid(
            specs,
            seeds=args.seeds,
            workers=args.workers,
            results_dir=args.results_dir,
            base_seed=args.base_seed,
            resume=not args.no_resume,
            profile=args.profile,
        )
    except ValueError as error:
        # Bad grid parameters (--seeds 0) or a results-dir spec conflict.
        print(error, file=sys.stderr)
        return 2
    print(
        f"grid: {summary.tasks} tasks ({len(specs)} scenarios x {args.seeds} seeds), "
        f"{summary.computed} computed, {summary.cached} cached -> {summary.results_dir}"
    )
    print(format_report(summarize_grid(args.results_dir)))
    return 0


def _scenarios_report(args: argparse.Namespace) -> int:
    aggregates = summarize_grid(args.results_dir)
    if not aggregates:
        print(
            f"no scenario results found under {args.results_dir!r}; "
            f"run 'cbtc scenarios run' first (or pass the right --results-dir)",
            file=sys.stderr,
        )
        return 1
    print(format_report(aggregates))
    return 0


def _traffic_run(args: argparse.Namespace) -> int:
    try:
        spec = TrafficSpec(
            kind=args.workload,
            flow_count=args.flows,
            packets_per_flow=args.packets,
            packet_interval=args.interval,
            routing=args.routing,
            queue_capacity=args.queue,
            retransmit_limit=args.retransmit,
            battery_capacity=args.battery if args.battery is not None else float("inf"),
            interference=args.interference,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    topologies = args.topology or ["cbtc-opt", "max-power", "mst"]
    results = compare_topologies(
        spec,
        topologies=topologies,
        node_count=args.nodes,
        alpha=args.alpha_pi * math.pi,
        seeds=args.seeds,
        base_seed=args.base_seed,
        results_dir=args.results_dir,
    )
    print(
        f"traffic: {len(results)} runs ({len(topologies)} topologies x {args.seeds} seeds, "
        f"workload={spec.kind}, n={args.nodes}, alpha={args.alpha_pi:.3f}*pi) "
        f"-> {args.results_dir}"
    )
    # Report only this invocation's cells; 'traffic report' is the explicit
    # whole-directory view (stale differently-parameterized files must not
    # blend into the table we just announced).
    print(format_traffic_report(aggregate_results(results)))
    return 0


def _traffic_report(args: argparse.Namespace) -> int:
    aggregates = summarize_traffic(args.results_dir)
    if not aggregates:
        print(
            f"no traffic results found under {args.results_dir!r}; "
            f"run 'cbtc traffic run' first (or pass the right --results-dir)",
            file=sys.stderr,
        )
        return 1
    print(format_traffic_report(aggregates))
    return 0


def _serve(args: argparse.Namespace) -> int:
    if args.shards <= 0:
        print(f"--shards must be at least 1 (got {args.shards})", file=sys.stderr)
        return 1
    if args.snapshot_every < 1:
        print(f"--snapshot-every must be at least 1 (got {args.snapshot_every})", file=sys.stderr)
        return 1
    if args.max_live_worlds is not None and args.state_dir is None:
        print("--max-live-worlds needs --state-dir to evict into", file=sys.stderr)
        return 1
    if args.max_pending < 1:
        print(f"--max-pending must be at least 1 (got {args.max_pending})", file=sys.stderr)
        return 1
    if args.max_inflight < 1:
        print(f"--max-inflight must be at least 1 (got {args.max_inflight})", file=sys.stderr)
        return 1
    if args.faults is not None:
        # Validate the plan before binding anything: a typo in a fault rule
        # should fail the command, not a server already holding the port.
        from repro.service.faults import FaultPlan

        try:
            FaultPlan.load(args.faults)
        except (OSError, ValueError) as error:
            print(f"cannot load fault plan {args.faults!r}: {error}", file=sys.stderr)
            return 1
    try:
        return run_server(
            host=args.host,
            port=args.port,
            shards=args.shards,
            inline=args.inline,
            naive=args.naive,
            state_dir=args.state_dir,
            snapshot_every=args.snapshot_every,
            max_live_worlds=args.max_live_worlds,
            faults_path=args.faults,
            max_pending=args.max_pending,
            max_inflight=args.max_inflight,
        )
    except OSError as error:
        print(
            f"cannot listen on {args.host}:{args.port}: {error}; is another "
            f"'cbtc serve' already running there?",
            file=sys.stderr,
        )
        return 1


def _shutdown_server(host: str, port: int) -> None:
    """Ask a running fleet server to shut down cleanly."""
    import asyncio

    from repro.service.client import ServiceClient

    async def _shutdown() -> None:
        async with await ServiceClient.connect(host, port) as client:
            await client.call("shutdown")

    asyncio.run(_shutdown())


def _load(args: argparse.Namespace) -> int:
    try:
        config = LoadConfig(
            worlds=args.worlds,
            requests_per_world=args.requests,
            seed=args.seed,
            scenario=args.scenario,
            nodes=args.nodes,
            mover_fraction=args.mover_fraction,
            write_fraction=args.write_fraction,
            connections=args.connections,
            subscribers=args.subscribers,
            request_timeout=args.timeout,
            deadline=args.deadline,
            max_attempts=args.max_attempts,
            retry=not args.no_retry,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    from repro.service.client import ServiceError

    if args.resnapshot:
        # No load: just re-fetch every world's final snapshot (the durability
        # smoke runs this against a restarted --state-dir server) and verify.
        try:
            snapshots = resnapshot(args.host, args.port, config)
        except ServiceError as error:
            print(error, file=sys.stderr)
            return 1
        except (ConnectionError, OSError) as error:
            print(
                f"cannot drive {args.host}:{args.port}: {error}; is 'cbtc serve' running?",
                file=sys.stderr,
            )
            return 1
        mismatched = verify_snapshots(config, snapshots)
        if mismatched:
            print(
                f"re-snapshot verification FAILED: {len(mismatched)} world(s) diverged "
                f"from the serial replay: {', '.join(mismatched)}",
                file=sys.stderr,
            )
            return 1
        print(
            f"re-snapshot verification passed: {config.worlds} worlds byte-identical "
            f"to serial replay"
        )
        if args.shutdown:
            _shutdown_server(args.host, args.port)
        return 0

    try:
        report, snapshots = run_load(args.host, args.port, config)
    except ServiceError as error:
        print(error, file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(
            f"cannot drive {args.host}:{args.port}: {error}; is 'cbtc serve' running?",
            file=sys.stderr,
        )
        return 1
    if args.shutdown:
        _shutdown_server(args.host, args.port)
    print(report.as_text())
    if args.json:
        write_json(report, args.json)
        print(f"report written to {args.json}")
    if args.verify:
        mismatched = verify_snapshots(config, snapshots)
        if mismatched:
            print(
                f"snapshot verification FAILED: {len(mismatched)} world(s) diverged from "
                f"the serial replay: {', '.join(mismatched)}",
                file=sys.stderr,
            )
            return 1
        print(f"snapshot verification passed: {report.worlds} worlds byte-identical to serial replay")
    return 0


def _resize(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import protocol
    from repro.service.client import ServiceClient, ServiceError

    if args.shards < 1:
        print(f"--shards must be at least 1 (got {args.shards})", file=sys.stderr)
        return 1

    async def _request() -> dict:
        async with await ServiceClient.connect(args.host, args.port) as client:
            # A resize migrating many worlds takes longer than an ordinary
            # request; give it a generous response window.
            return await client.call(
                protocol.RESIZE, params={"shards": args.shards}, timeout=300.0
            )

    try:
        result = asyncio.run(_request())
    except ServiceError as error:
        print(f"resize failed: {error}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(
            f"cannot reach {args.host}:{args.port}: {error}; is 'cbtc serve' running?",
            file=sys.stderr,
        )
        return 1
    print(
        f"resized to {result['shards']} shard(s): {result['moved']} world(s) migrated, "
        f"{result['parked']} request(s) parked and replayed"
    )
    return 0


def _diff_frame_summary(diff: dict) -> str:
    """One human line for a diff frame's section sizes."""
    parts = []
    fields = diff.get("fields", {})
    removed_fields = diff.get("fields_removed", [])
    if fields or removed_fields:
        parts.append(f"fields ~{len(fields)} -{len(removed_fields)}")
    for section in ("nodes", "topo_nodes", "edges"):
        delta = diff.get(section)
        if not delta:
            continue
        parts.append(
            f"{section} +{len(delta.get('added', []))}"
            f" -{len(delta.get('removed', []))}"
            f" ~{len(delta.get('changed', []))}"
        )
    return ", ".join(parts) if parts else "(empty)"


def _watch(args: argparse.Namespace) -> int:
    import asyncio

    from repro.io.results import canonical_json
    from repro.service import protocol
    from repro.service.client import ServiceClient, ServiceError, ServiceTimeout

    async def _run() -> int:
        try:
            client = await ServiceClient.connect(args.host, args.port, timeout=args.timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            print(
                f"cannot reach {args.host}:{args.port}: {error}; is 'cbtc serve' running?",
                file=sys.stderr,
            )
            return 1
        async with client:
            try:
                await client.subscribe(args.world)
            except ServiceError as error:
                print(f"cannot subscribe to {args.world!r}: {error}", file=sys.stderr)
                return 1
            mirror = client.mirrors[args.world]
            nodes = len((mirror.snapshot or {}).get("nodes", []))
            print(
                f"subscribed to {args.world!r} at seq {mirror.seq} ({nodes} nodes)",
                flush=True,
            )
            seen = 0

            def on_frame(frame: dict) -> None:
                nonlocal seen
                seen += 1
                if args.json:
                    print(canonical_json(frame), flush=True)
                    return
                kind = frame.get("kind")
                if kind == protocol.FRAME_DIFF:
                    print(
                        f"seq {frame['seq']} diff: "
                        f"{_diff_frame_summary(frame.get('data', {}))}",
                        flush=True,
                    )
                elif kind == protocol.FRAME_SNAPSHOT:
                    print(f"seq {frame['seq']} snapshot (resync)", flush=True)
                else:
                    print(f"seq {frame['seq']} deleted", flush=True)

            client.on_frame = on_frame
            while not mirror.deleted and (args.frames is None or seen < args.frames):
                try:
                    await client.wait_for(args.world, timeout=args.timeout)
                except ServiceTimeout:
                    pass  # no frames yet; keep watching
                except ConnectionError:
                    print("connection lost", file=sys.stderr)
                    return 1
                if client.stale:
                    # A sequence gap (e.g. racing collects around a resize
                    # outran the ring): resume from the mirror's cursor.
                    await client.heal()
            if args.verify and not mirror.deleted:
                # The fresh fetch can be ahead of the mirror while frames
                # are still in flight; give the stream a few rounds to
                # converge before declaring divergence.
                verified = False
                for _ in range(10):
                    fresh = await client.call(protocol.SNAPSHOT, world=args.world)
                    if canonical_json(mirror.snapshot) == canonical_json(fresh):
                        verified = True
                        break
                    try:
                        await client.wait_for(args.world, timeout=2.0)
                    except ServiceTimeout:
                        pass
                    if client.stale:
                        await client.heal()
                if not verified:
                    print(
                        f"verify FAILED: reconstructed snapshot of {args.world!r} "
                        f"diverged from a fresh fetch",
                        file=sys.stderr,
                    )
                    return 1
                print(
                    f"verify: reconstructed snapshot byte-identical at seq {mirror.seq}"
                )
            print(
                f"watched {seen} frame(s) of {args.world!r} "
                f"(resyncs={mirror.resyncs}, gaps={client.gaps})"
            )
            return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 130


def _metrics(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import protocol
    from repro.service.client import ServiceClient, ServiceError

    async def _fetch() -> dict:
        async with await ServiceClient.connect(args.host, args.port) as client:
            return await client.call(protocol.METRICS)

    try:
        payload = asyncio.run(_fetch())
    except ServiceError as error:
        print(error, file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(
            f"cannot reach {args.host}:{args.port}: {error}; is 'cbtc serve' running?",
            file=sys.stderr,
        )
        return 1
    if args.json:
        from repro.io.results import canonical_json

        print(canonical_json(payload))
        return 0
    print(_render_metrics(payload))
    return 0


def _render_metrics(payload: dict) -> str:
    """The human-readable ``cbtc metrics`` report.

    Tolerates a completely empty registry (a server that has answered no
    requests yet): every section renders with whatever is present, and a
    payload with no samples at all says so instead of printing nothing.
    """
    merged = payload.get("merged", {})
    shard_count = len(payload.get("shards", []))
    lines = [f"fleet metrics ({shard_count} shard(s) + front end, merged)"]
    counters = merged.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<36} {value:>12g}")
    gauges = merged.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<36} {value:>12g}")
    histograms = merged.get("histograms", {})
    if histograms:
        lines.append("histograms (count / mean / p50 / p95 / p99):")
        for name, summary in sorted(histograms.items()):
            cells = [summary.get(k) for k in ("mean", "p50", "p95", "p99")]
            rendered = "  ".join(
                "-" if cell is None else f"{cell:.6g}" for cell in cells
            )
            lines.append(f"  {name:<36} {summary.get('count', 0):>8}  {rendered}")
    if not (counters or gauges or histograms):
        lines.append("  (no samples recorded yet)")
    return "\n".join(lines)


def _bench_run(args: argparse.Namespace) -> int:
    from repro.obs import bench

    areas = args.area or bench.area_names()
    for area in areas:
        try:
            report = bench.run_area(area, repeats=args.repeats)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 1
        print(bench.format_report(report))
        out = args.out or bench.bench_path(area)
        if len(areas) > 1 and args.out:
            print("--out is only valid with a single --area", file=sys.stderr)
            return 1
        write_json(report, out)
        print(f"report written to {out}")
    return 0


def _bench_diff(args: argparse.Namespace) -> int:
    from repro.io.results import read_json
    from repro.obs import bench

    areas = args.area or bench.area_names()
    failed = False
    for area in areas:
        baseline_path = args.baseline or bench.bench_path(area)
        if len(areas) > 1 and args.baseline:
            print("--baseline is only valid with a single --area", file=sys.stderr)
            return 2
        try:
            baseline = read_json(baseline_path)
        except (OSError, ValueError) as error:
            print(f"cannot read baseline {baseline_path}: {error}", file=sys.stderr)
            return 2
        report = bench.run_area(area, repeats=args.repeats)
        print(bench.format_report(report))
        if args.report:
            stem = args.report[:-5] if args.report.endswith(".json") else args.report
            out = args.report if len(areas) == 1 else f"{stem}.{area}.json"
            write_json(report, out)
            print(f"report written to {out}")
        regressions = bench.diff_reports(baseline, report, tolerance=args.tolerance)
        if regressions:
            failed = True
            print(
                f"bench regression in area {area!r} "
                f"(tolerance {args.tolerance:g}):",
                file=sys.stderr,
            )
            print(bench.format_regressions(regressions), file=sys.stderr)
        else:
            print(
                f"area {area!r}: within tolerance {args.tolerance:g} "
                f"of {baseline_path}"
            )
    return 1 if failed else 0


def _lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import lint_command

    return lint_command(
        args.paths,
        json_output=args.json,
        baseline_path=args.baseline,
        no_baseline=args.no_baseline,
        update_baseline=args.update_baseline,
        rules=args.rules,
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="cbtc", description="CBTC topology-control reproduction")
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--networks", type=int, default=20, help="number of random networks to average over")
    table1.add_argument("--seed", type=int, default=0)
    table1.set_defaults(func=_table1)

    figure6 = subparsers.add_parser("figure6", help="regenerate the Figure 6 panels")
    figure6.add_argument("--seed", type=int, default=42)
    figure6.add_argument("--ascii", action="store_true", help="print ASCII renderings of each panel")
    figure6.add_argument("--width", type=int, default=72)
    figure6.add_argument("--height", type=int, default=28)
    figure6.set_defaults(func=_figure6)

    sweep = subparsers.add_parser("alpha-sweep", help="sweep the cone angle alpha")
    sweep.add_argument("--networks", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=_alpha_sweep)

    counter = subparsers.add_parser("counterexample", help="verify the Figure 2 and Figure 5 constructions")
    counter.set_defaults(func=_counterexample)

    reconfig = subparsers.add_parser("reconfig", help="run the mobility/failure reconfiguration experiment")
    reconfig.add_argument("--epochs", type=int, default=5)
    reconfig.add_argument("--nodes", type=int, default=60)
    reconfig.add_argument("--seed", type=int, default=0)
    reconfig.set_defaults(func=_reconfig)

    scenarios = subparsers.add_parser("scenarios", help="scenario catalogue and experiment runner")
    scenario_commands = scenarios.add_subparsers(dest="scenario_command", required=True)

    listing = scenario_commands.add_parser("list", help="list the scenario catalogue")
    listing.set_defaults(func=_scenarios_list)

    run = scenario_commands.add_parser("run", help="run a scenario x seed grid (parallel, cached)")
    run.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="NAME",
        help="scenario to run (repeatable; see 'scenarios list')",
    )
    run.add_argument("--all", action="store_true", help="run every catalogue scenario")
    run.add_argument("--seeds", type=int, default=4, help="seeds per scenario")
    run.add_argument("--workers", type=int, default=1, help="worker processes (<=1 runs serially)")
    run.add_argument("--results-dir", default="results", help="directory for persisted JSON results")
    run.add_argument("--base-seed", type=int, default=0)
    run.add_argument("--nodes", type=int, default=None, help="override every scenario's node count")
    run.add_argument("--epochs", type=int, default=None, help="override every scenario's epoch count")
    run.add_argument("--no-resume", action="store_true", help="recompute even if results are cached")
    run.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase (churn/mobility/rebuild/traffic/measure) wall-clock "
        "timings into each epoch of the result JSON (implies recompute)",
    )
    run.set_defaults(func=_scenarios_run)

    report = scenario_commands.add_parser("report", help="aggregate a results directory")
    report.add_argument("--results-dir", default="results")
    report.set_defaults(func=_scenarios_report)

    traffic = subparsers.add_parser("traffic", help="packet-level traffic over constructed topologies")
    traffic_commands = traffic.add_subparsers(dest="traffic_command", required=True)

    traffic_run = traffic_commands.add_parser(
        "run", help="run one workload over CBTC and baseline topologies"
    )
    traffic_run.add_argument("--workload", choices=WORKLOAD_KINDS, default="cbr")
    traffic_run.add_argument(
        "--topology",
        action="append",
        default=[],
        choices=list(TOPOLOGIES),
        help="topology to cross (repeatable; default: cbtc-opt, max-power, mst)",
    )
    traffic_run.add_argument("--nodes", type=int, default=200)
    traffic_run.add_argument(
        "--alpha-pi", type=float, default=5.0 / 6.0, help="cone angle as a multiple of pi"
    )
    traffic_run.add_argument("--flows", type=int, default=10)
    traffic_run.add_argument("--packets", type=int, default=10, help="packets per flow")
    traffic_run.add_argument("--interval", type=float, default=4.0, help="packet interval")
    traffic_run.add_argument("--routing", choices=ROUTING_POLICIES, default="min-power")
    traffic_run.add_argument("--queue", type=int, default=16, help="per-node queue capacity")
    traffic_run.add_argument("--retransmit", type=int, default=3, help="retransmission cap")
    traffic_run.add_argument(
        "--battery", type=float, default=None, help="finite per-node energy budget"
    )
    traffic_run.add_argument(
        "--interference", action="store_true", help="run over the SINR interference medium"
    )
    traffic_run.add_argument("--seeds", type=int, default=1, help="seeds per topology")
    traffic_run.add_argument("--base-seed", type=int, default=0)
    traffic_run.add_argument("--results-dir", default="traffic-results")
    traffic_run.set_defaults(func=_traffic_run)

    traffic_report = traffic_commands.add_parser("report", help="aggregate a traffic results directory")
    traffic_report.add_argument("--results-dir", default="traffic-results")
    traffic_report.set_defaults(func=_traffic_report)

    serve = subparsers.add_parser(
        "serve", help="run the topology-as-a-service fleet server until shutdown"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421, help="TCP port (0 picks a free one)")
    serve.add_argument("--shards", type=int, default=2, help="worker shards (consistent-hashed)")
    serve.add_argument(
        "--inline",
        action="store_true",
        help="execute shards in-process instead of worker processes",
    )
    serve.add_argument(
        "--naive",
        action="store_true",
        help="serve without the read cache and rebuild topology per request "
        "(the benchmark baseline)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable state directory (one sqlite write-ahead log per shard); "
        "worlds survive worker deaths and server restarts",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=DEFAULT_SNAPSHOT_EVERY,
        metavar="K",
        help="checkpoint a world after every K applied writes (with --state-dir)",
    )
    serve.add_argument(
        "--max-live-worlds",
        type=int,
        default=None,
        metavar="N",
        help="per-shard bound on resident worlds; cold worlds are evicted to "
        "the state directory and rehydrated on access (needs --state-dir)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="install a deterministic fault-injection plan (worker kills, shard "
        "freezes, response drop/delay/duplication, connection refusal)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=DEFAULT_MAX_PENDING,
        metavar="N",
        help="per-shard queue bound; beyond it requests are shed with a "
        "structured RETRY_LATER error carrying a backoff hint",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        metavar="N",
        help="per-connection in-flight request cap for pipelining clients "
        "(beyond it the server stops reading the connection)",
    )
    serve.set_defaults(func=_serve)

    load = subparsers.add_parser(
        "load", help="drive the closed-loop load generator against a fleet server"
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=7421)
    load.add_argument("--worlds", type=int, default=8, help="worlds to create and exercise")
    load.add_argument("--requests", type=int, default=10, help="requests per world (plus create/snapshot)")
    load.add_argument("--connections", type=int, default=4, help="concurrent closed-loop connections")
    load.add_argument(
        "--subscribers",
        type=int,
        default=0,
        metavar="N",
        help="watch the first N worlds with live diff-push subscribers "
        "(mirrors verified byte-identical at the end of the run)",
    )
    load.add_argument("--seed", type=int, default=0, help="trace seed (the whole trace is deterministic)")
    load.add_argument("--scenario", default=DEFAULT_SCENARIO, help="catalogue scenario bootstrapping each world")
    load.add_argument("--nodes", type=int, default=80, help="node population per world")
    load.add_argument(
        "--mover-fraction", type=float, default=0.1, help="fraction of nodes that move per world"
    )
    load.add_argument(
        "--write-fraction", type=float, default=0.5, help="fraction of requests that are writes"
    )
    load.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT,
        metavar="SECONDS",
        help="per-request response timeout (a dropped response costs one timeout, not a hang)",
    )
    load.add_argument(
        "--deadline",
        type=float,
        default=DEFAULT_DEADLINE,
        metavar="SECONDS",
        help="total time budget for one logical request across all its retries",
    )
    load.add_argument(
        "--max-attempts", type=int, default=8, metavar="N", help="attempts per logical request"
    )
    load.add_argument(
        "--no-retry",
        action="store_true",
        help="fail requests on the first error instead of retrying (keeps timeouts)",
    )
    load.add_argument(
        "--verify",
        action="store_true",
        help="replay the trace serially in-process and require byte-identical snapshots",
    )
    load.add_argument(
        "--resnapshot",
        action="store_true",
        help="skip the load: re-fetch each world's final snapshot and verify it "
        "against the serial replay (for checking a restarted --state-dir server)",
    )
    load.add_argument(
        "--shutdown", action="store_true", help="shut the server down after the run"
    )
    load.add_argument("--json", default=None, metavar="PATH", help="write the load report as JSON")
    load.set_defaults(func=_load)

    lint = subparsers.add_parser(
        "lint", help="run the detlint determinism/concurrency contract checker"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=[],
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument("--json", action="store_true", help="emit the canonical-JSON report")
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file to diff against (default: detlint-baseline.json at the project root)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept every current finding",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="run only these rule ids (comma-separated)",
    )
    lint.set_defaults(func=_lint)

    resize = subparsers.add_parser(
        "resize", help="live-resize a running fleet server's shard ring (no downtime)"
    )
    resize.add_argument("--host", default="127.0.0.1")
    resize.add_argument("--port", type=int, default=7421)
    resize.add_argument("--shards", type=int, required=True, help="new shard count")
    resize.set_defaults(func=_resize)

    watch = subparsers.add_parser(
        "watch", help="subscribe to a world and print its pushed diff frames live"
    )
    watch.add_argument("world", help="world id to watch")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=7421)
    watch.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="exit after N frames (default: watch until the world is deleted)",
    )
    watch.add_argument(
        "--verify",
        action="store_true",
        help="before exiting, require the diff-reconstructed snapshot to be "
        "byte-identical to a fresh snapshot fetch",
    )
    watch.add_argument(
        "--json", action="store_true", help="print raw push frames as canonical JSON"
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT,
        metavar="SECONDS",
        help="per-wait timeout while idle (the watch itself runs until done)",
    )
    watch.set_defaults(func=_watch)

    metrics = subparsers.add_parser(
        "metrics", help="fetch a running fleet server's merged metrics registry"
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=7421)
    metrics.add_argument(
        "--json",
        action="store_true",
        help="emit the full canonical-JSON payload (per-shard + frontend + merged)",
    )
    metrics.set_defaults(func=_metrics)

    bench = subparsers.add_parser(
        "bench", help="the committed benchmark trajectory (reference-normalized)"
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_commands.add_parser(
        "run", help="measure an area and write its BENCH_<area>.json report"
    )
    bench_run.add_argument(
        "--area",
        action="append",
        default=[],
        metavar="NAME",
        help="bench area to run (repeatable; default: every area)",
    )
    bench_run.add_argument("--repeats", type=int, default=3, help="min-of-N timing repeats")
    bench_run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="report path (single --area only; default BENCH_<area>.json)",
    )
    bench_run.set_defaults(func=_bench_run)

    bench_diff = bench_commands.add_parser(
        "diff", help="re-measure and fail if ratios regressed past tolerance"
    )
    bench_diff.add_argument(
        "--area",
        action="append",
        default=[],
        metavar="NAME",
        help="bench area to diff (repeatable; default: every area)",
    )
    bench_diff.add_argument("--repeats", type=int, default=3, help="min-of-N timing repeats")
    bench_diff.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional ratio growth before failing (default 0.5)",
    )
    bench_diff.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline report (single --area only; default BENCH_<area>.json)",
    )
    bench_diff.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the fresh measurement (CI uploads this artifact)",
    )
    bench_diff.set_defaults(func=_bench_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe early (e.g. ``cbtc ... | head``); exit
        # quietly instead of tracebacking, per standard CLI etiquette.  The
        # dup2 stops the interpreter's stdout-flush-at-exit from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""The two TCP serving workloads: ``serve-read-hot`` and ``serve-write-durable``.

One phase starts ``cbtc serve --shards 2`` (process workers) through
``serve_main.py``, creates the worlds, runs the subscribe prelude, drives
two closed-loop connections, reads every world's final snapshot and the
server's peak memory, and shuts the server down.  The executed requests are
then replayed serially in-process; every served snapshot and every
subscribed mirror must match the replay byte for byte.
"""

from __future__ import annotations

import asyncio
import glob
import os
import select
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import OUT, ROOT, SRC, forked_children, median, percentile, vm_hwm_mb
from tracegen import CONNECTIONS, Plan, build_plan
from wire import Connection, call_all, closed_loop

from repro.io.results import results_to_json
from repro.service.replay import replay_serial

#: Setup repetitions in an untraced run (``setup_s`` is their median).
SETUP_REPS = 5
#: Requests per connection in the fixed-work phases of a traced run, and
#: the fixed work ``run_s`` times in an untraced one (per connection):
#: whole rounds of the stream (320 and 80 requests), so the mix is exact.
FIXED_WORK = {"serve-read-hot": 1280, "serve-write-durable": 240}
#: How long to wait for trailing push frames before calling a mirror stale.
MIRROR_WAIT_S = 5.0


class Server:
    """A ``serve_main.py`` child process and its port."""

    def __init__(self, state_dir: Optional[str], trace_dir: Optional[str]) -> None:
        command = [sys.executable, os.path.join(ROOT, "perfbench", "serve_main.py")]
        if state_dir:
            command += ["--state-dir", state_dir]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(OUT, "server.log"), "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the front end and its forked shard workers."""
        pid = self.process.pid
        return vm_hwm_mb(pid) + sum(vm_hwm_mb(child) for child in forked_children(pid))

    def stop(self, timeout: float = 60.0) -> None:
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()


class PhaseResult:
    def __init__(self) -> None:
        self.setup_times: List[float] = []
        self.setup_window: Tuple[float, float] = (0.0, 0.0)
        self.loop = None
        self.snapshots: Dict[str, str] = {}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.metrics_before: Dict[str, Any] = {}
        self.metrics_after: Dict[str, Any] = {}
        self.mirror_mismatches = 0
        self.mirrors_checked = 0


def _count(result: PhaseResult, responses: List[Dict[str, Any]]) -> None:
    result.attempted += len(responses)
    result.failed += sum(1 for response in responses if not response.get("ok"))


def _split(plan: Plan, requests: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Requests grouped by the connection that owns their world."""
    groups: List[List[Dict[str, Any]]] = [[] for _ in range(CONNECTIONS)]
    for request in requests:
        world = request["world"].rsplit("-", 1)[-1]
        groups[plan.owners[world]].append(request)
    return groups


async def _drive(
    plan: Plan,
    server: Server,
    *,
    setup_reps: int,
    seconds: Optional[float],
    per_connection: Optional[int],
) -> PhaseResult:
    result = PhaseResult()
    connections = [await Connection.open("127.0.0.1", server.port) for _ in range(CONNECTIONS)]
    try:
        # Setup: earlier repetitions create throwaway world sets and delete
        # them again; the last one creates the worlds the load runs on.
        setup_start = time.perf_counter()
        for rep in range(setup_reps):
            prefix = "" if rep == setup_reps - 1 else f"x{rep}-"
            creates = plan.create_requests(prefix)
            responses, took = await call_all(connections, _split(plan, creates))
            _count(result, responses)
            result.setup_times.append(took)
            if prefix:
                deletes = [
                    {"id": f"del:{r['world']}", "op": "delete_world", "world": r["world"]}
                    for r in creates
                ]
                responses, _ = await call_all(connections, _split(plan, deletes))
                _count(result, responses)
        result.setup_window = (setup_start, time.perf_counter())
        prelude = [plan.subscribe_requests(c) for c in range(CONNECTIONS)]
        responses, _ = await call_all(connections, prelude)
        _count(result, responses)
        result.metrics_before = (await connections[0].call({"id": "metrics:0", "op": "metrics"}))["result"]
        streams = [plan.stream(c) for c in range(CONNECTIONS)]
        loop = await closed_loop(connections, streams, seconds=seconds, per_connection=per_connection)
        result.loop = loop
        result.attempted += len(loop.latencies)
        result.failed += loop.failed
        result.metrics_after = (await connections[0].call({"id": "metrics:1", "op": "metrics"}))["result"]
        for world in sorted(plan.world_seeds):
            connection = connections[plan.owners[world]]
            response = await connection.call(
                {"id": f"final:{world}", "op": "snapshot", "world": world, "params": {}}
            )
            _count(result, [response])
            if response.get("ok"):
                result.snapshots[world] = results_to_json(response["result"])
        # Subscribed mirrors must converge on the served snapshot; trailing
        # frames may still be in flight behind the final snapshot response.
        deadline = time.perf_counter() + MIRROR_WAIT_S
        for connection in connections:
            for world, mirror in sorted(connection.mirrors.items()):
                while results_to_json(mirror.snapshot) != result.snapshots.get(world):
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    await connection.pump_frames(min(0.05, remaining))
                result.mirrors_checked += 1
                if results_to_json(mirror.snapshot) != result.snapshots.get(world):
                    result.mirror_mismatches += 1
        result.attempted += result.mirrors_checked
        result.failed += result.mirror_mismatches
        result.peak_rss_mb = server.peak_rss_mb()
        await connections[0].call({"id": "shutdown", "op": "shutdown"})
    finally:
        for connection in connections:
            await connection.close()
    return result


def run_phase(
    plan: Plan,
    *,
    setup_reps: int,
    seconds: Optional[float] = None,
    per_connection: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> PhaseResult:
    """Start a server, drive it once, stop it (the server must exit cleanly)."""
    state_dir = None
    if plan.shape.durable:
        state_dir = os.path.join(OUT, "state")
        shutil.rmtree(state_dir, ignore_errors=True)
        os.makedirs(state_dir)
    server = Server(state_dir, trace_dir)
    try:
        result = asyncio.run(
            _drive(plan, server, setup_reps=setup_reps, seconds=seconds, per_connection=per_connection)
        )
    except BaseException:
        server.stop(timeout=0)
        raise
    server.stop()
    if server.process.returncode != 0:
        result.failed += 1
    return result


def executed_trace(plan: Plan, result: PhaseResult) -> List[Dict[str, Any]]:
    """The requests that shaped the final worlds, in a per-world-faithful order."""
    trace = plan.create_requests()
    for connection in range(CONNECTIONS):
        trace += plan.subscribe_requests(connection)
        trace += result.loop.executed[connection]
    return trace


def check_against_replay(plan: Plan, results: List[PhaseResult]) -> Tuple[int, int]:
    """``(checked, mismatched)``: served snapshots vs ``replay_serial``."""
    expected = replay_serial(executed_trace(plan, results[0]))
    checked = mismatched = 0
    for result in results:
        for world in sorted(plan.world_seeds):
            checked += 1
            if result.snapshots.get(world) != expected.get(world):
                mismatched += 1
    return checked, mismatched


def end_to_end(plan: Plan, result: PhaseResult) -> Dict[str, float]:
    loop = result.loop
    window = loop.end - loop.start
    fixed = FIXED_WORK[plan.workload] * CONNECTIONS
    completions = sorted(loop.completions)
    if len(completions) >= fixed:
        run_s = completions[fixed - 1] - loop.start
    else:
        run_s = window * fixed / max(1, len(completions))
    return {
        "setup_s": median(result.setup_times),
        "latency_p50_ms": percentile(loop.latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(loop.latencies, 0.99) * 1e3,
        "throughput_per_s": len(loop.latencies) / window,
        "run_s": run_s,
        "peak_rss_mb": result.peak_rss_mb,
        "samples": len(loop.latencies),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run of a serving workload; see ``run.py`` for the output."""
    from layers import serve_layers

    plan = build_plan(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    if not trace:
        result = run_phase(plan, setup_reps=SETUP_REPS, seconds=seconds)
        checked, mismatched = check_against_replay(plan, [result])
        attempted = result.attempted + checked
        failed = result.failed + mismatched
        metrics = end_to_end(plan, result)
        return {
            "attempted": attempted,
            "failed": failed,
            "wrong_outputs": mismatched + result.mirror_mismatches,
            "end_to_end": metrics,
        }
    work = FIXED_WORK[plan.workload]
    untraced = run_phase(plan, setup_reps=1, per_connection=work)
    trace_dir = os.path.join(OUT, f"spans-{workload}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    traced = run_phase(plan, setup_reps=1, per_connection=work, trace_dir=trace_dir)
    checked, mismatched = check_against_replay(plan, [untraced, traced])
    attempted = untraced.attempted + traced.attempted + checked
    failed = untraced.failed + traced.failed + mismatched
    layers = serve_layers(
        sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))),
        traced,
        end_to_end(plan, untraced),
        end_to_end(plan, traced),
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong_outputs": mismatched + untraced.mirror_mismatches + traced.mirror_mismatches,
        "per_layer": layers,
    }

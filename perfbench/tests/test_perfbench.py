"""Tests of the benchmark itself: seeded traces, self-time arithmetic, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import drift  # noqa: E402
import run as run_module  # noqa: E402
import serve  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Recorder, layer_totals, self_times  # noqa: E402
from tracegen import trace_bytes  # noqa: E402


@pytest.mark.parametrize("workload", ["serve-read-hot", "serve-write-durable"])
def test_same_seed_same_trace_bytes_and_other_seed_differs(workload):
    first = trace_bytes(workload, 7, 200)
    assert first == trace_bytes(workload, 7, 200)
    assert first != trace_bytes(workload, 8, 200)


def test_self_time_subtracts_clipped_merged_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5 s)
    # and [9, 12] (clipped to 1 s); the first child has a grandchild [2, 3].
    spans = [
        (1, -1, "root", 0.0, 10.0, None, None),
        (2, 1, "a", 1.0, 4.0, None, None),
        (3, 1, "b", 3.0, 6.0, None, None),
        (4, 1, "c", 9.0, 12.0, None, None),
        (5, 2, "a", 2.0, 3.0, None, None),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 4.0, 2: 2.0, 3: 3.0, 4: 3.0, 5: 1.0}
    totals = layer_totals(spans, (0.0, 2.5))
    assert totals["a"] == {"self_s": 3.0, "total_s": 4.0, "calls": 2}
    assert set(totals) == {"root", "a"}


def test_recorder_nests_spans_and_inherits_request_ids():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda request: inner(), rid_of=lambda args: args[0]["id"])
    outer({"id": 42})
    (child, parent) = recorder.spans
    assert child[2] == "inner" and parent[2] == "outer"
    assert child[1] == parent[0] and parent[1] == -1
    assert child[5] == parent[5] == 42


def _run(monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["run.py"] + argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_module.main() == 0
    lines = out.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_prints(lines, result, expected):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(drift, "NODES", 150)
    monkeypatch.setattr(drift, "SETUP_REPS", 2)
    monkeypatch.setattr(drift, "RUN_EPOCHS", 2)
    monkeypatch.setattr(serve, "SETUP_REPS", 2)
    monkeypatch.setattr(serve, "FIXED_WORK", {"serve-read-hot": 40, "serve-write-durable": 20})


def test_one_wrong_world_makes_success_rate_zero(tiny, monkeypatch):
    replay = serve.replay_serial

    def one_world_off(trace):
        expected = replay(trace)
        expected[min(expected)] += " "
        return expected

    monkeypatch.setattr(serve, "replay_serial", one_world_off)
    _, result = _run(
        monkeypatch,
        ["--workload", "serve-read-hot", "--seed", "3", "--seconds", "0.5", "--trace", "0"],
    )
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] == 0.0


@pytest.mark.parametrize("workload", run_module.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(tiny, monkeypatch, workload, trace):
    lines, result = _run(
        monkeypatch,
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
    )
    _assert_prints(lines, result, PER_LAYER if trace else run_module.END_TO_END)

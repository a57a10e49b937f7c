"""Helpers shared by the workloads: paths, percentiles, memory readings."""

from __future__ import annotations

import math
import os
from typing import List, Sequence

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output of a run (span files, server state); listed in .gitignore.
OUT = os.path.join(ROOT, ".perfbench-out")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_jiffies() -> List[int]:
    """Machine-wide CPU time so far, as ``[steal, total]`` clock ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(field) for field in handle.readline().split()[1:9]]
    return [fields[7], sum(fields)]


def forked_children(pid: int) -> List[int]:
    """Live children of ``pid`` running the same command line (its forks)."""
    def cmdline(p: int) -> bytes:
        try:
            with open(f"/proc/{p}/cmdline", "rb") as handle:
                return handle.read()
        except OSError:
            return b""

    own = cmdline(pid)
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and cmdline(int(entry)) == own:
            children.append(int(entry))
    return sorted(children)

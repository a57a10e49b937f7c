"""The repository's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload drift-epochs --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``drift-epochs`` — in-process scenario epochs at n = 2000, constant density;
* ``serve-read-hot`` — ``cbtc serve`` over TCP, 95% hot reads, 5% advances;
* ``serve-write-durable`` — the same server with ``--state-dir``, 60% writes,
  half the worlds subscribed.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs a fixed amount of work twice, untraced and then with span
wrappers installed, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced).  Every run checks its outputs; a wrong
output counts as a failed operation and makes ``success_rate`` 0, since the
run's other results cannot be trusted either.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, cpu_jiffies  # noqa: E402

#: Every end-to-end metric with its unit, in the order printed.
END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]
WORKLOADS = ("drift-epochs", "serve-read-hot", "serve-write-durable")


def main() -> int:
    parser = argparse.ArgumentParser(description="CBTC reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "drift-epochs":
        import drift as workload
    else:
        import serve as workload
    before = cpu_jiffies()
    outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    steal, total = (late - early for late, early in zip(cpu_jiffies(), before))
    attempted, failed = outcome["attempted"], outcome["failed"]
    if args.trace:
        metrics = outcome["per_layer"]
    else:
        values = dict(outcome["end_to_end"])
        values["success_rate"] = (
            0.0 if outcome["wrong_outputs"] else (attempted - failed) / attempted
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"{args.workload}: {outcome['end_to_end']['samples']} timed operations")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"attempted {attempted}, failed {failed}, wrong outputs {outcome['wrong_outputs']}")
    # Time the hypervisor gave this VM's CPUs to others: the serving
    # workloads slow down several-fold when it is high.
    print(f"machine CPU steal share during the run: {steal / max(1, total):.3f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

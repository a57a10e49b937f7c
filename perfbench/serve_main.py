"""Run ``cbtc serve`` for the benchmark, optionally with span wrappers.

    python3 perfbench/serve_main.py [--state-dir DIR] [--trace-dir DIR]

Without ``--trace-dir`` this is exactly ``run_server`` with two process
shards.
With it, the span wrappers are installed before the shard workers fork, so
the front end and every worker record spans; each worker writes its spans
from a wrapper on ``WorldHost.close`` (forked ``multiprocessing`` children
exit without running ``atexit``), and the front end writes its own after
the server has shut down.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from common import SRC

sys.path.insert(0, SRC)

from repro.service import server as server_module  # noqa: E402
from repro.service.worlds import WorldHost  # noqa: E402

#: Shard workers of every benchmark server (``cbtc serve --shards 2``).
SHARDS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    recorder = None
    if args.trace_dir:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
        os.register_at_fork(after_in_child=recorder.reset)
        close = WorldHost.close

        @functools.wraps(close)
        def close_and_flush(self, *a, **k):
            try:
                return close(self, *a, **k)
            finally:
                recorder.flush(os.path.join(args.trace_dir, f"spans-{os.getpid()}.jsonl"))

        WorldHost.close = close_and_flush
    code = server_module.run_server(
        host="127.0.0.1", port=0, shards=SHARDS, state_dir=args.state_dir
    )
    if recorder is not None:
        recorder.flush(os.path.join(args.trace_dir, f"spans-{os.getpid()}.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())

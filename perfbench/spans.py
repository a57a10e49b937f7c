"""In-memory span recording around calls into the program's layers.

The benchmark never edits the program: :func:`install` wraps public
functions and methods of the already-imported ``repro`` modules, and each
wrapped call records one span ``(id, parent, name, start, end, rid, info)``.
Spans are kept in a per-process list and written out as JSON lines by
:meth:`Recorder.flush` when the process is done.  Parentage is tracked per
thread (the asyncio front end runs its shard round trips on executor
threads), and a span without a request id of its own inherits its parent's.
``info`` carries a small per-call fact such as the bytes an encoder wrote.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans
written by the server, its forked workers and the load generator share one
time base and can be cut to the load generator's timed window.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One finished span: (id, parent id or -1, name, start, end, request id, info).
Span = Tuple[int, int, str, float, float, Any, Any]

_MARK = "__perfbench_traced__"


class Recorder:
    """Collects finished spans for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything (a forked child must not re-emit its parent's spans)."""
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        func: Callable,
        rid_of: Optional[Callable] = None,
        info_of: Optional[Callable] = None,
    ) -> Callable:
        """``func`` wrapped so every call records a span called ``name``.

        ``rid_of(args)`` names the request(s) the call serves; ``info_of(args,
        result)`` returns the span's ``info``.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, inherited = stack[-1] if stack else (-1, None)
            rid = rid_of(args) if rid_of is not None else None
            if rid is None:
                rid = inherited
            sid = next(self._ids)
            stack.append((sid, rid))
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = info_of(args, result) if info_of is not None else None
                self.spans.append((sid, parent, name, start, end, rid, info))

        setattr(traced, _MARK, True)
        return traced

    def span(self, name: str) -> "_Phase":
        """A ``with`` block recorded as one span (the benchmark's own phases)."""
        return _Phase(self, name)

    def flush(self, path: str) -> None:
        """Write this process's spans as JSON lines to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


class _Phase:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Phase":
        stack = self.recorder._stack()
        self.parent = stack[-1][0] if stack else -1
        self.sid = next(self.recorder._ids)
        stack.append((self.sid, None))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append(
            (self.sid, self.parent, self.name, self.start, end, None, None)
        )


def read_spans(paths: Iterable[str]) -> List[Span]:
    """Load span files written by :meth:`Recorder.flush`.

    Ids are unique within one process only, so each file's ids are shifted
    into a range of their own and parent links never cross processes.
    """
    spans: List[Span] = []
    for offset, path in enumerate(sorted(paths)):
        base = (offset + 1) << 40
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                sid, parent, name, start, end, rid, info = json.loads(line)
                spans.append(
                    (sid + base, parent + base if parent >= 0 else -1, name, start, end, rid, info)
                )
    return spans


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: its duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged first, so an instant is never subtracted twice and a self
    time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[3], span[4]))
    result: Dict[int, float] = {}
    for sid, _, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def layer_totals(
    spans: Sequence[Span], window: Tuple[float, float]
) -> Dict[str, Dict[str, float]]:
    """``{name: {"self_s", "total_s", "calls"}}`` over the spans starting in ``window``."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for sid, _, name, start, end, _, _ in spans:
        if not window[0] <= start < window[1]:
            continue
        entry = totals.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[sid]
        entry["total_s"] += end - start
        entry["calls"] += 1
    return totals


# ---------------------------------------------------------------------- #
# Installing the wrappers
# ---------------------------------------------------------------------- #
def _batch_ids(args) -> Any:
    batch = args[-1] if args else None
    if isinstance(batch, list):
        return [request.get("id") for request in batch if isinstance(request, dict)]
    return None


def _message_id(args) -> Any:
    message = args[0] if args else None
    return message.get("id") if isinstance(message, dict) else None


def _encoded(args, payload) -> Any:
    """``[bytes, push-frame kind or None]`` for one encoder call."""
    message = args[0] if args else None
    kind = None
    if isinstance(message, dict) and message.get("push") == "frame" and "id" not in message:
        kind = message.get("kind")
    return [len(payload) if payload is not None else 0, kind]


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Must run after the ``repro`` modules are imported: a function bound into
    other modules with ``from x import f`` is rebound everywhere it appears.
    A name that no longer exists is skipped, so the benchmark still runs
    against a refactored program and reports that layer as zero.
    """
    import repro.core.analysis as analysis
    import repro.core.cbtc as cbtc
    import repro.core.incremental as incremental
    import repro.core.pipeline as pipeline
    import repro.core.reconfiguration as reconfiguration
    import repro.geometry.spatial as spatial
    import repro.graphs.routing as routing
    import repro.io.results as results
    import repro.net.mobility as mobility
    import repro.service.protocol as protocol
    import repro.service.storage.sqlite as sqlite
    import repro.service.subs.diff as diff
    import repro.service.workers as workers
    import repro.service.worlds as worlds
    import repro.traffic.runner as traffic_runner

    def method(cls, attr: str, name: str, rid_of=None) -> None:
        func = cls.__dict__.get(attr)
        if func is not None and not getattr(func, _MARK, False):
            setattr(cls, attr, recorder.wrap(name, func, rid_of))

    def function(module, attr: str, name: str, rid_of=None, info_of=None) -> None:
        original = getattr(module, attr, None)
        if original is None or getattr(original, _MARK, False):
            return
        wrapped = recorder.wrap(name, original, rid_of, info_of)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or module_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)

    manager = reconfiguration.ReconfigurationManager
    method(manager, "synchronize", "reconfig.sync")
    method(manager, "apply", "reconfig.apply")
    method(manager, "topology", "reconfig.topology")
    function(pipeline, "build_topology", "pipeline.build")
    function(cbtc, "run_cbtc", "pipeline.build")
    method(incremental.IncrementalTopologyBuilder, "rebuild", "pipeline.build")
    method(spatial.UniformGridIndex, "neighbors_within", "geometry.query")
    method(spatial.UniformGridIndex, "pairs_within", "geometry.query")
    for model in mobility.MobilityModel.__subclasses__():
        method(model, "step", "mobility.step")
    function(analysis, "preserves_max_power_connectivity", "measure.connectivity")
    method(routing.SourceRouteCache, "paths", "routing.paths")
    function(routing, "canonical_single_source_paths", "routing.paths")
    function(traffic_runner, "run_traffic", "traffic.run")

    method(worlds.WorldHost, "execute_batch", "worlds.batch", _batch_ids)
    method(worlds.WorldHost, "_checkpoint", "wal.checkpoint")
    method(sqlite.SqliteStore, "commit_batch", "wal.commit")
    method(workers.ProcessShardPool, "execute", "workers.roundtrip", _batch_ids)
    function(diff, "compute_diff", "subs.diff")

    # Deep copies are traced where the serving layer makes them: the worlds
    # module's own ``copy`` binding is swapped for a namespace whose
    # ``deepcopy`` records spans (wrapping copy.deepcopy itself would also
    # trace its recursion and every other module's copies).
    if isinstance(getattr(worlds, "copy", None), types.ModuleType):
        worlds.copy = types.SimpleNamespace(
            deepcopy=recorder.wrap("worlds.copy", copy.deepcopy), copy=copy.copy
        )

    function(protocol, "encode_message", "io.encode", _message_id, _encoded)
    function(results, "canonical_json", "io.encode", None, _encoded)
    function(protocol, "decode_message", "io.decode")

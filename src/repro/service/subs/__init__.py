"""Subscription & diff-push subsystem for the fleet server.

Layering, shard to client:

* :mod:`~repro.service.subs.diff` — canonical structural diffs between
  world snapshots (compute / apply / merge).
* :mod:`~repro.service.subs.tracker` — per-world sequence numbers and the
  bounded ring of recent diffs; lives *on the World object* so it rides
  migration pickles, checkpoints, and WAL replay.
* :mod:`~repro.service.subs.manager` — the front end's registry of
  subscribed connections: frame fan-out, per-subscriber bounded queues
  with diff coalescing, resync fallback, terminal delete frames.
* :mod:`~repro.service.subs.mirror` — client-side snapshot reconstruction
  (shared by ``ServiceClient``, the replay mirror, and the battery).
"""

from repro.service.subs.diff import apply_diff, compute_diff, merge_diffs
from repro.service.subs.mirror import SequenceGap, WorldMirror
from repro.service.subs.tracker import DEFAULT_RING_CAPACITY, WorldTracker

__all__ = [
    "apply_diff",
    "compute_diff",
    "merge_diffs",
    "SequenceGap",
    "WorldMirror",
    "DEFAULT_RING_CAPACITY",
    "WorldTracker",
]

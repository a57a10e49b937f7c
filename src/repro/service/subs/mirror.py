"""Client-side snapshot reconstruction from push frames.

A :class:`WorldMirror` holds one world's live snapshot as reconstructed
from the subscription stream: seeded with the base snapshot the
``subscribe`` response carried, then advanced by applying ``diff`` frames
in sequence order.  It is the single implementation used by
:class:`~repro.service.client.ServiceClient`, the engine-level replay
mirror, the hypothesis battery, and ``cbtc watch`` — so the byte-identity
contract is enforced against exactly the code real subscribers run.

Frames are the wire form (:func:`repro.service.protocol.push_frame`):
``{"world", "seq", "kind": "diff"|"snapshot"|"deleted", "data", ...}``.
A gap (a diff whose base is not the mirror's cursor) raises
:class:`SequenceGap` — the subscriber's cue to resync rather than apply a
diff against the wrong base.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

from repro.service import protocol
from repro.service.subs.diff import apply_diff


class SequenceGap(RuntimeError):
    """A diff frame arrived whose base is not the mirror's cursor."""


class WorldMirror:
    """One world's snapshot, reconstructed by applying pushed diffs."""

    def __init__(self, world: str) -> None:
        self.world = world
        self.seq: Optional[int] = None
        self.snapshot: Optional[Dict[str, Any]] = None
        self.deleted = False
        self.frames_applied = 0
        self.resyncs = 0

    def seed(self, seq: int, snapshot: Dict[str, Any]) -> None:
        """Adopt a full snapshot at ``seq`` (subscription base or resync)."""
        self.seq = seq
        self.snapshot = copy.deepcopy(snapshot)
        self.deleted = False

    def apply(self, frame: Dict[str, Any]) -> bool:
        """Apply one push frame; returns whether the mirror advanced.

        Duplicate and stale frames (``seq`` at or behind the cursor) are
        ignored — the push path never re-sends, but a resume overlapping a
        late in-flight frame must converge, not diverge.
        """
        kind = frame.get("kind")
        seq = frame.get("seq")
        if self.deleted:
            return False
        if kind == protocol.FRAME_DELETED:
            self.deleted = True
            self.frames_applied += 1
            if seq is not None:
                self.seq = seq
            return True
        if not isinstance(seq, int):
            raise ValueError(f"push frame without a sequence number: {frame!r}")
        if kind == protocol.FRAME_SNAPSHOT:
            if self.seq is not None and seq < self.seq:
                return False
            self.seed(seq, frame.get("data", {}))
            self.frames_applied += 1
            self.resyncs += 1
            return True
        if kind == protocol.FRAME_DIFF:
            if self.seq is None or self.snapshot is None:
                raise SequenceGap(f"diff frame for {self.world!r} before any base snapshot")
            if seq <= self.seq:
                return False
            base = frame.get("base", seq - 1)
            if base != self.seq:
                raise SequenceGap(
                    f"diff for {self.world!r} applies at seq {base}, mirror is at {self.seq}"
                )
            self.snapshot = apply_diff(self.snapshot, frame.get("data", {}))
            self.seq = seq
            self.frames_applied += 1
            return True
        raise ValueError(f"unknown push frame kind {kind!r}")

"""In-memory store: the test double.

Implements exactly the :class:`~repro.service.storage.base.WorldStore`
contract over plain dictionaries.  It lives in the process that created
it, so it models durability for *in-process* crash simulations (abandon a
host, recover a fresh one from the same store); the sharded replayer's
batteries pass it in through ``store_factory``.

Records and responses are deep-copied across the boundary in both
directions so a caller mutating a dictionary it handed in (or got back)
can never corrupt the persisted history — the same aliasing discipline the
sqlite backend gets for free from serialization.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from repro.service.storage.base import (
    RECORD_OP,
    Checkpoint,
    StagedRecord,
    WorldStore,
)


class MemoryStore(WorldStore):
    """Dictionary-backed :class:`WorldStore`."""

    def __init__(self) -> None:
        # world_id -> {seq: record}
        self._logs: Dict[str, Dict[int, Dict[str, Any]]] = {}
        self._checkpoints: Dict[str, Checkpoint] = {}
        self._batch_seq = 0
        self._responses: Optional[List[Dict[str, Any]]] = None

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def commit_batch(
        self,
        batch_seq: int,
        records: List[StagedRecord],
        responses: List[Dict[str, Any]],
        checkpoints: List[Tuple[str, Checkpoint]],
        purges: List[str],
    ) -> None:
        for world_id in purges:
            self._logs.pop(world_id, None)
            self._checkpoints.pop(world_id, None)
        for world_id, seq, record in records:
            self._logs.setdefault(world_id, {})[seq] = copy.deepcopy(record)
        for world_id, checkpoint in checkpoints:
            self._checkpoints[world_id] = checkpoint
        self._batch_seq = batch_seq
        self._responses = copy.deepcopy(responses)

    def save_checkpoint(self, world_id: str, checkpoint: Checkpoint) -> None:
        self._checkpoints[world_id] = checkpoint

    # ------------------------------------------------------------------ #
    # Recovery path
    # ------------------------------------------------------------------ #
    def last_batch(self) -> Tuple[int, Optional[List[Dict[str, Any]]]]:
        return self._batch_seq, copy.deepcopy(self._responses)

    def world_ids(self) -> List[str]:
        return sorted(set(self._logs) | set(self._checkpoints))

    def world_counts(self) -> Dict[str, Tuple[int, int]]:
        counts: Dict[str, Tuple[int, int]] = {}
        for world_id in self.world_ids():
            log = self._logs.get(world_id, {})
            writes = len([seq for seq, record in log.items() if record.get("kind") == RECORD_OP])
            records = max(log) if log else self._checkpoints[world_id].seq
            counts[world_id] = (records, writes)
        return counts

    def latest_checkpoint(self, world_id: str) -> Optional[Checkpoint]:
        return self._checkpoints.get(world_id)

    def records_after(self, world_id: str, seq: int) -> List[Dict[str, Any]]:
        log = self._logs.get(world_id, {})
        return [copy.deepcopy(log[position]) for position in sorted(log) if position > seq]

    def close(self) -> None:
        return None

"""The per-shard persistence contract: write-ahead log + checkpoints.

One :class:`WorldStore` backs one shard (one :class:`~repro.service.worlds.
WorldHost`).  It persists three things:

* a **write-ahead log** per world — the applied write ops (``create_world``
  / ``advance`` / ``apply``) plus *sync markers* recording the points where
  a read reconciled the world with its geometry (synchronization is part of
  the model's semantics, so replaying the writes alone would reproduce a
  *different* history — the markers pin the sync points);
* **checkpoints** per world — an exact state blob (the pickled
  :class:`~repro.service.worlds.World`) at a known log position.  Recovery
  loads the latest checkpoint and replays log-since-checkpoint through the
  normal execution path;
* the **last committed batch** — its sequence number and responses, which
  is what makes dispatcher retries after a worker death exactly-once: a
  re-dispatched batch that already committed is answered from the store
  without re-executing a single op.

Commits are **transactional at batch granularity** (group commit): every
record staged while executing a batch becomes durable in one atomic step,
*before* the batch's responses are released to the dispatcher.  A worker
killed mid-batch therefore leaves the store exactly at the previous batch
boundary — recovery rebuilds the pre-batch state and the dispatcher's
re-dispatch re-executes the whole batch from there, deterministically.

Log records are plain dictionaries::

    {"kind": "op",   "op": "advance", "params": {"steps": 1}}
    {"kind": "sync"}

keyed by ``(world_id, seq)`` where ``seq`` is the world's 1-based log
position.  ``delete_world`` is never logged: its durable effect is the
*purge* of the world's records, applied in the same commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Log-record kinds.
RECORD_OP = "op"
RECORD_SYNC = "sync"


@dataclass(frozen=True)
class Checkpoint:
    """A world's exact state at log position ``seq``.

    ``state`` is the pickled :class:`~repro.service.worlds.World` — the
    byte-exact serving state, including mobility RNG position, manager
    CBTC state and pending dirty sets, which is what makes checkpoint
    recovery indistinguishable from having replayed the whole log.
    """

    seq: int
    state: bytes


#: A staged log record: ``(world_id, seq, record)``.
StagedRecord = Tuple[str, int, Dict[str, Any]]


class WorldStore:
    """Abstract per-shard store; see :class:`MemoryStore` / :class:`SqliteStore`."""

    # ------------------------------------------------------------------ #
    # The write path (group commit)
    # ------------------------------------------------------------------ #
    def commit_batch(
        self,
        batch_seq: int,
        records: List[StagedRecord],
        responses: List[Dict[str, Any]],
        checkpoints: List[Tuple[str, Checkpoint]],
        purges: List[str],
    ) -> None:
        """Atomically persist one executed batch.

        Applies ``purges`` first (a purged world's log restarts at seq 1,
        so a delete-then-recreate within one batch lands only the recreate),
        then appends ``records``, saves ``checkpoints``, and replaces the
        last-batch marker with ``(batch_seq, responses)``.  All or nothing.
        """
        raise NotImplementedError

    def save_checkpoint(self, world_id: str, checkpoint: Checkpoint) -> None:
        """Persist a checkpoint outside a batch commit (eviction / flush).

        Losing one of these to a crash costs recovery time, never
        correctness — the log still reaches the same state.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The recovery path
    # ------------------------------------------------------------------ #
    def last_batch(self) -> Tuple[int, Optional[List[Dict[str, Any]]]]:
        """``(batch_seq, responses)`` of the last committed batch (``0, None`` if none)."""
        raise NotImplementedError

    def world_ids(self) -> List[str]:
        """Sorted IDs of every world with log records or a checkpoint."""
        raise NotImplementedError

    def world_counts(self) -> Dict[str, Tuple[int, int]]:
        """Per world: ``(log_records, write_records)`` — the seq/cadence bookkeeping."""
        raise NotImplementedError

    def latest_checkpoint(self, world_id: str) -> Optional[Checkpoint]:
        """The world's newest checkpoint, or ``None``."""
        raise NotImplementedError

    def records_after(self, world_id: str, seq: int) -> List[Dict[str, Any]]:
        """The world's log records with position ``> seq``, in order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""
        raise NotImplementedError


@dataclass(frozen=True)
class StoreConfig:
    """Pool-level storage configuration, shipped picklable to shard workers.

    Each shard keeps one sqlite database file under ``path``, so the store
    survives a worker process death.
    """

    path: Optional[str] = None
    snapshot_every: int = 16
    max_live_worlds: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("a sqlite store needs a state directory ('path')")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.max_live_worlds is not None and self.max_live_worlds < 1:
            raise ValueError("max_live_worlds must be at least 1")


def build_store(config: StoreConfig, shard: int) -> WorldStore:
    """Instantiate the shard's sqlite store.

    Called *inside* the worker process (after fork/spawn): a sqlite
    connection must never cross a process boundary.
    """
    from repro.service.storage.sqlite import SqliteStore

    return SqliteStore(shard_db_path(config.path, shard))


def shard_db_path(state_dir: str, shard: int) -> str:
    """The canonical database filename of ``shard`` under ``state_dir``."""
    import os

    return os.path.join(state_dir, f"shard-{shard:03d}.sqlite")

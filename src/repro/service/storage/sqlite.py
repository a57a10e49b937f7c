"""SQLite-backed store: one database file per shard.

The schema mirrors the three responsibilities of the contract:

* ``log(world, seq, record)`` — the per-world write-ahead log, records as
  canonical JSON;
* ``checkpoints(world, seq, state)`` — the newest checkpoint per world:
  the pickled :class:`~repro.service.worlds.World` blob (files written by
  older versions may carry an extra nullable ``snapshot`` column; every
  statement names its columns, so it is simply never read);
* ``batches(key=0, batch_seq, responses)`` — a single row holding the last
  committed batch's sequence number and responses (the exactly-once
  re-dispatch marker; only the latest batch can ever be retried because
  each shard has at most one batch in flight).

Group commit = one SQLite transaction per batch.  The journal runs in WAL
mode (fitting) with ``synchronous=NORMAL``: commits are atomic and survive
process death — the failure model the kill-and-recover battery exercises —
while avoiding a full fsync per batch.

Checkpoint ``state`` blobs are Python pickles: the store trusts its state
directory exactly as much as it trusts its own code, the standard stance
for a server's private on-disk state (never feed it files from elsewhere).
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, List, Optional, Tuple

from repro.io.results import canonical_json
from repro.service.storage.base import (
    RECORD_OP,
    Checkpoint,
    StagedRecord,
    WorldStore,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS log (
    world  TEXT    NOT NULL,
    seq    INTEGER NOT NULL,
    kind   TEXT    NOT NULL,
    record TEXT    NOT NULL,
    PRIMARY KEY (world, seq)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    world TEXT    PRIMARY KEY,
    seq   INTEGER NOT NULL,
    state BLOB    NOT NULL
);
CREATE TABLE IF NOT EXISTS batches (
    key       INTEGER PRIMARY KEY CHECK (key = 0),
    batch_seq INTEGER NOT NULL,
    responses TEXT    NOT NULL
);
"""


class SqliteStore(WorldStore):
    """One shard's durable state, in a single SQLite file."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # One connection, one thread (the worker loop / inline host): no
        # cross-thread sharing, so the default check_same_thread stands.
        self._connection = sqlite3.connect(path)
        self._connection.executescript(_SCHEMA)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.commit()

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
        connection = self._connection
        try:
            for world_id in purges:
                connection.execute("DELETE FROM log WHERE world = ?", (world_id,))
                connection.execute("DELETE FROM checkpoints WHERE world = ?", (world_id,))
            connection.executemany(
                "INSERT INTO log (world, seq, kind, record) VALUES (?, ?, ?, ?)",
                [
                    (world_id, seq, record["kind"], canonical_json(record))
                    for world_id, seq, record in records
                ],
            )
            for world_id, checkpoint in checkpoints:
                self._write_checkpoint(world_id, checkpoint)
            connection.execute(
                "INSERT OR REPLACE INTO batches (key, batch_seq, responses) VALUES (0, ?, ?)",
                (batch_seq, json.dumps(responses)),
            )
            connection.commit()
        except BaseException:
            connection.rollback()
            raise

    def _write_checkpoint(self, world_id: str, checkpoint: Checkpoint) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO checkpoints (world, seq, state) VALUES (?, ?, ?)",
            (world_id, checkpoint.seq, checkpoint.state),
        )

    def save_checkpoint(self, world_id: str, checkpoint: Checkpoint) -> None:
        try:
            self._write_checkpoint(world_id, checkpoint)
            self._connection.commit()
        except BaseException:
            self._connection.rollback()
            raise

    # ------------------------------------------------------------------ #
    # Recovery path
    # ------------------------------------------------------------------ #
    def last_batch(self) -> Tuple[int, Optional[List[Dict[str, Any]]]]:
        row = self._connection.execute(
            "SELECT batch_seq, responses FROM batches WHERE key = 0"
        ).fetchone()
        if row is None:
            return 0, None
        return row[0], json.loads(row[1])

    def world_ids(self) -> List[str]:
        rows = self._connection.execute(
            "SELECT world FROM log UNION SELECT world FROM checkpoints"
        ).fetchall()
        return sorted(row[0] for row in rows)

    def world_counts(self) -> Dict[str, Tuple[int, int]]:
        counts: Dict[str, Tuple[int, int]] = {}
        for world_id, records, writes in self._connection.execute(
            "SELECT world, MAX(seq), SUM(CASE WHEN kind = ? THEN 1 ELSE 0 END) "
            "FROM log GROUP BY world",
            (RECORD_OP,),
        ):
            counts[world_id] = (records, writes or 0)
        for world_id, seq in self._connection.execute("SELECT world, seq FROM checkpoints"):
            if world_id not in counts:
                counts[world_id] = (seq, 0)
        return counts

    def latest_checkpoint(self, world_id: str) -> Optional[Checkpoint]:
        row = self._connection.execute(
            "SELECT seq, state FROM checkpoints WHERE world = ?", (world_id,)
        ).fetchone()
        if row is None:
            return None
        return Checkpoint(seq=row[0], state=row[1])

    def records_after(self, world_id: str, seq: int) -> List[Dict[str, Any]]:
        rows = self._connection.execute(
            "SELECT record FROM log WHERE world = ? AND seq > ? ORDER BY seq",
            (world_id, seq),
        ).fetchall()
        return [json.loads(row[0]) for row in rows]

    def close(self) -> None:
        self._connection.close()


def scan_shard_files(state_dir: str) -> List[int]:
    """Shard indices with a database file present, in ascending order.

    Scans the directory instead of ``range(shards)`` so a restart with a
    *smaller* ``--shards`` still sees the worlds stranded in higher-index
    files (the front end migrates them back into the fleet at startup).
    """
    import re

    if not os.path.isdir(state_dir):
        return []
    found: List[int] = []
    for name in os.listdir(state_dir):
        match = re.fullmatch(r"shard-(\d+)\.sqlite", name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found)


def scan_world_ids(state_dir: str, shards: int) -> Dict[str, int]:
    """World IDs found across a state directory's shard databases, mapped
    to the shard file each currently lives in.

    Used by the front end at startup (synchronous context) to repopulate
    its world→shard placement map before any worker answers a request.
    Missing shard files simply contribute nothing; files beyond ``shards``
    are included so their worlds can be migrated back into the fleet.
    """
    from repro.service.storage.base import shard_db_path

    placements: Dict[str, int] = {}
    for shard in sorted(set(range(shards)) | set(scan_shard_files(state_dir))):
        path = shard_db_path(state_dir, shard)
        if not os.path.exists(path):
            continue
        store = SqliteStore(path)
        try:
            for world_id in store.world_ids():
                placements[world_id] = shard
        finally:
            store.close()
    return placements

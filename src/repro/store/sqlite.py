"""Durable :class:`StateStore`: one sqlite database, one transaction per batch.

Layout of a state directory::

    <state_dir>/state.db    the ``kv`` table (sqlite adds its own
                            ``state.db-wal`` and ``state.db-shm``)

Each :meth:`SqliteStore.apply` is one sqlite transaction under
``journal_mode=WAL``. With ``fsync=True`` it runs under
``synchronous=FULL``, so a batch is on disk when ``apply`` returns;
``fsync=False`` sets ``synchronous=OFF``, which survives a process crash
but not a power loss. sqlite's journal makes every commit atomic, so the
state a reopening process sees is exactly the prefix of batches whose
``apply()`` returned. ``get`` and ``scan`` read the table: no request
path reads the store, only start-up scans, the readiness probe and
coordinator resumption do.

Earlier releases kept their own write-ahead log beside the database
(``state.wal``). A directory whose ``state.wal`` is only the log's
header was closed cleanly and opens with its data; one whose
``state.wal`` still holds records is refused with
:class:`~repro.errors.StoreCorruptionError`, since those batches never
reached ``state.db``.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Sequence

from repro.errors import StoreCorruptionError, StoreError
from repro.store.base import OP_PUT, StateStore, StoreOp

#: The earlier layout's log and the size of its header (8-byte magic plus
#: a version byte). A longer file holds batches this store cannot read.
OLD_WAL_NAME = "state.wal"
OLD_WAL_HEADER_BYTES = 9


class SqliteStore(StateStore):
    """The durable backend; see the module docstring for the design.

    Every call after :meth:`close` raises :class:`StoreError`, except
    ``close`` itself (idempotent) and ``counters`` (a scrape of a closed
    relay still renders).
    """

    persistent = True

    def __init__(self, directory: str | Path, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        old_wal = self.directory / OLD_WAL_NAME
        if old_wal.exists() and old_wal.stat().st_size > OLD_WAL_HEADER_BYTES:
            raise StoreCorruptionError(
                f"{old_wal} holds records in the old write-ahead-log layout "
                f"that never reached state.db; refusing to open without them"
            )
        path = self.directory / "state.db"
        conn = sqlite3.connect(str(path), check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = " + ("FULL" if fsync else "OFF"))
            conn.execute(
                "CREATE TABLE IF NOT EXISTS kv ("
                " namespace TEXT NOT NULL, key TEXT NOT NULL, value BLOB NOT NULL,"
                " PRIMARY KEY (namespace, key))"
            )
            conn.commit()
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise StoreCorruptionError(
                f"unreadable state database {path}: {exc}"
            ) from exc
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = conn
        self.batches_applied = 0
        self.ops_applied = 0

    def _live(self) -> sqlite3.Connection:
        """The open connection; callers hold ``self._lock``."""
        if self._conn is None:
            raise StoreError(f"state store at {self.directory} is closed")
        return self._conn

    def close(self) -> None:
        """Release the connection; sqlite folds its journal in on close."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # -- reads --------------------------------------------------------------------

    def get(self, namespace: str, key: str) -> bytes | None:
        with self._lock:
            row = (
                self._live()
                .execute(
                    "SELECT value FROM kv WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
                .fetchone()
            )
        return row[0] if row is not None else None

    def scan(self, namespace: str, prefix: str = "") -> list[tuple[str, bytes]]:
        with self._lock:
            return (
                self._live()
                .execute(
                    "SELECT key, value FROM kv WHERE namespace = ?"
                    " AND substr(key, 1, ?) = ? ORDER BY key",
                    (namespace, len(prefix), prefix),
                )
                .fetchall()
            )

    # -- writes -------------------------------------------------------------------

    def apply(self, ops: Sequence[StoreOp]) -> None:
        ops = list(ops)
        if not ops:
            return
        with self._lock:
            conn = self._live()
            with conn:  # one transaction: all ops or none
                for operation in ops:
                    if operation.op == OP_PUT:
                        conn.execute(
                            "INSERT OR REPLACE INTO kv (namespace, key, value)"
                            " VALUES (?, ?, ?)",
                            (operation.namespace, operation.key, operation.value),
                        )
                    else:
                        conn.execute(
                            "DELETE FROM kv WHERE namespace = ? AND key = ?",
                            (operation.namespace, operation.key),
                        )
            self.batches_applied += 1
            self.ops_applied += len(ops)

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "batches_applied": self.batches_applied,
                "ops_applied": self.ops_applied,
            }

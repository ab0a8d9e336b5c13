"""Durable relay state: the pluggable :class:`StateStore` subsystem.

The paper's relay is "minimally trusted" but maximally *relied upon* —
it is the hop every cross-network request, event, and HTLC command rides
through. This package gives the state that must survive a relay or
coordinator crash (the exactly-once idempotency record, served
subscriptions, exchange journals) one pluggable home:

- :class:`MemoryStore` — the default; exactly today's process-lifetime
  behavior and performance.
- :class:`SqliteStore` — one sqlite database in a state directory; each
  atomic batch is one sqlite transaction, fsync'd on commit under
  ``journal_mode=WAL`` and ``synchronous=FULL``.

Wiring is one call: :func:`open_store` maps a ``--state-dir`` style
option (``None`` = volatile) onto the right backend.
"""

from pathlib import Path

from repro.store.base import (
    OP_DELETE,
    OP_PUT,
    StateStore,
    StoreOp,
    WriteBatch,
)
from repro.store.memory import MemoryStore
from repro.store.sqlite import SqliteStore

__all__ = [
    "OP_DELETE",
    "OP_PUT",
    "MemoryStore",
    "SqliteStore",
    "StateStore",
    "StoreOp",
    "WriteBatch",
    "open_store",
]


def open_store(
    state_dir: "str | Path | None", fsync: bool = True
) -> StateStore:
    """The ``--state-dir`` wiring seam: ``None`` opens a volatile
    :class:`MemoryStore`, a path opens (creating if needed) a durable
    :class:`SqliteStore` rooted there."""
    if state_dir is None:
        return MemoryStore()
    return SqliteStore(state_dir, fsync=fsync)

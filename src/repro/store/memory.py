"""The in-process :class:`StateStore` — today's behavior, made explicit.

Default backend everywhere: state lives exactly as long as the process,
which is what every pre-durability test and benchmark assumes. Because
state owners write through the same seam regardless of backend, a test
can also model "restart the relay, keep the state" by handing the *same*
``MemoryStore`` object to the restarted service — the durable/volatile
distinction then reduces to which store object survives the restart.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.errors import StoreError
from repro.store.base import OP_PUT, StateStore, StoreOp


class MemoryStore(StateStore):
    """Dict-backed store; atomicity is one lock around each batch.

    Like :class:`~repro.store.SqliteStore`, every call after
    :meth:`close` raises :class:`StoreError`, except ``close`` itself
    (idempotent) and ``counters``.
    """

    persistent = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, dict[str, bytes]] = {}
        self._closed = False
        self.batches_applied = 0
        self.ops_applied = 0

    def _live(self) -> dict[str, dict[str, bytes]]:
        """The open store's data; callers hold ``self._lock``."""
        if self._closed:
            raise StoreError("memory state store is closed")
        return self._data

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._data = {}

    def get(self, namespace: str, key: str) -> bytes | None:
        with self._lock:
            space = self._live().get(namespace)
            return space.get(key) if space is not None else None

    def scan(self, namespace: str, prefix: str = "") -> list[tuple[str, bytes]]:
        with self._lock:
            space = self._live().get(namespace, {})
            return sorted(
                (key, value)
                for key, value in space.items()
                if key.startswith(prefix)
            )

    def apply(self, ops: Sequence[StoreOp]) -> None:
        ops = list(ops)  # materialize (and validate) before mutating
        with self._lock:
            data = self._live()
            for operation in ops:
                if operation.op == OP_PUT:
                    data.setdefault(operation.namespace, {})[
                        operation.key
                    ] = operation.value
                else:
                    space = data.get(operation.namespace)
                    if space is not None:
                        space.pop(operation.key, None)
            self.batches_applied += 1
            self.ops_applied += len(ops)

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "batches_applied": self.batches_applied,
                "ops_applied": self.ops_applied,
            }

"""The :class:`StateStore` seam — durable state behind one small interface.

The paper's relay is the trust-critical middleware hop, and everything it
must remember across a crash (the exactly-once idempotency record, the
served-subscription table, an exchange coordinator's journal) reduces to
a namespaced key/value map with atomic multi-key commits. This module
defines that seam; :mod:`repro.store.memory` keeps today's in-process
behavior and :mod:`repro.store.sqlite` commits it to an sqlite database
for real durability. State owners program against :class:`StateStore`
only — which backend is wired in is a deployment decision
(``--state-dir``), never a code path.

Model:

- keys live in string *namespaces* (``"relay/idempotency"``), values are
  opaque bytes — serialization stays with the state owner;
- :meth:`StateStore.apply` commits a batch of operations atomically: a
  crash mid-commit yields all of the batch or none of it.

A change to what an owner stores is read by a translation function
beside the owner's reader (the coordinator's two-party journals are the
example), not by a store-level migration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import StoreError

#: Operation codes.
OP_PUT = 0
OP_DELETE = 1


@dataclass(frozen=True)
class StoreOp:
    """One key/value operation inside an atomic batch."""

    op: int
    namespace: str
    key: str
    value: bytes = b""

    def __post_init__(self) -> None:
        if self.op not in (OP_PUT, OP_DELETE):
            raise StoreError(f"unknown store opcode {self.op}")
        if not self.namespace:
            raise StoreError("store operation has an empty namespace")
        if not self.key:
            raise StoreError("store operation has an empty key")
        if not isinstance(self.value, bytes):
            raise StoreError(
                f"store values are bytes, got {type(self.value).__name__}"
            )

    @classmethod
    def put(cls, namespace: str, key: str, value: bytes) -> "StoreOp":
        return cls(op=OP_PUT, namespace=namespace, key=key, value=value)

    @classmethod
    def delete(cls, namespace: str, key: str) -> "StoreOp":
        return cls(op=OP_DELETE, namespace=namespace, key=key)


class WriteBatch:
    """Collects operations for one atomic :meth:`StateStore.apply`."""

    def __init__(self) -> None:
        self.ops: list[StoreOp] = []

    def put(self, namespace: str, key: str, value: bytes) -> "WriteBatch":
        self.ops.append(StoreOp.put(namespace, key, value))
        return self

    def delete(self, namespace: str, key: str) -> "WriteBatch":
        self.ops.append(StoreOp.delete(namespace, key))
        return self

    def __len__(self) -> int:
        return len(self.ops)


class StateStore(ABC):
    """Namespaced key/value storage with atomic batches.

    Thread-safe: one store may be shared by every state owner in a relay
    process (each owner keeps to its own namespaces).
    """

    #: Does state survive :meth:`close` + reopen (a process restart)?
    persistent = False

    @abstractmethod
    def get(self, namespace: str, key: str) -> bytes | None:
        """The value under (namespace, key), or ``None``."""

    @abstractmethod
    def scan(self, namespace: str, prefix: str = "") -> list[tuple[str, bytes]]:
        """All (key, value) pairs in ``namespace`` whose key starts with
        ``prefix``, sorted by key."""

    @abstractmethod
    def apply(self, ops: Sequence[StoreOp]) -> None:
        """Commit a batch atomically (all ops or none)."""

    def put(self, namespace: str, key: str, value: bytes) -> None:
        self.apply([StoreOp.put(namespace, key, value)])

    def delete(self, namespace: str, key: str) -> None:
        self.apply([StoreOp.delete(namespace, key)])

    @contextmanager
    def batch(self) -> Iterator[WriteBatch]:
        """Collect ops and commit them atomically on clean exit::

            with store.batch() as batch:
                batch.put("ns", "a", b"1").delete("ns", "b")

        An exception inside the block commits nothing.
        """
        pending = WriteBatch()
        yield pending
        if pending.ops:
            self.apply(pending.ops)

    def close(self) -> None:
        """Release backend resources; the store is unusable afterwards."""

    def counters(self) -> dict[str, int]:
        """Operational counters for the ops plane (name -> monotonic
        count). Backends override with what they actually track —
        applied batches and operations; the default exports nothing.
        Exported as ``repro_store_ops_total`` by
        :func:`repro.ops.exporters.register_relay`.
        """
        return {}


__all__ = [
    "OP_DELETE",
    "OP_PUT",
    "StateStore",
    "StoreOp",
    "WriteBatch",
]

"""The ordering service.

Fabric separates ordering from execution: "a separate ordering service
creates and disseminates blocks" (§4.1). :class:`OrderingService` holds
the common machinery (batching, block cutting, in-order delivery to the
registered committers) and :class:`SoloOrderer` is its one
implementation, a single-node orderer that cuts a block per batch. The
paper needs ordering, not crash-tolerant ordering.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.crypto.hashing import sha256
from repro.errors import OrderingError
from repro.fabric.ledger import Block, Transaction

Committer = Callable[[Block], None]


class OrderingService(ABC):
    """Common machinery: batching, block cutting, ordered delivery."""

    def __init__(self, channel: str, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise OrderingError(f"batch size must be >= 1, got {batch_size}")
        self.channel = channel
        self.batch_size = batch_size
        self._committers: list[Committer] = []
        self._height = 0
        self._last_hash = sha256(b"genesis:" + channel.encode("utf-8"))
        self.blocks_delivered = 0

    def register_committer(self, committer: Committer) -> None:
        """Register a peer's ``commit_block`` to receive delivered blocks."""
        self._committers.append(committer)

    def _deliver(self, transactions: list[Transaction]) -> Block:
        block = Block(
            number=self._height,
            previous_hash=self._last_hash,
            transactions=transactions,
        )
        self._height += 1
        self._last_hash = block.hash()
        self.blocks_delivered += 1
        for committer in self._committers:
            committer(block)
        return block

    @abstractmethod
    def submit(self, transaction: Transaction) -> None:
        """Enqueue an endorsed transaction for ordering."""

    @abstractmethod
    def flush(self) -> None:
        """Force any partial batch to be cut and delivered."""


class SoloOrderer(OrderingService):
    """A single trusted orderer node (Fabric's development profile)."""

    def __init__(self, channel: str, batch_size: int = 1) -> None:
        super().__init__(channel, batch_size)
        self._pending: list[Transaction] = []

    def submit(self, transaction: Transaction) -> None:
        self._pending.append(transaction)
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._deliver(batch)

"""Driver interface: network-neutral protocol -> platform calls."""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.errors import UnsupportedCapabilityError
from repro.proto.messages import (
    PROTOCOL_VERSION,
    STATUS_ACCESS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    Attestation,
    EventSubscribeRequest,
    NetworkQuery,
    QueryResponse,
)

_logger = logging.getLogger("repro.driver")


class NetworkDriver(ABC):
    """Translates :class:`NetworkQuery` into calls on one concrete network.

    A driver runs *inside* the source network's trust domain (it is part of
    the relay deployment) but holds no signing keys of its own: proofs come
    from peers, so a compromised driver can deny service but cannot forge
    consensus-backed data.
    """

    platform: str = ""

    #: Upper bound on concurrent in-flight queries when serving a batch.
    #: Drivers fronting networks whose client stack is not thread-safe can
    #: set this to 1 to force sequential execution.
    batch_concurrency: int = 4

    #: Capability flags — the relay routes transact/subscribe/asset
    #: envelopes only to drivers that declare support (§2 lists query,
    #: transact, and publish/subscribe as the three interoperability
    #: primitives; hash-time-locked asset exchange is the §6 extension).
    supports_transactions: bool = False
    supports_events: bool = False
    supports_assets: bool = False

    def __init__(self, network_id: str) -> None:
        self.network_id = network_id
        self._asset_port = None

    @abstractmethod
    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        """Orchestrate proof collection for one query (§3.3 steps 5-7)."""

    # -- transaction capability ---------------------------------------------------

    def execute_transaction(self, query: NetworkQuery) -> QueryResponse:
        """Run one request through the network's commit pipeline (§5).

        The default declines: a driver opts in by setting
        :attr:`supports_transactions` and overriding this with an
        implementation whose attestations cover the *committed* outcome
        (tx id, block number, validation code).
        """
        return self._error(
            query,
            f"driver for network {self.network_id!r} does not support "
            f"cross-network transactions",
        )

    def execute_transaction_batch(
        self, queries: Sequence[NetworkQuery]
    ) -> list[QueryResponse]:
        """Serve a batch of transactions with partial-failure semantics.

        Unlike :meth:`execute_batch`, members run *sequentially*: commit
        ordering within one envelope is part of the contract (a batch of
        transactions replays deterministically), and concurrent submission
        would race MVCC validation for overlapping keys.
        """
        return [self._execute_transaction_guarded(query) for query in queries]

    def _execute_transaction_guarded(self, query: NetworkQuery) -> QueryResponse:
        if _logger.isEnabledFor(logging.DEBUG):
            _logger.debug(
                "driver executing transaction",
                extra={"network_id": self.network_id, "nonce": query.nonce},
            )
        try:
            return self.execute_transaction(query)
        except Exception as exc:  # noqa: BLE001 - a batch member must not escape
            return self._error(query, f"driver failed to execute the transaction: {exc}")

    # -- event capability ---------------------------------------------------------

    def open_event_tap(
        self,
        request: EventSubscribeRequest,
        listener: Callable[..., None],
    ) -> object:
        """Tap the network's event hub for one remote subscription.

        ``listener`` is called with a
        :class:`repro.interop.events.RemoteEventNotification` for each
        matching committed event. Returns an opaque tap handle for
        :meth:`close_event_tap`. Raises :class:`AccessDeniedError` when the
        source network's exposure control denies the subscription, and
        :class:`UnsupportedCapabilityError` when the driver has no event
        capability.
        """
        raise UnsupportedCapabilityError(
            f"driver for network {self.network_id!r} does not support "
            f"event subscriptions"
        )

    def close_event_tap(self, tap: object) -> None:
        """Deactivate a tap returned by :meth:`open_event_tap`."""

    # -- asset capability ---------------------------------------------------------

    def attach_asset_port(self, port) -> None:
        """Grant the asset capability by attaching an
        :class:`repro.assets.ports.AssetLedgerPort` for this driver's
        network; the relay then routes ``MSG_KIND_ASSET_*`` envelopes here.
        """
        self._asset_port = port
        self.supports_assets = True

    @property
    def asset_port(self):
        port = self._asset_port
        if port is None:
            raise UnsupportedCapabilityError(
                f"driver for network {self.network_id!r} does not support "
                f"asset operations (no asset ledger port attached)"
            )
        return port

    def lock_asset(self, command):
        """Escrow an asset under a hashlock + timelock (HTLC lock)."""
        return self.asset_port.lock_asset(command)

    def claim_asset(self, command):
        """Transfer a locked asset by revealing the preimage."""
        return self.asset_port.claim_asset(command)

    def unlock_asset(self, command):
        """Refund an expired lock back to the asset's owner."""
        return self.asset_port.unlock_asset(command)

    def asset_status(self, command):
        """Read an asset's current (unproven) lock record."""
        return self.asset_port.asset_status(command)

    def execute_batch(self, queries: Sequence[NetworkQuery]) -> list[QueryResponse]:
        """Serve every query of a batch, fanning across the driver.

        Partial-failure semantics: a member that raises is answered with a
        ``STATUS_ERROR`` response in its slot; the remaining members are
        unaffected. Responses are positional (``result[i]`` answers
        ``queries[i]``).
        """
        queries = list(queries)
        if not queries:
            return []
        workers = min(self.batch_concurrency, len(queries))
        if workers <= 1:
            return [self._execute_guarded(query) for query in queries]
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"driver-{self.network_id}"
        ) as executor:
            return list(executor.map(self._execute_guarded, queries))

    def _execute_guarded(self, query: NetworkQuery) -> QueryResponse:
        try:
            return self.execute_query(query)
        except Exception as exc:  # noqa: BLE001 - a batch member must not escape
            return self._error(query, f"driver failed to execute the query: {exc}")

    # -- shared reply helpers ---------------------------------------------------

    def _attested(
        self, query: NetworkQuery, attestations: list[Attestation], envelope: bytes
    ) -> QueryResponse:
        """The OK reply: the attestations and the one result envelope."""
        response = QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_OK,
            attestations=attestations,
        )
        if query.confidential:
            response.result_cipher = envelope
        else:
            response.result_plain = envelope
        return response

    def _denied(self, query: NetworkQuery, message: str) -> QueryResponse:
        return QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_ACCESS_DENIED,
            error=message,
        )

    def _error(self, query: NetworkQuery, message: str) -> QueryResponse:
        return QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_ERROR,
            error=message,
        )

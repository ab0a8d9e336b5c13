"""The multiplexed gateway session: all three §2 primitives, one state.

"Networks should expose the following operations for interoperability:
(i) query the state of a different network, (ii) carry out transactions
on different networks, and (iii) publish and subscribe to events of other
networks" (§2). A :class:`GatewaySession` is the one object an
application holds to do all three, multiplexed over a single relay
connection state:

- **per-session auth** — one identity signs, decrypts, and is
  exposure-checked for every query, transaction, and subscription;
- **shared interceptor chain** — all traffic leaves through the same
  relay, so rate limiting, metrics, logging, and caching observe the
  session as one stream;
- **shared policy/discovery amortization** — CMDAC verification-policy
  lookups resolve once per target network and are reused across queries,
  transactions, and re-flushes; relay-level discovery and failover are
  shared per flush exactly as for PR 1's batched queries.

Sessions are cheap: a long-lived service holds one per principal; the
:class:`~repro.api.InteropGateway` façade keeps a default session for its
one-liner surface. Closing a session tears down its live subscriptions on
the source relays.
"""

from __future__ import annotations

import logging

from repro.api.batch import (
    QueryHandle,
    QuerySet,
    TransactionHandle,
    TransactionSet,
)
from repro.api.builder import (
    CycleBuilder,
    ExchangeBuilder,
    QueryBuilder,
    TransactionBuilder,
)
from repro.api.streams import EventVerifier, VerifiedEventStream
from repro.errors import AddressError
from repro.interop.client import InteropClient
from repro.interop.relay import RelayService
from repro.interop.transactions import RemoteTransactionClient
from repro.ops.trace import ensure_trace
from repro.proto.messages import (
    PROTOCOL_VERSION,
    EventSubscribeRequest,
    NetworkAddressMsg,
)

logger = logging.getLogger("repro.api")


class GatewaySession:
    """One principal's multiplexed query/transact/subscribe surface."""

    def __init__(
        self,
        client: InteropClient,
        transaction_client: RemoteTransactionClient | None = None,
    ) -> None:
        self._client = client
        self._tx_client = (
            transaction_client
            if transaction_client is not None
            else RemoteTransactionClient(client)
        )
        #: CMDAC verification policies resolved once per target network,
        #: shared by every query and transaction flush of this session.
        self._policy_cache: dict[str, str] = {}
        self._ambient_queries: QuerySet | None = None
        self._ambient_transactions: TransactionSet | None = None
        self._streams: list[VerifiedEventStream] = []
        self.closed = False

    # -- composition --------------------------------------------------------------

    @property
    def client(self) -> InteropClient:
        return self._client

    @property
    def transaction_client(self) -> RemoteTransactionClient:
        return self._tx_client

    @property
    def relay(self) -> RelayService:
        return self._client.relay

    @property
    def identity(self):
        return self._client.identity

    @property
    def network_id(self) -> str:
        return self._client.network_id

    @property
    def streams(self) -> tuple[VerifiedEventStream, ...]:
        """This session's live (unclosed) event streams."""
        return tuple(stream for stream in self._streams if not stream.closed)

    # -- primitive i: query -------------------------------------------------------

    def query(self, address: str) -> QueryBuilder:
        """Fluent builder whose ``submit()`` joins the ambient query set."""
        if self._ambient_queries is None or self._ambient_queries.flushed:
            self._ambient_queries = QuerySet(
                self._client, policy_cache=self._policy_cache
            )
        return self._ambient_queries.query(address)

    def batch(self) -> QuerySet:
        """An explicit, independently-flushed query set."""
        return QuerySet(self._client, policy_cache=self._policy_cache)

    # -- primitive ii: transact ---------------------------------------------------

    def transact(self, address: str) -> TransactionBuilder:
        """Fluent builder whose ``submit()`` joins the ambient transaction set."""
        if (
            self._ambient_transactions is None
            or self._ambient_transactions.flushed
        ):
            self._ambient_transactions = TransactionSet(
                self._tx_client, policy_cache=self._policy_cache
            )
        return self._ambient_transactions.transact(address)

    def transaction_batch(self) -> TransactionSet:
        """An explicit, independently-flushed transaction set."""
        return TransactionSet(self._tx_client, policy_cache=self._policy_cache)

    # -- primitive iii: subscribe -------------------------------------------------

    def subscribe(
        self,
        address: str,
        event_name: str,
        verifier: EventVerifier | None = None,
    ) -> VerifiedEventStream:
        """Subscribe to a remote chaincode event; returns a verified stream.

        ``address`` names the source chaincode as ``network/ledger/contract``
        (three segments — the event, unlike a query, addresses no function);
        ``event_name`` is the chaincode event (``*`` matches any). The
        subscribe round-trip rides a ``MSG_KIND_EVENT_SUBSCRIBE`` envelope
        through discovery, failover, and the interceptor chain, and is
        exposure-checked by the source ECC under ``event:<name>``. Raises
        :class:`AccessDeniedError` on governance denial.

        ``verifier`` configures the notify-then-verify upgrade; without
        one the stream only exposes its (untrusted) raw backlog.
        """
        segments = address.split("/")
        if len(segments) != 3 or not all(segments):
            raise AddressError(
                f"event address {address!r} must be network/ledger/chaincode"
            )
        network, ledger, chaincode = segments
        request = EventSubscribeRequest(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network=network, ledger=ledger, contract=chaincode, function=""
            ),
            event_name=event_name,
            auth=self._client.auth_info(),
        )
        stream = VerifiedEventStream(
            self._client,
            source_network=network,
            chaincode=chaincode,
            event_name=event_name,
            verifier=verifier,
            on_close=self._close_stream,
        )
        with ensure_trace():
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "subscribing to remote events",
                    extra={"address": address, "event_name": event_name},
                )
            stream.subscription_id = self.relay.remote_subscribe(
                request, stream._deliver
            )
        self._streams.append(stream)
        return stream

    # -- primitive iv: atomic asset exchange --------------------------------------

    def exchange(self) -> ExchangeBuilder:
        """Fluent builder for a two-party atomic asset exchange (HTLC).

        This session's identity is the *initiator*: it offers an asset on
        its own network and generates the exchange secret. See
        :class:`repro.api.ExchangeBuilder` for the full surface.
        """
        return ExchangeBuilder(self._client)

    def exchange_cycle(self) -> CycleBuilder:
        """Fluent builder for an N-party cyclic atomic swap.

        This session's identity is *party 0*: it escrows the first leg,
        holds the cycle secret, and opens the backward claim walk. See
        :class:`repro.api.CycleBuilder` for the full surface.
        """
        return CycleBuilder(self._client)

    def _close_stream(self, stream: VerifiedEventStream) -> None:
        self.relay.remote_unsubscribe(
            stream.source_network, stream.subscription_id
        )
        if stream in self._streams:
            self._streams.remove(stream)

    # -- lifecycle ----------------------------------------------------------------

    def dispatch(self) -> list[QueryHandle | TransactionHandle]:
        """Flush both ambient sets now; returns the resolved handles."""
        handles: list[QueryHandle | TransactionHandle] = []
        if self._ambient_queries is not None:
            ambient, self._ambient_queries = self._ambient_queries, None
            handles.extend(ambient.flush())
        if self._ambient_transactions is not None:
            ambient_tx, self._ambient_transactions = (
                self._ambient_transactions,
                None,
            )
            handles.extend(ambient_tx.flush())
        return handles

    def close(self) -> None:
        """Tear down every live subscription of this session."""
        if self.closed:
            return
        self.closed = True
        for stream in list(self._streams):
            stream.close()

    def __enter__(self) -> "GatewaySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

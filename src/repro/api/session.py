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
:class:`~repro.api.InteropGateway` façade is itself a session, and opens
further ones with ``session()``. Closing a session tears down its live
subscriptions on the source relays.
"""

from __future__ import annotations

import logging

from repro.api.batch import QueryHandle, QuerySet
from repro.api.builder import CycleBuilder, ExchangeBuilder, QueryBuilder
from repro.api.streams import EventVerifier, VerifiedEventStream
from repro.errors import AddressError
from repro.interop.client import InteropClient
from repro.interop.relay import RelayService
from repro.ops.trace import ensure_trace
from repro.proto.messages import (
    PROTOCOL_VERSION,
    EventSubscribeRequest,
    NetworkAddressMsg,
)

logger = logging.getLogger("repro.api")


class GatewaySession:
    """One principal's multiplexed query/transact/subscribe surface."""

    def __init__(self, client: InteropClient) -> None:
        self._client = client
        #: CMDAC verification policies resolved once per target network,
        #: shared by every flush of this session.
        self._policy_cache: dict[str, str] = {}
        self._ambient: QuerySet | None = None
        self._streams: list[VerifiedEventStream] = []
        self.closed = False

    # -- composition --------------------------------------------------------------

    @property
    def client(self) -> InteropClient:
        return self._client

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

    # -- primitives i and ii: query and transact ---------------------------------

    def query(self, address: str) -> QueryBuilder:
        """Fluent query builder whose ``submit()`` joins the ambient set.

        The ambient set flushes when any of its handles is awaited (or via
        :meth:`dispatch`); submissions after a flush start a fresh set.
        Builders created before any ``submit()`` all bind to the same set —
        only a flush retires it.
        """
        return self._ambient_set().query(address)

    def transact(self, address: str) -> QueryBuilder:
        """Fluent builder for a cross-network transaction (§5 extension).

        Same pipeline model as :meth:`query`, in the same ambient set:
        ``submit()`` joins it, ``execute()`` runs immediately. Results
        carry attestations over the committed transaction id and block.
        """
        return self._ambient_set().transact(address)

    def batch(self) -> QuerySet:
        """An explicit, independently-flushed set for either verb."""
        return QuerySet(self._client, policy_cache=self._policy_cache)

    def _ambient_set(self) -> QuerySet:
        if self._ambient is None or self._ambient.flushed:
            self._ambient = QuerySet(self._client, policy_cache=self._policy_cache)
        return self._ambient

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
        its own network, generates the exchange secret, and reveals it only
        after proof-verifying the counterparty's escrow. Lock/claim/unlock
        commands ride ``MSG_KIND_ASSET_*`` relay envelopes through the same
        discovery, failover, and interceptor path as queries. See
        :class:`repro.api.ExchangeBuilder` for the full surface.
        """
        return ExchangeBuilder(self._client)

    def exchange_cycle(self) -> CycleBuilder:
        """Fluent builder for an N-party cyclic atomic swap.

        This session's identity is *party 0*: it escrows the first leg,
        holds the cycle secret, and opens the backward claim walk after
        proof-verifying that the hashlock survived the whole ring.
        Timelocks decrement by a fixed hop gap so each claimant's upstream
        window outlives its own. See :class:`repro.api.CycleBuilder` for
        the full surface.
        """
        return CycleBuilder(self._client)

    def _close_stream(self, stream: VerifiedEventStream) -> None:
        self.relay.remote_unsubscribe(
            stream.source_network, stream.subscription_id
        )
        if stream in self._streams:
            self._streams.remove(stream)

    # -- lifecycle ----------------------------------------------------------------

    def dispatch(self) -> list[QueryHandle]:
        """Flush the ambient set now; returns the resolved handles."""
        if self._ambient is None:
            return []
        ambient, self._ambient = self._ambient, None
        return ambient.flush()

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

"""The relay service.

"Deployed within, and acting on behalf of, each network is a relay
service ... [it] serves requests for authentic data from applications by
fetching the data along with verifiable proofs from remote networks"
(§3.2). Design points reproduced here:

- relays exchange only *serialized* protocol messages
  (:class:`repro.proto.RelayEnvelope` framing);
- a relay holds *pluggable network drivers* for the network(s) it fronts
  and a *pluggable discovery service* for finding remote relays;
- the architecture "assumes minimal trust in the relay": a relay never
  sees plaintext results or decryptable proofs in confidential mode;
- availability: rate limiting sheds DoS load, and destination-side lookup
  returns all redundant relays of a network so callers fail over (§5);
- cross-cutting concerns (rate limiting, metrics, logging, caching) are
  *composable interceptors* installed with :meth:`RelayService.use`
  rather than hardwired into the request path — see
  :mod:`repro.api.middleware` for the stock interceptors.

Batching: a :data:`~repro.proto.messages.MSG_KIND_BATCH_REQUEST` envelope
carries N queries to one target network in a single round-trip, sharing one
discovery lookup and one failover loop, with the serving driver fanning the
members concurrently (:meth:`NetworkDriver.execute_batch`).

All three §2 primitives ride the same machinery: transactions travel as
``MSG_KIND_TRANSACT_REQUEST`` envelopes (and as ``invocation`` -marked
batch members) routed to a transaction-capable driver, and event
subscriptions as ``MSG_KIND_EVENT_SUBSCRIBE`` / ``_PUBLISH`` /
``_UNSUBSCRIBE`` envelopes — the source relay taps its network's event hub
and pushes notifications to the subscriber's relay through the very same
discovery lookup and failover loop used for queries.

Asset exchange (the §6 extension) adds the ``MSG_KIND_ASSET_LOCK`` /
``_CLAIM`` / ``_UNLOCK`` / ``_STATUS`` family: hash-time-locked commands
routed to an asset-capable driver (:mod:`repro.assets.ports`) and
answered with ``MSG_KIND_ASSET_ACK``, again over the same path.

Concurrency: a relay may be served from many threads at once (a
:class:`repro.net.RelayServer` runs :meth:`RelayService.handle_request`
on a worker-thread executor), so all shared mutable state — the
idempotency record, stats counters, the lazily-built interceptor chain,
and the subscription/sink tables — is lock-guarded, and side-effecting
envelopes execute exactly once per ``request_id`` even when duplicates
collide on different serve threads. Drivers fronting substrates that
cannot take concurrent load install a
:class:`~repro.api.SerializingInterceptor`.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import OrderedDict, deque
from typing import Callable, Sequence

from repro.errors import (
    AccessDeniedError,
    DiscoveryError,
    DoSError,
    ProtocolError,
    RelayError,
    RelayUnavailableError,
    UnsupportedCapabilityError,
)
from repro.interop.discovery import DiscoveryService
from repro.interop.drivers.base import NetworkDriver
from repro.proto.messages import (
    ASSET_COMMAND_KINDS,
    ERROR_KIND_CAPABILITY,
    ERROR_KIND_HEADER,
    INVOCATION_TRANSACTION,
    MSG_KIND_ASSET_ACK,
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_STATUS,
    MSG_KIND_ASSET_UNLOCK,
    MSG_KIND_BATCH_REQUEST,
    MSG_KIND_BATCH_RESPONSE,
    MSG_KIND_ERROR,
    MSG_KIND_EVENT_ACK,
    MSG_KIND_EVENT_PUBLISH,
    MSG_KIND_EVENT_SUBSCRIBE,
    MSG_KIND_EVENT_UNSUBSCRIBE,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_QUERY_RESPONSE,
    MSG_KIND_TRANSACT_REQUEST,
    MSG_KIND_TRANSACT_RESPONSE,
    PROTOCOL_VERSION,
    SIDE_EFFECTING_HEADER,
    SIDE_EFFECTING_KINDS,
    STATUS_ACCESS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    AssetAckMsg,
    AssetCommandMsg,
    BatchQueryRequest,
    BatchQueryResponse,
    EventAck,
    EventNotificationMsg,
    EventSubscribeRequest,
    EventUnsubscribeRequest,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
)
from repro.ops.trace import activate, ensure_trace, from_headers, inject, new_trace, reply_headers
from repro.store import MemoryStore, StateStore
from repro.utils.clock import Clock, SystemClock
from repro.utils.ids import random_id

#: :class:`~repro.store.StateStore` namespaces the relay owns.
NS_IDEMPOTENCY = "relay/idempotency"
NS_SUBSCRIPTIONS = "relay/subscriptions"
#: An idempotency record is this many bytes of big-endian sequence number,
#: then the reply.
_SEQUENCE_BYTES = 8

#: Structured relay-layer logging (see :mod:`repro.ops.logging`); the
#: active :class:`~repro.ops.trace.TraceContext` is stamped on every
#: record by the ops log filter.
logger = logging.getLogger("repro.relay")


class RateLimiter:
    """A sliding-window request limiter (the relay's DoS self-protection).

    "DoS protection can also be built into the relay service, protecting
    the peers themselves from such attacks" (§5).
    """

    def __init__(self, max_requests: int, window_seconds: float, clock: Clock | None = None) -> None:
        if max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        self.max_requests = max_requests
        self.window_seconds = window_seconds
        self._clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._timestamps: deque[float] = deque()
        self.rejected = 0

    def allow(self) -> bool:
        now = self._clock.now()
        with self._lock:
            while self._timestamps and now - self._timestamps[0] > self.window_seconds:
                self._timestamps.popleft()
            if len(self._timestamps) >= self.max_requests:
                self.rejected += 1
                return False
            self._timestamps.append(now)
            return True


class RelayStats:
    """Operational counters for a relay.

    A concurrently-serving relay updates these from many threads, so all
    mutations go through :meth:`bump` (a read-modify-write under one
    lock); plain attribute reads stay cheap and are at worst one bump
    stale, which is fine for operational counters. Exporters read the
    whole set atomically through :meth:`snapshot`.
    """

    _COUNTER_NAMES = (
        "requests_served",
        "requests_rejected",
        "requests_failed",
        "queries_sent",
        "failovers",
        "batches_served",
        "batches_sent",
        "transactions_sent",
        "transactions_served",
        "subscriptions_opened",
        "subscriptions_served",
        "events_published",
        "events_delivered",
        "events_dropped",
        "asset_commands_sent",
        "asset_commands_served",
        "duplicates_suppressed",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_served = 0
        self.requests_rejected = 0
        self.requests_failed = 0
        self.queries_sent = 0
        self.failovers = 0
        self.batches_served = 0
        self.batches_sent = 0
        self.transactions_sent = 0
        self.transactions_served = 0
        self.subscriptions_opened = 0  # destination side: live remote subs
        self.subscriptions_served = 0  # source side: subs this relay feeds
        self.events_published = 0  # source side: notifications pushed out
        self.events_delivered = 0  # destination side: notifications sunk
        self.events_dropped = 0  # source side: undeliverable notifications
        self.asset_commands_sent = 0  # destination side: HTLC verbs issued
        self.asset_commands_served = 0  # source side: HTLC verbs executed
        #: Source side: side-effecting envelopes answered from the
        #: idempotency cache instead of being re-executed.
        self.duplicates_suppressed = 0

    def bump(self, name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to the counter called ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict[str, int]:
        """All counters, read atomically (one lock acquisition)."""
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTER_NAMES}


class RelayContext:
    """One inbound request as it travels the interceptor chain.

    Interceptors see the raw serialized request plus a best-effort decoded
    view: :attr:`envelope` is the parsed :class:`RelayEnvelope` (or ``None``
    when the bytes do not decode), so even a request that is about to be
    shed can be answered with a correlatable ``request_id``.
    """

    _UNSET = object()

    def __init__(self, relay: "RelayService", raw: bytes) -> None:
        self.relay = relay
        self.raw = raw
        #: Scratch space for interceptors to pass notes down the chain.
        self.metadata: dict[str, object] = {}
        self._envelope: object = self._UNSET
        self.decode_error: Exception | None = None

    @property
    def envelope(self) -> RelayEnvelope | None:
        """The decoded request envelope, or ``None`` if undecodable."""
        if self._envelope is self._UNSET:
            try:
                self._envelope = RelayEnvelope.decode(self.raw)
            except Exception as exc:  # noqa: BLE001 - best-effort peek: undecodable bytes are recorded for _dispatch to answer
                self._envelope = None
                self.decode_error = exc
        return self._envelope  # type: ignore[return-value]

    @property
    def request_id(self) -> str:
        """The peeked request id ('' when the envelope is undecodable)."""
        envelope = self.envelope
        return envelope.request_id if envelope is not None else ""

    @property
    def kind(self) -> int:
        envelope = self.envelope
        return envelope.kind if envelope is not None else 0

    def error_reply(self, message: str, retryable: bool) -> bytes:
        """A serialized error envelope correlated to this request."""
        return self.relay._error_envelope(self.request_id, message, retryable)


# An interceptor wraps the rest of the chain: it receives the request
# context and a continuation, and returns serialized response bytes.
RelayHandler = Callable[[RelayContext], bytes]
RelayInterceptor = Callable[[RelayContext, RelayHandler], bytes]


class _ServedSubscription:
    """Source-side record of one remote subscription this relay feeds."""

    def __init__(
        self,
        subscription_id: str,
        subscriber_network: str,
        driver: NetworkDriver,
        tap: object | None = None,
    ) -> None:
        self.subscription_id = subscription_id
        self.subscriber_network = subscriber_network
        self.driver = driver
        self.tap = tap


class RateLimitInterceptor:
    """The relay's DoS self-protection as a chain interceptor.

    Sheds load before any further processing, but answers with an error
    envelope that carries the peeked ``request_id`` so the caller can
    correlate the rejection to its in-flight request.
    """

    def __init__(self, limiter: RateLimiter) -> None:
        self.limiter = limiter

    def __call__(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        if not self.limiter.allow():
            ctx.relay.stats.bump("requests_rejected")
            return ctx.error_reply("rate limit exceeded: request shed", retryable=True)
        return call_next(ctx)


class RelayService:
    """One network's relay: serves local apps and answers remote relays.

    Durability: every piece of state a restarted relay must remember
    lives behind the ``store`` seam (:class:`repro.store.StateStore`) —
    the exactly-once idempotency record and the served-subscription
    table. The default :class:`~repro.store.MemoryStore` preserves
    process-lifetime semantics; wiring a
    :class:`~repro.store.SqliteStore` makes a crashed relay answer
    replayed side-effecting envelopes from the durable record and
    (after :meth:`recover`) re-open its event taps.

    Bounded eviction: the idempotency record keeps at most
    ``idempotency_capacity`` replies, evicted strictly
    oldest-recorded-first (FIFO by a monotonic sequence number that is
    persisted with each reply, so the eviction order — and therefore
    *which* duplicates are still suppressed — is identical before and
    after a restart). An evicted request_id's replay re-routes to the
    driver like a fresh request; deploy the capacity above the
    adversary's replay window.
    """

    def __init__(
        self,
        network_id: str,
        discovery: DiscoveryService,
        clock: Clock | None = None,
        rate_limiter: RateLimiter | None = None,
        relay_id: str | None = None,
        store: StateStore | None = None,
        idempotency_capacity: int = 1024,
    ) -> None:
        if idempotency_capacity < 1:
            raise ValueError("idempotency_capacity must be >= 1")
        self.network_id = network_id
        self.relay_id = relay_id or f"relay-{network_id}"
        self._discovery = discovery
        self._clock = clock or SystemClock()
        self._rate_limiter = rate_limiter
        self._drivers: dict[str, NetworkDriver] = {}
        self._interceptors: list[RelayInterceptor] = []
        self._chain: RelayHandler | None = None
        #: Guards the lazy interceptor-chain build against concurrent
        #: first requests (and against a concurrent ``use()``).
        self._chain_lock = threading.Lock()
        #: Guards the subscription/sink tables below.
        self._subscriptions_lock = threading.RLock()
        #: Source side: live subscriptions this relay feeds, by id.
        self._served_subscriptions: dict[str, _ServedSubscription] = {}
        #: Destination side: local delivery callbacks for subscriptions
        #: opened by this relay's applications, by subscription id.
        self._event_sinks: dict[str, Callable[[EventNotificationMsg], None]] = {}
        #: Exactly-once execution for side-effecting envelopes: a duplicate
        #: delivery of the same ``request_id`` (relay retry, adversarial
        #: replay, network-level duplication) is answered with the original
        #: reply instead of re-executing the command. Bounded FIFO. Values
        #: are the stored records themselves (8-byte sequence + reply): the
        #: same ``bytes`` object the store holds, so each reply is resident
        #: once, not twice.
        self._idempotency: OrderedDict[str, bytes] = OrderedDict()
        #: Guards the idempotency record; ``_in_flight`` additionally
        #: maps request_ids being executed *right now* to an event their
        #: concurrent duplicates wait on — check-then-execute without it
        #: would let two simultaneous copies of one request both miss the
        #: record and both commit.
        self._idempotency_lock = threading.Lock()
        self._in_flight: dict[str, threading.Event] = {}
        #: Kept as a plain (mutable) attribute for operational tuning;
        #: the constructor parameter is the supported wiring path.
        self.idempotency_capacity = idempotency_capacity
        #: Durable home for the idempotency record and the subscription
        #: table; MemoryStore by default (state dies with the process).
        self._store = store if store is not None else MemoryStore()
        #: Monotonic recording order for idempotency entries; persisted
        #: with each reply so FIFO eviction survives a restart.
        self._idempotency_seq = 0
        self._load_durable_state()
        self.stats = RelayStats()
        self.available = True  # toggled by availability experiments
        if rate_limiter is not None:
            # Legacy shim: the constructor-injected limiter becomes the
            # first interceptor of the chain.
            self.use(RateLimitInterceptor(rate_limiter))

    def _load_durable_state(self) -> None:
        """Rebuild the in-memory idempotency record from the store.

        Entries are ordered by their persisted sequence number so the
        restarted relay's FIFO eviction continues exactly where the
        crashed one stopped; anything beyond capacity (a restart with a
        smaller capacity) is dropped oldest-first, from disk too.
        """
        entries: list[tuple[int, str, bytes]] = []
        for key, value in self._store.scan(NS_IDEMPOTENCY):
            if len(value) < _SEQUENCE_BYTES:
                continue  # unreadable row: treat as evicted
            entries.append((int.from_bytes(value[:_SEQUENCE_BYTES], "big"), key, value))
        entries.sort()
        overflow = (
            entries[: -self.idempotency_capacity]
            if len(entries) > self.idempotency_capacity
            else []
        )
        with self._idempotency_lock:
            for _, key, record in entries[len(overflow):]:
                self._idempotency[key] = record
            if entries:
                self._idempotency_seq = entries[-1][0] + 1
        if overflow:
            with self._store.batch() as batch:
                for _, key, _ in overflow:
                    batch.delete(NS_IDEMPOTENCY, key)

    def recover(self) -> list[str]:
        """Re-open event taps for durably-recorded subscriptions.

        The idempotency record is reloaded at construction; what cannot
        be reloaded automatically are the *taps* — live hooks into a
        driver's event hub. Call this after the application has
        re-registered its drivers: each persisted served subscription
        whose target driver is event-capable again is re-tapped (the
        subscriber's sink callbacks live in *its* relay process and are
        untouched). Records whose driver is not registered yet stay
        durable for a later call; records that no longer decode or whose
        tap the source now denies are dropped. Returns the re-opened
        subscription ids.
        """
        restored: list[str] = []
        for subscription_id, raw in self._store.scan(NS_SUBSCRIPTIONS):
            try:
                persisted = json.loads(raw.decode("utf-8"))
                request = EventSubscribeRequest.decode(
                    bytes.fromhex(persisted["request"])
                )
                subscriber_network = persisted["subscriber_network"]
                target_network = persisted["target_network"]
            except Exception:  # noqa: BLE001 - one corrupt record is dropped, never fatal to the rest of recovery
                self._store.delete(NS_SUBSCRIPTIONS, subscription_id)
                continue
            driver = self._drivers.get(target_network)
            if driver is None or not driver.supports_events:
                continue  # left durable: the driver may register later
            record = _ServedSubscription(
                subscription_id=subscription_id,
                subscriber_network=subscriber_network,
                driver=driver,
            )
            with self._subscriptions_lock:
                if subscription_id in self._served_subscriptions:
                    continue  # already live (double recover())
                self._served_subscriptions[subscription_id] = record

            def push(notification, _record=record) -> None:
                self._publish_event(_record, notification)

            try:
                record.tap = driver.open_event_tap(request, push)
            except Exception:  # noqa: BLE001 - exposure rules may have changed since the crash: drop, don't half-restore
                self._release_claim(subscription_id, record)
                self._store.delete(NS_SUBSCRIPTIONS, subscription_id)
                continue
            restored.append(subscription_id)
        return restored

    @property
    def store(self) -> StateStore:
        return self._store

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def discovery(self) -> DiscoveryService:
        """The discovery service this relay resolves targets through
        (exporters read pool/counter state off it when present)."""
        return self._discovery

    @property
    def idempotency_size(self) -> int:
        """Entries currently held in the exactly-once record (exported
        as a gauge by :func:`repro.ops.exporters.register_relay`)."""
        with self._idempotency_lock:
            return len(self._idempotency)

    @property
    def driver_networks(self) -> tuple[str, ...]:
        """The network ids this relay holds drivers for (readiness)."""
        return tuple(self._drivers)

    def register_driver(self, driver: NetworkDriver) -> None:
        """Attach a driver for a network this relay fronts (usually its own)."""
        self._drivers[driver.network_id] = driver

    def driver_for(self, network_id: str) -> NetworkDriver | None:
        """The registered driver for ``network_id`` (``None`` if absent)."""
        return self._drivers.get(network_id)

    def _transaction_driver(self, target: str) -> NetworkDriver | None:
        """The transaction-capable driver for ``target``.

        Checks the plainly-registered driver first, then the legacy
        ``<target>#tx`` pseudo-network registration kept by
        :func:`~repro.interop.transactions.enable_remote_transactions`.
        """
        driver = self._drivers.get(target)
        if driver is not None and driver.supports_transactions:
            return driver
        driver = self._drivers.get(target + "#tx")
        if driver is not None and driver.supports_transactions:
            return driver
        return None

    # -- middleware chain ---------------------------------------------------------

    def use(self, *interceptors: RelayInterceptor) -> "RelayService":
        """Append interceptor(s) to the request chain; returns ``self``.

        Interceptors run in registration order (the first registered is the
        outermost); each receives ``(ctx, call_next)`` and must return
        serialized response bytes.
        """
        with self._chain_lock:
            self._interceptors.extend(interceptors)
            self._chain = None
        return self

    @property
    def interceptors(self) -> tuple[RelayInterceptor, ...]:
        return tuple(self._interceptors)

    def _handler_chain(self) -> RelayHandler:
        chain = self._chain
        if chain is None:
            with self._chain_lock:
                if self._chain is None:
                    handler: RelayHandler = self._dispatch
                    for interceptor in reversed(self._interceptors):
                        handler = self._bind(interceptor, handler)
                    self._chain = handler
                chain = self._chain
        return chain

    @staticmethod
    def _bind(interceptor: RelayInterceptor, call_next: RelayHandler) -> RelayHandler:
        def handler(ctx: RelayContext) -> bytes:
            return interceptor(ctx, call_next)

        return handler

    # -- source side: serve incoming requests -----------------------------------

    def _error_envelope(
        self,
        request_id: str,
        message: str,
        retryable: bool,
        error_kind: str = "",
    ) -> bytes:
        headers = {"retryable": "true" if retryable else "false"}
        # Even a rejection (rate-limit shed, undecodable request) carries
        # the caller's trace id back, so it correlates to the request.
        headers.update(reply_headers())
        if error_kind:
            headers[ERROR_KIND_HEADER] = error_kind
        return RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_ERROR,
            request_id=request_id,
            source_network=self.network_id,
            payload=message.encode("utf-8"),
            headers=headers,
        ).encode()

    def handle_request(self, data: bytes) -> bytes:
        """Serve one serialized request from a remote relay.

        The request runs through the interceptor chain and then the kind
        dispatcher. Always returns serialized bytes (an error envelope on
        failure) — a remote relay cannot catch our exceptions across the
        wire. Raises :class:`RelayUnavailableError` only to model a dead
        relay.

        Trace correlation: the envelope's trace headers (if the caller
        stamped any) are re-activated for the whole serve — interceptors,
        the dispatcher, and the driver all run (and log) under the
        caller's trace id; an untraced envelope gets a fresh root so the
        serve is still internally correlated.
        """
        if not self.available:
            raise RelayUnavailableError(f"relay {self.relay_id!r} is down")
        ctx = RelayContext(self, data)
        envelope = ctx.envelope  # decode once; interceptors reuse it
        inbound = from_headers(envelope.headers) if envelope is not None else None
        with activate(inbound or new_trace()):
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "serving inbound envelope",
                    extra={
                        "relay_id": self.relay_id,
                        "request_id": ctx.request_id,
                        "kind": ctx.kind,
                        "bytes_in": len(data),
                    },
                )
            return self._handler_chain()(ctx)

    @staticmethod
    def _is_side_effecting(envelope: RelayEnvelope) -> bool:
        """Does serving this envelope mutate source-network state?"""
        if envelope.kind in SIDE_EFFECTING_KINDS:
            return True
        return (
            envelope.kind == MSG_KIND_BATCH_REQUEST
            and envelope.headers.get(SIDE_EFFECTING_HEADER) == "true"
        )

    def _dispatch(self, ctx: RelayContext) -> bytes:
        """Terminal chain handler: dedup, then route the envelope by kind.

        Side-effecting envelopes are executed *exactly once per
        request_id*: the §4–§5 adversary model lets any party in the path
        duplicate a message (and the failover loop legitimately re-sends
        one after a lost reply), so a transact/asset/event command whose
        ``request_id`` was already served is answered with the recorded
        reply instead of committing again.

        Scope: the record is per-relay. Redundant paths *to one relay*
        (or replays at it) are fully deduplicated; independent relay
        instances fronting the same network do not share the record, so a
        crash-after-execute followed by failover to a *different* relay
        can still re-commit — deploy side-effecting traffic behind one
        logical relay, or give replicas shared storage for this map.
        """
        envelope = ctx.envelope  # one decode, shared with the interceptors
        if envelope is None:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                "", f"undecodable envelope: {ctx.decode_error}", False
            )
        if envelope.request_id and self._is_side_effecting(envelope):
            return self._dispatch_exactly_once(envelope)
        return self._route(envelope)

    def _dispatch_exactly_once(self, envelope: RelayEnvelope) -> bytes:
        """Serve a side-effecting envelope at most once per request_id.

        Concurrent serving adds a hazard the sequential relay never had:
        two byte-identical duplicates arriving on two serve threads can
        *both* miss the idempotency record and both commit. The record
        is therefore claimed under a lock before execution: the first
        thread installs an in-flight marker and executes; concurrent
        duplicates block on the marker and are answered with the
        recorded reply (counted as suppressed), exactly like duplicates
        arriving after completion.
        """
        request_id = envelope.request_id
        while True:
            with self._idempotency_lock:
                replay = self._idempotency.get(request_id)
                if replay is not None:
                    self.stats.bump("duplicates_suppressed")
                    return replay[_SEQUENCE_BYTES:]
                marker = self._in_flight.get(request_id)
                if marker is None:
                    marker = threading.Event()
                    self._in_flight[request_id] = marker
                    break
            # Another thread is executing this very request: wait for it
            # and re-check (its reply lands in the record before the
            # marker is set; a failed execution clears the marker so the
            # duplicate retries the execution itself).
            marker.wait()
        try:
            reply = self._route(envelope)
            with self._idempotency_lock:
                sequence = self._idempotency_seq
                self._idempotency_seq += 1
            # Durability point, deliberately outside the lock (the store
            # fsyncs): the reply must be on disk BEFORE any caller can
            # observe it, or a crash between answering and recording
            # would let the replay re-execute after restart.
            record = sequence.to_bytes(_SEQUENCE_BYTES, "big") + reply
            self._store.put(NS_IDEMPOTENCY, request_id, record)
        except BaseException:
            with self._idempotency_lock:
                self._in_flight.pop(request_id, None)
            marker.set()
            raise
        evicted: list[str] = []
        with self._idempotency_lock:
            self._idempotency[request_id] = record
            while len(self._idempotency) > self.idempotency_capacity:
                evicted.append(self._idempotency.popitem(last=False)[0])
            self._in_flight.pop(request_id, None)
        marker.set()
        if evicted:
            # Mirror FIFO eviction to the store so a restart rebuilds the
            # same bounded window (never more than capacity on disk).
            with self._store.batch() as batch:
                for stale in evicted:
                    batch.delete(NS_IDEMPOTENCY, stale)
        return reply

    def _route(self, envelope: RelayEnvelope) -> bytes:
        if envelope.kind == MSG_KIND_QUERY_REQUEST:
            return self._serve_query(envelope)
        if envelope.kind == MSG_KIND_BATCH_REQUEST:
            return self._serve_batch(envelope)
        if envelope.kind == MSG_KIND_TRANSACT_REQUEST:
            return self._serve_transact(envelope)
        if envelope.kind == MSG_KIND_EVENT_SUBSCRIBE:
            return self._serve_event_subscribe(envelope)
        if envelope.kind == MSG_KIND_EVENT_PUBLISH:
            return self._serve_event_publish(envelope)
        if envelope.kind == MSG_KIND_EVENT_UNSUBSCRIBE:
            return self._serve_event_unsubscribe(envelope)
        if envelope.kind in ASSET_COMMAND_KINDS:
            return self._serve_asset(envelope)
        self.stats.bump("requests_failed")
        return self._error_envelope(
            envelope.request_id, f"unexpected message kind {envelope.kind}", False
        )

    def _serve_query(self, envelope: RelayEnvelope) -> bytes:
        try:
            query = NetworkQuery.decode(envelope.payload)
        except Exception as exc:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id, f"undecodable query: {exc}", False
            )
        target = query.address.network if query.address else ""
        driver = self._drivers.get(target)
        if driver is None:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id,
                f"relay {self.relay_id!r} has no driver for network {target!r}",
                False,
            )
        response = driver.execute_query(query)
        self.stats.bump("requests_served")
        return RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_QUERY_RESPONSE,
            request_id=envelope.request_id,
            source_network=self.network_id,
            destination_network=envelope.source_network,
            payload=response.encode(),
            headers=reply_headers(),
        ).encode()

    def _serve_batch(self, envelope: RelayEnvelope) -> bytes:
        """Serve a batch envelope with partial-failure semantics.

        Members are grouped per (driver, invocation) and fanned via
        :meth:`NetworkDriver.execute_batch` (queries, concurrent) or
        :meth:`NetworkDriver.execute_transaction_batch` (transactions,
        sequential — commit ordering); a member with no driver (or a
        failing member) is answered with an error *response* in its slot —
        only an undecodable batch fails as a whole.
        """
        try:
            batch = BatchQueryRequest.decode(envelope.payload)
        except Exception as exc:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id, f"undecodable batch: {exc}", False
            )
        queries = list(batch.queries)
        responses: list[QueryResponse | None] = [None] * len(queries)
        groups: dict[tuple[str, bool], list[int]] = {}
        for position, query in enumerate(queries):
            target = query.address.network if query.address else ""
            is_transaction = query.invocation == INVOCATION_TRANSACTION
            groups.setdefault((target, is_transaction), []).append(position)
        for (target, is_transaction), positions in groups.items():
            driver = (
                self._transaction_driver(target)
                if is_transaction
                else self._drivers.get(target)
            )
            if driver is None:
                # Stat parity with the singleton path: a member this relay
                # cannot route counts as failed, not served.
                self.stats.bump("requests_failed", len(positions))
                capability = "transaction-capable driver" if is_transaction else "driver"
                for position in positions:
                    responses[position] = QueryResponse(
                        version=PROTOCOL_VERSION,
                        nonce=queries[position].nonce,
                        status=STATUS_ERROR,
                        error=(
                            f"relay {self.relay_id!r} has no {capability} for "
                            f"network {target!r}"
                        ),
                    )
                continue
            members = [queries[p] for p in positions]
            if is_transaction:
                served = driver.execute_transaction_batch(members)
                self.stats.bump("transactions_served", len(positions))
            else:
                served = driver.execute_batch(members)
            for position, response in zip(positions, served):
                responses[position] = response
            self.stats.bump("requests_served", len(positions))
        self.stats.bump("batches_served")
        reply = BatchQueryResponse(
            version=PROTOCOL_VERSION,
            responses=[r for r in responses if r is not None],
        )
        return RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_BATCH_RESPONSE,
            request_id=envelope.request_id,
            source_network=self.network_id,
            destination_network=envelope.source_network,
            payload=reply.encode(),
            headers=reply_headers(),
        ).encode()

    def _serve_transact(self, envelope: RelayEnvelope) -> bytes:
        """Serve a cross-network transaction envelope (§5 extension).

        Routed to the network's transaction-capable driver, which submits
        under its designated local invoker identity and attests the
        *committed* outcome (tx id, block number, validation code).
        """
        try:
            query = NetworkQuery.decode(envelope.payload)
        except Exception as exc:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id, f"undecodable transaction: {exc}", False
            )
        target = query.address.network if query.address else ""
        driver = self._transaction_driver(target)
        if driver is None:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id,
                f"relay {self.relay_id!r} has no transaction-capable driver "
                f"for network {target!r}",
                False,
                error_kind=ERROR_KIND_CAPABILITY,
            )
        response = driver._execute_transaction_guarded(query)
        self.stats.bump("requests_served")
        self.stats.bump("transactions_served")
        return RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_TRANSACT_RESPONSE,
            request_id=envelope.request_id,
            source_network=self.network_id,
            destination_network=envelope.source_network,
            payload=response.encode(),
            headers=reply_headers(),
        ).encode()

    def _serve_asset(self, envelope: RelayEnvelope) -> bytes:
        """Serve one HTLC asset-command envelope (lock/claim/unlock/status).

        Routed to the network's asset-capable driver. Governance and
        contract-rule violations are answered with a non-OK
        :class:`AssetAckMsg` (not an error envelope), so the caller can
        distinguish an on-ledger refusal — which is final — from a
        transport failure worth failing over.
        """
        try:
            command = AssetCommandMsg.decode(envelope.payload)
        except Exception as exc:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id, f"undecodable asset command: {exc}", False
            )
        target = command.address.network if command.address else ""
        driver = self._drivers.get(target)
        if driver is None or not driver.supports_assets:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id,
                f"relay {self.relay_id!r} has no asset-capable driver for "
                f"network {target!r}",
                False,
                error_kind=ERROR_KIND_CAPABILITY,
            )
        verbs = {
            MSG_KIND_ASSET_LOCK: driver.lock_asset,
            MSG_KIND_ASSET_CLAIM: driver.claim_asset,
            MSG_KIND_ASSET_UNLOCK: driver.unlock_asset,
            MSG_KIND_ASSET_STATUS: driver.asset_status,
        }
        try:
            ack = verbs[envelope.kind](command)
        except AccessDeniedError as exc:
            self.stats.bump("requests_failed")
            ack = AssetAckMsg(
                version=PROTOCOL_VERSION,
                nonce=command.nonce,
                status=STATUS_ACCESS_DENIED,
                error=str(exc),
                asset_id=command.asset_id,
            )
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            self.stats.bump("requests_failed")
            ack = AssetAckMsg(
                version=PROTOCOL_VERSION,
                nonce=command.nonce,
                status=STATUS_ERROR,
                error=str(exc),
                asset_id=command.asset_id,
            )
        else:
            self.stats.bump("requests_served")
            self.stats.bump("asset_commands_served")
        return RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_ASSET_ACK,
            request_id=envelope.request_id,
            source_network=self.network_id,
            destination_network=envelope.source_network,
            payload=ack.encode(),
            headers=reply_headers(),
        ).encode()

    # -- source side: event subscriptions ----------------------------------------

    def _event_ack(
        self,
        envelope: RelayEnvelope,
        subscription_id: str,
        status: int = STATUS_OK,
        error: str = "",
    ) -> bytes:
        ack = EventAck(
            version=PROTOCOL_VERSION,
            subscription_id=subscription_id,
            status=status,
            error=error,
        )
        return RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_EVENT_ACK,
            request_id=envelope.request_id,
            source_network=self.network_id,
            destination_network=envelope.source_network,
            payload=ack.encode(),
            headers=reply_headers(),
        ).encode()

    def _serve_event_subscribe(self, envelope: RelayEnvelope) -> bytes:
        """Open a subscription: ECC-gate it, tap the hub, record the feed.

        The ack carries the assigned subscription id; exposure denial comes
        back as a ``STATUS_ACCESS_DENIED`` ack (not an error envelope) so
        the subscriber can distinguish governance denial from transport
        failure.
        """
        try:
            request = EventSubscribeRequest.decode(envelope.payload)
        except Exception as exc:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id, f"undecodable subscription: {exc}", False
            )
        target = request.address.network if request.address else ""
        driver = self._drivers.get(target)
        if driver is None or not driver.supports_events:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id,
                f"relay {self.relay_id!r} has no event-capable driver for "
                f"network {target!r}",
                False,
                error_kind=ERROR_KIND_CAPABILITY,
            )
        subscription_id = request.subscription_id or random_id("sub-")
        subscriber_network = envelope.source_network
        record = _ServedSubscription(
            subscription_id=subscription_id,
            subscriber_network=subscriber_network,
            driver=driver,
        )
        # Claim the id under the lock *before* tapping: two concurrent
        # subscribes proposing one id must not both open taps.
        with self._subscriptions_lock:
            if subscription_id in self._served_subscriptions:
                self.stats.bump("requests_failed")
                return self._event_ack(
                    envelope,
                    "",
                    status=STATUS_ERROR,
                    error=f"subscription id {subscription_id!r} already in use",
                )
            self._served_subscriptions[subscription_id] = record

        def push(notification) -> None:
            self._publish_event(record, notification)

        try:
            record.tap = driver.open_event_tap(request, push)
        except AccessDeniedError as exc:
            self._release_claim(subscription_id, record)
            self.stats.bump("requests_failed")
            return self._event_ack(
                envelope, "", status=STATUS_ACCESS_DENIED, error=str(exc)
            )
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            self._release_claim(subscription_id, record)
            self.stats.bump("requests_failed")
            return self._event_ack(envelope, "", status=STATUS_ERROR, error=str(exc))
        # A concurrent unsubscribe (a duplicated/reordered frame is part
        # of the threat model) may have popped our record while the tap
        # was opening — its pop found no tap to close, so WE must close
        # the one we just opened or it would push events forever.
        with self._subscriptions_lock:
            still_ours = self._served_subscriptions.get(subscription_id) is record
        if not still_ours:
            driver.close_event_tap(record.tap)
            self.stats.bump("requests_failed")
            return self._event_ack(
                envelope,
                "",
                status=STATUS_ERROR,
                error=f"subscription {subscription_id!r} torn down concurrently",
            )
        self._persist_subscription(subscription_id, subscriber_network, request)
        self.stats.bump("requests_served")
        self.stats.bump("subscriptions_served")
        return self._event_ack(envelope, subscription_id)

    def _persist_subscription(
        self,
        subscription_id: str,
        subscriber_network: str,
        request: EventSubscribeRequest,
    ) -> None:
        """Record a served subscription so :meth:`recover` can re-tap it.

        The raw subscribe request is stored (with the assigned id) so
        recovery re-runs the driver's own exposure gate — a subscription
        the source would no longer permit is not silently resurrected.
        """
        request.subscription_id = subscription_id
        self._store.put(
            NS_SUBSCRIPTIONS,
            subscription_id,
            json.dumps(
                {
                    "subscriber_network": subscriber_network,
                    "target_network": request.address.network
                    if request.address
                    else "",
                    "request": request.encode().hex(),
                }
            ).encode("utf-8"),
        )

    def _release_claim(self, subscription_id: str, record: "_ServedSubscription") -> None:
        """Drop a claimed subscription id, but only if it is still ours —
        a concurrent unsubscribe-then-resubscribe may have replaced the
        record, and popping someone else's healthy subscription would
        orphan their tap."""
        with self._subscriptions_lock:
            if self._served_subscriptions.get(subscription_id) is record:
                del self._served_subscriptions[subscription_id]

    def _serve_event_unsubscribe(self, envelope: RelayEnvelope) -> bytes:
        try:
            request = EventUnsubscribeRequest.decode(envelope.payload)
        except Exception as exc:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id, f"undecodable unsubscribe: {exc}", False
            )
        self._drop_served_subscription(request.subscription_id)
        self.stats.bump("requests_served")
        return self._event_ack(envelope, request.subscription_id)

    def _drop_served_subscription(self, subscription_id: str) -> None:
        with self._subscriptions_lock:
            record = self._served_subscriptions.pop(subscription_id, None)
        # Unconditional: an unsubscribe arriving before recover() re-taps
        # must still clear the durable row, or it would resurrect later.
        self._store.delete(NS_SUBSCRIPTIONS, subscription_id)
        if record is not None and record.tap is not None:
            record.driver.close_event_tap(record.tap)

    def _publish_event(self, record: "_ServedSubscription", notification) -> None:
        """Push one notification to the subscriber's network relay(s).

        Rides the same discovery lookup and failover loop as queries.
        Delivery is at-most-once by design: an undeliverable notification
        is counted and dropped (the subscriber reconciles by querying —
        notifications are hints, trusted data comes from proofs), and a
        sink that reports the subscription gone prunes it here.
        """
        message = EventNotificationMsg(
            version=PROTOCOL_VERSION,
            subscription_id=record.subscription_id,
            source_network=self.network_id,
            chaincode=notification.chaincode,
            name=notification.name,
            payload=notification.payload,
            block_number=notification.block_number,
            tx_id=notification.tx_id,
        )
        try:
            ack = self._exchange(
                record.subscriber_network,
                MSG_KIND_EVENT_PUBLISH,
                message.encode(),
                MSG_KIND_EVENT_ACK,
                EventAck.decode,
            )
        except (RelayError, DiscoveryError):
            self.stats.bump("events_dropped")
            return
        if ack.status != STATUS_OK:
            # The subscriber side no longer knows this subscription.
            self.stats.bump("events_dropped")
            self._drop_served_subscription(record.subscription_id)
            return
        self.stats.bump("events_published")

    # -- destination side: local event sinks --------------------------------------

    def register_event_sink(
        self,
        subscription_id: str,
        callback: Callable[[EventNotificationMsg], None],
    ) -> None:
        """Route inbound ``MSG_KIND_EVENT_PUBLISH`` for ``subscription_id``
        to ``callback`` (installed by :class:`repro.api.GatewaySession`)."""
        with self._subscriptions_lock:
            self._event_sinks[subscription_id] = callback

    def unregister_event_sink(self, subscription_id: str) -> None:
        with self._subscriptions_lock:
            self._event_sinks.pop(subscription_id, None)

    def _serve_event_publish(self, envelope: RelayEnvelope) -> bytes:
        try:
            message = EventNotificationMsg.decode(envelope.payload)
        except Exception as exc:
            self.stats.bump("requests_failed")
            return self._error_envelope(
                envelope.request_id, f"undecodable notification: {exc}", False
            )
        with self._subscriptions_lock:
            sink = self._event_sinks.get(message.subscription_id)
        if sink is None:
            # Answered with a non-OK ack (not an error envelope) so the
            # source relay prunes the dead subscription instead of failing
            # over to another relay of this network.
            self.stats.bump("requests_failed")
            return self._event_ack(
                envelope,
                message.subscription_id,
                status=STATUS_ERROR,
                error=(
                    f"relay {self.relay_id!r} has no sink for subscription "
                    f"{message.subscription_id!r}"
                ),
            )
        sink(message)
        self.stats.bump("requests_served")
        self.stats.bump("events_delivered")
        return self._event_ack(envelope, message.subscription_id)

    # -- destination side: query remote networks -----------------------------------

    def remote_query(self, query: NetworkQuery) -> QueryResponse:
        """Send a query to the target network's relay(s) and return the reply.

        Implements steps (2), (3) and (9) of the message flow: discovery
        lookup, serialized forwarding, and response return — with failover
        across redundant remote relays on transport failure or shedding.
        """
        target = self._require_target(query)
        self.stats.bump("queries_sent")
        return self._exchange(
            target,
            MSG_KIND_QUERY_REQUEST,
            query.encode(),
            MSG_KIND_QUERY_RESPONSE,
            QueryResponse.decode,
        )

    def remote_query_batch(self, queries: Sequence[NetworkQuery]) -> list[QueryResponse]:
        """Send N queries, batching the members that share a target network.

        Each distinct target costs one discovery lookup, one batch envelope
        round-trip, and one failover loop regardless of how many member
        queries address it. Responses come back positionally aligned with
        ``queries``. Raises like :meth:`remote_query` — but note that a
        transport-level failure only poisons the members of the affected
        target; query-level failures arrive as error *responses* in their
        slots.
        """
        queries = list(queries)
        if not queries:
            return []
        groups: dict[str, list[int]] = {}
        for position, query in enumerate(queries):
            groups.setdefault(self._require_target(query), []).append(position)
        responses: list[QueryResponse | None] = [None] * len(queries)
        for target, positions in groups.items():
            members = [queries[p] for p in positions]
            request = BatchQueryRequest(version=PROTOCOL_VERSION, queries=members)

            def decode_batch(payload: bytes, expected: int = len(members)) -> BatchQueryResponse:
                reply = BatchQueryResponse.decode(payload)
                if len(reply.responses) != expected:
                    raise ProtocolError(
                        f"batch reply carries {len(reply.responses)} responses, "
                        f"expected {expected}"
                    )
                return reply

            transactions = sum(
                1 for member in members
                if member.invocation == INVOCATION_TRANSACTION
            )
            self.stats.bump("queries_sent", len(members) - transactions)
            self.stats.bump("transactions_sent", transactions)
            self.stats.bump("batches_sent")
            # Mark envelopes carrying committed work so caching layers
            # (which route on the envelope alone) never replay them.
            headers = {SIDE_EFFECTING_HEADER: "true"} if transactions else None
            reply = self._exchange(
                target,
                MSG_KIND_BATCH_REQUEST,
                request.encode(),
                MSG_KIND_BATCH_RESPONSE,
                decode_batch,
                headers=headers,
            )
            for position, response in zip(positions, reply.responses):
                responses[position] = response
        return [response for response in responses if response is not None]

    def remote_transact(self, query: NetworkQuery) -> QueryResponse:
        """Send a cross-network transaction to the target network's relay(s).

        Same discovery, framing, and failover as :meth:`remote_query`, under
        the dedicated ``MSG_KIND_TRANSACT_REQUEST`` envelope kind — distinct
        on the wire because a replayed transaction re-commits, so caches and
        other intermediaries must be able to tell it apart without decoding
        the payload.
        """
        target = self._require_target(query)
        self.stats.bump("transactions_sent")
        return self._exchange(
            target,
            MSG_KIND_TRANSACT_REQUEST,
            query.encode(),
            MSG_KIND_TRANSACT_RESPONSE,
            QueryResponse.decode,
        )

    def remote_asset(self, kind: int, command: AssetCommandMsg) -> AssetAckMsg:
        """Send one HTLC asset command to the asset's network relay(s).

        ``kind`` selects the verb (one of :data:`ASSET_COMMAND_KINDS`);
        the command rides the same discovery lookup, interceptor chain,
        and failover loop as queries. Side-effecting verbs (everything but
        status) are header-marked so caching intermediaries never replay
        them. Returns the ack even when non-OK — the caller maps statuses
        to protocol decisions.
        """
        if kind not in ASSET_COMMAND_KINDS:
            raise ProtocolError(f"kind {kind} is not an asset command kind")
        target = command.address.network if command.address else ""
        if not target:
            raise ProtocolError("asset command has no target network address")
        self.stats.bump("asset_commands_sent")
        headers = (
            {SIDE_EFFECTING_HEADER: "true"}
            if kind != MSG_KIND_ASSET_STATUS
            else None
        )
        return self._exchange(
            target,
            kind,
            command.encode(),
            MSG_KIND_ASSET_ACK,
            AssetAckMsg.decode,
            headers=headers,
        )

    # -- destination side: subscribe to remote events ------------------------------

    def remote_subscribe(
        self,
        request: EventSubscribeRequest,
        sink: Callable[[EventNotificationMsg], None],
    ) -> str:
        """Open a subscription on the remote network; returns its id.

        The subscription id is proposed by this side and the sink installed
        *before* the subscribe round-trip, so there is no window in which
        the source's first push (which can race the ack in a concurrent
        deployment — the tap opens server-side before the ack travels
        back) finds no sink. Raises :class:`AccessDeniedError` on exposure
        denial and :class:`RelayError` / :class:`RelayUnavailableError`
        like a query.
        """
        target = request.address.network if request.address else ""
        if not target:
            raise ProtocolError("subscription has no target network address")
        if not request.subscription_id:
            request.subscription_id = random_id("sub-")
        with self._subscriptions_lock:
            self._event_sinks[request.subscription_id] = sink
        try:
            ack = self._exchange(
                target,
                MSG_KIND_EVENT_SUBSCRIBE,
                request.encode(),
                MSG_KIND_EVENT_ACK,
                EventAck.decode,
            )
            if ack.status == STATUS_ACCESS_DENIED:
                raise AccessDeniedError(ack.error)
            if ack.status != STATUS_OK or not ack.subscription_id:
                raise RelayError(
                    f"subscription to network {target!r} failed: {ack.error}"
                )
        except BaseException:
            with self._subscriptions_lock:
                self._event_sinks.pop(request.subscription_id, None)
            raise
        if ack.subscription_id != request.subscription_id:
            # A source predating subscriber-proposed ids assigned its own.
            with self._subscriptions_lock:
                self._event_sinks[ack.subscription_id] = self._event_sinks.pop(
                    request.subscription_id
                )
        self.stats.bump("subscriptions_opened")
        return ack.subscription_id

    def remote_unsubscribe(self, source_network: str, subscription_id: str) -> None:
        """Tear down a subscription on the source relay and drop the sink."""
        self.unregister_event_sink(subscription_id)
        request = EventUnsubscribeRequest(
            version=PROTOCOL_VERSION, subscription_id=subscription_id
        )
        try:
            self._exchange(
                source_network,
                MSG_KIND_EVENT_UNSUBSCRIBE,
                request.encode(),
                MSG_KIND_EVENT_ACK,
                EventAck.decode,
            )
        except (RelayError, DiscoveryError):
            # The source relay being unreachable leaves a dangling remote
            # subscription; its next push gets a no-sink ack and is pruned.
            pass

    def _require_target(self, query: NetworkQuery) -> str:
        if query.address is None or not query.address.network:
            raise ProtocolError("query has no target network address")
        return query.address.network

    def _exchange(
        self,
        target: str,
        kind: int,
        payload: bytes,
        expect_reply_kind: int,
        decode_reply: Callable[[bytes], object],
        headers: dict[str, str] | None = None,
    ):
        """One request/reply round with failover across redundant relays.

        Retryable failures (transport errors — including a dead endpoint's
        :class:`RelayUnavailableError` —, shed load, malformed or
        mis-correlated replies) advance to the next endpoint; a
        non-retryable error envelope raises :class:`RelayError`
        immediately.

        Trace correlation: runs under the caller's active trace (opening
        a fresh root when there is none — a bare ``remote_query`` is
        still correlated end to end) and stamps a per-hop child span into
        the outbound envelope headers, so the serving relay, its TCP
        server, and its driver all log the same trace id.

        Fleet-aware discovery: when the discovery service offers the
        optional ``lookup_for`` extension (see
        :class:`repro.net.balancer.BalancedDiscovery`), the request id
        and side-effecting flag are passed through so the pool can order
        candidates per request — load-spread for reads, consistent-hash
        sticky for side effects (idempotency replays must land on the
        replica holding their exactly-once record). The failover walk
        below is unchanged either way.
        """
        request_id = random_id("req-")
        side_effecting = kind in SIDE_EFFECTING_KINDS or bool(
            headers and headers.get(SIDE_EFFECTING_HEADER) == "true"
        )
        lookup_for = getattr(self._discovery, "lookup_for", None)
        if callable(lookup_for):
            endpoints = lookup_for(  # may raise DiscoveryError
                target, request_id=request_id, side_effecting=side_effecting
            )
        else:
            endpoints = self._discovery.lookup(target)  # may raise DiscoveryError
        with ensure_trace():
            envelope_bytes = RelayEnvelope(
                version=PROTOCOL_VERSION,
                kind=kind,
                request_id=request_id,
                source_network=self.network_id,
                destination_network=target,
                payload=payload,
                headers=inject(headers),
            ).encode()
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "forwarding envelope",
                    extra={
                        "relay_id": self.relay_id,
                        "request_id": request_id,
                        "kind": kind,
                        "target_network": target,
                        "endpoints": len(endpoints),
                    },
                )
            return self._exchange_over(
                endpoints, target, request_id, envelope_bytes, expect_reply_kind,
                decode_reply,
            )

    def _exchange_over(
        self,
        endpoints,
        target: str,
        request_id: str,
        envelope_bytes: bytes,
        expect_reply_kind: int,
        decode_reply: Callable[[bytes], object],
    ):
        failures: list[str] = []
        for position, endpoint in enumerate(endpoints):
            if position > 0:
                self.stats.bump("failovers")
            try:
                reply_bytes = endpoint.handle_request(envelope_bytes)
            except (RelayUnavailableError, DoSError, RelayError, DiscoveryError) as exc:
                failures.append(str(exc))
                continue
            try:
                reply = RelayEnvelope.decode(reply_bytes)
            except Exception as exc:  # noqa: BLE001 - adversarial reply bytes: any parse failure is a failover signal
                failures.append(f"undecodable reply envelope: {exc}")
                continue
            if reply.kind == MSG_KIND_ERROR:
                message = reply.payload.decode("utf-8", errors="replace")
                if reply.headers.get("retryable") == "true":
                    failures.append(message)
                    continue
                if reply.headers.get(ERROR_KIND_HEADER) == ERROR_KIND_CAPABILITY:
                    # Fail-closed capability refusal: the network has no
                    # driver for this verb, so no redundant relay can help.
                    raise UnsupportedCapabilityError(
                        f"network {target!r} does not support the requested "
                        f"verb: {message}"
                    )
                raise RelayError(
                    f"relay for network {target!r} rejected the request: {message}"
                )
            if reply.kind != expect_reply_kind:
                failures.append(f"unexpected reply kind {reply.kind}")
                continue
            if reply.request_id != request_id:
                failures.append(
                    f"reply correlates to {reply.request_id!r}, expected "
                    f"{request_id!r}"
                )
                continue
            try:
                return decode_reply(reply.payload)
            except Exception as exc:  # noqa: BLE001 - adversarial reply payload: any parse failure is a failover signal
                failures.append(f"undecodable reply payload: {exc}")
                continue
        raise RelayUnavailableError(
            f"all {len(endpoints)} relay(s) for network {target!r} failed: "
            + "; ".join(failures)
        )

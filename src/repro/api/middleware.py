"""Composable relay interceptors (the gateway-side middleware chain).

A relay's request path is a chain of interceptors terminated by the kind
dispatcher (:meth:`RelayService._dispatch`). Each interceptor is a callable
``(ctx, call_next) -> bytes`` installed with :meth:`RelayService.use`; the
first installed runs outermost. The chain machinery and the
:class:`RateLimitInterceptor` (the paper's §5 DoS shedding, refactored out
of the relay core) live in :mod:`repro.interop.relay` and are re-exported
here; this module adds the operational interceptors a production gateway
needs: metrics, request logging, and response caching.

Example::

    relay = RelayService("stl", registry)
    metrics = MetricsInterceptor()
    relay.use(
        RateLimitInterceptor(RateLimiter(100, 1.0)),
        metrics,
        RequestLoggingInterceptor(),
        ResponseCacheInterceptor(ttl_seconds=0.5),
    )
"""

from __future__ import annotations

import logging
from collections import OrderedDict, deque

from repro.crypto.hashing import sha256
from repro.interop.relay import (  # noqa: F401 - re-exported chain primitives
    RateLimiter,
    RateLimitInterceptor,
    RelayContext,
    RelayHandler,
    RelayInterceptor,
)
from repro.proto.messages import (
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
    STATUS_OK,
    AssetAckMsg,
    RelayEnvelope,
    is_side_effecting,
)
from repro.ops.metrics import MetricsRegistry
from repro.utils.clock import Clock, SystemClock

logger = logging.getLogger("repro.relay")

#: Human-readable envelope-kind labels for metrics/log rendering.
KIND_NAMES = {
    0: "undecodable",
    MSG_KIND_QUERY_REQUEST: "query",
    MSG_KIND_QUERY_RESPONSE: "query_response",
    MSG_KIND_ERROR: "error",
    MSG_KIND_BATCH_REQUEST: "batch",
    MSG_KIND_BATCH_RESPONSE: "batch_response",
    MSG_KIND_TRANSACT_REQUEST: "transact",
    MSG_KIND_TRANSACT_RESPONSE: "transact_response",
    MSG_KIND_EVENT_SUBSCRIBE: "event_subscribe",
    MSG_KIND_EVENT_PUBLISH: "event_publish",
    MSG_KIND_EVENT_UNSUBSCRIBE: "event_unsubscribe",
    MSG_KIND_EVENT_ACK: "event_ack",
    MSG_KIND_ASSET_LOCK: "asset_lock",
    MSG_KIND_ASSET_CLAIM: "asset_claim",
    MSG_KIND_ASSET_UNLOCK: "asset_unlock",
    MSG_KIND_ASSET_STATUS: "asset_status",
    MSG_KIND_ASSET_ACK: "asset_ack",
}


def kind_name(kind: int) -> str:
    return KIND_NAMES.get(kind, f"kind-{kind}")


class Interceptor:
    """Optional base class: subclass and override :meth:`handle`.

    Plain callables work just as well — this base only adds the
    ``__call__``/``handle`` indirection for subclasses that want instance
    state (counters, caches).
    """

    def __call__(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        return self.handle(ctx, call_next)

    def handle(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        return call_next(ctx)


class SerializingInterceptor(Interceptor):
    """Serializes the rest of the chain behind one lock.

    The in-process ledger substrates are not thread-safe; installing this
    interceptor outermost makes a relay safe to share across threads
    (concurrent exchange legs, batch fan-outs) by making each served
    request atomic per relay, while traffic to *different* networks'
    relays still overlaps.
    """

    def __init__(self) -> None:
        import threading

        self._lock = threading.RLock()

    def handle(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        with self._lock:
            return call_next(ctx)


_REPLY_VERDICT_KEY = "_repro.reply_is_error"


def _reply_is_error(ctx: RelayContext, reply: bytes) -> bool:
    """Whether ``reply`` reports a failure, decoded once per request.

    Error envelopes always do; asset acks carry their verdict *inside*
    the ack (an on-ledger refusal is answered with a non-OK
    ``MSG_KIND_ASSET_ACK``, not an error envelope, so the caller can tell
    governance/contract refusals from transport failures) and are decoded
    one level deeper. Stacked interceptors inspect the same reply object
    on the way out; the verdict is memoized on the context so the
    decoding happens at most once per chain traversal.
    """
    cached = ctx.metadata.get(_REPLY_VERDICT_KEY)
    if isinstance(cached, tuple) and cached[0] is reply:
        return cached[1]
    try:
        envelope = RelayEnvelope.decode(reply)
        if envelope.kind == MSG_KIND_ASSET_ACK:
            verdict = AssetAckMsg.decode(envelope.payload).status != STATUS_OK
        else:
            verdict = envelope.kind == MSG_KIND_ERROR
    except Exception:  # noqa: BLE001 - an unparseable reply counts as an error outcome, which is the verdict itself
        verdict = True
    ctx.metadata[_REPLY_VERDICT_KEY] = (reply, verdict)
    return verdict


def percentile(sorted_samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list.

    The benchmarks' one definition of "pNN" over raw samples, so their
    reported percentiles never diverge. (The ops plane keeps no samples:
    :meth:`MetricsInterceptor.snapshot` estimates from histogram buckets.)
    """
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, int(fraction * len(sorted_samples))))
    return sorted_samples[rank]


class MetricsInterceptor(Interceptor):
    """Per-kind request, error, byte and latency counts as instruments.

    Each served request moves four families on the interceptor's own
    registry (:attr:`instruments`, attached to a shared one by
    :func:`repro.ops.exporters.register_relay`):
    ``repro_relay_requests_total``, ``repro_relay_errors_total`` and the
    ``repro_relay_request_seconds`` histogram, labelled by relay and
    message kind, plus ``repro_relay_request_bytes_total`` labelled by
    direction. :meth:`snapshot` reads the same instruments — the
    operator-facing view of whether queries, batches, transactions,
    event, or asset traffic is slow or failing.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock or SystemClock()
        self.instruments = MetricsRegistry()
        self._requests = self.instruments.counter(
            "repro_relay_requests_total",
            "Requests served through the relay interceptor chain.",
            ("relay_id", "kind"),
        )
        self._errors = self.instruments.counter(
            "repro_relay_errors_total",
            "Requests answered with an error outcome.",
            ("relay_id", "kind"),
        )
        self._seconds = self.instruments.histogram(
            "repro_relay_request_seconds",
            "Serve latency through the interceptor chain, per message kind.",
            ("relay_id", "kind"),
        )
        self._bytes = self.instruments.counter(
            "repro_relay_request_bytes_total",
            "Request (in) and reply (out) bytes through the interceptor chain.",
            ("relay_id", "direction"),
        )

    def handle(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        started = self._clock.now()
        reply = call_next(ctx)
        elapsed = self._clock.now() - started
        relay_id = ctx.relay.relay_id
        kind = kind_name(ctx.kind)
        self._requests.inc(relay_id=relay_id, kind=kind)
        self._seconds.observe(elapsed, relay_id=relay_id, kind=kind)
        if _reply_is_error(ctx, reply):
            self._errors.inc(relay_id=relay_id, kind=kind)
        self._bytes.inc(len(ctx.raw), relay_id=relay_id, direction="in")
        self._bytes.inc(len(reply), relay_id=relay_id, direction="out")
        return reply

    def snapshot(self) -> dict:
        """A plain-dict rendering suitable for export/printing.

        ``by_kind`` keeps the historical ``{kind: count}`` shape;
        ``kinds`` adds the per-message-kind breakdown keyed by readable
        name, each with request/error counts, total and mean seconds, and
        p50/p95 estimated from the latency histogram's buckets
        (:meth:`~repro.ops.metrics.Histogram.quantile`). Every figure is
        summed over the relays the interceptor served.
        """
        requests = self._requests.family().sum_by("kind")
        errors = self._errors.family().sum_by("kind")
        seconds = self._seconds.family().sum_by("kind")
        moved = self._bytes.family().sum_by("direction")
        kinds = {}
        for name in sorted(requests, key=_kind_code):
            count = int(requests[name])
            kinds[name] = {
                "requests": count,
                "errors": int(errors.get(name, 0)),
                "seconds_total": seconds.get(name, 0.0),
                "seconds_mean": seconds.get(name, 0.0) / count,
                "seconds_p50": self._seconds.quantile(0.50, kind=name),
                "seconds_p95": self._seconds.quantile(0.95, kind=name),
            }
        requests_total = sum(detail["requests"] for detail in kinds.values())
        seconds_total = sum(seconds.values())
        return {
            "requests_total": requests_total,
            "errors_total": sum(detail["errors"] for detail in kinds.values()),
            "bytes_in": int(moved.get("in", 0)),
            "bytes_out": int(moved.get("out", 0)),
            "seconds_total": seconds_total,
            "seconds_mean": seconds_total / requests_total if requests_total else 0.0,
            "by_kind": {_kind_code(name): detail["requests"] for name, detail in kinds.items()},
            "kinds": kinds,
        }


_KIND_CODES = {name: kind for kind, name in KIND_NAMES.items()}


def _kind_code(name: str) -> int:
    """The envelope kind :func:`kind_name` rendered as ``name``; -1 for
    the instruments' overflow series (``_other``)."""
    if name in _KIND_CODES:
        return _KIND_CODES[name]
    return int(name[len("kind-"):]) if name.startswith("kind-") else -1


class RequestLoggingInterceptor(Interceptor):
    """Per-request records as a thin adapter over the ops logging plane.

    Each served request emits one structured record on the
    ``repro.relay`` logger — the ops plane's JSON formatter renders it
    (and its :class:`~repro.ops.logging.TraceContextFilter` stamps the
    active trace id, since the interceptor chain runs inside
    :meth:`RelayService.handle_request`'s trace activation). The bounded
    in-memory ``records`` deque is kept for tests and quick inspection;
    it holds the same field set the log record carries.
    """

    def __init__(
        self,
        log: logging.Logger | None = None,
        max_records: int = 1024,
        clock: Clock | None = None,
    ) -> None:
        self._log = log or logger
        self._clock = clock or SystemClock()
        self.records: deque[dict] = deque(maxlen=max_records)

    def handle(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        started = self._clock.now()
        reply = call_next(ctx)
        record = {
            "relay_id": ctx.relay.relay_id,
            "request_id": ctx.request_id,
            "kind": ctx.kind,
            "outcome": "error" if _reply_is_error(ctx, reply) else "ok",
            "seconds": self._clock.now() - started,
            "bytes_in": len(ctx.raw),
            "bytes_out": len(reply),
        }
        self.records.append(record)
        self._log.debug("request served", extra=dict(record, kind_label=kind_name(ctx.kind)))
        return reply


class ResponseCacheInterceptor(Interceptor):
    """Short-TTL cache of successful replies, keyed by the raw request.

    Because every client query carries a fresh nonce, identical raw bytes
    only occur on retries and failover replays — exactly the traffic a
    gateway wants to absorb without re-driving proof collection. Error
    envelopes are never cached.

    Side-effecting envelopes are never cached *or served from cache*:
    serving a stored reply to a replayed transaction would claim a commit
    that never re-happened, and a replayed (un)subscribe or event push
    must actually mutate subscription state. The check is the relay's own
    :func:`~repro.proto.messages.is_side_effecting` on the envelope alone
    — the kind, plus the :data:`SIDE_EFFECTING_HEADER` marker that the
    sending relay sets on batch envelopes carrying transaction members —
    so the cache never needs to decode payloads.

    Thread-safe: a concurrently-serving relay (:class:`repro.net.RelayServer`)
    runs the chain on many worker threads, so the bounded entry map and
    the hit/miss counters mutate under one lock. The lock is never held
    across ``call_next`` — concurrent misses of the same key may both
    execute (harmless for cacheable, side-effect-free envelopes; the
    relay's idempotency record owns exactly-once for everything else).
    """

    def __init__(
        self,
        ttl_seconds: float = 1.0,
        max_entries: int = 256,
        clock: Clock | None = None,
    ) -> None:
        import threading

        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.ttl_seconds = ttl_seconds
        self.max_entries = max_entries
        self._clock = clock or SystemClock()
        self._mutex = threading.Lock()
        self._entries: OrderedDict[bytes, tuple[float, bytes]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.bypassed = 0

    @staticmethod
    def _cacheable(ctx: RelayContext) -> bool:
        envelope = ctx.envelope
        if envelope is None:
            # Undecodable bytes take the normal path: they always answer
            # with an error envelope, which is never stored anyway.
            return True
        return not is_side_effecting(envelope.kind, envelope.headers)

    def handle(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        if not self._cacheable(ctx):
            with self._mutex:
                self.bypassed += 1
            return call_next(ctx)
        key = sha256(ctx.raw)
        now = self._clock.now()
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                expires, reply = entry
                if now < expires:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return reply
                del self._entries[key]
            self.misses += 1
        reply = call_next(ctx)
        if not _reply_is_error(ctx, reply):
            with self._mutex:
                self._entries[key] = (now + self.ttl_seconds, reply)
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        return reply

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

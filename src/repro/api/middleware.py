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

    The single definition of "pNN" for the repo: the metrics snapshot and
    the benchmarks both use it, so reported percentiles never diverge.
    """
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, int(fraction * len(sorted_samples))))
    return sorted_samples[rank]


class MetricsInterceptor(Interceptor):
    """Per-kind request counters, byte counts, and latency distribution.

    Latency is kept as a bounded per-kind sample reservoir (the most
    recent ``sample_window`` requests of each kind), from which
    :meth:`snapshot` derives p50/p95/max — the operator-facing view of
    whether queries, batches, transactions, event, or asset traffic is
    slow, and how heavy its tail is.
    """

    def __init__(self, clock: Clock | None = None, sample_window: int = 2048) -> None:
        import threading

        if sample_window < 1:
            raise ValueError("sample_window must be >= 1")
        self._clock = clock or SystemClock()
        self._sample_window = sample_window
        #: Guards counter/sample updates against concurrent handle() calls
        #: and against snapshot() readers on other threads.
        self._mutex = threading.Lock()
        self.requests_total = 0
        self.errors_total = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.seconds_total = 0.0
        self.seconds_max = 0.0
        self.by_kind: dict[int, int] = {}
        #: Per-kind detail: kind -> {requests, errors, seconds_total,
        #: seconds_max} — so an operator can tell at a glance whether it
        #: is queries, batches, transactions, or event traffic that is
        #: slow or failing.
        self.kind_detail: dict[int, dict[str, float]] = {}
        #: Per-kind latency samples (seconds), newest-last, bounded.
        self.kind_samples: dict[int, deque[float]] = {}
        #: Registry instruments, wired by :meth:`bind_registry`
        #: (:func:`repro.ops.exporters.register_relay` calls it). The
        #: instruments carry their own locks; unbound, nothing changes.
        self._m_requests = None
        self._m_errors = None
        self._m_latency = None

    def bind_registry(self, registry) -> None:
        """Mirror this interceptor's observations into a
        :class:`~repro.ops.MetricsRegistry` (Prometheus export)."""
        self._m_requests = registry.counter(
            "repro_relay_requests_total",
            "Requests served through the relay interceptor chain.",
            ("relay_id", "kind"),
        )
        self._m_errors = registry.counter(
            "repro_relay_errors_total",
            "Requests answered with an error outcome.",
            ("relay_id", "kind"),
        )
        self._m_latency = registry.histogram(
            "repro_relay_request_seconds",
            "Serve latency through the interceptor chain, per message kind.",
            ("relay_id", "kind"),
        )

    def handle(self, ctx: RelayContext, call_next: RelayHandler) -> bytes:
        started = self._clock.now()
        reply = call_next(ctx)
        elapsed = self._clock.now() - started
        is_error = _reply_is_error(ctx, reply)
        if self._m_requests is not None:
            labels = {"relay_id": ctx.relay.relay_id, "kind": kind_name(ctx.kind)}
            self._m_requests.inc(**labels)
            self._m_latency.observe(elapsed, **labels)
            if is_error:
                self._m_errors.inc(**labels)
        with self._mutex:
            self.requests_total += 1
            self.bytes_in += len(ctx.raw)
            self.bytes_out += len(reply)
            self.seconds_total += elapsed
            self.seconds_max = max(self.seconds_max, elapsed)
            self.by_kind[ctx.kind] = self.by_kind.get(ctx.kind, 0) + 1
            detail = self.kind_detail.setdefault(
                ctx.kind,
                {"requests": 0, "errors": 0, "seconds_total": 0.0, "seconds_max": 0.0},
            )
            detail["requests"] += 1
            detail["seconds_total"] += elapsed
            detail["seconds_max"] = max(detail["seconds_max"], elapsed)
            self.kind_samples.setdefault(
                ctx.kind, deque(maxlen=self._sample_window)
            ).append(elapsed)
            if is_error:
                self.errors_total += 1
                detail["errors"] += 1
        return reply

    def snapshot(self) -> dict:
        """A plain-dict rendering suitable for export/printing.

        ``by_kind`` keeps the historical ``{kind: count}`` shape;
        ``kinds`` adds the per-message-kind breakdown keyed by readable
        name, each with request/error counts and latency stats including
        p50/p95 over the kind's bounded sample window.
        """
        with self._mutex:
            totals = {
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "seconds_total": self.seconds_total,
                "seconds_max": self.seconds_max,
                "by_kind": dict(self.by_kind),
            }
            details = {kind: dict(detail) for kind, detail in self.kind_detail.items()}
            samples_by_kind = {
                kind: list(samples) for kind, samples in self.kind_samples.items()
            }
        kinds = {}
        for kind, detail in sorted(details.items()):
            requests = int(detail["requests"])
            samples = sorted(samples_by_kind.get(kind, ()))
            kinds[kind_name(kind)] = {
                "requests": requests,
                "errors": int(detail["errors"]),
                "seconds_total": detail["seconds_total"],
                "seconds_mean": (
                    detail["seconds_total"] / requests if requests else 0.0
                ),
                "seconds_p50": percentile(samples, 0.50),
                "seconds_p95": percentile(samples, 0.95),
                "seconds_max": detail["seconds_max"],
            }
        totals["seconds_mean"] = (
            totals["seconds_total"] / totals["requests_total"]
            if totals["requests_total"]
            else 0.0
        )
        totals["kinds"] = kinds
        return totals


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

"""repro.api: the unified application-facing gateway layer.

This package is the production surface over the paper's relay machinery
(:mod:`repro.interop`): one façade object exposing all three §2
interoperability primitives — query, transact, and publish/subscribe —
with fluent building, batched pipelined execution, verified event
streaming, and a composable relay middleware chain.

- :class:`InteropGateway` — the façade: ``gateway.query(addr)...`` and
  ``gateway.transact(addr)...`` for fluent singles, ``batch()`` /
  ``transaction_batch()`` / ``submit()`` handles for pipelined batches
  that share one envelope round-trip per target network, and
  ``gateway.subscribe(...)`` for relay-envelope event delivery.
- :class:`GatewaySession` — multiplexes the three primitives over one
  relay connection state: per-session auth, shared interceptor chain,
  shared CMDAC policy cache, subscription lifecycle.
- :class:`AsyncGateway` — the async-native entry point for asyncio
  services fronting socket relays (:mod:`repro.net`): ``await
  aquery(...)`` / ``atransact(...)`` plus ``agather(...)`` batch
  flushes, layered over the same session machinery via the loop's
  executor (the async path can never drift from the sync protocol).
- :class:`QueryBuilder` / :class:`TransactionBuilder` and their specs —
  fluent request description.
- :class:`QuerySet` / :class:`QueryHandle`, :class:`TransactionSet` /
  :class:`TransactionHandle` — future-style pipelining with
  partial-failure semantics (one bad member never poisons the rest).
- :class:`VerifiedEventStream` / :class:`EventVerifier` — notify-then-
  verify: every unauthenticated notification is upgraded to trusted data
  via a proof-carrying query before it reaches the application iterator.
- :class:`ExchangeBuilder` — ``gateway.exchange()``: two-party atomic
  asset exchange via hash-time-locked contracts (:mod:`repro.assets`),
  with proof-verified lock confirmations riding the same query plane.
- :class:`CycleBuilder` — ``gateway.exchange_cycle()``: the N-party
  generalization — an A→B→…→A ring of escrows under one hashlock with
  per-hop decremented timelocks and journaled crash recovery.
- :mod:`repro.api.middleware` — relay interceptors: rate limiting
  (refactored from the relay core), metrics, request logging, response
  caching (which never serves side-effecting envelopes). Install with
  ``relay.use(...)``.

The legacy entry points (``InteropClient.remote_query``,
``RemoteTransactionClient.remote_transact``) keep working unchanged; they
are thin shims over this layer's machinery.
"""

from repro.api.batch import (
    BatchExecutor,
    QueryHandle,
    QuerySet,
    QuerySpec,
    TransactionExecutor,
    TransactionHandle,
    TransactionSet,
    TransactionSpec,
)
from repro.api.async_gateway import AsyncGateway
from repro.api.builder import (
    CycleBuilder,
    ExchangeBuilder,
    QueryBuilder,
    TransactionBuilder,
)
from repro.api.gateway import InteropGateway
from repro.api.session import GatewaySession
from repro.api.streams import (
    EventVerifier,
    RejectedEvent,
    VerifiedEvent,
    VerifiedEventStream,
)
from repro.api.middleware import (
    Interceptor,
    MetricsInterceptor,
    RateLimitInterceptor,
    RelayContext,
    RequestLoggingInterceptor,
    ResponseCacheInterceptor,
    SerializingInterceptor,
)

__all__ = [
    "AsyncGateway",
    "InteropGateway",
    "GatewaySession",
    "QueryBuilder",
    "QuerySpec",
    "QuerySet",
    "QueryHandle",
    "BatchExecutor",
    "TransactionBuilder",
    "TransactionSpec",
    "TransactionSet",
    "TransactionHandle",
    "TransactionExecutor",
    "ExchangeBuilder",
    "CycleBuilder",
    "EventVerifier",
    "VerifiedEvent",
    "VerifiedEventStream",
    "RejectedEvent",
    "Interceptor",
    "RelayContext",
    "RateLimitInterceptor",
    "MetricsInterceptor",
    "RequestLoggingInterceptor",
    "ResponseCacheInterceptor",
    "SerializingInterceptor",
]

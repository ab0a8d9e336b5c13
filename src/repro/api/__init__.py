"""repro.api: the unified application-facing gateway layer.

This package is the production surface over the paper's relay machinery
(:mod:`repro.interop`): one façade object exposing all three §2
interoperability primitives — query, transact, and publish/subscribe —
with fluent building, batched pipelined execution, verified event
streaming, and a composable relay middleware chain.

- :class:`GatewaySession` — multiplexes the primitives over one relay
  connection state: per-session auth, shared interceptor chain, shared
  CMDAC policy cache, one ambient set, subscription lifecycle.
- :class:`InteropGateway` — the façade, itself a session:
  ``gateway.query(addr)...`` and ``gateway.transact(addr)...`` for
  fluent singles, ``batch()`` / ``submit()`` handles for pipelined
  batches that share one envelope round-trip per target network and
  verb, and ``gateway.subscribe(...)`` for relay-envelope event delivery.
- :class:`QueryBuilder` and :class:`QuerySpec` — fluent description of
  one request; the spec carries its verb (the wire's ``invocation``),
  and ``TransactionBuilder`` names the same builder.
- :class:`QuerySet` / :class:`QueryHandle` / :class:`BatchExecutor` —
  future-style pipelining of either verb with partial-failure semantics
  (one bad member never poisons the rest).
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

Underneath sits one request pipeline: every query and transaction is
built by :meth:`repro.interop.InteropClient.prepare_query` and checked by
:meth:`repro.interop.InteropClient.finalize_response`, whether it runs
alone (``InteropClient.remote_query``, ``builder.execute()``) or in a
set.
"""

from repro.api.batch import BatchExecutor, QueryHandle, QuerySet, QuerySpec
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
    "InteropGateway",
    "GatewaySession",
    "QueryBuilder",
    "QuerySpec",
    "QuerySet",
    "QueryHandle",
    "BatchExecutor",
    "TransactionBuilder",
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

"""Tests for the composable relay middleware chain and stock interceptors."""

from __future__ import annotations

import pytest

from repro.api.middleware import (
    Interceptor,
    MetricsInterceptor,
    RateLimitInterceptor,
    RequestLoggingInterceptor,
    ResponseCacheInterceptor,
)
from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.base import NetworkDriver
from repro.interop.relay import RateLimiter, RelayService
from repro.proto.messages import (
    MSG_KIND_ERROR,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_QUERY_RESPONSE,
    STATUS_OK,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
    VerificationPolicyMsg,
)
from repro.utils.clock import SimulatedClock


class EchoDriver(NetworkDriver):
    """A crypto-free driver so middleware tests stay fast."""

    platform = "echo"

    def __init__(self, network_id: str = "stl") -> None:
        super().__init__(network_id)
        self.executed = 0

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        self.executed += 1
        return QueryResponse(
            version=1,
            nonce=query.nonce,
            status=STATUS_OK,
            result_plain=b"echo:" + ",".join(query.args).encode(),
        )


def make_request(network="stl", nonce="n-1", args=("a",)) -> bytes:
    query = NetworkQuery(
        version=1,
        address=NetworkAddressMsg(
            network=network, ledger="ledger", contract="cc", function="fn"
        ),
        args=list(args),
        nonce=nonce,
        policy=VerificationPolicyMsg(expression="org:x"),
    )
    return RelayEnvelope(
        version=1,
        kind=MSG_KIND_QUERY_REQUEST,
        request_id=f"req-{nonce}",
        source_network="swt",
        destination_network=network,
        payload=query.encode(),
    ).encode()


def make_relay(*interceptors) -> tuple[RelayService, EchoDriver]:
    relay = RelayService("stl", InMemoryRegistry())
    driver = EchoDriver()
    relay.register_driver(driver)
    if interceptors:
        relay.use(*interceptors)
    return relay, driver


class TestChain:
    def test_interceptors_run_in_registration_order(self):
        calls: list[str] = []

        def outer(ctx, call_next):
            calls.append("outer:before")
            reply = call_next(ctx)
            calls.append("outer:after")
            return reply

        def inner(ctx, call_next):
            calls.append("inner:before")
            reply = call_next(ctx)
            calls.append("inner:after")
            return reply

        relay, _ = make_relay(outer, inner)
        relay.handle_request(make_request())
        assert calls == ["outer:before", "inner:before", "inner:after", "outer:after"]

    def test_use_returns_self_for_chaining(self):
        relay, _ = make_relay()
        assert relay.use(lambda ctx, call_next: call_next(ctx)) is relay
        assert len(relay.interceptors) == 1

    def test_interceptor_can_short_circuit(self):
        relay, driver = make_relay(
            lambda ctx, call_next: ctx.error_reply("nope", retryable=False)
        )
        reply = RelayEnvelope.decode(relay.handle_request(make_request()))
        assert reply.kind == MSG_KIND_ERROR
        assert driver.executed == 0
        assert reply.request_id == "req-n-1"

    def test_context_peeks_envelope_best_effort(self):
        seen: dict = {}

        def probe(ctx, call_next):
            seen["request_id"] = ctx.request_id
            seen["kind"] = ctx.kind
            return call_next(ctx)

        relay, _ = make_relay(probe)
        relay.handle_request(make_request())
        assert seen == {"request_id": "req-n-1", "kind": MSG_KIND_QUERY_REQUEST}
        relay.handle_request(b"\xff\xfe")  # undecodable: context degrades to ''
        assert seen == {"request_id": "", "kind": 0}


class TestRateLimitInterceptor:
    def test_shed_reply_carries_request_id(self):
        """A rate-limited rejection must correlate to the shed request."""
        clock = SimulatedClock()
        relay, _ = make_relay(RateLimitInterceptor(RateLimiter(1, 10.0, clock=clock)))
        assert RelayEnvelope.decode(relay.handle_request(make_request())).kind == (
            MSG_KIND_QUERY_RESPONSE
        )
        reply = RelayEnvelope.decode(relay.handle_request(make_request(nonce="n-2")))
        assert reply.kind == MSG_KIND_ERROR
        assert reply.request_id == "req-n-2"
        assert reply.headers.get("retryable") == "true"
        assert relay.stats.requests_rejected == 1

    def test_legacy_constructor_shim_installs_interceptor(self):
        clock = SimulatedClock()
        relay = RelayService("stl", InMemoryRegistry()).use(
            RateLimitInterceptor(RateLimiter(1, 10.0, clock=clock))
        )
        relay.register_driver(EchoDriver())
        assert len(relay.interceptors) == 1
        assert isinstance(relay.interceptors[0], RateLimitInterceptor)
        relay.handle_request(make_request())
        reply = RelayEnvelope.decode(relay.handle_request(make_request(nonce="n-9")))
        assert reply.kind == MSG_KIND_ERROR and reply.request_id == "req-n-9"


class TestMetricsInterceptor:
    def test_counts_and_latency(self):
        clock = SimulatedClock()
        metrics = MetricsInterceptor(clock=clock)
        relay, _ = make_relay(metrics)
        request = make_request()
        relay.handle_request(request)
        relay.handle_request(b"garbage")
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 2
        assert snapshot["errors_total"] == 1
        assert snapshot["by_kind"] == {MSG_KIND_QUERY_REQUEST: 1, 0: 1}
        assert snapshot["bytes_in"] > len(request) and snapshot["bytes_out"] > 0

    def test_latency_accumulates_with_slow_inner_stage(self):
        clock = SimulatedClock()
        metrics = MetricsInterceptor(clock=clock)

        def slow(ctx, call_next):
            clock.advance(0.25)
            return call_next(ctx)

        relay, _ = make_relay(metrics, slow)
        relay.handle_request(make_request())
        snapshot = metrics.snapshot()
        assert snapshot["seconds_total"] == pytest.approx(0.25)
        assert snapshot["seconds_mean"] == pytest.approx(0.25)


class TestRequestLoggingInterceptor:
    def test_records_outcomes(self):
        logging_interceptor = RequestLoggingInterceptor(clock=SimulatedClock())
        relay, _ = make_relay(logging_interceptor)
        relay.handle_request(make_request())
        relay.handle_request(b"broken")
        outcomes = [record["outcome"] for record in logging_interceptor.records]
        assert outcomes == ["ok", "error"]
        first = logging_interceptor.records[0]
        assert first["relay_id"] == "relay-stl"
        assert first["request_id"] == "req-n-1"
        assert first["kind"] == MSG_KIND_QUERY_REQUEST

    def test_bounded_record_buffer(self):
        logging_interceptor = RequestLoggingInterceptor(max_records=2)
        relay, _ = make_relay(logging_interceptor)
        for nonce in ("n-1", "n-2", "n-3"):
            relay.handle_request(make_request(nonce=nonce))
        assert [r["request_id"] for r in logging_interceptor.records] == [
            "req-n-2",
            "req-n-3",
        ]


class TestResponseCacheInterceptor:
    def test_identical_raw_request_served_from_cache(self):
        clock = SimulatedClock()
        cache = ResponseCacheInterceptor(ttl_seconds=5.0, clock=clock)
        relay, driver = make_relay(cache)
        request = make_request()
        first = relay.handle_request(request)
        second = relay.handle_request(request)
        assert first == second
        assert driver.executed == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_ttl_expiry_re_executes(self):
        clock = SimulatedClock()
        cache = ResponseCacheInterceptor(ttl_seconds=1.0, clock=clock)
        relay, driver = make_relay(cache)
        request = make_request()
        relay.handle_request(request)
        clock.advance(2.0)
        relay.handle_request(request)
        assert driver.executed == 2
        assert (cache.hits, cache.misses) == (0, 2)

    def test_error_replies_are_not_cached(self):
        cache = ResponseCacheInterceptor(ttl_seconds=5.0, clock=SimulatedClock())
        relay, _ = make_relay(cache)
        relay.handle_request(b"broken")
        relay.handle_request(b"broken")
        assert len(cache) == 0
        assert cache.misses == 2

    def test_repeated_transact_envelope_bypasses_cache_and_dedups(self):
        """Regression (two layers): a transaction envelope must never be
        cached — a cached reply would claim a commit that never
        re-happened — while a byte-identical *replay* of the same
        envelope is absorbed by the relay's request-id idempotency layer:
        answered with the recorded reply, executed exactly once."""
        from repro.proto.messages import (
            INVOCATION_TRANSACTION,
            MSG_KIND_TRANSACT_REQUEST,
            MSG_KIND_TRANSACT_RESPONSE,
        )

        class EchoTransactionDriver(EchoDriver):
            supports_transactions = True

            def execute_transaction(self, query):
                return self.execute_query(query)

        cache = ResponseCacheInterceptor(ttl_seconds=60.0, clock=SimulatedClock())
        relay = RelayService("stl", InMemoryRegistry())
        driver = EchoTransactionDriver()
        relay.register_driver(driver)
        relay.use(cache)
        query = NetworkQuery(
            version=1,
            address=NetworkAddressMsg(
                network="stl", ledger="ledger", contract="cc", function="fn"
            ),
            nonce="txn-1",
            policy=VerificationPolicyMsg(expression="org:x"),
            invocation=INVOCATION_TRANSACTION,
        )

        def envelope_bytes(request_id: str) -> bytes:
            return RelayEnvelope(
                version=1,
                kind=MSG_KIND_TRANSACT_REQUEST,
                request_id=request_id,
                source_network="swt",
                destination_network="stl",
                payload=query.encode(),
            ).encode()

        request = envelope_bytes("req-txn-1")
        first = relay.handle_request(request)
        second = relay.handle_request(request)  # identical raw bytes
        assert RelayEnvelope.decode(first).kind == MSG_KIND_TRANSACT_RESPONSE
        assert second == first  # the recorded reply, not a re-commit
        assert driver.executed == 1  # exactly-once execution
        assert relay.stats.duplicates_suppressed == 1
        # A *fresh* transaction (new request id) is a new commit — neither
        # the cache nor the idempotency layer may absorb it.
        relay.handle_request(envelope_bytes("req-txn-2"))
        assert driver.executed == 2
        # And the cache never stored or served any of it.
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.bypassed == 3

    def test_side_effecting_header_bypasses_cache(self):
        """A batch envelope carrying transaction members is marked by the
        sender and must bypass the cache even though its kind is BATCH;
        the duplicate is answered by the relay's exactly-once record."""
        from repro.proto.messages import (
            MSG_KIND_BATCH_REQUEST,
            SIDE_EFFECTING_HEADER,
            BatchQueryRequest,
        )

        cache = ResponseCacheInterceptor(ttl_seconds=60.0, clock=SimulatedClock())
        relay, driver = make_relay(cache)
        query = NetworkQuery(
            version=1,
            address=NetworkAddressMsg(
                network="stl", ledger="ledger", contract="cc", function="fn"
            ),
            nonce="n-h",
            policy=VerificationPolicyMsg(expression="org:x"),
        )
        request = RelayEnvelope(
            version=1,
            kind=MSG_KIND_BATCH_REQUEST,
            request_id="req-h",
            source_network="swt",
            destination_network="stl",
            payload=BatchQueryRequest(version=1, queries=[query]).encode(),
            headers={SIDE_EFFECTING_HEADER: "true"},
        ).encode()
        first = relay.handle_request(request)
        assert relay.handle_request(request) == first
        assert driver.executed == 1
        assert relay.stats.duplicates_suppressed == 1
        assert cache.bypassed == 2 and len(cache) == 0

    def test_side_effecting_header_on_read_only_kind_is_ignored(self):
        """Only a batch can carry side-effecting members: the header on a
        plain query changes nothing, so the duplicate is a cache hit."""
        from repro.proto.messages import SIDE_EFFECTING_HEADER

        cache = ResponseCacheInterceptor(ttl_seconds=60.0, clock=SimulatedClock())
        relay, driver = make_relay(cache)
        envelope = RelayEnvelope.decode(make_request(nonce="n-q"))
        envelope.headers = {SIDE_EFFECTING_HEADER: "true"}
        request = envelope.encode()
        first = relay.handle_request(request)
        assert relay.handle_request(request) == first
        assert driver.executed == 1
        assert (cache.hits, cache.bypassed) == (1, 0)

    def test_event_kinds_bypass_cache(self):
        from repro.proto.messages import (
            MSG_KIND_EVENT_SUBSCRIBE,
            PROTOCOL_VERSION,
            EventSubscribeRequest,
        )

        cache = ResponseCacheInterceptor(ttl_seconds=60.0, clock=SimulatedClock())
        relay, _ = make_relay(cache)
        request = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_EVENT_SUBSCRIBE,
            request_id="req-sub",
            source_network="swt",
            destination_network="stl",
            payload=EventSubscribeRequest(version=PROTOCOL_VERSION).encode(),
        ).encode()
        relay.handle_request(request)
        relay.handle_request(request)
        assert cache.bypassed == 2 and len(cache) == 0


class TestMetricsKindBreakdown:
    def test_snapshot_breaks_down_by_kind(self):
        clock = SimulatedClock()
        metrics = MetricsInterceptor(clock=clock)

        def slow(ctx, call_next):
            clock.advance(0.5)
            return call_next(ctx)

        relay, _ = make_relay(metrics, slow)
        relay.handle_request(make_request(nonce="n-1"))
        relay.handle_request(make_request(nonce="n-2"))
        relay.handle_request(b"garbage")
        snapshot = metrics.snapshot()
        kinds = snapshot["kinds"]
        assert kinds["query"]["requests"] == 2
        assert kinds["query"]["errors"] == 0
        assert kinds["query"]["seconds_mean"] == pytest.approx(0.5)
        # Both 0.5 s requests sit in the (0.25, 0.5] bucket: rank 1.9 of 2.
        assert kinds["query"]["seconds_p95"] == pytest.approx(0.4875)
        assert kinds["undecodable"]["requests"] == 1
        assert kinds["undecodable"]["errors"] == 1
        # The historical flat counter keeps its shape.
        assert snapshot["by_kind"] == {MSG_KIND_QUERY_REQUEST: 2, 0: 1}

    def test_snapshot_reports_latency_percentiles_per_kind(self):
        clock = SimulatedClock()
        metrics = MetricsInterceptor(clock=clock)
        # Off the bucket bounds: a simulated clock's float sums would
        # otherwise decide which side of a bound a 0.010 s request falls.
        delays = iter([0.008] * 50 + [0.020] * 45 + [1.0] * 5)

        def variable(ctx, call_next):
            clock.advance(next(delays))
            return call_next(ctx)

        relay, _ = make_relay(metrics, variable)
        for index in range(100):
            relay.handle_request(make_request(nonce=f"n-{index}"))
        query = metrics.snapshot()["kinds"]["query"]
        # Estimated from the buckets: rank 50 is the top of (0.005, 0.01],
        # rank 95 the top of (0.01, 0.025].
        assert query["seconds_p50"] == pytest.approx(0.010)
        assert query["seconds_p95"] == pytest.approx(0.025)

    def test_p50_resolves_a_verified_query_latency(self):
        """A verified cross-network query takes 10-25 ms; the default
        grid is fine enough there for a p50 within 15% of the truth."""
        clock = SimulatedClock()
        metrics = MetricsInterceptor(clock=clock)

        def verified_query(ctx, call_next):
            clock.advance(0.0108)
            return call_next(ctx)

        relay, _ = make_relay(metrics, verified_query)
        for index in range(20):
            relay.handle_request(make_request(nonce=f"n-{index}"))
        p50 = metrics.snapshot()["kinds"]["query"]["seconds_p50"]
        assert p50 == pytest.approx(0.0108, rel=0.15)

    def test_latency_memory_does_not_grow_with_requests(self):
        clock = SimulatedClock()
        metrics = MetricsInterceptor(clock=clock)
        relay, _ = make_relay(metrics)
        for index in range(64):
            relay.handle_request(make_request(nonce=f"n-{index}"))
        families = {family.name: family for family in metrics.instruments.collect()}
        ((_, cumulative, _),) = families["repro_relay_request_seconds"].samples
        assert len(cumulative) == 17  # 16 bounds and +Inf, whatever the traffic
        assert cumulative[-1] == 64

    def test_eviction_respects_max_entries(self):
        cache = ResponseCacheInterceptor(
            ttl_seconds=60.0, max_entries=2, clock=SimulatedClock()
        )
        relay, driver = make_relay(cache)
        requests = [make_request(nonce=f"n-{i}") for i in range(3)]
        for request in requests:
            relay.handle_request(request)
        assert len(cache) == 2
        relay.handle_request(requests[0])  # evicted: must re-execute
        assert driver.executed == 4

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ResponseCacheInterceptor(ttl_seconds=0)
        with pytest.raises(ValueError):
            ResponseCacheInterceptor(max_entries=0)


class TestInterceptorBase:
    def test_subclass_hook(self):
        class Tagging(Interceptor):
            def handle(self, ctx, call_next):
                ctx.metadata["tag"] = "seen"
                return call_next(ctx)

        seen: dict = {}

        def probe(ctx, call_next):
            seen.update(ctx.metadata)
            return call_next(ctx)

        relay, _ = make_relay(Tagging(), probe)
        relay.handle_request(make_request())
        assert seen == {"tag": "seen"}

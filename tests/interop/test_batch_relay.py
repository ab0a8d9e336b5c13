"""Tests for batched relay envelopes, partial failure, and failover paths."""

from __future__ import annotations

import pytest

from repro.errors import (
    DoSError,
    RelayError,
    RelayUnavailableError,
)
from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.base import NetworkDriver
from repro.interop.relay import RateLimiter, RateLimitInterceptor, RelayService
from repro.proto.messages import (
    MSG_KIND_BATCH_REQUEST,
    MSG_KIND_BATCH_RESPONSE,
    MSG_KIND_ERROR,
    STATUS_ERROR,
    STATUS_OK,
    BatchQueryRequest,
    BatchQueryResponse,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
    VerificationPolicyMsg,
)
from repro.utils.clock import SimulatedClock


class EchoDriver(NetworkDriver):
    """Answers with the query args; raises when asked to (per nonce)."""

    platform = "echo"

    def __init__(self, network_id: str, fail_nonces: set[str] | None = None) -> None:
        super().__init__(network_id)
        self.fail_nonces = fail_nonces or set()
        self.executed: list[str] = []

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        self.executed.append(query.nonce)
        if query.nonce in self.fail_nonces:
            raise RuntimeError(f"simulated failure for {query.nonce}")
        return QueryResponse(
            version=1,
            nonce=query.nonce,
            status=STATUS_OK,
            result_plain=b"echo:" + ",".join(query.args).encode(),
        )


def make_query(network="stl", nonce="n-1", args=("a",)) -> NetworkQuery:
    return NetworkQuery(
        version=1,
        address=NetworkAddressMsg(
            network=network, ledger="ledger", contract="cc", function="fn"
        ),
        args=list(args),
        nonce=nonce,
        policy=VerificationPolicyMsg(expression="org:x"),
    )


def make_source_relay(registry, network_id="stl", relay_id=None, **driver_kwargs):
    relay = RelayService(network_id, registry, relay_id=relay_id)
    driver = EchoDriver(network_id, **driver_kwargs)
    relay.register_driver(driver)
    registry.register(network_id, relay)
    return relay, driver


class TestBatchMessages:
    def test_round_trip(self):
        request = BatchQueryRequest(
            version=1, queries=[make_query(nonce="n-1"), make_query(nonce="n-2")]
        )
        decoded = BatchQueryRequest.decode(request.encode())
        assert decoded == request
        assert [q.nonce for q in decoded.queries] == ["n-1", "n-2"]

        response = BatchQueryResponse(
            version=1,
            responses=[QueryResponse(version=1, nonce="n-1", status=STATUS_OK)],
        )
        assert BatchQueryResponse.decode(response.encode()) == response


class TestBatchServing:
    def test_batch_round_trip_positional(self):
        registry = InMemoryRegistry()
        _, driver = make_source_relay(registry)
        dest = RelayService("swt", registry)
        queries = [make_query(nonce=f"n-{i}", args=(str(i),)) for i in range(4)]
        responses = dest.remote_query_batch(queries)
        assert [r.nonce for r in responses] == [q.nonce for q in queries]
        assert [r.result_plain for r in responses] == [
            b"echo:0",
            b"echo:1",
            b"echo:2",
            b"echo:3",
        ]
        assert sorted(driver.executed) == sorted(q.nonce for q in queries)
        assert dest.stats.batches_sent == 1
        assert dest.stats.queries_sent == 4

    def test_one_failing_member_does_not_poison_the_rest(self):
        registry = InMemoryRegistry()
        make_source_relay(registry, fail_nonces={"n-1"})
        dest = RelayService("swt", registry)
        responses = dest.remote_query_batch(
            [make_query(nonce="n-0"), make_query(nonce="n-1"), make_query(nonce="n-2")]
        )
        assert [r.status for r in responses] == [STATUS_OK, STATUS_ERROR, STATUS_OK]
        assert "simulated failure" in responses[1].error
        assert responses[1].nonce == "n-1"

    def test_multi_target_batch_splits_per_network(self):
        registry = InMemoryRegistry()
        stl_relay, _ = make_source_relay(registry, network_id="stl")
        corda_relay, _ = make_source_relay(registry, network_id="corda-net")
        dest = RelayService("swt", registry)
        responses = dest.remote_query_batch(
            [
                make_query(network="stl", nonce="n-0"),
                make_query(network="corda-net", nonce="n-1"),
                make_query(network="stl", nonce="n-2"),
            ]
        )
        assert [r.nonce for r in responses] == ["n-0", "n-1", "n-2"]
        assert dest.stats.batches_sent == 2
        assert stl_relay.stats.batches_served == 1
        assert corda_relay.stats.batches_served == 1
        assert stl_relay.stats.requests_served == 2
        assert corda_relay.stats.requests_served == 1

    def test_member_without_driver_gets_error_slot(self):
        """The serving relay answers unknown-network members per slot."""
        registry = InMemoryRegistry()
        relay, _ = make_source_relay(registry)
        batch = BatchQueryRequest(
            version=1,
            queries=[make_query(nonce="n-0"), make_query(network="ghost", nonce="n-1")],
        )
        envelope = RelayEnvelope(
            version=1,
            kind=MSG_KIND_BATCH_REQUEST,
            request_id="req-b",
            source_network="swt",
            payload=batch.encode(),
        )
        reply = RelayEnvelope.decode(relay.handle_request(envelope.encode()))
        assert reply.kind == MSG_KIND_BATCH_RESPONSE
        decoded = BatchQueryResponse.decode(reply.payload)
        assert [r.status for r in decoded.responses] == [STATUS_OK, STATUS_ERROR]
        assert "no driver" in decoded.responses[1].error
        # stat parity with the singleton path: unroutable member = failed
        assert relay.stats.requests_served == 1
        assert relay.stats.requests_failed == 1

    def test_undecodable_batch_is_envelope_error(self):
        registry = InMemoryRegistry()
        relay, _ = make_source_relay(registry)
        envelope = RelayEnvelope(
            version=1,
            kind=MSG_KIND_BATCH_REQUEST,
            request_id="req-bad",
            payload=b"\xff\xfe",
        )
        reply = RelayEnvelope.decode(relay.handle_request(envelope.encode()))
        assert reply.kind == MSG_KIND_ERROR
        assert reply.request_id == "req-bad"

    def test_empty_batch_returns_empty(self):
        dest = RelayService("swt", InMemoryRegistry())
        assert dest.remote_query_batch([]) == []

    def test_sequential_driver_batch(self):
        """batch_concurrency=1 forces the sequential execution path."""
        registry = InMemoryRegistry()
        _, driver = make_source_relay(registry)
        driver.batch_concurrency = 1
        dest = RelayService("swt", registry)
        responses = dest.remote_query_batch(
            [make_query(nonce=f"n-{i}") for i in range(3)]
        )
        assert [r.status for r in responses] == [STATUS_OK] * 3
        assert driver.executed == ["n-0", "n-1", "n-2"]


class TestFailover:
    def test_endpoint_raising_relay_unavailable_triggers_failover(self):
        """Regression: a dead endpoint's RelayUnavailableError must advance
        the failover loop, not abort the query."""

        class DeadEndpoint:
            def handle_request(self, data: bytes) -> bytes:
                raise RelayUnavailableError("endpoint is gone")

        registry = InMemoryRegistry()
        registry.register("stl", DeadEndpoint())
        make_source_relay(registry, relay_id="alive")
        dest = RelayService("swt", registry)
        response = dest.remote_query(make_query())
        assert response.status == STATUS_OK
        assert dest.stats.failovers == 1

    def test_dos_error_triggers_failover(self):
        class SheddingEndpoint:
            def handle_request(self, data: bytes) -> bytes:
                raise DoSError("overloaded")

        registry = InMemoryRegistry()
        registry.register("stl", SheddingEndpoint())
        make_source_relay(registry)
        dest = RelayService("swt", registry)
        assert dest.remote_query(make_query()).status == STATUS_OK

    def test_retryable_error_envelope_then_success(self):
        """A shed (retryable) reply advances to the next relay."""
        clock = SimulatedClock()
        registry = InMemoryRegistry()
        limited = RelayService("stl", registry).use(
            RateLimitInterceptor(RateLimiter(1, 10.0, clock=clock))
        )
        limited.register_driver(EchoDriver("stl"))
        registry.register("stl", limited)
        limited.handle_request(b"warm-up")  # exhaust the budget
        make_source_relay(registry, relay_id="backup")
        dest = RelayService("swt", registry)
        assert dest.remote_query(make_query()).status == STATUS_OK
        assert dest.stats.failovers == 1

    def test_nonretryable_error_envelope_stops_failover(self):
        """A non-retryable rejection raises without trying later relays."""
        calls: list[str] = []

        class RejectingEndpoint:
            def handle_request(self, data: bytes) -> bytes:
                calls.append("rejecting")
                request = RelayEnvelope.decode(data)
                return RelayEnvelope(
                    version=1,
                    kind=MSG_KIND_ERROR,
                    request_id=request.request_id,
                    payload=b"malformed query: go away",
                    headers={"retryable": "false"},
                ).encode()

        class NeverReached:
            def handle_request(self, data: bytes) -> bytes:
                calls.append("never")
                raise AssertionError("failover must not reach this endpoint")

        registry = InMemoryRegistry()
        registry.register("stl", RejectingEndpoint())
        registry.register("stl", NeverReached())
        dest = RelayService("swt", registry)
        with pytest.raises(RelayError, match="go away"):
            dest.remote_query(make_query())
        assert calls == ["rejecting"]

    def test_mixed_retryable_then_nonretryable(self):
        """retryable -> continue; the following non-retryable raises."""

        def error_endpoint(message: str, retryable: bool):
            class Endpoint:
                def handle_request(self, data: bytes) -> bytes:
                    request = RelayEnvelope.decode(data)
                    return RelayEnvelope(
                        version=1,
                        kind=MSG_KIND_ERROR,
                        request_id=request.request_id,
                        payload=message.encode(),
                        headers={"retryable": "true" if retryable else "false"},
                    ).encode()

            return Endpoint()

        registry = InMemoryRegistry()
        registry.register("stl", error_endpoint("shed", retryable=True))
        registry.register("stl", error_endpoint("fatal", retryable=False))
        dest = RelayService("swt", registry)
        with pytest.raises(RelayError, match="fatal"):
            dest.remote_query(make_query())
        assert dest.stats.failovers == 1

    def test_batch_fails_over_like_singles(self):
        registry = InMemoryRegistry()
        dead, _ = make_source_relay(registry, relay_id="dead")
        dead.available = False
        make_source_relay(registry, relay_id="alive")
        dest = RelayService("swt", registry)
        responses = dest.remote_query_batch(
            [make_query(nonce="n-0"), make_query(nonce="n-1")]
        )
        assert [r.status for r in responses] == [STATUS_OK, STATUS_OK]
        assert dest.stats.failovers == 1

    def test_batch_rate_limited_shed_carries_request_id_and_fails_over(self):
        clock = SimulatedClock()
        registry = InMemoryRegistry()
        limited = RelayService("stl", registry).use(
            RateLimitInterceptor(RateLimiter(1, 10.0, clock=clock))
        )
        limited.register_driver(EchoDriver("stl"))
        registry.register("stl", limited)
        limited.handle_request(b"warm-up")
        # direct probe: the shed reply for a decodable batch is correlated
        batch = BatchQueryRequest(version=1, queries=[make_query()])
        envelope = RelayEnvelope(
            version=1,
            kind=MSG_KIND_BATCH_REQUEST,
            request_id="req-shed",
            payload=batch.encode(),
        )
        reply = RelayEnvelope.decode(limited.handle_request(envelope.encode()))
        assert reply.kind == MSG_KIND_ERROR
        assert reply.request_id == "req-shed"
        assert reply.headers.get("retryable") == "true"

    def test_batch_length_mismatch_fails_over(self):
        """A relay answering with the wrong cardinality is skipped."""

        class TruncatingEndpoint:
            def handle_request(self, data: bytes) -> bytes:
                request = RelayEnvelope.decode(data)
                return RelayEnvelope(
                    version=1,
                    kind=MSG_KIND_BATCH_RESPONSE,
                    request_id=request.request_id,
                    payload=BatchQueryResponse(version=1, responses=[]).encode(),
                ).encode()

        registry = InMemoryRegistry()
        registry.register("stl", TruncatingEndpoint())
        make_source_relay(registry)
        dest = RelayService("swt", registry)
        responses = dest.remote_query_batch([make_query(nonce="n-0")])
        assert [r.status for r in responses] == [STATUS_OK]
        assert dest.stats.failovers == 1

    def test_all_relays_down_reports_batch_failures(self):
        registry = InMemoryRegistry()
        dead, _ = make_source_relay(registry, relay_id="dead")
        dead.available = False
        dest = RelayService("swt", registry)
        with pytest.raises(RelayUnavailableError, match="dead"):
            dest.remote_query_batch([make_query()])

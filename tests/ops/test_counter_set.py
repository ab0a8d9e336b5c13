"""CounterSet views, bucket quantiles, and owners' registries composed."""

from __future__ import annotations

import threading

import pytest

from repro.api.middleware import MetricsInterceptor
from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.base import NetworkDriver
from repro.interop.relay import RelayService
from repro.ops.exporters import register_relay
from repro.ops.metrics import CounterSet, MetricsRegistry
from repro.proto.messages import (
    MSG_KIND_QUERY_REQUEST,
    PROTOCOL_VERSION,
    STATUS_OK,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
)
from repro.testing import parse_exposition
from repro.utils.clock import SimulatedClock


def frame_counts(registry: MetricsRegistry) -> CounterSet:
    counts = registry.counter("repro_frames_total", "frames", ("relay_id", "counter"))
    in_flight = registry.gauge("repro_in_flight", "in flight", ("relay_id",))
    peak = registry.gauge("repro_in_flight_peak", "peak", ("relay_id",))
    relay = {"relay_id": "r-1"}
    return CounterSet(
        {
            "served": (counts, {**relay, "counter": "served"}),
            "rejected": (counts, {**relay, "counter": "rejected"}),
            "in_flight": (in_flight, relay),
            "in_flight_peak": (peak, relay),
        },
        peaks={"in_flight": "in_flight_peak"},
    )


class TestCounterSet:
    def test_reads_bumps_and_snapshot_list_every_name(self):
        registry = MetricsRegistry()
        stats = frame_counts(registry)
        assert stats.snapshot() == {
            "served": 0,
            "rejected": 0,
            "in_flight": 0,
            "in_flight_peak": 0,
        }
        stats.bump("served")
        stats.bump("served", 2)
        assert stats.served == 3
        assert registry.counter(
            "repro_frames_total", "frames", ("relay_id", "counter")
        ).value(relay_id="r-1", counter="served") == 3
        with pytest.raises(AttributeError):
            stats.unknown  # noqa: B018 - the read is the assertion
        with pytest.raises(ValueError):
            stats.bump("served", -1)

    def test_zero_counts_are_scraped_before_they_move(self):
        registry = MetricsRegistry()
        frame_counts(registry)
        family = parse_exposition(registry.render())["repro_frames_total"]
        assert {s.label_dict()["counter"]: s.value for s in family.samples} == {
            "served": 0,
            "rejected": 0,
        }

    def test_peak_follows_concurrent_bumps(self):
        stats = frame_counts(MetricsRegistry())
        workers = 8
        all_in = threading.Barrier(workers)

        def frame() -> None:
            stats.bump("in_flight")
            all_in.wait(timeout=10.0)
            stats.bump("in_flight", -1)

        threads = [threading.Thread(target=frame) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert stats.in_flight == 0
        assert stats.in_flight_peak == workers


def test_attaching_a_collector_twice_renders_it_once():
    owner = MetricsRegistry()
    owner.counter("repro_owned_total", "owned").inc()
    shared = MetricsRegistry()
    shared.register_collector(owner.collect)
    shared.register_collector(owner.collect)
    assert shared.render().count("repro_owned_total 1") == 1


class TestHistogramQuantile:
    def test_interpolates_inside_the_bucket_holding_the_rank(self):
        histogram = MetricsRegistry().histogram(
            "repro_seconds", "latency", ("kind",), buckets=(1.0, 2.0, 4.0)
        )
        assert histogram.quantile(0.5, kind="query") == 0.0  # nothing observed
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value, kind="query")
        assert histogram.quantile(0.25, kind="query") == pytest.approx(1.0)
        assert histogram.quantile(0.5, kind="query") == pytest.approx(1.5)
        assert histogram.quantile(1.0, kind="query") == pytest.approx(4.0)

    def test_rank_in_the_overflow_bucket_answers_the_last_bound(self):
        histogram = MetricsRegistry().histogram("repro_seconds", "latency", buckets=(1.0, 2.0))
        histogram.observe(9.0)
        assert histogram.quantile(0.5) == 2.0

    def test_sums_every_series_matching_the_labels_given(self):
        histogram = MetricsRegistry().histogram(
            "repro_seconds", "latency", ("relay_id", "kind"), buckets=(1.0, 2.0)
        )
        histogram.observe(0.5, relay_id="a", kind="query")
        histogram.observe(1.5, relay_id="b", kind="query")
        histogram.observe(1.5, relay_id="b", kind="batch")
        assert histogram.quantile(0.5, kind="query") == pytest.approx(1.0)
        assert histogram.quantile(0.5) == pytest.approx(1.25)
        with pytest.raises(ValueError):
            histogram.quantile(0.5, shard="x")
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class EchoDriver(NetworkDriver):
    platform = "echo"

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        return QueryResponse(
            version=PROTOCOL_VERSION, nonce=query.nonce, status=STATUS_OK, result_plain=b"ok"
        )


def query_frame(nonce: str) -> bytes:
    query = NetworkQuery(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(network="echo", ledger="l", contract="c", function="f"),
        args=[],
        nonce=nonce,
    )
    return RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=MSG_KIND_QUERY_REQUEST,
        request_id=f"req-{nonce}",
        source_network="elsewhere",
        destination_network="echo",
        payload=query.encode(),
    ).encode()


class TestOwnersComposed:
    def test_one_count_one_store_and_interceptor_bytes_family(self):
        """The scrape reads the very instruments the relay's stats and
        the interceptor's snapshot read."""
        clock = SimulatedClock()
        relay = RelayService("echo", InMemoryRegistry(), clock=clock, relay_id="r-echo")
        relay.register_driver(EchoDriver("echo"))
        metrics = MetricsInterceptor(clock=clock)
        relay.use(metrics)
        registry = MetricsRegistry()
        register_relay(registry, relay)
        request = query_frame("n-1")
        reply = relay.handle_request(request)
        families = parse_exposition(registry.render())
        assert set(families) == {  # no error yet: its family has no series
            "repro_relay_requests_total",
            "repro_relay_request_seconds",
            "repro_relay_request_bytes_total",
            "repro_relay_stats_total",
            "repro_relay_idempotency_entries",
            "repro_store_ops_total",
        }
        moved = {
            s.label_dict()["direction"]: s.value
            for s in families["repro_relay_request_bytes_total"].samples
        }
        snapshot = metrics.snapshot()
        assert moved == {"in": len(request), "out": len(reply)}
        assert (snapshot["bytes_in"], snapshot["bytes_out"]) == (len(request), len(reply))
        [requests] = families["repro_relay_requests_total"].samples
        assert requests.value == snapshot["requests_total"] == 1
        served = [
            s for s in families["repro_relay_stats_total"].samples
            if s.label_dict()["counter"] == "requests_served"
        ]
        assert [s.value for s in served] == [relay.stats.requests_served] == [1]

"""The ops scrape of one wired deployment, pinned family by family.

One :class:`~repro.ops.MetricsRegistry` carries a relay with a
:class:`~repro.api.MetricsInterceptor`, the
:class:`~repro.net.RelayServer` in front of it, and an
:class:`~repro.assets.metrics.ExchangeMetrics`, wired through
``register_relay``, ``register_server`` and ``register_assets``. A fixed
sequence runs under :class:`~repro.utils.clock.SimulatedClock`: two
queries and one undecodable frame over the server's socket, and one
completed three-party cycle. Every family the scrape then shows is
pinned: its name, kind, label names, bucket grid and every sample value.
Exporters may add families beside these; none of these may change.
"""

from __future__ import annotations

import time

from repro.api.middleware import MetricsInterceptor
from repro.assets import AssetSpec, CycleCoordinator
from repro.assets.metrics import ExchangeMetrics
from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.base import NetworkDriver
from repro.interop.relay import RelayService
from repro.net import RelayServer
from repro.ops.exporters import register_assets, register_relay, register_server
from repro.ops.metrics import MetricsRegistry
from repro.proto.messages import (
    MSG_KIND_ERROR,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_QUERY_RESPONSE,
    PROTOCOL_VERSION,
    STATUS_OK,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
)
from repro.testing import parse_exposition
from repro.utils.clock import SimulatedClock

RELAY = "relay-pinned"

#: The request-latency grid (seconds) every relay histogram uses.
LATENCY_GRID = (
    "0.001", "0.0025", "0.005", "0.01", "0.0125", "0.015", "0.0175", "0.025", "0.05", "0.1",
    "0.25", "0.5", "1", "2.5", "5", "10", "+Inf",
)
#: The lock→claim grid (seconds) of the asset histogram.
ASSET_GRID = (
    "0.1", "0.5", "1", "2.5", "5", "10", "30", "60", "120", "300", "600", "+Inf",
)

RELAY_COUNTERS = {
    "requests_served": 2,
    "requests_rejected": 0,
    "requests_failed": 1,
    "queries_sent": 0,
    "failovers": 0,
    "batches_served": 0,
    "batches_sent": 0,
    "transactions_sent": 0,
    "transactions_served": 0,
    "subscriptions_opened": 0,
    "subscriptions_served": 0,
    "events_published": 0,
    "events_delivered": 0,
    "events_dropped": 0,
    "asset_commands_sent": 0,
    "asset_commands_served": 0,
    "duplicates_suppressed": 0,
}

CYCLE_STATES = ("locking", "locked", "claiming", "completed")


def series(**labels: str) -> tuple:
    return tuple(sorted(labels.items()))


def bucket_counts(grid: tuple, cumulative: tuple, **labels: str) -> dict:
    return {
        series(le=bound, **labels): count for bound, count in zip(grid, cumulative)
    }


#: name -> (kind, label names, bucket grid, {series labels: value}).
#: Histogram values list every ``_bucket`` series (``le`` included) under
#: the bare family name, then ``_sum`` and ``_count`` under theirs.
PINNED = {
    "repro_relay_requests_total": (
        "counter",
        ("kind", "relay_id"),
        (),
        {
            series(relay_id=RELAY, kind="query"): 2,
            series(relay_id=RELAY, kind="undecodable"): 1,
        },
    ),
    "repro_relay_errors_total": (
        "counter",
        ("kind", "relay_id"),
        (),
        {series(relay_id=RELAY, kind="undecodable"): 1},
    ),
    "repro_relay_request_seconds": (
        "histogram",
        ("kind", "relay_id"),
        LATENCY_GRID,
        {
            **bucket_counts(LATENCY_GRID, (2,) * 17, relay_id=RELAY, kind="query"),
            **bucket_counts(
                LATENCY_GRID, (1,) * 17, relay_id=RELAY, kind="undecodable"
            ),
            ("_sum", series(relay_id=RELAY, kind="query")): 0,
            ("_sum", series(relay_id=RELAY, kind="undecodable")): 0,
            ("_count", series(relay_id=RELAY, kind="query")): 2,
            ("_count", series(relay_id=RELAY, kind="undecodable")): 1,
        },
    ),
    "repro_relay_stats_total": (
        "counter",
        ("counter", "relay_id"),
        (),
        {
            series(relay_id=RELAY, counter=name): value
            for name, value in RELAY_COUNTERS.items()
        },
    ),
    "repro_relay_idempotency_entries": (
        "gauge",
        ("relay_id",),
        (),
        {series(relay_id=RELAY): 0},
    ),
    "repro_store_ops_total": (
        "counter",
        ("op", "relay_id"),
        (),
        {
            series(relay_id=RELAY, op="batches_applied"): 0,
            series(relay_id=RELAY, op="ops_applied"): 0,
        },
    ),
    "repro_relay_server_total": (
        "counter",
        ("counter", "relay_id"),
        (),
        {
            series(relay_id=RELAY, counter="connections_accepted"): 1,
            series(relay_id=RELAY, counter="connections_closed"): 1,
            series(relay_id=RELAY, counter="frames_served"): 3,
            series(relay_id=RELAY, counter="frames_rejected"): 0,
        },
    ),
    "repro_relay_server_in_flight": (
        "gauge",
        ("relay_id",),
        (),
        {series(relay_id=RELAY): 0},
    ),
    "repro_relay_server_in_flight_peak": (
        "gauge",
        ("relay_id",),
        (),
        {series(relay_id=RELAY): 1},
    ),
    "repro_assets_active": (
        "gauge",
        ("kind",),
        (),
        {series(kind="cycle"): 0},
    ),
    "repro_assets_started_total": (
        "counter",
        ("kind",),
        (),
        {series(kind="cycle"): 1},
    ),
    "repro_assets_transitions_total": (
        "counter",
        ("kind", "state"),
        (),
        {series(kind="cycle", state=state): 1 for state in CYCLE_STATES},
    ),
    "repro_assets_lock_to_claim_seconds": (
        "histogram",
        ("kind",),
        ASSET_GRID,
        {
            **bucket_counts(ASSET_GRID, (1,) * 12, kind="cycle"),
            ("_sum", series(kind="cycle")): 0,
            ("_count", series(kind="cycle")): 1,
        },
    ),
}

# Mirrors the cycle_scenario fixture wiring (tests/assets/conftest.py).
RING = (
    ("fabnet/trade/assetscc", "GOLD-1", "AND(org:traders-org, org:audit-org)"),
    ("quornet/state/asset-vault", "OIL-9", "AND(org:op-org-1, org:op-org-2)"),
    ("cordanet/vault/asset-vault", "ART-7", "AND(org:carol, org:dana)"),
)


class PinnedDriver(NetworkDriver):
    """A crypto-free driver: the scrape, not the proof path, is under test."""

    platform = "pinned"

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        return QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_OK,
            result_plain=b"doc:" + query.nonce.encode(),
        )


def query_frame(nonce: str) -> bytes:
    query = NetworkQuery(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(
            network="pinned", ledger="ledger", contract="docs", function="Get"
        ),
        args=["K-1"],
        nonce=nonce,
    )
    return RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=MSG_KIND_QUERY_REQUEST,
        request_id=f"req-{nonce}",
        source_network="elsewhere",
        destination_network="pinned",
        payload=query.encode(),
    ).encode()


def wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def scrape_after_fixed_sequence(cycle_scenario) -> dict:
    clock = SimulatedClock()
    relay = RelayService("pinned", InMemoryRegistry(), clock=clock, relay_id=RELAY)
    relay.register_driver(PinnedDriver("pinned"))
    relay.use(MetricsInterceptor(clock=clock))
    exchange_metrics = ExchangeMetrics()
    registry = MetricsRegistry()
    server = RelayServer(relay, max_workers=1).start()
    try:
        register_relay(registry, relay)
        register_server(registry, server)
        register_assets(registry, exchange_metrics)
        endpoint = server.endpoint(timeout=10.0)
        try:
            kinds = [
                RelayEnvelope.decode(endpoint.handle_request(frame)).kind
                for frame in (query_frame("q-1"), query_frame("q-2"), b"\x00garbage")
            ]
        finally:
            endpoint.close()
        wait_for(lambda: server.stats.connections_closed == 1)
    finally:
        server.stop()
    assert kinds == [MSG_KIND_QUERY_RESPONSE, MSG_KIND_QUERY_RESPONSE, MSG_KIND_ERROR]

    scenario = cycle_scenario
    cycle = CycleCoordinator(
        parties=[scenario.alice_client, scenario.bob_client, scenario.carol_client],
        specs=[AssetSpec.parse(address, asset) for address, asset, _ in RING],
        cycle_timeout=900.0,
        hop_gap=150.0,
        policies=[policy for *_, policy in RING],
        metrics=exchange_metrics,
    )
    assert cycle.run().completed
    return parse_exposition(registry.render())


def observed(family) -> dict:
    """The family's samples keyed the way :data:`PINNED` keys them."""
    values = {}
    for sample in family.samples:
        labels = tuple(sorted(sample.labels))
        suffix = sample.name[len(family.name):]
        values[(suffix, labels) if suffix in ("_sum", "_count") else labels] = (
            sample.value
        )
    return values


def test_scrape_of_a_wired_deployment_is_pinned(cycle_scenario):
    families = scrape_after_fixed_sequence(cycle_scenario)
    missing = sorted(set(PINNED) - set(families))
    assert not missing, f"families gone from the scrape: {missing}"
    for name, (kind, label_names, grid, values) in PINNED.items():
        family = families[name]
        assert family.kind == kind, name
        names = {
            label
            for sample in family.samples
            for label, _ in sample.labels
            if label != "le"
        }
        assert tuple(sorted(names)) == label_names, name
        bounds = tuple(
            dict(sample.labels)["le"]
            for sample in family.samples
            if sample.name.endswith("_bucket")
        )
        assert set(bounds) == set(grid), name
        assert observed(family) == values, name

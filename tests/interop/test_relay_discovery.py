"""Tests for relays, discovery services, rate limiting, and failover."""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    DiscoveryError,
    RelayError,
    RelayUnavailableError,
)
from repro.interop.discovery import AddressResolver, FileRegistry, InMemoryRegistry
from repro.interop.relay import RateLimiter, RateLimitInterceptor, RelayService
from repro.proto.messages import (
    MSG_KIND_ERROR,
    MSG_KIND_QUERY_REQUEST,
    NetworkAddressMsg,
    NetworkQuery,
    RelayEnvelope,
)
from repro.utils.clock import SimulatedClock


def make_query(network="stl", policy="org:seller-org") -> NetworkQuery:
    from repro.proto.messages import VerificationPolicyMsg

    return NetworkQuery(
        version=1,
        address=NetworkAddressMsg(
            network=network, ledger="trade-logistics", contract="cc", function="fn"
        ),
        nonce="n-1",
        policy=VerificationPolicyMsg(expression=policy),
    )


class TestInMemoryRegistry:
    def test_register_and_lookup(self):
        registry = InMemoryRegistry()
        sentinel = object()
        registry.register("stl", sentinel)  # type: ignore[arg-type]
        assert registry.lookup("stl") == [sentinel]

    def test_unknown_network(self):
        with pytest.raises(DiscoveryError):
            InMemoryRegistry().lookup("ghost")

    def test_multiple_relays_returned_in_order(self):
        registry = InMemoryRegistry()
        first, second = object(), object()
        registry.register("stl", first)  # type: ignore[arg-type]
        registry.register("stl", second)  # type: ignore[arg-type]
        assert registry.lookup("stl") == [first, second]

    def test_unregister(self):
        registry = InMemoryRegistry()
        relay = object()
        registry.register("stl", relay)  # type: ignore[arg-type]
        registry.unregister("stl", relay)  # type: ignore[arg-type]
        with pytest.raises(DiscoveryError):
            registry.lookup("stl")


class TestFileRegistry:
    def test_lookup_resolves_addresses(self, tmp_path):
        resolver = AddressResolver()
        sentinel = object()
        resolver.bind("relay://stl-1", sentinel)  # type: ignore[arg-type]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"stl": ["relay://stl-1"]}))
        registry = FileRegistry(path, resolver)
        assert registry.lookup("stl") == [sentinel]

    def test_register_appends_to_file(self, tmp_path):
        resolver = AddressResolver()
        registry = FileRegistry(tmp_path / "registry.json", resolver)
        registry.register("stl", "relay://stl-1")
        registry.register("stl", "relay://stl-2")
        registry.register("stl", "relay://stl-1")  # idempotent
        table = json.loads((tmp_path / "registry.json").read_text())
        assert table == {"stl": ["relay://stl-1", "relay://stl-2"]}

    def test_missing_file(self, tmp_path):
        registry = FileRegistry(tmp_path / "missing.json", AddressResolver())
        with pytest.raises(DiscoveryError, match="does not exist"):
            registry.lookup("stl")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(DiscoveryError, match="not valid JSON"):
            FileRegistry(path, AddressResolver()).lookup("stl")

    def test_unresolvable_address(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"stl": ["relay://nowhere"]}))
        with pytest.raises(DiscoveryError, match="does not resolve"):
            FileRegistry(path, AddressResolver()).lookup("stl")

    def test_register_survives_interrupted_write(self, tmp_path, monkeypatch):
        """A crash mid-write must never corrupt the registry file.

        Regression: ``register`` used to ``write_text`` the registry in
        place, so an interrupted write left torn JSON behind and every
        subsequent lookup (from any process) failed. The write now goes
        to a temp file + ``os.replace``, so the interrupted write hits
        only the temp file and the registry keeps its old valid table.
        """
        from pathlib import Path

        resolver = AddressResolver()
        sentinel = object()
        resolver.bind("relay://stl-1", sentinel)  # type: ignore[arg-type]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"stl": ["relay://stl-1"]}))
        registry = FileRegistry(path, resolver)

        real_write_text = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            # Simulate power loss / SIGKILL partway through the write:
            # half the payload lands, then the "process" dies.
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="simulated crash"):
            registry.register("stl", "relay://stl-2")
        monkeypatch.undo()

        # The registry file is still the complete pre-crash table ...
        assert json.loads(path.read_text()) == {"stl": ["relay://stl-1"]}
        # ... lookups keep working, and no temp droppings remain.
        assert registry.lookup("stl") == [sentinel]
        assert list(tmp_path.iterdir()) == [path]

    def test_register_cleans_up_temp_file_on_success(self, tmp_path):
        registry = FileRegistry(tmp_path / "registry.json", AddressResolver())
        registry.register("stl", "relay://stl-1")
        assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]

    def test_lookup_skips_unresolvable_address(self, tmp_path, caplog):
        """One bad entry must not take down a network with healthy relays.

        Regression: ``lookup`` used to resolve all-or-nothing, so a
        single stale/malformed address raised :class:`DiscoveryError`
        even though resolvable redundant relays existed — defeating the
        paper's §5 redundancy story.
        """
        import logging

        resolver = AddressResolver()
        first, second = object(), object()
        resolver.bind("relay://stl-1", first)  # type: ignore[arg-type]
        resolver.bind("relay://stl-3", second)  # type: ignore[arg-type]
        path = tmp_path / "registry.json"
        path.write_text(
            json.dumps({"stl": ["relay://stl-1", "relay://stl-gone", "relay://stl-3"]})
        )
        registry = FileRegistry(path, resolver)
        with caplog.at_level(logging.WARNING, logger="repro.discovery"):
            assert registry.lookup("stl") == [first, second]
        assert registry.counters()["addresses_skipped"] == 1
        assert any(
            "skipping unresolvable relay address" in record.message
            for record in caplog.records
        )

    def test_lookup_raises_only_when_no_address_resolves(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"stl": ["relay://gone-1", "relay://gone-2"]}))
        registry = FileRegistry(path, AddressResolver())
        with pytest.raises(DiscoveryError, match="gone-1.*gone-2"):
            registry.lookup("stl")
        assert registry.counters()["addresses_skipped"] == 2

    def test_file_edits_visible_without_restart(self, tmp_path):
        resolver = AddressResolver()
        sentinel = object()
        resolver.bind("relay://late", sentinel)  # type: ignore[arg-type]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({}))
        registry = FileRegistry(path, resolver)
        with pytest.raises(DiscoveryError):
            registry.lookup("stl")
        path.write_text(json.dumps({"stl": ["relay://late"]}))
        assert registry.lookup("stl") == [sentinel]


class TestRateLimiter:
    def test_allows_within_budget(self):
        clock = SimulatedClock()
        limiter = RateLimiter(3, 1.0, clock=clock)
        assert all(limiter.allow() for _ in range(3))
        assert not limiter.allow()
        assert limiter.rejected == 1

    def test_window_slides(self):
        clock = SimulatedClock()
        limiter = RateLimiter(2, 1.0, clock=clock)
        assert limiter.allow() and limiter.allow()
        assert not limiter.allow()
        clock.advance(1.5)
        assert limiter.allow()

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            RateLimiter(0, 1.0)


class TestRelayErrorHandling:
    def test_garbage_request_gets_error_envelope(self):
        relay = RelayService("stl", InMemoryRegistry())
        reply = RelayEnvelope.decode(relay.handle_request(b"\xff\xfe"))
        assert reply.kind == MSG_KIND_ERROR
        assert b"undecodable envelope" in reply.payload

    def test_wrong_kind_rejected(self):
        relay = RelayService("stl", InMemoryRegistry())
        envelope = RelayEnvelope(version=1, kind=99, request_id="r", payload=b"")
        reply = RelayEnvelope.decode(relay.handle_request(envelope.encode()))
        assert reply.kind == MSG_KIND_ERROR

    def test_no_driver_is_nonretryable_error(self):
        registry = InMemoryRegistry()
        source_relay = RelayService("stl", registry)  # no driver registered
        registry.register("stl", source_relay)
        dest_relay = RelayService("swt", registry)
        with pytest.raises(RelayError, match="no driver"):
            dest_relay.remote_query(make_query())

    def test_query_without_address_rejected_locally(self):
        relay = RelayService("swt", InMemoryRegistry())
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            relay.remote_query(NetworkQuery(version=1))

    def test_unknown_network_discovery_error(self):
        relay = RelayService("swt", InMemoryRegistry())
        with pytest.raises(DiscoveryError):
            relay.remote_query(make_query(network="atlantis"))

    def test_down_relay_then_healthy_relay_failover(self, trade_scenario):
        """Redundant relays: a dead first relay must not break queries."""
        scenario = trade_scenario
        from repro.interop.bootstrap import create_fabric_relay

        registry = InMemoryRegistry()
        dead = create_fabric_relay(scenario.stl, registry, relay_id="dead")
        dead.available = False
        create_fabric_relay(scenario.stl, registry, relay_id="alive")
        dest = RelayService("swt", registry)
        client_identity = scenario.swt.org("seller-bank-org").member("seller")
        from repro.interop.client import InteropClient

        client = InteropClient(client_identity, dest, "swt")
        # (needs B/L present first)
        scenario.stl_seller_app.create_shipment("PO-F", "goods")
        scenario.carrier_app.accept_shipment("PO-F")
        scenario.carrier_app.record_handover("PO-F")
        scenario.carrier_app.issue_bill_of_lading("PO-F", "MV F")
        result = client.remote_query(
            "stl/trade-logistics/TradeLensCC/GetBillOfLading",
            ["PO-F"],
            policy="AND(org:seller-org, org:carrier-org)",
        )
        assert b"BL-PO-F" in result.data
        assert dest.stats.failovers == 1

    def test_all_relays_down(self):
        registry = InMemoryRegistry()
        relay = RelayService("stl", registry)
        relay.available = False
        registry.register("stl", relay)
        dest = RelayService("swt", registry)
        with pytest.raises(RelayUnavailableError):
            dest.remote_query(make_query())

    def test_rate_limited_relay_shed_is_retryable(self):
        clock = SimulatedClock()
        registry = InMemoryRegistry()
        limited = RelayService("stl", registry).use(
            RateLimitInterceptor(RateLimiter(1, 10.0, clock=clock))
        )
        registry.register("stl", limited)
        # exhaust the budget
        limited.handle_request(b"anything")
        dest = RelayService("swt", registry)
        with pytest.raises(RelayUnavailableError, match="rate limit"):
            dest.remote_query(make_query())
        assert limited.stats.requests_rejected == 1

    def test_request_id_correlation_enforced(self):
        registry = InMemoryRegistry()

        class ConfusedRelay:
            def handle_request(self, data: bytes) -> bytes:
                envelope = RelayEnvelope.decode(data)
                from repro.proto.messages import (
                    MSG_KIND_QUERY_RESPONSE,
                    QueryResponse,
                )

                return RelayEnvelope(
                    version=1,
                    kind=MSG_KIND_QUERY_RESPONSE,
                    request_id="some-other-request",
                    payload=QueryResponse(version=1, nonce="n-1").encode(),
                ).encode()

        registry.register("stl", ConfusedRelay())
        dest = RelayService("swt", registry)
        with pytest.raises(RelayUnavailableError, match="correlates"):
            dest.remote_query(make_query())

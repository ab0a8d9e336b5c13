"""Tests for the extension features: cross-network transactions and events."""

from __future__ import annotations

import json

import pytest

from repro.errors import AccessDeniedError
from repro.interop.events import EventBridge, EventBridgeRegistry, RemoteEventNotification
from repro.interop.transactions import (
    RemoteTransactionClient,
    enable_remote_transactions,
)

POLICY = "AND(org:seller-org, org:carrier-org)"


@pytest.fixture()
def tx_scenario(trade_scenario):
    """Trade scenario with remote transactions enabled on STL."""
    scenario = trade_scenario
    invoker = scenario.stl.org("seller-org").enroll("interop-invoker", role="client")
    enable_remote_transactions(scenario.stl, scenario.stl_relay, invoker)
    admin = scenario.stl.org("seller-org").member("admin")
    # Expose CreateShipment for remote invocation by SWT's seller org.
    scenario.stl.gateway.submit(
        admin,
        "ecc",
        "AddAccessRule",
        ["swt", "seller-bank-org", "TradeLensCC", "CreateShipment"],
    )
    tx_client = RemoteTransactionClient(
        scenario.swt_seller_client.interop_client, scenario.swt_relay
    )
    return scenario, tx_client


class TestRemoteTransactions:
    def test_remote_transaction_commits_on_source(self, tx_scenario):
        scenario, tx_client = tx_scenario
        result = tx_client.remote_transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-REMOTE-1", "remotely created goods"],
            policy=POLICY,
        )
        assert result.tx_id.startswith("tx-")
        assert result.attesting_orgs == ["carrier-org", "seller-org"]
        shipment = json.loads(result.result)
        assert shipment["po_ref"] == "PO-REMOTE-1"
        # The update is really on the source ledger.
        local = scenario.stl_seller_app.get_shipment("PO-REMOTE-1")
        assert local["status"] == "CREATED"

    def test_attestations_cover_commit_metadata(self, tx_scenario):
        scenario, tx_client = tx_scenario
        result = tx_client.remote_transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-REMOTE-2", "goods"],
            policy=POLICY,
        )
        assert result.block_number >= 0
        block = scenario.stl.peers[0].ledger.block(result.block_number)
        assert any(tx.tx_id == result.tx_id for tx in block.transactions)

    def test_unexposed_function_denied(self, tx_scenario):
        scenario, tx_client = tx_scenario
        with pytest.raises(AccessDeniedError):
            tx_client.remote_transact(
                "stl/trade-logistics/TradeLensCC/AcceptShipment",
                ["PO-REMOTE-1"],
                policy=POLICY,
            )

    def test_failed_source_transaction_reported(self, tx_scenario):
        scenario, tx_client = tx_scenario
        from repro.errors import RelayError

        tx_client.remote_transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-DUP", "goods"],
            policy=POLICY,
        )
        with pytest.raises(RelayError, match="already exists"):
            tx_client.remote_transact(
                "stl/trade-logistics/TradeLensCC/CreateShipment",
                ["PO-DUP", "goods"],
                policy=POLICY,
            )

    def test_non_confidential_remote_transaction(self, tx_scenario):
        scenario, tx_client = tx_scenario
        result = tx_client.remote_transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-REMOTE-3", "goods"],
            policy=POLICY,
            confidential=False,
        )
        assert json.loads(result.result)["po_ref"] == "PO-REMOTE-3"


@pytest.fixture()
def event_scenario(trade_scenario):
    scenario = trade_scenario
    admin = scenario.stl.org("seller-org").member("admin")
    scenario.stl.gateway.submit(
        admin,
        "ecc",
        "AddAccessRule",
        ["swt", "seller-bank-org", "TradeLensCC", "event:BillOfLadingIssued"],
    )
    bridge = EventBridge(scenario.stl, admin)
    registry = EventBridgeRegistry()
    registry.register("stl", bridge)
    return scenario, bridge, registry


def _ship(scenario, po_ref):
    scenario.stl_seller_app.create_shipment(po_ref, "goods")
    scenario.carrier_app.accept_shipment(po_ref)
    scenario.carrier_app.record_handover(po_ref)
    scenario.carrier_app.issue_bill_of_lading(po_ref, "MV Ev")


class TestRemoteEvents:
    def test_subscription_receives_events(self, event_scenario):
        scenario, bridge, _ = event_scenario
        received: list[RemoteEventNotification] = []
        subscription = bridge.subscribe(
            "swt",
            "seller-bank-org",
            "TradeLensCC",
            "BillOfLadingIssued",
            callback=received.append,
        )
        _ship(scenario, "PO-EV-1")
        assert len(received) == 1
        assert received[0].payload == b"PO-EV-1"
        assert received[0].source_network == "stl"
        assert subscription.notifications == received

    def test_unsubscribed_bridge_stops_delivering(self, event_scenario):
        scenario, bridge, _ = event_scenario
        subscription = bridge.subscribe(
            "swt", "seller-bank-org", "TradeLensCC", "BillOfLadingIssued"
        )
        _ship(scenario, "PO-EV-2")
        assert len(subscription.notifications) == 1
        bridge.unsubscribe(subscription)
        _ship(scenario, "PO-EV-3")
        assert len(subscription.notifications) == 1

    def test_subscription_requires_event_rule(self, event_scenario):
        scenario, bridge, _ = event_scenario
        with pytest.raises(AccessDeniedError, match="event"):
            bridge.subscribe("swt", "seller-bank-org", "TradeLensCC", "ShipmentCreated")
        with pytest.raises(AccessDeniedError):
            bridge.subscribe("swt", "buyer-bank-org", "TradeLensCC", "BillOfLadingIssued")

    def test_notification_roundtrips_wire_form(self, event_scenario):
        notification = RemoteEventNotification(
            source_network="stl",
            chaincode="TradeLensCC",
            name="BillOfLadingIssued",
            payload=b"PO-1",
            block_number=7,
            tx_id="tx-abc",
        )
        assert RemoteEventNotification.from_bytes(notification.to_bytes()) == notification

    def test_notify_then_verify_pattern(self, event_scenario):
        """The notification itself is untrusted; the follow-up query is
        proof-backed — the module's core trust argument."""
        scenario, bridge, _ = event_scenario
        subscription = bridge.subscribe(
            "swt", "seller-bank-org", "TradeLensCC", "BillOfLadingIssued"
        )
        _ship(scenario, "PO-EV-4")
        notification = subscription.notifications[-1]
        po_ref = notification.payload.decode()
        result = subscription.verify_with_query(
            scenario.swt_seller_client.interop_client,
            "stl/trade-logistics/TradeLensCC/GetBillOfLading",
            [po_ref],
            policy=POLICY,
        )
        assert json.loads(result.data)["po_ref"] == po_ref
        assert len(result.proof) == 2

    def test_bridge_registry_lookup(self, event_scenario):
        _, bridge, registry = event_scenario
        assert registry.lookup("stl") is bridge
        from repro.errors import DiscoveryError

        with pytest.raises(DiscoveryError):
            registry.lookup("atlantis")

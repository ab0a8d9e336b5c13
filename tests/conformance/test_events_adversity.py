"""Event streams under an adversarial delivery path.

Notifications are *hints*, not data (§2 primitive iii as built on the
paper's trust argument): a malicious relay corrupting a publish
envelope's content must see its forgery die in the notify-then-verify
upgrade, and a censored notification must be *reported* (counted as
dropped at the source) rather than silently lost.
"""

from __future__ import annotations

import pytest

from repro.api import EventVerifier, InteropGateway
from repro.interop.events import enable_relay_events
from repro.proto.messages import MSG_KIND_EVENT_PUBLISH
from repro.testing import (
    FAULT_DROP,
    FAULT_TAMPER_PAYLOAD,
    FaultPlan,
    FaultSpec,
    chaos_topology,
)

POLICY = "AND(org:seller-org, org:carrier-org)"
TL_CHAINCODE_ADDR = "stl/trade-logistics/TradeLensCC"


@pytest.fixture()
def event_gateway(trade_scenario):
    """Trade scenario with relay-side events enabled on STL."""
    scenario = trade_scenario
    stl_admin = scenario.stl.org("seller-org").member("admin")
    enable_relay_events(scenario.stl, scenario.stl_relay)
    scenario.stl.gateway.submit(
        stl_admin,
        "ecc",
        "AddAccessRule",
        ["swt", "seller-bank-org", "TradeLensCC", "event:BillOfLadingIssued"],
    )
    gateway = InteropGateway.from_client(scenario.swt_seller_client.interop_client)
    return scenario, gateway


def bl_verifier() -> EventVerifier:
    return EventVerifier(
        address=f"{TL_CHAINCODE_ADDR}/GetBillOfLading",
        args=lambda notification: [notification.payload.decode()],
        policy=POLICY,
    )


def issue_bl(scenario, po_ref: str) -> None:
    scenario.stl_seller_app.create_shipment(po_ref, "adversity goods")
    scenario.carrier_app.accept_shipment(po_ref)
    scenario.carrier_app.record_handover(po_ref)
    scenario.carrier_app.issue_bill_of_lading(po_ref, vessel="MV Chaos")


class TestTamperedNotification:
    def test_tampered_publish_lands_in_rejected(self, event_gateway):
        """A relay flipping a byte of the notification content keeps the
        framing valid — the forgery reaches the subscriber, fails its
        proof-carrying upgrade, and never reaches the iterator."""
        scenario, gateway = event_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        plan = FaultPlan(
            808,
            [
                FaultSpec(
                    kind=FAULT_TAMPER_PAYLOAD,
                    direction="request",
                    only_kinds=frozenset({MSG_KIND_EVENT_PUBLISH}),
                )
            ],
            name="tamper-notification",
        )
        # The publish leg runs source->subscriber: wrap the subscriber
        # network's relay path.
        with chaos_topology(
            scenario.discovery, ["swt"], plan, redundant=False
        ) as wrappers:
            issue_bl(scenario, "PO-ADV-TAMPER")
            assert wrappers["swt"].injected[FAULT_TAMPER_PAYLOAD] == 1
        assert stream.pending_count == 1
        assert stream.take() is None  # nothing verifiable to yield
        assert len(stream.rejected) == 1
        rejected = stream.rejected[0]
        assert rejected.notification.payload != b"PO-ADV-TAMPER"
        assert "verif" in rejected.reason  # failed verification, recorded why
        stream.close()

    def test_clean_notification_still_verifies(self, event_gateway):
        scenario, gateway = event_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        issue_bl(scenario, "PO-ADV-CLEAN")
        event = stream.take()
        assert event is not None
        assert event.notification.payload == b"PO-ADV-CLEAN"
        stream.close()


class TestVerificationOutage:
    def test_transport_outage_defers_instead_of_rejecting(self, event_gateway):
        """A genuine notification must not be *rejected* just because the
        verification path is briefly down: it stays pending and verifies
        once the path recovers."""
        scenario, gateway = event_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        issue_bl(scenario, "PO-ADV-DEFER")
        assert stream.pending_count == 1
        # Source network unreachable while we try to verify.
        plan = FaultPlan.single(FAULT_DROP, 117)
        with chaos_topology(
            scenario.discovery, ["stl"], plan, redundant=False
        ):
            assert stream.take() is None
        assert stream.deferrals == 1
        assert stream.pending_count == 1  # still pending, not rejected
        assert stream.rejected == []
        # Path recovered: the same notification now verifies.
        event = stream.take()
        assert event is not None
        assert event.notification.payload == b"PO-ADV-DEFER"
        stream.close()


class TestDroppedNotification:
    def test_dropped_publish_is_reported_not_silent(self, event_gateway):
        """A censored notification is counted as dropped at the source —
        at-most-once delivery with an observable loss signal, never a
        silent one."""
        scenario, gateway = event_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        dropped_before = scenario.stl_relay.stats.events_dropped
        plan = FaultPlan(
            909,
            [
                FaultSpec(
                    kind=FAULT_DROP,
                    only_kinds=frozenset({MSG_KIND_EVENT_PUBLISH}),
                    max_injections=1,
                )
            ],
            name="drop-notification",
        )
        with chaos_topology(
            scenario.discovery, ["swt"], plan, redundant=False
        ) as wrappers:
            issue_bl(scenario, "PO-ADV-DROP")
            assert wrappers["swt"].injected[FAULT_DROP] == 1
        assert stream.pending_count == 0  # the hint is gone...
        assert (
            scenario.stl_relay.stats.events_dropped - dropped_before == 1
        )  # ...and the loss is reported, not silent
        # The subscription itself survives: the next event flows.
        issue_bl(scenario, "PO-ADV-AFTER-DROP")
        assert stream.pending_count == 1
        event = stream.take()
        assert event is not None and event.notification.payload == b"PO-ADV-AFTER-DROP"
        stream.close()

    def test_dropped_publish_recovers_via_redundant_path(self, event_gateway):
        """With a redundant route to the subscriber's relay, the source
        fails over and the notification is delivered exactly once."""
        scenario, gateway = event_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        plan = FaultPlan(
            910,
            [
                FaultSpec(
                    kind=FAULT_DROP,
                    only_kinds=frozenset({MSG_KIND_EVENT_PUBLISH}),
                )
            ],
            name="drop-with-failover",
        )
        with chaos_topology(scenario.discovery, ["swt"], plan) as wrappers:
            issue_bl(scenario, "PO-ADV-FAILOVER")
            assert wrappers["swt"].injected[FAULT_DROP] >= 1
        assert stream.pending_count == 1  # exactly once, via the clean path
        event = stream.take()
        assert event is not None
        assert event.notification.payload == b"PO-ADV-FAILOVER"
        stream.close()

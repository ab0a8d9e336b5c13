"""End-to-end tests for the multiplexed GatewaySession surface.

Covers the full §2 triad behind one session: proof-verified transactions
(singleton and pipelined), relay-envelope event subscriptions with the
notify-then-verify stream, and the trust property that a tampered
notification never reaches the application iterator.
"""

from __future__ import annotations

import json

import pytest

from repro.api import EventVerifier, InteropGateway
from repro.errors import AccessDeniedError, ProofError, RelayError
from repro.interop.events import enable_relay_events
from repro.interop.transactions import enable_remote_transactions
from repro.proto.messages import (
    MSG_KIND_BATCH_REQUEST,
    MSG_KIND_EVENT_ACK,
    MSG_KIND_EVENT_PUBLISH,
    PROTOCOL_VERSION,
    SIDE_EFFECTING_HEADER,
    STATUS_OK,
    BatchQueryRequest,
    EventAck,
    EventNotificationMsg,
    RelayEnvelope,
)

POLICY = "AND(org:seller-org, org:carrier-org)"
TL_CHAINCODE_ADDR = "stl/trade-logistics/TradeLensCC"
CREATE_ADDR = f"{TL_CHAINCODE_ADDR}/CreateShipment"
GET_BL_ADDR = f"{TL_CHAINCODE_ADDR}/GetBillOfLading"


@pytest.fixture()
def full_gateway(trade_scenario):
    """Trade scenario with transactions + relay-side events enabled on STL."""
    scenario = trade_scenario
    stl_admin = scenario.stl.org("seller-org").member("admin")
    invoker = scenario.stl.org("seller-org").enroll("interop-invoker", role="client")
    enable_remote_transactions(scenario.stl, scenario.stl_relay, invoker)
    enable_relay_events(scenario.stl, scenario.stl_relay)
    for rule_object in ("CreateShipment", "event:BillOfLadingIssued"):
        scenario.stl.gateway.submit(
            stl_admin,
            "ecc",
            "AddAccessRule",
            ["swt", "seller-bank-org", "TradeLensCC", rule_object],
        )
    gateway = InteropGateway.from_client(scenario.swt_seller_client.interop_client)
    return scenario, gateway


def bl_verifier() -> EventVerifier:
    """Upgrade a BillOfLadingIssued notification via a proof-backed query."""
    return EventVerifier(
        address=GET_BL_ADDR,
        args=lambda notification: [notification.payload.decode()],
        policy=POLICY,
    )


def issue_bl(scenario, po_ref: str) -> None:
    scenario.carrier_app.accept_shipment(po_ref)
    scenario.carrier_app.record_handover(po_ref)
    scenario.carrier_app.issue_bill_of_lading(po_ref, vessel="MV Session")


class TestGatewayTransact:
    def test_transact_roundtrip_attests_committed_outcome(self, full_gateway):
        scenario, gateway = full_gateway
        result = (
            gateway.transact(CREATE_ADDR)
            .with_args("PO-SESS-1", "session goods")
            .with_policy(POLICY)
            .execute()
        )
        # The attestation covers the committed tx id and block: the tx is
        # really in that block on the source ledger.
        assert result.attesting_orgs == ["carrier-org", "seller-org"]
        block = scenario.stl.peers[0].ledger.block(result.block_number)
        assert any(tx.tx_id == result.tx_id for tx in block.transactions)
        assert json.loads(result.result)["po_ref"] == "PO-SESS-1"
        # And it travelled as a TRANSACT envelope, not a query.
        assert scenario.swt_relay.stats.transactions_sent == 1
        assert scenario.stl_relay.stats.transactions_served == 1

    def test_pipelined_transactions_share_one_batch_envelope(self, full_gateway):
        scenario, gateway = full_gateway
        handles = [
            gateway.transact(CREATE_ADDR)
            .with_args(f"PO-SESS-B{i}", "goods")
            .with_policy(POLICY)
            .submit()
            for i in range(3)
        ]
        results = [handle.result() for handle in handles]
        assert len({result.tx_id for result in results}) == 3
        assert scenario.swt_relay.stats.batches_sent == 1
        assert scenario.stl_relay.stats.transactions_served == 3
        # Sequential commit ordering within the envelope.
        blocks = [result.block_number for result in results]
        assert blocks == sorted(blocks)

    def test_transaction_partial_failure_isolated_to_its_handle(self, full_gateway):
        scenario, gateway = full_gateway
        ok = (
            gateway.transact(CREATE_ADDR)
            .with_args("PO-SESS-DUP", "goods")
            .with_policy(POLICY)
            .execute()
        )
        assert ok.tx_id
        batch = gateway.batch()
        dup = batch.transact(CREATE_ADDR).with_args("PO-SESS-DUP", "goods").with_policy(POLICY).submit()
        fresh = batch.transact(CREATE_ADDR).with_args("PO-SESS-OK", "goods").with_policy(POLICY).submit()
        batch.flush()
        assert isinstance(dup.exception(), RelayError)
        assert "already exists" in str(dup.exception())
        assert fresh.result().tx_id

    def test_unexposed_function_denied(self, full_gateway):
        _, gateway = full_gateway
        with pytest.raises(AccessDeniedError):
            gateway.transact(f"{TL_CHAINCODE_ADDR}/AcceptShipment").with_args(
                "PO-SESS-1"
            ).with_policy(POLICY).execute()

    def test_transaction_uses_cmdac_policy_when_unpinned(self, full_gateway):
        """policy=None resolves the locally-recorded verification policy,
        exactly as for queries (shared per-session cache)."""
        scenario, gateway = full_gateway
        result = (
            gateway.transact(CREATE_ADDR).with_args("PO-SESS-CMDAC", "goods").execute()
        )
        assert result.attesting_orgs == ["carrier-org", "seller-org"]


class TestGatewaySubscribe:
    def test_subscriber_receives_event_via_relay_envelopes(self, full_gateway):
        scenario, gateway = full_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        assert stream.subscription_id.startswith("sub-")
        scenario.stl_seller_app.create_shipment("PO-SESS-EV1", "goods")
        issue_bl(scenario, "PO-SESS-EV1")
        # Delivery crossed the relay boundary as envelopes, not in-process.
        assert scenario.stl_relay.stats.events_published == 1
        assert scenario.swt_relay.stats.events_delivered == 1
        assert stream.pending_count == 1
        event = stream.take()
        assert event is not None
        assert event.notification.payload == b"PO-SESS-EV1"
        assert event.notification.source_network == "stl"

    def test_stream_auto_verifies_with_proof_carrying_query(self, full_gateway):
        scenario, gateway = full_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        scenario.stl_seller_app.create_shipment("PO-SESS-EV2", "goods")
        issue_bl(scenario, "PO-SESS-EV2")
        event = stream.take()
        # The trusted data comes from the follow-up query: full attestation
        # proof, satisfying the verification policy.
        assert len(event.verification.proof) == 2
        document = json.loads(event.data)
        assert document["po_ref"] == "PO-SESS-EV2"
        assert document["bl_id"] == "BL-PO-SESS-EV2"

    def test_tampered_notification_is_rejected(self, full_gateway):
        """A malicious source relay pushing a forged notification cannot get
        it past the verified stream: the follow-up proof-carrying query
        exposes it, and the iterator never yields it."""
        scenario, gateway = full_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        forged = EventNotificationMsg(
            version=PROTOCOL_VERSION,
            subscription_id=stream.subscription_id,
            source_network="stl",
            chaincode="TradeLensCC",
            name="BillOfLadingIssued",
            payload=b"PO-FORGED",  # no such document on STL
            block_number=999,
            tx_id="tx-forged",
        )
        envelope = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_EVENT_PUBLISH,
            request_id="req-forged",
            source_network="stl",
            destination_network="swt",
            payload=forged.encode(),
        )
        reply = RelayEnvelope.decode(
            scenario.swt_relay.handle_request(envelope.encode())
        )
        assert reply.kind == MSG_KIND_EVENT_ACK
        assert EventAck.decode(reply.payload).status == STATUS_OK
        assert stream.pending_count == 1
        assert stream.take() is None  # never reaches the application
        assert len(stream.rejected) == 1
        assert stream.rejected[0].notification.payload == b"PO-FORGED"
        assert "verification failed" in stream.rejected[0].reason
        assert list(stream) == []

    def test_undecodable_forged_payload_rejected_not_raised(self, full_gateway):
        """A verifier that chokes on a forged payload (here: bytes that are
        not valid UTF-8) must reject the notification, not crash the
        consumer's iterator."""
        scenario, gateway = full_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        forged = EventNotificationMsg(
            version=PROTOCOL_VERSION,
            subscription_id=stream.subscription_id,
            source_network="stl",
            chaincode="TradeLensCC",
            name="BillOfLadingIssued",
            payload=b"\xff\xfe",  # verifier.args -> payload.decode() raises
            block_number=1,
            tx_id="tx-forged-2",
        )
        envelope = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_EVENT_PUBLISH,
            request_id="req-forged-2",
            source_network="stl",
            destination_network="swt",
            payload=forged.encode(),
        )
        scenario.swt_relay.handle_request(envelope.encode())
        assert list(stream) == []
        assert len(stream.rejected) == 1
        assert "verification failed" in stream.rejected[0].reason

    def test_iterating_without_verifier_refuses(self, full_gateway):
        scenario, gateway = full_gateway
        stream = gateway.subscribe(TL_CHAINCODE_ADDR, "BillOfLadingIssued")
        scenario.stl_seller_app.create_shipment("PO-SESS-EV3", "goods")
        issue_bl(scenario, "PO-SESS-EV3")
        assert stream.pending_count == 1
        assert stream.raw_pending[0].payload == b"PO-SESS-EV3"
        with pytest.raises(Exception, match="no EventVerifier"):
            stream.take()

    def test_unexposed_event_subscription_denied(self, full_gateway):
        _, gateway = full_gateway
        with pytest.raises(AccessDeniedError, match="event"):
            gateway.subscribe(TL_CHAINCODE_ADDR, "ShipmentCreated")

    def test_close_stops_delivery_and_prunes_source(self, full_gateway):
        scenario, gateway = full_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        scenario.stl_seller_app.create_shipment("PO-SESS-EV4", "goods")
        issue_bl(scenario, "PO-SESS-EV4")
        assert stream.pending_count == 1
        stream.close()
        scenario.stl_seller_app.create_shipment("PO-SESS-EV5", "goods")
        issue_bl(scenario, "PO-SESS-EV5")
        assert stream.pending_count == 1  # no further delivery
        assert scenario.stl_relay.stats.events_published == 1

    def test_session_close_tears_down_all_streams(self, full_gateway):
        scenario, gateway = full_gateway
        with gateway.session() as session:
            first = session.subscribe(
                TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
            )
            second = session.subscribe(
                TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
            )
            assert len(session.streams) == 2
        assert first.closed and second.closed
        scenario.stl_seller_app.create_shipment("PO-SESS-EV6", "goods")
        issue_bl(scenario, "PO-SESS-EV6")
        assert first.pending_count == 0 and second.pending_count == 0


class TestSessionMultiplexing:
    def test_all_three_primitives_over_one_session(self, full_gateway):
        """The §2 triad — query, transact, subscribe — through one session
        sharing auth, relay chain, and policy cache."""
        scenario, gateway = full_gateway
        stream = gateway.subscribe(
            TL_CHAINCODE_ADDR, "BillOfLadingIssued", verifier=bl_verifier()
        )
        # transact (CMDAC policy via the shared cache)
        created = gateway.transact(CREATE_ADDR).with_args(
            "PO-SESS-MUX", "goods"
        ).execute()
        issue_bl(scenario, "PO-SESS-MUX")
        # query the document the transaction created
        fetched = gateway.query(GET_BL_ADDR).with_args("PO-SESS-MUX").execute()
        assert json.loads(fetched.data)["po_ref"] == "PO-SESS-MUX"
        # subscribe saw the commit, and verification upgrades it
        event = stream.take()
        assert event.notification.payload == b"PO-SESS-MUX"
        assert json.loads(event.data)["bl_id"] == "BL-PO-SESS-MUX"
        assert created.tx_id != event.notification.tx_id  # create vs issue

    def test_mixed_ambient_dispatch(self, full_gateway):
        scenario, gateway = full_gateway
        query_handle = gateway.query(GET_BL_ADDR).with_args("PO-NONE").submit()
        tx_handle = (
            gateway.transact(CREATE_ADDR)
            .with_args("PO-SESS-DISPATCH", "goods")
            .with_policy(POLICY)
            .submit()
        )
        resolved = gateway.dispatch()
        assert set(resolved) == {query_handle, tx_handle}
        assert all(handle.done() for handle in resolved)
        assert isinstance(query_handle.exception(), RelayError)  # no such B/L
        assert tx_handle.result().tx_id
        assert gateway.dispatch() == []

    def test_one_set_sends_each_verb_in_its_own_envelope_queries_first(
        self, full_gateway
    ):
        """A set holds both verbs, and waiting on any handle flushes all of
        it; no envelope mixes the two, so the read-only one stays
        cacheable."""
        scenario, gateway = full_gateway
        registry = scenario.discovery
        (endpoint,) = registry.lookup("stl")
        sent = []

        class RecordingEndpoint:
            def handle_request(self, data: bytes) -> bytes:
                envelope = RelayEnvelope.decode(data)
                if envelope.kind == MSG_KIND_BATCH_REQUEST:
                    members = BatchQueryRequest.decode(envelope.payload).queries
                    sent.append(
                        (
                            [member.invocation for member in members],
                            envelope.headers.get(SIDE_EFFECTING_HEADER),
                        )
                    )
                return endpoint.handle_request(data)

        recording = RecordingEndpoint()
        registry.unregister("stl", endpoint)
        registry.register("stl", recording)
        try:
            batch = gateway.batch()
            tx_handle = (
                batch.transact(CREATE_ADDR)
                .with_args("PO-SESS-SET", "goods")
                .with_policy(POLICY)
                .submit()
            )
            query_handle = (
                batch.query(GET_BL_ADDR).with_args("PO-NONE").with_policy(POLICY).submit()
            )
            assert tx_handle.result().tx_id
            assert query_handle.done()
        finally:
            registry.unregister("stl", recording)
            registry.register("stl", endpoint)
        assert sent == [([""], None), (["transaction"], "true")]

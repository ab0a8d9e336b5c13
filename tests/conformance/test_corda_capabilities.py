"""Corda capability parity (and the honest fail-closed surfaces).

The matrix only works if "works on N networks" means every verb was
really exercised on every network — so the Corda driver's transact,
subscribe, and asset capabilities get direct end-to-end coverage here,
plus the typed fail-closed behavior on the unsupported verbs of Quorum
and the public chain, and on any driver whose asset capability was never
enabled.
"""

from __future__ import annotations

import json

import pytest

from repro.api.gateway import InteropGateway
from repro.api.streams import EventVerifier
from repro.errors import (
    AccessDeniedError,
    ProofError,
    UnsupportedCapabilityError,
)
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_STATUS,
)

CORDA_POLICY = "AND(org:nodeA, org:nodeB)"


class TestCordaTransactions:
    def test_transact_attests_finalized_outcome(self, corda_target):
        target = corda_target
        result = target.client.remote_query(
            target.transact_address,
            target.transact_args("CORDA-TX-1"),
            policy=target.policy,
            invocation=INVOCATION_TRANSACTION,
        )
        assert result.attesting_orgs == ["nodeA", "nodeB"]
        assert result.tx_id.startswith("corda-tx-")
        assert json.loads(result.result)["linear_id"] == "CORDA-TX-1"
        # The state is really in both vaults (finality, not a claim).
        driver = target.relay.driver_for(target.network_id)
        for node_name in ("nodeA", "nodeB"):
            node = driver._network.node(node_name)
            _, state = node.lookup("CORDA-TX-1")
            assert state.kind == "conformance"
        assert target.commit_count("CORDA-TX-1") == 1

    def test_notary_can_attest_transactions(self, corda_target):
        """§5: Corda verification policies may include the notary."""
        target = corda_target
        result = target.client.remote_query(
            target.transact_address,
            target.transact_args("CORDA-TX-NOTARY"),
            policy="AND(org:nodeA, org:notary-org)",
            invocation=INVOCATION_TRANSACTION,
        )
        assert result.attesting_orgs == ["nodeA", "notary-org"]

    def test_unexposed_flow_denied(self, corda_target):
        target = corda_target
        driver = target.relay.driver_for(target.network_id)
        driver.register_flow(
            "vault", "SecretFlow", lambda network, node, args: (b"", None)
        )
        with pytest.raises(AccessDeniedError):
            target.client.remote_query(
                f"{target.network_id}/vault/vault/SecretFlow",
                [],
                policy=target.policy,
                invocation=INVOCATION_TRANSACTION,
            )

    def test_unknown_flow_is_typed_error(self, corda_target):
        from repro.errors import RelayError

        target = corda_target
        with pytest.raises(RelayError, match="serves no flow"):
            target.client.remote_query(
                f"{target.network_id}/vault/vault/NoSuchFlow",
                [],
                policy=target.policy,
                invocation=INVOCATION_TRANSACTION,
            )


class TestCordaEvents:
    def test_subscription_delivers_and_verifies(self, corda_target):
        target = corda_target
        gateway = InteropGateway.from_client(target.client)
        stream = gateway.subscribe(
            target.event_address, target.event_name, verifier=target.event_verifier()
        )
        try:
            payload = target.trigger_event("CORDA-EV-1")
            assert stream.pending_count == 1
            event = stream.take()
            assert event is not None
            assert event.notification.payload == payload
            assert event.notification.tx_id.startswith("corda-tx-")
            # Trusted data comes from the follow-up proof-carrying query.
            assert len(event.verification.proof) == 2
            assert json.loads(event.data)["data"]["via"] == "event"
        finally:
            stream.close()

    def test_closed_tap_stops_delivery_and_detaches(self, corda_target):
        target = corda_target
        network = target.relay.driver_for(target.network_id)._network
        observers_before = len(network._observers)
        gateway = InteropGateway.from_client(target.client)
        stream = gateway.subscribe(
            target.event_address, target.event_name, verifier=target.event_verifier()
        )
        assert len(network._observers) == observers_before + 1
        stream.close()
        target.trigger_event("CORDA-EV-CLOSED")
        assert stream.pending_count == 0
        # Subscription churn leaves no dead observer behind.
        assert len(network._observers) == observers_before

    def test_unexposed_event_denied(self, corda_target):
        target = corda_target
        gateway = InteropGateway.from_client(target.client)
        with pytest.raises(AccessDeniedError):
            gateway.subscribe(target.event_address, "UnexposedCommand")


class TestFailClosedSurfaces:
    @pytest.fixture(scope="class")
    def bare_corda_relay(self, corda_target):
        """A Corda network whose driver never ran ``enable_assets``,
        reachable from the destination through the same registry — the
        matrix's closed cells are a per-deployment choice, not an
        accident of test wiring."""
        from repro.corda import CordaNetwork
        from repro.interop.contracts.ports import InteropPort
        from repro.interop.drivers.corda_driver import CordaDriver
        from repro.interop.relay import RelayService
        from repro.utils.clock import SimulatedClock

        network = CordaNetwork("barenetc", clock=SimulatedClock(5_000.0))
        network.add_node("nodeA")
        relay = RelayService("barenetc", corda_target.registry)
        driver = CordaDriver(network, InteropPort("barenetc"))
        relay.register_driver(driver)
        corda_target.registry.register("barenetc", relay)
        return driver

    def _bare_command(self, corda_target, kind_args=None):
        from repro.proto.messages import (
            PROTOCOL_VERSION,
            AssetCommandMsg,
            AuthInfo,
            NetworkAddressMsg,
        )

        identity = corda_target.client.identity
        return AssetCommandMsg(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network="barenetc",
                ledger="vault",
                contract="asset-vault",
                function="",
            ),
            asset_id="GHOST-ASSET",
            auth=AuthInfo(
                requesting_network=corda_target.client.network_id,
                requesting_org=identity.org,
                requestor=identity.name,
                certificate=identity.certificate.to_bytes(),
                public_key=identity.keypair.public.to_bytes(),
            ),
            nonce="conf-asset-bare",
            **(kind_args or {}),
        )

    def test_assets_fail_closed_without_enablement_via_relay(
        self, corda_target, bare_corda_relay
    ):
        with pytest.raises(UnsupportedCapabilityError):
            corda_target.client.relay.remote_asset(
                MSG_KIND_ASSET_LOCK,
                self._bare_command(
                    corda_target,
                    {
                        "recipient": "nobody@nowhere",
                        "hashlock": b"\x00" * 32,
                        "timeout": 1e12,
                    },
                ),
            )

    def test_assets_fail_closed_without_enablement_even_for_reads(
        self, corda_target, bare_corda_relay
    ):
        with pytest.raises(UnsupportedCapabilityError):
            corda_target.client.relay.remote_asset(
                MSG_KIND_ASSET_STATUS, self._bare_command(corda_target)
            )

    def test_driver_without_enablement_fails_closed_locally(
        self, corda_target, bare_corda_relay
    ):
        assert not bare_corda_relay.supports_assets
        with pytest.raises(UnsupportedCapabilityError):
            bare_corda_relay.lock_asset(self._bare_command(corda_target))

    def test_corda_assets_now_conform_via_relay(self, corda_target):
        """The cell that used to fail closed: a lock through the relay
        lands as notary-backed escrow in the vault."""
        from repro.assets.htlc import STATE_LOCKED, make_hashlock
        from repro.proto.messages import STATUS_OK

        target = corda_target
        asset_id = target.issue_asset("CAP-PARITY", target.party(target.client))
        ack = target.client.relay.remote_asset(
            MSG_KIND_ASSET_LOCK,
            target.asset_command(
                target.client,
                asset_id,
                recipient=target.party(target.counter_client),
                hashlock=make_hashlock(b"capability-parity"),
                timeout=target.clock.now() + 600.0,
            ),
        )
        assert ack.status == STATUS_OK
        assert target.read_lock(asset_id)["state"] == STATE_LOCKED

    def test_quorum_transact_fails_closed(self, quorum_target):
        target = quorum_target
        with pytest.raises(UnsupportedCapabilityError):
            target.client.remote_query(
                f"{target.network_id}/state/document-registry/RegisterDocument",
                ["DOC-X", "{}"],
                policy=target.policy,
                invocation=INVOCATION_TRANSACTION,
            )

    def test_quorum_subscribe_fails_closed(self, quorum_target):
        target = quorum_target
        gateway = InteropGateway.from_client(target.client)
        with pytest.raises(UnsupportedCapabilityError):
            gateway.subscribe(
                f"{target.network_id}/state/document-registry", "DocumentRegistered"
            )

    def test_pubchain_transact_fails_closed(self, pubchain_target):
        """A public chain gives no foreign relay a commit pipeline."""
        target = pubchain_target
        with pytest.raises(UnsupportedCapabilityError):
            target.client.remote_query(
                f"{target.network_id}/chain/document-registry/RegisterDocument",
                ["DOC-X", "{}"],
                policy=target.policy,
                invocation=INVOCATION_TRANSACTION,
            )

    def test_pubchain_subscribe_fails_closed(self, pubchain_target):
        target = pubchain_target
        gateway = InteropGateway.from_client(target.client)
        with pytest.raises(UnsupportedCapabilityError):
            gateway.subscribe(
                f"{target.network_id}/chain/document-registry", "DocumentRegistered"
            )


class TestCordaTransactIntegrity:
    def test_tampered_transact_proof_detected(self, corda_target):
        """The §5 integrity claim holds for the new verb: a malicious
        relay corrupting a transact reply's attestations is caught by the
        client's proof verification."""
        from repro.testing import FaultPlan, FAULT_TAMPER_PROOF, chaos_topology

        target = corda_target
        plan = FaultPlan.single(FAULT_TAMPER_PROOF, 4242)
        with chaos_topology(
            target.registry,
            [target.network_id],
            plan,
            clock=target.clock,
            redundant=False,
        ):
            with pytest.raises(ProofError):
                target.client.remote_query(
                    target.transact_address,
                    target.transact_args("CORDA-TX-TAMPERED"),
                    policy=target.policy,
                    invocation=INVOCATION_TRANSACTION,
                )

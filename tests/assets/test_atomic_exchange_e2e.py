"""End-to-end atomic exchange: Fabric↔Quorum through two relays.

The acceptance pair for the HTLC subsystem:

- the happy path completes with both legs claimed using the revealed
  preimage, ownership swapped on both ledgers;
- the timelock path proves safety: when the counterparty never claims,
  the initiator (and responder) refund after their timeouts and neither
  ledger double-spends.
"""

from __future__ import annotations

import pytest

from repro.api import InteropGateway
from repro.assets import CycleCoordinator, ExchangeState
from repro.errors import AccessDeniedError, AssetError
from repro.proto.messages import (
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_UNLOCK,
    PROTOCOL_VERSION,
    STATUS_ACCESS_DENIED,
    STATUS_OK,
    AssetCommandMsg,
    NetworkAddressMsg,
)

OFFER_ADDRESS = "fabnet/trade/assetscc"
ASK_ADDRESS = "quornet/state/asset-vault"
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"


def build_exchange(scenario, offer_timeout=600.0, counter_timeout=300.0, metrics=None):
    gateway = InteropGateway.from_client(scenario.alice_client)
    builder = (
        gateway.exchange()
        .offer(OFFER_ADDRESS, "GOLD-1")
        .ask(ASK_ADDRESS, "OIL-9")
        .with_counterparty(scenario.bob_client)
        .with_timeouts(offer=offer_timeout, counter=counter_timeout)
        .with_policies(offer=OFFER_POLICY, ask=ASK_POLICY)
    )
    if metrics is not None:
        builder.with_metrics(metrics)
    return builder.build()


class TestHappyPath:
    def test_full_exchange_swaps_ownership_atomically(self, exchange_scenario):
        scenario = exchange_scenario
        assert scenario.gold_owner() == "alice@fabnet"
        assert scenario.oil_owner() == "bob@quornet"

        exchange = build_exchange(scenario)
        result = exchange.run()

        assert result.completed
        assert result.state is ExchangeState.COMPLETED
        # Ownership swapped on both heterogeneous ledgers.
        assert scenario.gold_owner() == "bob@quornet"
        assert scenario.oil_owner() == "alice@fabnet"
        # Both claims carry the same revealed preimage (on-ledger public).
        assert result.counter_claim.preimage == result.preimage
        assert result.offer_claim.preimage == result.preimage
        # Commands really crossed the relay envelope protocol on both sides.
        assert scenario.fabric_relay.stats.asset_commands_served == 2  # lock+claim
        assert scenario.quorum_relay.stats.asset_commands_served == 3  # lock+claim+status
        assert scenario.fabric_relay.stats.asset_commands_sent >= 2
        assert scenario.quorum_relay.stats.asset_commands_sent >= 3
        # Both side-effecting commits are attested with real tx coordinates.
        assert result.offer_lock.tx_id and result.offer_claim.tx_id
        assert result.counter_lock.tx_id and result.counter_claim.tx_id

    def test_lock_confirmations_are_proof_verified(self, exchange_scenario):
        """The responder's and initiator's lock checks ride the query
        proof plane: each side's relay serves a GetLock query under the
        verification policy before any irreversible step."""
        scenario = exchange_scenario
        fabric_queries_before = scenario.fabric_relay.stats.requests_served
        quorum_queries_before = scenario.quorum_relay.stats.requests_served
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        record = exchange.verify_offer()
        assert record["recipient"] == "bob@quornet"
        assert scenario.fabric_relay.stats.requests_served > fabric_queries_before + 1
        exchange.lock_counter()
        record = exchange.verify_counter()
        assert record["hashlock"] == exchange.hashlock.hex()
        assert scenario.quorum_relay.stats.requests_served > quorum_queries_before + 1


class TestTimelockPath:
    def test_counterparty_never_claims_initiator_refunds(self, exchange_scenario):
        """Alice locks, Bob counter-locks, Alice walks away: after the
        timelocks expire both parties refund and no ledger double-spends."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario, offer_timeout=600.0, counter_timeout=300.0)
        exchange.lock_offer()
        exchange.verify_offer()
        exchange.lock_counter()
        # Neither claim happened. Too early to refund: claim windows open.
        with pytest.raises(AssetError, match="refused"):
            exchange.refund()
        assert exchange.state is ExchangeState.COUNTER_LOCKED

        scenario.clock.advance(601.0)  # past both timelocks
        acks = exchange.refund()
        assert exchange.state is ExchangeState.REFUNDED
        assert len(acks) == 2
        assert all(ack.status == STATUS_OK for ack in acks)

        # Nobody lost an asset; nothing was spent twice.
        assert scenario.gold_owner() == "alice@fabnet"
        assert scenario.oil_owner() == "bob@quornet"

        # Refunded locks are dead: the preimage (even the right one!) can
        # no longer claim either leg — no double spend is possible.
        for client, spec in (
            (scenario.bob_client, exchange.offer),
            (scenario.alice_client, exchange.ask),
        ):
            ack = client.relay.remote_asset(
                MSG_KIND_ASSET_CLAIM,
                CycleCoordinator._command(client, spec, preimage=exchange.preimage),
            )
            assert ack.status != STATUS_OK
            assert "not locked" in ack.error

    def test_refund_only_after_timeout_never_alongside_claim(self, exchange_scenario):
        """The initiator cannot be cheated by a racing refund: while the
        counter claim window is open, the responder's refund is refused
        on-ledger; once Alice claims, the refund stays impossible."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        exchange.verify_offer()
        exchange.lock_counter()
        exchange.verify_counter()
        exchange.claim_counter()  # preimage revealed, OIL-9 now Alice's
        assert scenario.oil_owner() == "alice@fabnet"
        scenario.clock.advance(10_000.0)
        # The claimed counter-lock can never be refunded back.
        ack = scenario.bob_client.relay.remote_asset(
            MSG_KIND_ASSET_UNLOCK,
            CycleCoordinator._command(scenario.bob_client, exchange.ask),
        )
        assert ack.status != STATUS_OK
        assert scenario.oil_owner() == "alice@fabnet"


class TestGovernance:
    def test_foreign_claim_without_rule_is_access_denied(self, exchange_scenario):
        """Dropping the ECC rule turns Bob's cross-network claim into a
        governance denial, not a transport failure."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        scenario.fabric.gateway.submit(
            scenario.fabric_admin,
            "ecc",
            "RemoveAccessRule",
            ["quornet", "op-org-1", "assetscc", "ClaimAsset"],
        )
        ack = scenario.bob_client.relay.remote_asset(
            MSG_KIND_ASSET_CLAIM,
            CycleCoordinator._command(
                scenario.bob_client, exchange.offer, preimage=exchange.preimage
            ),
        )
        assert ack.status == STATUS_ACCESS_DENIED
        assert "exposure control" in ack.error

    def test_impersonated_requestor_rejected(self, exchange_scenario):
        """The certificate must vouch for the claimed requestor: a member
        of an accepted org presenting their OWN certificate under someone
        else's name cannot act as that party."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario)
        exchange.lock_offer()  # GOLD-1 escrowed for bob@quornet
        mallory = scenario.quorum.enroll_client("mallory", "op-org-1")
        from repro.interop import InteropClient

        mallory_client = InteropClient(mallory, scenario.quorum_relay, "quornet")
        command = CycleCoordinator._command(
            mallory_client, exchange.offer, preimage=exchange.preimage
        )
        command.auth.requestor = "bob"  # impersonate the rightful recipient
        ack = mallory_client.relay.remote_asset(MSG_KIND_ASSET_CLAIM, command)
        assert ack.status == STATUS_ACCESS_DENIED
        assert "common name" in ack.error
        assert scenario.gold_owner() == "alice@fabnet"

    def test_metrics_count_refused_asset_commands_as_errors(self, exchange_scenario):
        """A non-OK asset ack is an error to the metrics plane even though
        it travels as MSG_KIND_ASSET_ACK, not an error envelope."""
        from repro.api import MetricsInterceptor

        scenario = exchange_scenario
        metrics = MetricsInterceptor()
        scenario.fabric_relay.use(metrics)
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        # Wrong preimage: the on-ledger claim is refused.
        ack = scenario.bob_client.relay.remote_asset(
            MSG_KIND_ASSET_CLAIM,
            CycleCoordinator._command(
                scenario.bob_client, exchange.offer, preimage=b"\x00" * 32
            ),
        )
        assert ack.status != STATUS_OK
        detail = metrics.snapshot()["kinds"]["asset_claim"]
        assert detail["requests"] == 1
        assert detail["errors"] == 1

    def test_onledger_creator_binding_blocks_direct_impersonation(
        self, exchange_scenario
    ):
        """Bypassing the relay and port entirely, a local member still
        cannot act as another party: the vault binds every mutating verb
        to the transaction creator (the party itself, or an on-ledger
        authorized relay invoker)."""
        scenario = exchange_scenario
        from repro.errors import EndorsementError, ReproError

        mallory = scenario.fabric.org("traders-org").enroll(
            "mallory-local", role="client"
        )
        with pytest.raises(EndorsementError, match="may not act as"):
            scenario.fabric.gateway.submit(
                mallory,
                "assetscc",
                "LockAsset",
                ["GOLD-1", "alice@fabnet", "mallory-local@fabnet", "11" * 32, "1e9"],
            )
        assert scenario.gold_owner() == "alice@fabnet"
        quorum_mallory = scenario.quorum.enroll_client("quorum-mallory", "op-org-2")
        with pytest.raises(ReproError, match="may not act as"):
            scenario.quorum.submit_transaction(
                quorum_mallory,
                "asset-vault",
                "LockAsset",
                ["OIL-9", "bob@quornet", "quorum-mallory@quornet", "11" * 32, "1e9"],
            )
        assert scenario.oil_owner() == "bob@quornet"

    def test_local_member_may_self_submit(self, exchange_scenario):
        """The binding still allows a local member to escrow its OWN asset
        directly on-chain, without going through a relay."""
        scenario = exchange_scenario
        alice = scenario.fabric.org("traders-org").member("alice")
        result = scenario.fabric.gateway.submit(
            alice,
            "assetscc",
            "LockAsset",
            ["GOLD-1", "alice@fabnet", "bob@quornet", "22" * 32, "1e9"],
        )
        assert result.committed

    def test_spoofed_local_network_claim_rejected(self, exchange_scenario):
        """A foreign party claiming to be local (to skip the ECC) fails
        certificate validation against the local MSP roots."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        command = AssetCommandMsg(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network="fabnet", ledger="trade", contract="assetscc", function=""
            ),
            asset_id="GOLD-1",
            preimage=exchange.preimage,
            auth=scenario.bob_client.auth_info(),
            nonce="spoof-1",
        )
        command.auth.requesting_network = "fabnet"  # lie about provenance
        ack = scenario.bob_client.relay.remote_asset(MSG_KIND_ASSET_CLAIM, command)
        assert ack.status == STATUS_ACCESS_DENIED
        assert scenario.gold_owner() == "alice@fabnet"

    def test_asset_command_to_non_asset_network_fails_cleanly(self, exchange_scenario):
        scenario = exchange_scenario
        from repro.errors import RelayError

        command = AssetCommandMsg(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network="quornet", ledger="state", contract="asset-vault", function=""
            ),
            asset_id="OIL-9",
            nonce="n-1",
        )
        # Strip the quorum driver's asset capability: the relay must answer
        # with a non-retryable error envelope, not crash or hang.
        scenario.quorum_relay._drivers["quornet"].supports_assets = False
        with pytest.raises(RelayError, match="no asset-capable driver"):
            scenario.alice_client.relay.remote_asset(MSG_KIND_ASSET_LOCK, command)


class TestExchangeMetrics:
    def test_completed_exchange_reports_through_shared_metrics(
        self, exchange_scenario
    ):
        """The two-party coordinator feeds the same ExchangeMetrics the
        cycles use, end to end through ``repro.ops``: one registry scrape
        shows the completed swap's transitions and its lock→claim latency."""
        from repro.assets.metrics import ExchangeMetrics
        from repro.ops.exporters import register_assets
        from repro.ops.metrics import MetricsRegistry
        from repro.testing import parse_exposition

        scenario = exchange_scenario
        metrics = ExchangeMetrics()
        registry = MetricsRegistry()
        register_assets(registry, metrics)

        exchange = build_exchange(scenario, metrics=metrics)
        result = exchange.run()
        assert result.completed

        snapshot = metrics.snapshot()
        assert snapshot["started"] == {"exchange": 1}
        assert snapshot["active"] == {"exchange": 0}
        assert snapshot["transitions"]["exchange:completed"] == 1
        latency = snapshot["latency"]["exchange"]
        assert sum(latency["counts"]) == 1
        assert latency["sum"] >= 0.0

        families = parse_exposition(registry.render())
        [active] = families["repro_assets_active"].samples
        assert active.label_dict() == {"kind": "exchange"}
        assert active.value == 0
        histogram = families["repro_assets_lock_to_claim_seconds"]
        [count] = [s for s in histogram.samples if s.name.endswith("_count")]
        assert count.value == 1

    def test_refunded_exchange_counts_both_legs(self, exchange_scenario):
        from repro.assets.metrics import ExchangeMetrics

        scenario = exchange_scenario
        metrics = ExchangeMetrics()
        exchange = build_exchange(scenario, metrics=metrics)
        exchange.lock_offer()
        exchange.verify_offer()
        exchange.lock_counter()
        scenario.clock.advance(601.0)
        exchange.refund()

        snapshot = metrics.snapshot()
        assert snapshot["refund_legs"] == {"exchange": 2}
        assert snapshot["transitions"]["exchange:refunded"] == 1
        assert metrics.active("exchange") == 0

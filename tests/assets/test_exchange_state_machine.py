"""The exchange state machine: ordering, abort, and invalid transitions."""

from __future__ import annotations

import pytest

from repro.api import InteropGateway
from repro.assets import AssetSpec, ExchangeState
from repro.errors import AssetError, ExchangeStateError, ProtocolError

OFFER_ADDRESS = "fabnet/trade/assetscc"
ASK_ADDRESS = "quornet/state/asset-vault"
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"


def build_exchange(scenario, **kwargs):
    gateway = InteropGateway.from_client(scenario.alice_client)
    builder = (
        gateway.exchange()
        .offer(OFFER_ADDRESS, "GOLD-1")
        .ask(ASK_ADDRESS, "OIL-9")
        .with_counterparty(scenario.bob_client)
        .with_policies(offer=OFFER_POLICY, ask=ASK_POLICY)
    )
    if kwargs:
        builder = builder.with_timeouts(**kwargs)
    return builder.build()


class TestBuilderValidation:
    def test_missing_legs_rejected(self, exchange_scenario):
        gateway = InteropGateway.from_client(exchange_scenario.alice_client)
        with pytest.raises(RuntimeError, match="offer"):
            gateway.exchange().build()

    def test_missing_counterparty_rejected(self, exchange_scenario):
        gateway = InteropGateway.from_client(exchange_scenario.alice_client)
        with pytest.raises(RuntimeError, match="counterparty"):
            gateway.exchange().offer(OFFER_ADDRESS, "GOLD-1").ask(
                ASK_ADDRESS, "OIL-9"
            ).build()

    def test_counter_timeout_must_be_shorter(self, exchange_scenario):
        with pytest.raises(ProtocolError, match="shorter"):
            build_exchange(exchange_scenario, offer=300.0, counter=300.0)

    def test_offer_timeout_must_cover_verification_margin(self, exchange_scenario):
        """Rejected at build time — verify_offer() would demand
        counter_timeout + margin of remaining lifetime, so this config
        could only ever escrow the offer and then fail."""
        with pytest.raises(ProtocolError, match="verification margin"):
            build_exchange(exchange_scenario, offer=400.0, counter=300.0)

    def test_offer_must_live_on_initiator_network(self, exchange_scenario):
        gateway = InteropGateway.from_client(exchange_scenario.alice_client)
        with pytest.raises(ProtocolError, match="initiator"):
            (
                gateway.exchange()
                .offer(ASK_ADDRESS, "OIL-9")  # wrong side
                .ask(OFFER_ADDRESS, "GOLD-1")
                .with_counterparty(exchange_scenario.bob_client)
                .build()
            )

    def test_malformed_asset_address_rejected(self):
        with pytest.raises(ProtocolError, match="network/ledger/contract"):
            AssetSpec.parse("fabnet/trade", "GOLD-1")


class TestStepOrdering:
    def test_steps_must_run_in_order(self, exchange_scenario):
        exchange = build_exchange(exchange_scenario)
        with pytest.raises(ExchangeStateError):
            exchange.verify_offer()
        with pytest.raises(ExchangeStateError):
            exchange.lock_counter()
        with pytest.raises(ExchangeStateError):
            exchange.claim_counter()
        with pytest.raises(ExchangeStateError):
            exchange.claim_offer()
        assert exchange.state is ExchangeState.CREATED

    def test_no_double_lock(self, exchange_scenario):
        exchange = build_exchange(exchange_scenario)
        exchange.lock_offer()
        with pytest.raises(ExchangeStateError):
            exchange.lock_offer()
        assert exchange.state is ExchangeState.OFFER_LOCKED

    def test_completed_exchange_is_terminal(self, exchange_scenario):
        exchange = build_exchange(exchange_scenario)
        result = exchange.run()
        assert result.state is ExchangeState.COMPLETED
        for step in (
            exchange.lock_offer,
            exchange.claim_offer,
            exchange.abort,
            exchange.refund,
        ):
            with pytest.raises(ExchangeStateError):
                step()


class TestAbortPath:
    def test_abort_before_reveal_then_refund(self, exchange_scenario):
        """Counterparty abort: Bob walks away after counter-locking; the
        exchange is called off and both escrows unwind after the
        timelocks. At no point is any asset claimable AND refundable."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        exchange.verify_offer()
        exchange.lock_counter()
        exchange.abort()
        assert exchange.state is ExchangeState.ABORTED

        # After abort, no protocol step may run — the preimage stays secret.
        with pytest.raises(ExchangeStateError):
            exchange.claim_counter()
        with pytest.raises(ExchangeStateError):
            exchange.verify_counter()

        # Claim windows still open -> refunds are refused on-ledger and
        # the state machine stays ABORTED (retryable).
        with pytest.raises(AssetError, match="refused"):
            exchange.refund()
        assert exchange.state is ExchangeState.ABORTED

        scenario.clock.advance(601.0)
        exchange.refund()
        assert exchange.state is ExchangeState.REFUNDED
        assert scenario.gold_owner() == "alice@fabnet"
        assert scenario.oil_owner() == "bob@quornet"

    def test_abort_after_reveal_impossible(self, exchange_scenario):
        exchange = build_exchange(exchange_scenario)
        exchange.lock_offer()
        exchange.verify_offer()
        exchange.lock_counter()
        exchange.verify_counter()
        exchange.claim_counter()  # preimage now public
        with pytest.raises(ExchangeStateError):
            exchange.abort()

    def test_refund_with_nothing_locked_rejected(self, exchange_scenario):
        exchange = build_exchange(exchange_scenario)
        exchange.abort()
        with pytest.raises(ExchangeStateError, match="nothing to refund"):
            exchange.refund()


class TestVerificationGuards:
    def test_unacceptable_offer_lock_fails_exchange(self, exchange_scenario):
        """A lock whose remaining lifetime is too short for the responder
        to act safely is rejected by the proof-verified check."""
        scenario = exchange_scenario
        # Defaults: offer 600s, counter 300s, margin 150s -> the responder
        # requires >= 450s of remaining lifetime before counter-locking.
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        scenario.clock.advance(200.0)  # not expired, but margin gone
        with pytest.raises(AssetError, match="expires in"):
            exchange.verify_offer()
        assert exchange.state is ExchangeState.FAILED

    def test_failed_exchange_still_refunds_standing_escrow(self, exchange_scenario):
        """A verification failure after lock_offer must not strand the
        escrowed asset: FAILED can still unwind via refund() once the
        timelock expires."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario)
        exchange.lock_offer()
        scenario.clock.advance(200.0)  # burn the responder's safety margin
        with pytest.raises(AssetError):
            exchange.verify_offer()
        assert exchange.state is ExchangeState.FAILED
        with pytest.raises(AssetError, match="refused"):
            exchange.refund()  # claim window still open
        assert exchange.state is ExchangeState.FAILED
        scenario.clock.advance(500.0)  # past the offer timelock
        exchange.refund()
        assert exchange.state is ExchangeState.REFUNDED
        assert scenario.gold_owner() == "alice@fabnet"

    def test_wrong_recipient_detected_by_verification(self, exchange_scenario):
        """If the on-ledger offer lock names someone else, the responder's
        proof-carrying verification refuses to counter-lock."""
        scenario = exchange_scenario
        exchange = build_exchange(scenario)
        # Simulate a mismatched escrow: lock GOLD-1 for carol, not bob.
        from repro.assets import CycleCoordinator
        from repro.proto.messages import MSG_KIND_ASSET_LOCK

        command = CycleCoordinator._command(
            scenario.alice_client,
            exchange.offer,
            recipient="carol@elsewhere",
            hashlock=exchange.hashlock,
            timeout=scenario.clock.now() + 600.0,
        )
        ack = scenario.alice_client.relay.remote_asset(MSG_KIND_ASSET_LOCK, command)
        assert ack.status == 0  # STATUS_OK
        # Record the escrow the way recover() does for a lock it finds landed.
        exchange._ring.deadlines[0] = command.timeout
        exchange._ring._mark_locked(0)
        assert exchange.state is ExchangeState.OFFER_LOCKED
        with pytest.raises(AssetError, match="locked for"):
            exchange.verify_offer()
        assert exchange.state is ExchangeState.FAILED

"""Coordinator crash recovery: journal + proof-carrying readbacks.

A coordinator journaling to a :class:`~repro.store.SqliteStore` is
killed at various points of the HTLC ladder; a fresh process
:meth:`~repro.assets.AssetExchangeCoordinator.resume`\\ s it from the
journal, :meth:`recover`\\ s the one in-flight ambiguity through
``GetLock`` readbacks against the ledgers, and :meth:`run` finishes the
exchange — ownership swaps exactly once on both heterogeneous ledgers.
"""

from __future__ import annotations

import json

import pytest

from repro.assets import ExchangeState
from repro.assets.coordinator import (
    NS_EXCHANGES,
    AssetExchangeCoordinator,
    AssetSpec,
)
from repro.errors import AssetError, ExchangeStateError
from repro.store import SqliteStore

OFFER_ADDRESS = "fabnet/trade/assetscc"
ASK_ADDRESS = "quornet/state/asset-vault"
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"

EXCHANGE_ID = "exch-recovery-1"


def build_coordinator(scenario, store, exchange_id=EXCHANGE_ID):
    return AssetExchangeCoordinator(
        scenario.alice_client,
        scenario.bob_client,
        AssetSpec.parse(OFFER_ADDRESS, "GOLD-1"),
        AssetSpec.parse(ASK_ADDRESS, "OIL-9"),
        offer_policy=OFFER_POLICY,
        ask_policy=ASK_POLICY,
        store=store,
        exchange_id=exchange_id,
    )


def crash_and_resume(scenario, store, tmp_path, exchange_id=EXCHANGE_ID):
    """Model the coordinator process dying: its store handle closes, a
    fresh process reopens the state directory and resumes the journal."""
    store.close()
    reopened = SqliteStore(tmp_path / "coordinator", fsync=False)
    resumed = AssetExchangeCoordinator.resume(
        scenario.alice_client,
        scenario.bob_client,
        reopened,
        exchange_id,
        offer_policy=OFFER_POLICY,
        ask_policy=ASK_POLICY,
    )
    return resumed, reopened


def rewrite_in_two_party_format(store, state, exchange_id=EXCHANGE_ID):
    """Replace the journal with the record the separate two-party
    coordinator (before it became a view of the ring) would have written
    at two-party step ``state`` — its exact key set."""
    ring = json.loads(store.get(NS_EXCHANGES, exchange_id).decode("utf-8"))
    record = {
        "state": state,
        "offer": ring["specs"][0],
        "ask": ring["specs"][1],
        "offer_timeout": ring["cycle_timeout"],
        "counter_timeout": ring["cycle_timeout"] - ring["hop_gap"],
        "verify_margin": ring["verify_margin"],
        "preimage": ring["preimage"],
        "hashlock": ring["hashlock"],
        "verified_hashlock": ring["leg_hashlocks"][1],
        "offer_deadline": ring["deadlines"][0],
        "counter_deadline": ring["deadlines"][1],
        "counter_refunded": ring["refunded"][1],
        "offer_refunded": ring["refunded"][0],
        "offer_locked": ring["locked"][0],
        "counter_locked": ring["locked"][1],
        "counter_claimed": ring["claimed"][1],
        "offer_claimed": ring["claimed"][0],
        "preimage_revealed": ring["preimage_revealed"],
        "started_at": ring["started_at"],
    }
    store.put(NS_EXCHANGES, exchange_id, json.dumps(record).encode("utf-8"))


class TestCrashRecovery:
    def test_killed_between_counter_lock_and_claim_completes(
        self, exchange_scenario, tmp_path
    ):
        """THE acceptance scenario: crash after the counter lock is
        verified, before any claim — the resumed coordinator finishes
        and both ledgers swap ownership exactly once."""
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        coordinator.lock_offer()
        coordinator.verify_offer()
        coordinator.lock_counter()
        coordinator.verify_counter()
        del coordinator  # the process dies here

        resumed, reopened = crash_and_resume(scenario, store, tmp_path)
        # A verification is good only in the process that made it: the
        # resumed exchange is back at the lock, and run() re-verifies.
        assert resumed.state is ExchangeState.COUNTER_LOCKED
        # No claim was in flight: recovery's readback sees the ask escrow
        # still locked and leaves the machine where the journal put it.
        assert resumed.recover() is ExchangeState.COUNTER_LOCKED
        result = resumed.run()

        assert result.completed
        assert result.preimage == resumed.preimage
        assert scenario.gold_owner() == "bob@quornet"
        assert scenario.oil_owner() == "alice@fabnet"
        reopened.close()

    def test_claim_landed_but_unjournaled_is_fast_forwarded(
        self, exchange_scenario, tmp_path
    ):
        """Crash between the counter claim committing and the journal
        write: the preimage is already PUBLIC on the ask ledger, so
        recovery must move past the reveal instead of re-claiming."""
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        coordinator.lock_offer()
        coordinator.verify_offer()
        coordinator.lock_counter()
        coordinator.verify_counter()
        stale = store.get(NS_EXCHANGES, EXCHANGE_ID)
        coordinator.claim_counter()  # commits on the Quorum vault...
        store.put(NS_EXCHANGES, EXCHANGE_ID, stale)  # ...journal lost

        resumed, reopened = crash_and_resume(scenario, store, tmp_path)
        assert resumed.state is ExchangeState.COUNTER_LOCKED
        assert resumed.recover() is ExchangeState.COUNTER_CLAIMED
        assert resumed.result.preimage == resumed.preimage
        result = resumed.run()

        assert result.completed
        assert scenario.gold_owner() == "bob@quornet"
        assert scenario.oil_owner() == "alice@fabnet"
        reopened.close()

    def test_offer_lock_landed_but_unjournaled_is_fast_forwarded(
        self, exchange_scenario, tmp_path
    ):
        """Crash between the offer lock committing and the journal write:
        the responder's readback finds the escrow under this exchange's
        hashlock and fast-forwards past the lock step."""
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        stale = store.get(NS_EXCHANGES, EXCHANGE_ID)
        coordinator.lock_offer()
        store.put(NS_EXCHANGES, EXCHANGE_ID, stale)

        resumed, reopened = crash_and_resume(scenario, store, tmp_path)
        assert resumed.state is ExchangeState.CREATED
        assert resumed.recover() is ExchangeState.OFFER_LOCKED
        assert resumed.offer_deadline is not None
        result = resumed.run()

        assert result.completed
        assert scenario.gold_owner() == "bob@quornet"
        assert scenario.oil_owner() == "alice@fabnet"
        reopened.close()

    def test_refunded_leg_is_not_refunded_again_after_crash(
        self, exchange_scenario, tmp_path
    ):
        """The per-leg refund flags are journaled the moment each unlock
        lands: a coordinator that died mid-refund (counter leg unwound,
        offer leg's timelock still running) must unwind ONLY the offer
        leg after resume."""
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        coordinator.lock_offer()
        coordinator.verify_offer()
        coordinator.lock_counter()
        # Counter timelock (300s) expires; offer timelock (600s) has not.
        scenario.clock.advance(350.0)
        with pytest.raises(AssetError, match="offer refund refused"):
            coordinator.refund()  # counter unwound, then the crash

        resumed, reopened = crash_and_resume(scenario, store, tmp_path)
        assert resumed.state is ExchangeState.COUNTER_LOCKED
        scenario.clock.advance(300.0)  # now the offer window is open too
        acks = resumed.refund()
        assert len(acks) == 1  # ONLY the offer leg; no counter re-unlock
        assert acks[0].asset_id == "GOLD-1"
        assert resumed.state is ExchangeState.REFUNDED
        assert scenario.gold_owner() == "alice@fabnet"
        assert scenario.oil_owner() == "bob@quornet"
        reopened.close()

    def test_resumed_exchange_reverifies_before_revealing(
        self, exchange_scenario, tmp_path, monkeypatch
    ):
        """The counter lock was verified, then the process died and came
        back after the counter window closed (the offer window is still
        open). The resumed initiator must re-check the counter lock, not
        trust the dead process's verification: a claim sent now is
        refused by the vault, yet it hands the preimage to the relay path
        and the responder's network while the offer is still claimable
        with it."""
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        coordinator.lock_offer()
        coordinator.verify_offer()
        coordinator.lock_counter()
        coordinator.verify_counter()
        del coordinator  # the process dies here
        scenario.clock.advance(310.0)  # counter closed at 1300, offer open to 1600

        resumed, reopened = crash_and_resume(scenario, store, tmp_path)
        resumed.recover()
        sent = []
        send = scenario.fabric_relay.remote_asset

        def remote_asset(kind, command):
            sent.append(command)
            return send(kind, command)

        monkeypatch.setattr(scenario.fabric_relay, "remote_asset", remote_asset)
        with pytest.raises(AssetError):
            resumed.run()
        assert not any(command.preimage for command in sent)
        assert resumed.state is ExchangeState.FAILED
        assert resumed.result.preimage is None

        # Nothing was revealed, so both legs unwind as their windows close.
        with pytest.raises(AssetError, match="offer refund refused"):
            resumed.refund()  # the counter leg unwinds now
        scenario.clock.advance(300.0)
        resumed.refund()
        assert resumed.state is ExchangeState.REFUNDED
        assert scenario.gold_owner() == "alice@fabnet"
        assert scenario.oil_owner() == "bob@quornet"
        reopened.close()

    def test_resume_unknown_exchange_raises(self, exchange_scenario, tmp_path):
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        with pytest.raises(ExchangeStateError, match="no journaled exchange"):
            AssetExchangeCoordinator.resume(
                exchange_scenario.alice_client,
                exchange_scenario.bob_client,
                store,
                "exch-never-started",
            )
        store.close()


class TestTwoPartyFormatJournals:
    """Journals written in the ``offer_*`` / ``counter_*`` format (the
    separate two-party coordinator's) resume on the ring and end the way
    the ring-format ones above do."""

    def resume_from_two_party_format(self, scenario, store, tmp_path, state):
        rewrite_in_two_party_format(store, state)
        resumed, reopened = crash_and_resume(scenario, store, tmp_path)
        # resume() journals what it read: the record is ring format now.
        stored = json.loads(reopened.get(NS_EXCHANGES, EXCHANGE_ID).decode("utf-8"))
        assert "specs" in stored and "offer" not in stored
        return resumed, reopened

    def test_offer_verified_record_completes(self, exchange_scenario, tmp_path):
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        coordinator.lock_offer()
        coordinator.verify_offer()

        resumed, reopened = self.resume_from_two_party_format(
            scenario, store, tmp_path, "offer_verified"
        )
        assert resumed.recover() is ExchangeState.OFFER_LOCKED
        assert resumed.offer_deadline == coordinator.offer_deadline
        result = resumed.run()

        assert result.completed
        assert result.preimage == coordinator.preimage
        assert scenario.gold_owner() == "bob@quornet"
        assert scenario.oil_owner() == "alice@fabnet"
        reopened.close()

    def test_counter_locked_record_refunds_only_the_standing_leg(
        self, exchange_scenario, tmp_path
    ):
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        coordinator.lock_offer()
        coordinator.verify_offer()
        coordinator.lock_counter()
        scenario.clock.advance(350.0)  # counter window closed, offer's open
        with pytest.raises(AssetError, match="offer refund refused"):
            coordinator.refund()  # counter unwound, then the crash

        resumed, reopened = self.resume_from_two_party_format(
            scenario, store, tmp_path, "counter_locked"
        )
        assert resumed.state is ExchangeState.COUNTER_LOCKED
        scenario.clock.advance(300.0)
        acks = resumed.refund()
        assert [ack.asset_id for ack in acks] == ["GOLD-1"]
        assert resumed.state is ExchangeState.REFUNDED
        assert scenario.gold_owner() == "alice@fabnet"
        assert scenario.oil_owner() == "bob@quornet"
        reopened.close()

    def test_counter_claimed_record_completes(self, exchange_scenario, tmp_path):
        scenario = exchange_scenario
        store = SqliteStore(tmp_path / "coordinator", fsync=False)
        coordinator = build_coordinator(scenario, store)
        coordinator.lock_offer()
        coordinator.verify_offer()
        coordinator.lock_counter()
        coordinator.verify_counter()
        coordinator.claim_counter()  # preimage public

        resumed, reopened = self.resume_from_two_party_format(
            scenario, store, tmp_path, "counter_claimed"
        )
        assert resumed.recover() is ExchangeState.COUNTER_CLAIMED
        assert resumed.result.preimage == coordinator.preimage
        result = resumed.run()

        assert result.completed
        assert scenario.gold_owner() == "bob@quornet"
        assert scenario.oil_owner() == "alice@fabnet"
        reopened.close()

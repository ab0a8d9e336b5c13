"""N-party cyclic swaps end to end: Fabric → Quorum → Corda → Fabric.

The tentpole acceptance scenarios: a three-party ring completes
atomically off one preimage; any stall, tamper, or abort refunds every
locked leg; and a killed coordinator resumes from its journal without
double-locking or double-claiming — the recovery answer always comes
from proof-carrying ledger readbacks, never from a relay's word.
"""

from __future__ import annotations

import json

import pytest

from repro.assets import AssetSpec
from repro.assets.cycles import NS_CYCLES, CycleCoordinator, CycleState
from repro.assets.metrics import ExchangeMetrics
from repro.errors import AssetError, ExchangeStateError, ReproError
from repro.ops.exporters import register_assets
from repro.ops.metrics import MetricsRegistry
from repro.proto.messages import MSG_KIND_QUERY_REQUEST
from repro.store import MemoryStore
from repro.testing import (
    FAULT_TAMPER_PROOF,
    FaultPlan,
    FaultSpec,
    chaos_topology,
    parse_exposition,
)

# Mirrors the cycle_scenario fixture wiring (tests/assets/conftest.py).
OFFER_ADDRESS = "fabnet/trade/assetscc"
ASK_ADDRESS = "quornet/state/asset-vault"
CORDA_ADDRESS = "cordanet/vault/asset-vault"
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"
CORDA_POLICY = "AND(org:carol, org:dana)"

CYCLE_TIMEOUT = 900.0
HOP_GAP = 150.0


def make_cycle(scenario, store=None, metrics=None, cycle_id=None) -> CycleCoordinator:
    return CycleCoordinator(
        parties=[scenario.alice_client, scenario.bob_client, scenario.carol_client],
        specs=[
            AssetSpec.parse(OFFER_ADDRESS, "GOLD-1"),
            AssetSpec.parse(ASK_ADDRESS, "OIL-9"),
            AssetSpec.parse(CORDA_ADDRESS, "ART-7"),
        ],
        cycle_timeout=CYCLE_TIMEOUT,
        hop_gap=HOP_GAP,
        policies=[OFFER_POLICY, ASK_POLICY, CORDA_POLICY],
        store=store,
        metrics=metrics,
        cycle_id=cycle_id,
    )


def resume_cycle(scenario, store, cycle_id) -> CycleCoordinator:
    return CycleCoordinator.resume(
        [scenario.alice_client, scenario.bob_client, scenario.carol_client],
        store,
        cycle_id,
        policies=[OFFER_POLICY, ASK_POLICY, CORDA_POLICY],
    )


def quorum_commands(scenario, function: str) -> int:
    return sum(
        1
        for block in scenario.quorum.blocks
        for tx in block.transactions
        if tx.function == function
    )


def corda_commands(scenario, command: str) -> int:
    return sum(
        1
        for tx in scenario.corda.transactions.values()
        if tx.command == command
    )


def owners(scenario) -> tuple[str, str, str]:
    return (scenario.gold_owner(), scenario.oil_owner(), scenario.art_owner())


class TestThreePartyCycle:
    def test_cycle_completes_atomically_with_one_preimage(self, cycle_scenario):
        """Each asset moves exactly one hop around the ring, all three
        claims spending the single preimage party 0 revealed."""
        scenario = cycle_scenario
        cycle = make_cycle(scenario)
        result = cycle.run()
        assert result.completed
        assert cycle.state is CycleState.COMPLETED
        assert owners(scenario) == (
            "bob@quornet",  # GOLD-1: alice -> bob
            "carol@cordanet",  # OIL-9: bob -> carol
            "alice@fabnet",  # ART-7: carol -> alice
        )
        # One secret armed the whole ring: every claim ack carries it.
        assert result.preimage == cycle.preimage
        for ack in result.claims:
            assert ack is not None and ack.preimage == cycle.preimage
        assert quorum_commands(scenario, "ClaimAsset") == 1
        assert corda_commands(scenario, "AssetClaim") == 1

    def test_hop_deadlines_partition_time(self, cycle_scenario):
        """Timelocks strictly decrease along the ring by exactly the hop
        gap, so every claimant's upstream window outlives its own."""
        cycle = make_cycle(cycle_scenario)
        cycle.run()
        deadlines = cycle.deadlines
        assert all(deadline is not None for deadline in deadlines)
        for leg in range(1, cycle.size):
            assert deadlines[leg] == pytest.approx(deadlines[leg - 1] - HOP_GAP)

    def test_misconfigured_ring_is_rejected_before_any_escrow(self, cycle_scenario):
        scenario = cycle_scenario
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            CycleCoordinator(
                parties=[scenario.alice_client, scenario.bob_client],
                specs=[AssetSpec.parse(OFFER_ADDRESS, "GOLD-1")],
            )
        with pytest.raises(ProtocolError):
            CycleCoordinator(
                parties=[scenario.alice_client, scenario.bob_client],
                specs=[
                    AssetSpec.parse(OFFER_ADDRESS, "GOLD-1"),
                    AssetSpec.parse(ASK_ADDRESS, "OIL-9"),
                ],
                cycle_timeout=100.0,
                hop_gap=150.0,  # second leg's window would be negative
            )
        assert owners(scenario) == ("alice@fabnet", "bob@quornet", "carol@cordanet")


class TestCycleUnwind:
    def test_abort_before_reveal_refunds_every_leg(self, cycle_scenario):
        """All three legs escrowed, then the ring is called off: nothing
        was claimable (the secret never left party 0) and every vault
        refunds once its window closes."""
        scenario = cycle_scenario
        cycle = make_cycle(scenario)
        while cycle.state in (CycleState.CREATED, CycleState.LOCKING):
            cycle.lock_next()
        assert cycle.state is CycleState.LOCKED
        cycle.abort()
        # Refund before any window closed is refused on-ledger, leg by leg.
        with pytest.raises(AssetError):
            cycle.refund()
        assert cycle.state is CycleState.ABORTED
        scenario.clock.advance(CYCLE_TIMEOUT + 1.0)
        refunds = cycle.refund()
        assert len(refunds) == 3
        assert cycle.state is CycleState.REFUNDED
        assert owners(scenario) == ("alice@fabnet", "bob@quornet", "carol@cordanet")
        assert quorum_commands(scenario, "ClaimAsset") == 0
        assert corda_commands(scenario, "AssetClaim") == 0

    def test_stalled_party_times_out_and_locked_legs_refund(self, cycle_scenario):
        """Party 2 never locks: the ring cannot close, and after the
        windows expire the two standing escrows unwind."""
        scenario = cycle_scenario
        cycle = make_cycle(scenario)
        cycle.lock_next()  # leg 0: alice
        cycle.lock_next()  # leg 1: bob
        assert cycle.state is CycleState.LOCKING
        scenario.clock.advance(CYCLE_TIMEOUT + 1.0)
        refunds = cycle.refund()
        assert len(refunds) == 2
        assert cycle.state is CycleState.REFUNDED
        assert owners(scenario) == ("alice@fabnet", "bob@quornet", "carol@cordanet")

    def test_tampered_mid_ring_proof_fails_cycle_before_reveal(self, cycle_scenario):
        """A relay forging leg 1's lock confirmation cannot make carol
        escrow: verification fails closed, the preimage never leaves
        party 0, and both standing legs refund."""
        scenario = cycle_scenario
        cycle = make_cycle(scenario)
        plan = FaultPlan(
            31337,
            [
                FaultSpec(
                    kind=FAULT_TAMPER_PROOF,
                    only_kinds=frozenset({MSG_KIND_QUERY_REQUEST}),
                )
            ],
            name="tamper-cycle-leg1-proof",
        )
        with chaos_topology(
            scenario.registry,
            ["quornet"],
            plan,
            clock=scenario.clock,
            redundant=False,
        ) as wrappers:
            cycle.lock_next()  # leg 0 (verifies nothing)
            cycle.lock_next()  # leg 1 (verifies leg 0 on fabnet: clean)
            with pytest.raises(ReproError):
                cycle.lock_next()  # leg 2 verifies leg 1 via tampered path
            assert wrappers["quornet"].injected[FAULT_TAMPER_PROOF] >= 1
            assert cycle.state is CycleState.FAILED
            assert cycle.result.preimage is None
            scenario.clock.advance(CYCLE_TIMEOUT + 1.0)
            refunds = cycle.refund()
        assert len(refunds) == 2
        assert cycle.state is CycleState.REFUNDED
        assert owners(scenario) == ("alice@fabnet", "bob@quornet", "carol@cordanet")
        assert corda_commands(scenario, "AssetLock") == 0


class TestCycleCrashRecovery:
    def _doctor_journal(self, store, cycle_id, **overrides) -> None:
        """Rewind the journal to simulate a crash after a command landed
        but before its ack was journaled."""
        record = json.loads(store.get(NS_CYCLES, cycle_id).decode("utf-8"))
        record.update(overrides)
        store.put(NS_CYCLES, cycle_id, json.dumps(record).encode("utf-8"))

    def test_recover_fast_forwards_unjournaled_lock_without_relocking(
        self, cycle_scenario
    ):
        """Crash between bob's lock landing and its journal write: the
        resumed coordinator reads the escrow (proof-carrying), sees its
        own terms, and continues — exactly one lock on the ledger."""
        scenario = cycle_scenario
        store = MemoryStore()
        cycle = make_cycle(scenario, store=store)
        cycle.lock_next()  # leg 0
        cycle.lock_next()  # leg 1 landed on quornet...
        # ...but the journal never heard: rewind its flag.
        locked = list(cycle._locked)
        locked[1] = False
        self._doctor_journal(
            store, cycle.cycle_id, locked=locked, state=CycleState.LOCKING.value
        )
        resumed = resume_cycle(scenario, store, cycle.cycle_id)
        assert resumed.state is CycleState.LOCKING
        assert resumed.recover() is CycleState.LOCKING
        assert resumed._locked[1] is True
        result = resumed.run()
        assert result.completed
        assert quorum_commands(scenario, "LockAsset") == 1  # never re-locked
        assert owners(scenario) == ("bob@quornet", "carol@cordanet", "alice@fabnet")

    def test_recover_detects_published_preimage_and_completes(self, cycle_scenario):
        """Crash right after party 0's claim revealed the preimage: the
        resumed coordinator must move *past* the reveal (the secret is
        public!) and finish the backward walk — one claim per vault."""
        scenario = cycle_scenario
        store = MemoryStore()
        cycle = make_cycle(scenario, store=store)
        while cycle.state in (CycleState.CREATED, CycleState.LOCKING):
            cycle.lock_next()
        cycle.claim_next()  # leg 2 claimed: preimage is now on cordanet
        claimed = [False] * cycle.size
        self._doctor_journal(
            store,
            cycle.cycle_id,
            claimed=claimed,
            state=CycleState.LOCKED.value,
            preimage_revealed=False,
        )
        resumed = resume_cycle(scenario, store, cycle.cycle_id)
        assert resumed.recover() is CycleState.CLAIMING
        assert resumed.result.preimage == cycle.preimage
        result = resumed.run()
        assert result.completed
        assert corda_commands(scenario, "AssetClaim") == 1
        assert quorum_commands(scenario, "ClaimAsset") == 1
        assert owners(scenario) == ("bob@quornet", "carol@cordanet", "alice@fabnet")

    def test_resume_requires_a_journal(self, cycle_scenario):
        with pytest.raises(ExchangeStateError):
            resume_cycle(cycle_scenario, MemoryStore(), "cycle-unknown")


class TestCycleBuilderApi:
    def test_gateway_exchange_cycle_drives_the_full_ring(self, cycle_scenario):
        """The application surface: one fluent chain assembles and runs
        the same three-party ring."""
        from repro.api import InteropGateway

        scenario = cycle_scenario
        gateway = InteropGateway(client=scenario.alice_client)
        result = (
            gateway.exchange_cycle()
            .leg(OFFER_ADDRESS, "GOLD-1", policy=OFFER_POLICY)
            .leg(ASK_ADDRESS, "OIL-9", party=scenario.bob_client, policy=ASK_POLICY)
            .leg(
                CORDA_ADDRESS,
                "ART-7",
                party=scenario.carol_client,
                policy=CORDA_POLICY,
            )
            .with_window(timeout=CYCLE_TIMEOUT, hop_gap=HOP_GAP)
            .run()
        )
        assert result.completed
        assert owners(scenario) == ("bob@quornet", "carol@cordanet", "alice@fabnet")

    def test_builder_rejects_short_rings_and_unnamed_parties(self, cycle_scenario):
        from repro.api import InteropGateway

        gateway = InteropGateway(client=cycle_scenario.alice_client)
        with pytest.raises(RuntimeError):
            gateway.exchange_cycle().leg(OFFER_ADDRESS, "GOLD-1").build()
        with pytest.raises(RuntimeError):
            (
                gateway.exchange_cycle()
                .leg(OFFER_ADDRESS, "GOLD-1")
                .leg(ASK_ADDRESS, "OIL-9")  # no party named
            )


class TestCycleMetrics:
    def test_completed_cycle_reports_latency_and_transitions(self, cycle_scenario):
        metrics = ExchangeMetrics()
        cycle = make_cycle(cycle_scenario, metrics=metrics)
        cycle.run()
        snapshot = metrics.snapshot()
        assert snapshot["started"] == {"cycle": 1}
        assert snapshot["active"] == {"cycle": 0}
        assert snapshot["transitions"]["cycle:completed"] == 1
        assert snapshot["transitions"]["cycle:locked"] == 1
        latency = snapshot["latency"]["cycle"]
        assert sum(latency["counts"]) == 1
        assert latency["sum"] >= 0.0

    def test_refunded_cycle_counts_refund_legs(self, cycle_scenario):
        scenario = cycle_scenario
        metrics = ExchangeMetrics()
        cycle = make_cycle(scenario, metrics=metrics)
        cycle.lock_next()
        cycle.abort()
        scenario.clock.advance(CYCLE_TIMEOUT + 1.0)
        cycle.refund()
        snapshot = metrics.snapshot()
        assert snapshot["aborts"] == {"cycle": 1}
        assert snapshot["refund_legs"] == {"cycle": 1}
        assert metrics.active("cycle") == 0

    def test_failed_then_refunded_cycle_settles_once(self, cycle_scenario):
        """FAILED → REFUNDED is one settlement: the active gauge reads 0,
        not -1, and the ring counts as settled once."""
        scenario = cycle_scenario
        metrics = ExchangeMetrics()
        registry = MetricsRegistry()
        register_assets(registry, metrics)
        cycle = make_cycle(scenario, metrics=metrics)
        cycle.lock_next()
        cycle.lock_next()
        scenario.clock.advance(CYCLE_TIMEOUT + 1.0)
        with pytest.raises(ReproError):
            cycle.lock_next()  # leg 2: leg 1's lock has run out of time
        assert cycle.state is CycleState.FAILED
        cycle.refund()
        assert cycle.state is CycleState.REFUNDED
        snapshot = metrics.snapshot()
        assert snapshot["transitions"]["cycle:failed"] == 1
        assert snapshot["transitions"]["cycle:refunded"] == 1
        assert snapshot["settled"] == {"cycle": 1}
        assert metrics.active("cycle") == 0
        [active] = parse_exposition(registry.render())["repro_assets_active"].samples
        assert active.value == 0

    def test_a_ring_resumed_in_a_fresh_process_counts_as_started_once(self, cycle_scenario):
        """The restarted process tracks the resumed ring, so settling it
        leaves the active gauge at 0, not -1."""
        scenario = cycle_scenario
        store = MemoryStore()
        cycle = make_cycle(scenario, store=store)
        cycle.lock_next()  # leg 0, then the process dies
        metrics = ExchangeMetrics()
        resumed = CycleCoordinator.resume(
            [scenario.alice_client, scenario.bob_client, scenario.carol_client],
            store,
            cycle.cycle_id,
            policies=[OFFER_POLICY, ASK_POLICY, CORDA_POLICY],
            metrics=metrics,
        )
        resumed.recover()
        assert resumed.run().completed
        snapshot = metrics.snapshot()
        assert snapshot["active"] == {"cycle": 0}
        assert snapshot["started"] == {"cycle": 1}

    def test_a_ring_resumed_under_the_same_metrics_is_not_a_second_start(
        self, cycle_scenario
    ):
        scenario = cycle_scenario
        store = MemoryStore()
        metrics = ExchangeMetrics()
        cycle = make_cycle(scenario, store=store, metrics=metrics)
        cycle.lock_next()
        resumed = CycleCoordinator.resume(
            [scenario.alice_client, scenario.bob_client, scenario.carol_client],
            store,
            cycle.cycle_id,
            policies=[OFFER_POLICY, ASK_POLICY, CORDA_POLICY],
            metrics=metrics,
        )
        resumed.recover()
        assert resumed.run().completed
        snapshot = metrics.snapshot()
        assert snapshot["active"] == {"cycle": 0}
        assert snapshot["started"] == {"cycle": 1}
        assert snapshot["settled"] == {"cycle": 1}

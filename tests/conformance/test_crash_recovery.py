"""Crash-restart recovery across the driver matrix (PR 4's plan, extended).

Every platform target runs the same script: move the source relay onto a
durable :class:`~repro.store.SqliteStore`, execute a side-effecting
envelope, kill the relay (object discarded, store closed), restart on
the re-opened state directory, and replay the captured bytes.

- Platforms that serve the verb (fabric, corda) must answer the replay
  from the durable record — one ledger commit, ``duplicates_suppressed``
  bumped, byte-identical reply.
- Platforms that fail closed (quorum and the public chain have no
  transaction driver) must *stay* failed closed: the recorded capability
  error is the durable answer after restart too.
- Restarting with NO store (the pre-durability default) keeps the old
  semantics: nothing survives, the replay re-routes.
"""

from __future__ import annotations

import pytest

from repro.assets.htlc import STATE_LOCKED, make_hashlock
from repro.interop.relay import NS_IDEMPOTENCY
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    ERROR_KIND_CAPABILITY,
    ERROR_KIND_HEADER,
    MSG_KIND_ASSET_ACK,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ERROR,
    MSG_KIND_TRANSACT_REQUEST,
    MSG_KIND_TRANSACT_RESPONSE,
    PROTOCOL_VERSION,
    STATUS_OK,
    AssetAckMsg,
    RelayEnvelope,
)
from repro.store import SqliteStore
from repro.testing import restart_relay

PLATFORMS = ["fabric", "quorum", "corda", "pubchain"]


def transact_envelope(target, tag: str, request_id: str) -> bytes:
    """A captured-on-the-wire transact envelope, as an adversary holds it."""
    prepared = target.client.prepare_query(
        target.transact_address or f"{target.network_id}/ledger/contract/Put",
        target.transact_args(tag) if target.transact_args else [tag],
        policy=target.policy,
        invocation=INVOCATION_TRANSACTION,
    )
    return RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=MSG_KIND_TRANSACT_REQUEST,
        request_id=request_id,
        source_network=target.client.network_id,
        destination_network=target.network_id,
        payload=prepared.query.encode(),
    ).encode()


def crash_restart_durable(target, tmp_path, recover=True):
    """Close the relay's durable store and restart on the same directory."""
    target.relay.store.close()
    reopened = SqliteStore(tmp_path / "relay-state", fsync=False)
    return restart_relay(target, store=reopened, recover=recover)


@pytest.fixture()
def durable_target(conformance_target, tmp_path):
    """The platform target with its source relay moved onto a SqliteStore;
    hands the (volatile-state) original back afterwards."""
    store = SqliteStore(tmp_path / "relay-state", fsync=False)
    restart_relay(conformance_target, store=store)
    yield conformance_target
    conformance_target.relay.store.close()
    restart_relay(conformance_target)  # back to the MemoryStore default


@pytest.mark.parametrize("conformance_target", PLATFORMS, indirect=True)
class TestDurableReplayMatrix:
    def test_replay_after_crash_restart_is_answered_from_disk(
        self, durable_target, tmp_path
    ):
        target = durable_target
        platform = target.platform
        tag = f"CRASH-{platform.upper()}-1"
        raw = transact_envelope(target, tag, f"req-crash-{platform}-1")

        first = target.relay.handle_request(raw)
        first_kind = RelayEnvelope.decode(first).kind
        if target.transact_address is not None:
            assert first_kind == MSG_KIND_TRANSACT_RESPONSE
            assert target.commit_count(tag) == 1
        else:
            # Quorum fails closed on transact; the refusal is the answer.
            assert first_kind == MSG_KIND_ERROR

        restarted = crash_restart_durable(target, tmp_path)
        second = restarted.handle_request(raw)

        assert second == first  # the durable record, byte for byte
        assert restarted.stats.duplicates_suppressed == 1
        if target.transact_address is not None:
            assert target.commit_count(tag) == 1  # exactly one commit, ever

    def test_restart_empty_keeps_pre_durability_semantics(
        self, durable_target, tmp_path
    ):
        """``restart_relay(target)`` without a store is the old crash
        model: the record dies with the process and the replay re-routes
        (the ledger's own duplicate refusal stays the visible answer)."""
        target = durable_target
        platform = target.platform
        tag = f"CRASH-{platform.upper()}-2"
        raw = transact_envelope(target, tag, f"req-crash-{platform}-2")
        first = target.relay.handle_request(raw)
        target.relay.store.close()

        restarted = restart_relay(target)  # empty MemoryStore restart
        second = restarted.handle_request(raw)

        assert restarted.stats.duplicates_suppressed == 0
        if target.transact_address is not None:
            # Re-routed for real: the chaincode/vault refuses the double
            # commit, visibly — and the ledger still shows one commit.
            assert second != first
            assert target.commit_count(tag) == 1
        else:
            assert RelayEnvelope.decode(second).kind == MSG_KIND_ERROR
        # Hand the fixture's teardown a durable relay again.
        restart_relay(
            target, store=SqliteStore(tmp_path / "relay-state2", fsync=False)
        )

    def test_asset_lock_replay_after_crash_restart(
        self, durable_target, tmp_path
    ):
        """The HTLC leg of the same contract: a lock executed right
        before the crash answers its replay from the durable record
        (one escrow, the original OK ack) — and a platform without the
        asset capability would keep refusing after the restart (all four
        current platforms serve assets, so the refusal branch is the
        suite's contract for future columns)."""
        target = durable_target
        platform = target.platform
        request_id = f"req-crash-{platform}-lock"
        if target.supports_assets:
            asset_id = target.issue_asset(
                f"CRASH-{platform.upper()}-L", target.party(target.client)
            )
            command = target.asset_command(
                target.client,
                asset_id,
                recipient=target.party(target.counter_client),
                hashlock=make_hashlock(b"crash-restart-secret"),
                timeout=target.clock.now() + 600.0,
            )
        else:
            command = target.asset_command(target.client, "ASSET-NONE")
        raw = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_ASSET_LOCK,
            request_id=request_id,
            source_network=target.client.network_id,
            destination_network=target.network_id,
            payload=command.encode(),
        ).encode()

        first = target.relay.handle_request(raw)
        first_envelope = RelayEnvelope.decode(first)
        if target.supports_assets:
            assert first_envelope.kind == MSG_KIND_ASSET_ACK
            ack = AssetAckMsg.decode(first_envelope.payload)
            assert ack.status == STATUS_OK
            assert target.read_lock(asset_id)["state"] == STATE_LOCKED
        else:
            # Fail-closed before the crash: a capability error, not an ack.
            assert first_envelope.kind == MSG_KIND_ERROR

        restarted = crash_restart_durable(target, tmp_path)
        second = restarted.handle_request(raw)

        assert second == first
        assert restarted.stats.duplicates_suppressed == 1
        if target.supports_assets:
            # The duplicate saw the original OK, not an "already locked"
            # refusal — proof the escrow happened exactly once.
            assert target.read_lock(asset_id)["state"] == STATE_LOCKED

    def test_durable_record_is_bounded_on_disk_too(
        self, durable_target, tmp_path
    ):
        """The record stays bounded whatever fills it: served transact
        answers on fabric/corda, durable fail-closed capability refusals
        on quorum/pubchain (no skips — a platform without the verb must
        still bound what it records about refusing it)."""
        target = durable_target
        relay = target.relay
        original_capacity = relay.idempotency_capacity
        relay.idempotency_capacity = 4
        try:
            platform = target.platform
            replies = [
                relay.handle_request(
                    transact_envelope(
                        target,
                        f"CRASH-{platform.upper()}-B{index}",
                        f"req-crash-{platform}-b{index}",
                    )
                )
                for index in range(6)
            ]
            if target.transact_address is None:
                # Every filler was a typed capability refusal, not a skip.
                for raw in replies:
                    envelope = RelayEnvelope.decode(raw)
                    assert envelope.kind == MSG_KIND_ERROR
                    assert (
                        envelope.headers.get(ERROR_KIND_HEADER)
                        == ERROR_KIND_CAPABILITY
                    )
            assert len(relay._idempotency) <= 4
            assert len(relay.store.scan(NS_IDEMPOTENCY)) <= 4
        finally:
            relay.idempotency_capacity = original_capacity


@pytest.mark.parametrize("conformance_target", ["fabric", "corda"], indirect=True)
class TestSubscriptionRecovery:
    def test_subscription_survives_source_relay_restart(
        self, durable_target, tmp_path
    ):
        """The §2 event primitive across a crash: a durably-recorded
        subscription is re-tapped by ``recover()`` and notifications for
        post-restart commits still reach the subscriber's stream."""
        target = durable_target
        from repro.api.gateway import InteropGateway

        gateway = InteropGateway.from_client(target.client)
        stream = gateway.subscribe(
            target.event_address,
            target.event_name,
            verifier=target.event_verifier(),
        )
        assert target.relay.stats.subscriptions_served == 1

        restarted = crash_restart_durable(target, tmp_path)
        restored_tag = f"CRASH-{target.platform.upper()}-EV"
        target.trigger_event(restored_tag)

        assert stream.pending_count == 1
        event = stream.take()
        assert event.notification.payload == restored_tag.encode("utf-8")
        assert restarted.stats.events_published == 1
        stream.close()

    def test_restart_without_recover_leaves_taps_closed(
        self, durable_target, tmp_path
    ):
        """``recover=False`` models an operator who restarted the relay
        but has not (yet) re-opened taps: the durable record is intact,
        no notifications flow, and a later ``recover()`` resumes them."""
        target = durable_target
        from repro.api.gateway import InteropGateway

        gateway = InteropGateway.from_client(target.client)
        stream = gateway.subscribe(
            target.event_address,
            target.event_name,
            verifier=target.event_verifier(),
        )
        restarted = crash_restart_durable(target, tmp_path, recover=False)
        target.trigger_event(f"CRASH-{target.platform.upper()}-EV2")
        assert stream.pending_count == 0  # tap not re-opened yet

        assert len(restarted.recover()) == 1
        target.trigger_event(f"CRASH-{target.platform.upper()}-EV3")
        assert stream.pending_count == 1
        stream.close()

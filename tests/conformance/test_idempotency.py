"""Regression: duplicated side-effecting envelopes must not double-execute.

The §4–§5 adversary can replay any message it saw, and the failover loop
legitimately re-sends an envelope whose reply was lost. The relay serve
path keys exactly-once execution on the envelope ``request_id``: a
replayed transact/asset command is answered with the recorded reply, and
the ledger shows exactly one commit.
"""

from __future__ import annotations

import pytest

from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    MSG_KIND_ASSET_ACK,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_TRANSACT_REQUEST,
    MSG_KIND_TRANSACT_RESPONSE,
    PROTOCOL_VERSION,
    STATUS_OK,
    AssetAckMsg,
    QueryResponse,
    RelayEnvelope,
)


def transact_envelope(target, tag: str, request_id: str) -> bytes:
    """A captured-on-the-wire transact envelope, as an adversary holds it."""
    prepared = target.client.prepare_query(
        target.transact_address,
        target.transact_args(tag),
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


class TestTransactReplay:
    def test_replayed_transact_envelope_commits_exactly_once(self, fabric_target):
        """THE regression: byte-identical replay of a captured transact
        envelope is served from the idempotency record, not re-committed."""
        target = fabric_target
        tag = "IDEMP-TX-1"
        raw = transact_envelope(target, tag, "req-idemp-1")
        suppressed_before = target.relay.stats.duplicates_suppressed

        first = target.relay.handle_request(raw)
        second = target.relay.handle_request(raw)  # adversarial replay

        assert RelayEnvelope.decode(first).kind == MSG_KIND_TRANSACT_RESPONSE
        assert second == first  # the recorded reply, byte for byte
        assert target.commit_count(tag) == 1
        assert (
            target.relay.stats.duplicates_suppressed - suppressed_before == 1
        )
        # And the recorded reply is a real committed outcome, not an error.
        response = QueryResponse.decode(RelayEnvelope.decode(first).payload)
        assert response.status == STATUS_OK

    def test_distinct_request_ids_commit_independently(self, fabric_target):
        """Idempotency keys on the request id, not the payload: two client
        retries with fresh ids are two intentional transactions."""
        target = fabric_target
        first = target.relay.handle_request(
            transact_envelope(target, "IDEMP-TX-2A", "req-idemp-2a")
        )
        second = target.relay.handle_request(
            transact_envelope(target, "IDEMP-TX-2B", "req-idemp-2b")
        )
        assert first != second
        assert target.commit_count("IDEMP-TX-2A") == 1
        assert target.commit_count("IDEMP-TX-2B") == 1


class TestAssetReplay:
    def test_replayed_lock_escrows_exactly_once(self, fabric_target):
        target = fabric_target
        from repro.assets.htlc import STATE_LOCKED, make_hashlock

        asset_id = target.issue_asset("IDEMP-A1", target.party(target.client))
        hashlock = make_hashlock(b"secret-idemp")
        command = target.asset_command(
            target.client,
            asset_id,
            recipient=target.party(target.counter_client),
            hashlock=hashlock,
            timeout=target.clock.now() + 600.0,
        )
        raw = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=MSG_KIND_ASSET_LOCK,
            request_id="req-idemp-lock-1",
            source_network=target.client.network_id,
            destination_network=target.network_id,
            payload=command.encode(),
        ).encode()

        first = target.relay.handle_request(raw)
        second = target.relay.handle_request(raw)

        assert second == first
        first_envelope = RelayEnvelope.decode(first)
        assert first_envelope.kind == MSG_KIND_ASSET_ACK
        ack = AssetAckMsg.decode(first_envelope.payload)
        # Without the idempotency record the replay would answer
        # "already locked" — the duplicate must see the original OK.
        assert ack.status == STATUS_OK
        assert target.read_lock(asset_id)["state"] == STATE_LOCKED


class TestCacheBounds:
    def test_idempotency_record_is_bounded(self, fabric_target):
        target = fabric_target
        original_capacity = target.relay.idempotency_capacity
        try:
            target.relay.idempotency_capacity = 4
            raws = [
                transact_envelope(target, f"IDEMP-EV-{index}", f"req-idemp-ev-{index}")
                for index in range(6)
            ]
            for raw in raws:
                target.relay.handle_request(raw)
            assert len(target.relay._idempotency) <= 4
            # The oldest record was evicted: its replay re-routes (and the
            # chaincode's duplicate refusal answers it — visible, not silent).
            suppressed_before = target.relay.stats.duplicates_suppressed
            target.relay.handle_request(raws[0])
            assert target.relay.stats.duplicates_suppressed == suppressed_before
        finally:
            target.relay.idempotency_capacity = original_capacity

"""Regression: a transaction addressed to the ``<net>#tx`` pseudo-network
must not commit.

Fabric transactions once rode a second driver registered under the
made-up network name ``source-net#tx``, which also answered plain
``QUERY_REQUEST`` envelopes by committing. Queries are read-only, so
that route skipped the relay's exactly-once record: a byte-identical
replay committed twice. Transactions now ride the network's own driver
under ``TRANSACT_REQUEST``, and a ``#tx`` address names no network.
"""

from __future__ import annotations

import pytest

from repro.fabric import Chaincode, NetworkBuilder
from repro.fabric.chaincode import require_args
from repro.interop import (
    InMemoryRegistry,
    InteropClient,
    RelayService,
    create_fabric_relay,
    enable_fabric_interop,
    link_networks,
)
from repro.interop.transactions import enable_remote_transactions
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    MSG_KIND_ERROR,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_TRANSACT_REQUEST,
    MSG_KIND_TRANSACT_RESPONSE,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    QueryResponse,
    RelayEnvelope,
    VerificationPolicyMsg,
)

PUT = "source-net/main/docs/Put"


class DocumentChaincode(Chaincode):
    """Stores documents; every Put is a fresh commit, even for one key."""

    name = "docs"

    def invoke(self, stub):
        if stub.function == "init":
            return b"ok"
        if stub.function == "Put":
            key, value = require_args(stub, 2)
            stub.put_state(key, value.encode())
            return b"ok"
        raise ValueError(f"unknown function {stub.function}")


@pytest.fixture()
def deployment():
    source = (
        NetworkBuilder("source-net")
        .add_org("producer-org")
        .add_org("auditor-org")
        .add_peer("peer0", "producer-org")
        .add_peer("peer0", "auditor-org")
        .add_client("admin", "producer-org")
        .build()
    )
    destination = (
        NetworkBuilder("dest-net")
        .add_org("consumer-org")
        .add_peer("peer0", "consumer-org")
        .add_client("admin", "consumer-org")
        .add_client("app", "consumer-org")
        .build()
    )
    admin = source.org("producer-org").member("admin")
    dest_admin = destination.org("consumer-org").member("admin")
    source.deploy_chaincode(
        DocumentChaincode(),
        "AND('producer-org.peer', 'auditor-org.peer')",
        initializer=admin,
    )
    enable_fabric_interop(source, admin)
    enable_fabric_interop(destination, dest_admin)
    link_networks(destination, dest_admin, source, admin)
    source.gateway.submit(
        admin, "ecc", "AddAccessRule", ["dest-net", "consumer-org", "docs", "Put"]
    )
    registry = InMemoryRegistry()
    relay = create_fabric_relay(source, registry)
    invoker = source.org("producer-org").enroll("interop-invoker", role="client")
    enable_remote_transactions(source, relay, invoker)
    client = InteropClient(
        destination.org("consumer-org").member("app"),
        RelayService("dest-net", registry),
        "dest-net",
        gateway=destination.gateway,
    )
    prepared = client.prepare_query(
        PUT, ["doc-1", "contents"], invocation=INVOCATION_TRANSACTION
    )
    return source, relay, prepared.query


def envelope(kind: int, network: str, query) -> bytes:
    return RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=kind,
        request_id="req-same",
        source_network="dest-net",
        destination_network=network,
        payload=query.encode(),
    ).encode()


def test_query_request_to_tx_pseudo_network_commits_nothing(deployment):
    source, relay, query = deployment
    query.address.network = "source-net#tx"
    request = envelope(MSG_KIND_QUERY_REQUEST, "source-net#tx", query)
    height = source.peers[0].ledger.height
    for _ in range(2):
        reply = RelayEnvelope.decode(relay.handle_request(request))
        assert reply.kind == MSG_KIND_ERROR
        assert "has no driver for network 'source-net#tx'" in reply.payload.decode()
    assert source.peers[0].ledger.height == height


def test_transact_request_replay_commits_once(deployment):
    source, relay, query = deployment
    request = envelope(MSG_KIND_TRANSACT_REQUEST, "source-net", query)
    height = source.peers[0].ledger.height
    first = relay.handle_request(request)
    assert RelayEnvelope.decode(first).kind == MSG_KIND_TRANSACT_RESPONSE
    assert relay.handle_request(request) == first
    assert source.peers[0].ledger.height == height + 1
    assert relay.stats.duplicates_suppressed == 1


def test_unsatisfiable_policy_is_refused_before_commit(deployment):
    """No peer can attest under ``org:nobody-org``: the write must not land
    before the driver finds that out."""
    source, relay, query = deployment
    query.policy = VerificationPolicyMsg(expression="org:nobody-org")
    height = source.peers[0].ledger.height
    reply = RelayEnvelope.decode(
        relay.handle_request(envelope(MSG_KIND_TRANSACT_REQUEST, "source-net", query))
    )
    assert reply.kind == MSG_KIND_TRANSACT_RESPONSE
    response = QueryResponse.decode(reply.payload)
    assert response.status == STATUS_ERROR
    assert "cannot be satisfied" in response.error
    assert source.peers[0].ledger.height == height

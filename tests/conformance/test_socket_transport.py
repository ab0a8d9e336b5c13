"""The envelope protocol over real sockets: e2e + conformance.

Acceptance for the transport seam: a query, a batch, a transact, and an
asset lock/claim round-trip all succeed between two ``RelayService``\\ s
whose only connection is ``RelayServer``/``TcpRelayEndpoint`` sockets —
no in-process endpoint sharing — with proof verification intact; and the
:class:`DriverConformanceSuite` holds its invariants when a seeded
:class:`ChaosEndpoint` injects faults *client-side* into the socket path
(the chaos wrapper tampers/drops the frames the TCP endpoint carries,
exactly where a malicious network segment would).
"""

from __future__ import annotations

import json
import os
import socket as socket_module

import pytest

from repro.api import QuerySet
from repro.assets.htlc import STATE_CLAIMED, STATE_LOCKED, make_hashlock
from repro.errors import ReproError
from repro.net import RelayServer, TcpRelayEndpoint, encode_frame
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_TRANSACT_REQUEST,
    STATUS_OK,
)
from repro.testing import ChaosEndpoint, DriverConformanceSuite, FaultPlan

SEED = int(os.environ.get("CONFORMANCE_SEEDS", "7").split(",")[0])


@pytest.fixture(scope="module")
def socket_target(fabric_target):
    """The fabric conformance deployment, re-wired onto sockets only.

    Both relays go behind a :class:`RelayServer`; every registry entry
    becomes a :class:`TcpRelayEndpoint`, so the ONLY path between the two
    ``RelayService`` instances is framed envelopes on TCP connections.
    """
    target = fabric_target
    registry = target.registry
    source_server = RelayServer(target.relay, max_workers=4).start()
    destination_relay = target.client.relay
    destination_server = RelayServer(destination_relay, max_workers=4).start()

    original = {}
    for network_id, server in (
        (target.network_id, source_server),
        (target.destination_network_id, destination_server),
    ):
        endpoints = registry.lookup(network_id)
        original[network_id] = endpoints
        for endpoint in endpoints:
            registry.unregister(network_id, endpoint)
        registry.register(network_id, server.endpoint(timeout=10.0))
    try:
        yield target, source_server, destination_server
    finally:
        for network_id, endpoints in original.items():
            for endpoint in list(registry.lookup(network_id)):
                registry.unregister(network_id, endpoint)
            for endpoint in endpoints:
                registry.register(network_id, endpoint)
        source_server.stop()
        destination_server.stop()


class TestSocketOnlyTopology:
    def test_no_in_process_endpoint_sharing(self, socket_target):
        target, _, _ = socket_target
        for network_id in (target.network_id, target.destination_network_id):
            for endpoint in target.registry.lookup(network_id):
                assert isinstance(endpoint, TcpRelayEndpoint), (
                    f"{network_id} still reachable in-process: {endpoint!r}"
                )

    def test_query_over_sockets_with_proof(self, socket_target):
        target, source_server, _ = socket_target
        served_before = source_server.stats.frames_served
        result = target.client.remote_query(
            target.query_address, target.query_args, policy=target.policy
        )
        assert target.expected_query(result.data)
        assert len(result.proof.attestations) >= 2  # AND(org-a, org-b)
        assert source_server.stats.frames_served > served_before

    def test_batch_over_sockets(self, socket_target):
        target, _, _ = socket_target
        batches_before = target.relay.stats.batches_served
        batch = QuerySet(target.client)
        for _ in range(4):
            batch.query(target.query_address).with_args(*target.query_args).with_policy(
                target.policy
            ).submit()
        results = batch.results()
        assert len(results) == 4
        assert all(target.expected_query(result.data) for result in results)
        assert target.relay.stats.batches_served == batches_before + 1

    def test_transact_over_sockets_commits_once(self, socket_target):
        target, _, _ = socket_target
        tag = "SOCKET-TX-1"
        outcome = target.client.remote_query(
            target.transact_address,
            target.transact_args(tag),
            policy=target.policy,
            invocation=INVOCATION_TRANSACTION,
        )
        assert outcome.tx_id
        assert target.commit_count(tag) == 1

    def test_asset_lock_claim_round_trip_over_sockets(self, socket_target):
        target, _, _ = socket_target
        tag = "SOCKET-HTLC-1"
        owner = target.party(target.client)
        counter = target.party(target.counter_client)
        asset_id = target.issue_asset(tag, owner)
        preimage = b"socket-preimage-1"
        hashlock = make_hashlock(preimage)
        deadline = target.clock.now() + 600.0

        lock_ack = target.client.relay.remote_asset(
            MSG_KIND_ASSET_LOCK,
            target.asset_command(
                target.client,
                asset_id,
                recipient=counter,
                hashlock=hashlock,
                timeout=deadline,
            ),
        )
        assert lock_ack.status == STATUS_OK
        assert target.read_lock(asset_id)["state"] == STATE_LOCKED

        # The counterparty verifies the escrow with a PROOF-CARRYING
        # query over the same sockets before claiming.
        fetched = target.counter_client.remote_query(
            f"{target.asset_contract_address}/GetLock",
            [asset_id],
            policy=target.policy,
        )
        assert json.loads(fetched.data)["hashlock"] == hashlock.hex()

        claim_ack = target.counter_client.relay.remote_asset(
            MSG_KIND_ASSET_CLAIM,
            target.asset_command(target.counter_client, asset_id, preimage=preimage),
        )
        assert claim_ack.status == STATUS_OK
        final = target.read_lock(asset_id)
        assert final["state"] == STATE_CLAIMED
        assert final["preimage"] == preimage.hex()


class TestTamperedFramesAreTyped:
    def test_client_side_frame_tamper_is_typed_never_wrong_data(
        self, socket_target
    ):
        """A tamper-everything chaos wrapper sits on the socket endpoint
        with NO redundant path: the query must fail with a typed protocol
        error — wrong data may never verify."""
        target, _, _ = socket_target
        registry = target.registry
        (tcp_endpoint,) = registry.lookup(target.network_id)
        plan = FaultPlan.single("tamper-proof", seed=SEED)
        chaos = ChaosEndpoint(tcp_endpoint, plan)
        registry.unregister(target.network_id, tcp_endpoint)
        registry.register(target.network_id, chaos)
        try:
            with pytest.raises(ReproError):
                target.client.remote_query(
                    target.query_address, target.query_args, policy=target.policy
                )
            assert chaos.injected.get("tamper-proof", 0) >= 1
        finally:
            registry.unregister(target.network_id, chaos)
            registry.register(target.network_id, tcp_endpoint)

    def test_garbage_bytes_on_the_wire_do_not_poison_the_server(
        self, socket_target
    ):
        target, source_server, _ = socket_target
        raw = socket_module.create_connection(
            (source_server.host, source_server.port), timeout=3.0
        )
        raw.sendall(b"\xff" * 64)  # unframeable: server must hang up
        raw.settimeout(3.0)
        assert raw.recv(1024) == b""
        raw.close()
        # A tampered-but-framed garbage envelope is *answered* (error
        # envelope), not served:
        raw = socket_module.create_connection(
            (source_server.host, source_server.port), timeout=3.0
        )
        raw.sendall(encode_frame(b"\x00garbage-envelope"))
        raw.settimeout(3.0)
        assert raw.recv(4096) != b""  # some framed reply came back
        raw.close()
        # ... and the relay still serves verified queries afterwards.
        result = target.client.remote_query(
            target.query_address, target.query_args, policy=target.policy
        )
        assert target.expected_query(result.data)


@pytest.mark.parametrize("plan_kind", ["duplicate", "tamper-payload"])
def test_conformance_plan_over_real_sockets(socket_target, plan_kind):
    """One transport plan and one integrity plan, full verb surface, with
    the chaos endpoint injecting into the client side of the socket."""
    target, _, _ = socket_target
    spec_kwargs = {}
    if plan_kind == "tamper-payload":
        spec_kwargs = {
            "only_kinds": frozenset(
                {MSG_KIND_QUERY_REQUEST, MSG_KIND_TRANSACT_REQUEST}
            )
        }
    plan = FaultPlan.single(plan_kind, SEED, **spec_kwargs)
    report = DriverConformanceSuite(target, seed=SEED, plans=[plan]).run()
    assert len(report.outcomes) == 5  # every gateway verb ran
    assert report.count("served") >= 1

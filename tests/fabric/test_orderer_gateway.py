"""Tests for the solo ordering service and the gateway SDK."""

from __future__ import annotations

import pytest

from repro.errors import EndorsementError, OrderingError
from repro.fabric import Chaincode, NetworkBuilder, SoloOrderer
from repro.fabric.chaincode import require_args


class EchoChaincode(Chaincode):
    name = "echo"

    def invoke(self, stub):
        if stub.function == "init":
            return b"ok"
        if stub.function == "put":
            key, value = require_args(stub, 2)
            stub.put_state(key, value.encode())
            return b"ok"
        if stub.function == "get":
            (key,) = require_args(stub, 1)
            return stub.get_state(key) or b""
        raise Exception("unknown")


def build_network(**kwargs):
    net = (
        NetworkBuilder("order-test")
        .add_org("org1")
        .add_peer("peer0", "org1")
        .add_peer("peer1", "org1")
        .add_client("app", "org1")
        .with_solo_orderer(**kwargs)
        .build()
    )
    app = net.org("org1").member("app")
    net.deploy_chaincode(EchoChaincode(), "'org1.peer'", initializer=app)
    return net, app


class TestSoloOrderer:
    def test_batching_cuts_at_size(self, *, batch=3):
        net, app = build_network(batch_size=batch)
        start_height = net.peers[0].ledger.height
        for index in range(batch - 1):
            net.gateway.submit(app, "echo", "put", [f"k{index}", "v"], wait=False)
        assert net.peers[0].ledger.height == start_height
        net.gateway.submit(app, "echo", "put", ["last", "v"], wait=False)
        assert net.peers[0].ledger.height == start_height + 1
        block = net.peers[0].ledger.block(start_height)
        assert len(block.transactions) == batch

    def test_flush_forces_partial_batch(self):
        net, app = build_network(batch_size=10)
        start_height = net.peers[0].ledger.height
        net.gateway.submit(app, "echo", "put", ["k", "v"], wait=False)
        assert net.peers[0].ledger.height == start_height
        net.orderer.flush()
        assert net.peers[0].ledger.height == start_height + 1

    def test_flush_with_nothing_pending_is_noop(self):
        net, _ = build_network()
        height = net.peers[0].ledger.height
        net.orderer.flush()
        assert net.peers[0].ledger.height == height

    def test_invalid_batch_size(self):
        with pytest.raises(OrderingError):
            SoloOrderer("ch", batch_size=0)


class TestGateway:
    def test_evaluate_does_not_commit(self):
        net, app = build_network()
        height = net.peers[0].ledger.height
        net.gateway.evaluate(app, "echo", "get", ["missing"])
        assert net.peers[0].ledger.height == height

    def test_unknown_chaincode(self):
        net, app = build_network()
        with pytest.raises(EndorsementError, match="no peer has chaincode"):
            net.gateway.evaluate(app, "ghost", "fn", [])

    def test_divergent_endorsements_detected(self):
        """If peers simulate different results, the gateway must refuse."""
        net, app = build_network()

        class NondeterministicCC(Chaincode):
            name = "chaos"

            def __init__(self):
                self.calls = 0

            def invoke(self, stub):
                if stub.function == "init":
                    return b"ok"
                self.calls += 1
                return str(self.calls).encode()  # differs per endorsement

        cc = NondeterministicCC()
        for peer in net.peers:
            peer.install_chaincode(cc)
        from repro.fabric.gateway import Gateway
        from repro.fabric.peer import Proposal

        proposal = Proposal(
            tx_id="chaos-1",
            channel="main",
            chaincode="chaos",
            function="go",
            args=(),
            creator=app.certificate.to_bytes(),
        )
        responses = [peer.endorse(proposal) for peer in net.peers[:2]]
        assert responses[0].result != responses[1].result
        with pytest.raises(EndorsementError, match="mismatch|divergent"):
            Gateway._check_consistency(responses)

    def test_submit_reports_block_number(self):
        net, app = build_network()
        result = net.gateway.submit(app, "echo", "put", ["k", "v"])
        block = net.peers[0].ledger.block(result.block_number)
        assert any(tx.tx_id == result.tx_id for tx in block.transactions)

"""AsyncGateway: the async-native entry point over the session machinery.

The async surface must be a *view* of the sync protocol, not a second
implementation: every awaited call goes through the same prepared-query /
finalize halves, so these tests assert full proof verification on the
results and protocol-typed failures on the error paths — including with
the relay living on a real socket, the deployment the async shape exists
for.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import AsyncGateway, InteropGateway
from repro.errors import ProofError, RelayError, ReproError
from repro.interop.transactions import enable_remote_transactions
from repro.net import RelayServer

BL_ADDRESS = "stl/trade-logistics/TradeLensCC/GetBillOfLading"
CREATE_ADDR = "stl/trade-logistics/TradeLensCC/CreateShipment"
POLICY = "AND(org:seller-org, org:carrier-org)"


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


@pytest.fixture()
def async_gateway(shipped_scenario):
    scenario, po_ref = shipped_scenario
    gateway = InteropGateway.from_client(scenario.swt_seller_client.interop_client)
    return AsyncGateway(gateway), scenario, po_ref


class TestAQuery:
    def test_single_query_verifies_proof(self, async_gateway):
        agw, _, po_ref = async_gateway

        result = run(agw.aquery(BL_ADDRESS, [po_ref], policy=POLICY))
        assert b"BL-" in result.data
        assert len(result.proof.attestations) >= 2

    def test_concurrent_queries_overlap_on_one_loop(self, async_gateway):
        agw, _, po_ref = async_gateway

        async def scenario():
            return await asyncio.gather(
                *[agw.aquery(BL_ADDRESS, [po_ref], policy=POLICY) for _ in range(4)]
            )

        results = run(scenario())
        assert len(results) == 4
        assert all(b"BL-" in result.data for result in results)

    def test_failure_stays_typed(self, async_gateway):
        agw, _, po_ref = async_gateway
        with pytest.raises(RelayError):
            run(agw.aquery("stl/trade-logistics/NoSuchCC/Get", [po_ref],
                           policy=POLICY))

    def test_tampered_reply_raises_proof_error(self, async_gateway):
        agw, scenario, po_ref = async_gateway
        from repro.testing import ChaosEndpoint, FaultPlan

        registry = scenario.discovery
        (endpoint,) = registry.lookup("stl")
        chaos = ChaosEndpoint(endpoint, FaultPlan.single("tamper-proof", seed=11))
        registry.unregister("stl", endpoint)
        registry.register("stl", chaos)
        try:
            with pytest.raises(ReproError) as excinfo:
                run(agw.aquery(BL_ADDRESS, [po_ref], policy=POLICY))
            assert isinstance(excinfo.value, (ProofError, ReproError))
        finally:
            registry.unregister("stl", chaos)
            registry.register("stl", endpoint)


class TestAGather:
    def test_batch_travels_as_one_envelope(self, async_gateway):
        agw, scenario, po_ref = async_gateway
        batches_before = scenario.stl_relay.stats.batches_served

        results = run(agw.agather([(BL_ADDRESS, [po_ref])] * 5, policy=POLICY))
        assert len(results) == 5
        assert all(b"BL-" in result.data for result in results)
        assert scenario.stl_relay.stats.batches_served == batches_before + 1


class TestATransact:
    def test_transact_attests_commit(self, shipped_scenario):
        scenario, _ = shipped_scenario
        invoker = scenario.stl.org("seller-org").enroll(
            "interop-invoker", role="client"
        )
        enable_remote_transactions(scenario.stl, scenario.stl_relay, invoker)
        stl_admin = scenario.stl.org("seller-org").member("admin")
        scenario.stl.gateway.submit(
            stl_admin,
            "ecc",
            "AddAccessRule",
            ["swt", "seller-bank-org", "TradeLensCC", "CreateShipment"],
        )
        agw = AsyncGateway(
            InteropGateway.from_client(scenario.swt_seller_client.interop_client)
        )
        outcome = run(
            agw.atransact(CREATE_ADDR, ["PO-ASYNC-1", "async goods"], policy=POLICY)
        )
        assert outcome.tx_id
        block = scenario.stl.peers[0].ledger.block(outcome.block_number)
        assert any(tx.tx_id == outcome.tx_id for tx in block.transactions)


class TestOverSockets:
    def test_async_queries_over_a_real_relay_server(self, async_gateway):
        """The shape the async surface exists for: an asyncio app talking
        to a relay that lives on a socket."""
        agw, scenario, po_ref = async_gateway
        registry = scenario.discovery
        original = registry.lookup("stl")
        with RelayServer(scenario.stl_relay, max_workers=4) as server:
            for endpoint in original:
                registry.unregister("stl", endpoint)
            registry.register("stl", server.endpoint(timeout=10.0))
            try:
                async def scenario_coro():
                    single = await agw.aquery(BL_ADDRESS, [po_ref], policy=POLICY)
                    batch = await agw.agather(
                        [(BL_ADDRESS, [po_ref])] * 3, policy=POLICY
                    )
                    return single, batch

                single, batch = run(scenario_coro())
                assert b"BL-" in single.data
                assert len(batch) == 3
                assert server.stats.frames_served >= 2
            finally:
                for endpoint in list(registry.lookup("stl")):
                    registry.unregister("stl", endpoint)
                for endpoint in original:
                    registry.register("stl", endpoint)

"""Exchanges side by side, and rings of every size, settle atomically.

- N two-party exchanges on N threads, through relays each fronted by a
  :class:`SerializingInterceptor` (the in-process ledgers are not
  thread-safe), all complete, and each crosses the relays exactly as a
  lone exchange does: two Fabric asset commands and three Quorum ones.
- An N-party ring over N Quorum networks, each leg attested under its own
  two-org policy, moves every asset exactly one hop downstream.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.api import InteropGateway, SerializingInterceptor
from repro.assets import QuorumAssetContract
from repro.interop import InMemoryRegistry, InteropClient, RelayService
from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.quorum_driver import QuorumDriver
from repro.quorum import QuorumNetwork
from repro.utils.clock import SimulatedClock

OFFER_ADDRESS = "fabnet/trade/assetscc"
ASK_ADDRESS = "quornet/state/asset-vault"
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"
EXCHANGES = 4


def test_concurrent_exchanges_all_complete(exchange_scenario):
    scenario = exchange_scenario
    scenario.fabric_relay.use(SerializingInterceptor())
    scenario.quorum_relay.use(SerializingInterceptor())
    issuer = scenario.quorum.enroll_client("issuer", "op-org-1")
    for index in range(EXCHANGES):
        scenario.fabric.gateway.submit(
            scenario.fabric_admin, "assetscc", "Issue", [f"GOLD-C{index}", "alice@fabnet", "{}"]
        )
        scenario.quorum.submit_transaction(
            issuer, "asset-vault", "Issue", [f"OIL-C{index}", "bob@quornet", "{}"]
        )
    gateway = InteropGateway.from_client(scenario.alice_client)

    def run(index: int) -> bool:
        exchange = (
            gateway.exchange()
            .offer(OFFER_ADDRESS, f"GOLD-C{index}")
            .ask(ASK_ADDRESS, f"OIL-C{index}")
            .with_counterparty(scenario.bob_client)
            .with_timeouts(offer=600.0, counter=300.0)
            .with_policies(offer=OFFER_POLICY, ask=ASK_POLICY)
            .build()
        )
        return exchange.run().completed

    with ThreadPoolExecutor(max_workers=EXCHANGES) as executor:
        completed = list(executor.map(run, range(EXCHANGES)))

    assert completed == [True] * EXCHANGES
    assert scenario.fabric_relay.stats.asset_commands_served == 2 * EXCHANGES
    assert scenario.quorum_relay.stats.asset_commands_served == 3 * EXCHANGES
    for index in range(EXCHANGES):
        raw = scenario.quorum.peers[0].storage_snapshot("asset-vault")[f"asset/OIL-C{index}"]
        assert json.loads(raw.decode())["owner"] == "alice@fabnet"


def quorum_ring(size: int) -> list[SimpleNamespace]:
    """``size`` Quorum networks, one asset ``CY-i`` owned by ``party<i>``
    on each, every vault admitting its downstream neighbour."""
    clock = SimulatedClock(1_000.0)
    registry = InMemoryRegistry()
    nodes = []
    for index in range(size):
        name = f"ring{index}"
        network = QuorumNetwork(name, clock=clock)
        network.deploy_contract(QuorumAssetContract())
        network.add_peer("peerA", f"org-a-{index}")
        network.add_peer("peerB", f"org-b-{index}")
        party = network.enroll_client(f"party{index}", f"org-a-{index}")
        invoker = network.enroll_client("asset-invoker", f"org-a-{index}")
        network.submit_transaction(
            invoker, "asset-vault", "Issue", [f"CY-{index}", f"party{index}@{name}", "{}"]
        )
        port = InteropPort(name)
        relay = RelayService(name, registry, clock=clock)
        driver = QuorumDriver(network, port)
        driver.enable_assets(invoker)
        relay.register_driver(driver)
        registry.register(name, relay)
        nodes.append(
            SimpleNamespace(
                name=name,
                network=network,
                port=port,
                org=f"org-a-{index}",
                policy=f"AND(org:org-a-{index}, org:org-b-{index})",
                client=InteropClient(party, relay, name),
            )
        )
    for index, node in enumerate(nodes):
        downstream = nodes[(index + 1) % size]
        node.port.record_network_config(downstream.network.export_config())
        for function in ("ClaimAsset", "GetLock"):
            node.port.add_access_rule(downstream.name, downstream.org, "asset-vault", function)
    return nodes


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_a_ring_of_any_size_moves_every_asset_one_hop(size):
    nodes = quorum_ring(size)
    builder = InteropGateway.from_client(nodes[0].client).exchange_cycle()
    for index, node in enumerate(nodes):
        builder.leg(
            f"{node.name}/state/asset-vault",
            f"CY-{index}",
            party=None if index == 0 else node.client,
            policy=node.policy,
        )
    builder.with_window(timeout=7_200.0, hop_gap=120.0)

    assert builder.run().completed
    for index, node in enumerate(nodes):
        downstream = nodes[(index + 1) % size]
        raw = node.network.peers[0].storage_snapshot("asset-vault")[f"asset/CY-{index}"]
        assert json.loads(raw.decode())["owner"] == f"party{(index + 1) % size}@{downstream.name}"

"""Conformance targets: one per platform (Fabric, Quorum, Corda, pubchain).

Each target is a self-contained deployment — a source network fronted by
its relay, plus a bare destination organization whose clients reach it
through a private discovery registry — wired exactly as the paper's §3.3
initialization prescribes (mutually recorded configurations, exposure
rules for every verb the platform supports).

Capability matrix the targets realize (every cell either conforms or
fails closed with a typed ``UnsupportedCapabilityError`` — no skips):

============  =====  =====  ===========  ===========  ======
platform      query  batch  transact     subscribe    assets
============  =====  =====  ===========  ===========  ======
fabric        yes    yes    yes          yes          yes
quorum        yes    yes    fail-closed  fail-closed  yes
corda         yes    yes    yes          yes          yes
pubchain      yes    yes    fail-closed  fail-closed  yes
============  =====  =====  ===========  ===========  ======

The pubchain target's served verbs are additionally gated by its
:class:`~repro.pubchain.FinalityPolicy`: the default build pre-bakes
``auto_confirm`` deep enough that the happy path settles instantly, and
``build_pubchain_target(auto_confirm=0)`` hands finality tests a chain
whose confirmations only accrue under explicit ``mine()`` calls (the
chain object rides on ``target.substrate``).

Seeds come from ``CONFORMANCE_SEEDS`` (comma-separated integers; default
a single fixed seed so the tier-1 run stays fast — CI's conformance job
widens it to three).
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.api.streams import EventVerifier
from repro.assets.contracts import (
    FabricAssetChaincode,
    QuorumAssetContract,
    issue_corda_asset,
)
from repro.assets.htlc import STATE_AVAILABLE
from repro.corda import CordaNetwork, LinearState
from repro.fabric import NetworkBuilder
from repro.fabric.chaincode import Chaincode, require_args
from repro.fabric.identity import Organization
from repro.interop.bootstrap import (
    create_fabric_relay,
    enable_fabric_interop,
)
from repro.interop.client import InteropClient
from repro.interop.contracts.ecc import ECC_NAME
from repro.interop.contracts.ports import InteropPort
from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.corda_driver import CordaDriver
from repro.interop.drivers.fabric_driver import INTEROP_TRANSIENT_KEY
from repro.interop.drivers.quorum_driver import QuorumDriver
from repro.interop.events import enable_relay_events
from repro.interop.relay import RelayService
from repro.interop.transactions import enable_remote_transactions
from repro.proto.messages import NetworkConfigMsg, OrganizationConfigMsg
from repro.pubchain import (
    VERB_ASSETS,
    VERB_QUERY,
    FinalityPolicy,
    PubChainDriver,
    SimulatedPublicChain,
)
from repro.quorum import DocumentRegistryContract, QuorumNetwork
from repro.quorum.contracts import CallContext
from repro.testing import ConformanceTarget
from repro.utils.clock import SimulatedClock


def conformance_seeds() -> list[int]:
    raw = os.environ.get("CONFORMANCE_SEEDS", "7")
    return [int(part) for part in raw.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# Destination side (platform-neutral): a bare org + relay, as in §3.3 the
# requesting network only needs an identity configuration the source can
# record and validate certificates against.
# ---------------------------------------------------------------------------


def make_destination(network_id: str = "destnet") -> SimpleNamespace:
    org = Organization("dest-org", network=network_id)
    app = org.enroll("app", role="client")
    counter = org.enroll("counter", role="client")
    registry = InMemoryRegistry()
    relay = RelayService(network_id, registry)
    registry.register(network_id, relay)
    config = NetworkConfigMsg(
        network_id=network_id,
        platform="fabric",
        organizations=[
            OrganizationConfigMsg(
                org_id="dest-org",
                msp_id="dest-orgMSP",
                root_certificate=org.msp.root_certificate.to_bytes(),
            )
        ],
    )
    return SimpleNamespace(
        network_id=network_id,
        org=org,
        registry=registry,
        relay=relay,
        config=config,
        client=InteropClient(app, relay, network_id),
        counter_client=InteropClient(counter, relay, network_id),
    )


# ---------------------------------------------------------------------------
# Fabric target
# ---------------------------------------------------------------------------


class ConformanceChaincode(Chaincode):
    """Minimal record store: one transact verb, one query, one event.

    ``Put(key, value)`` commits a record (refusing duplicates, so a
    double-executed transaction is *visible*) and emits the ``Stored``
    event; ``Get(key)`` reads it back. The dispatch-wide interop block is
    the same ~35 SLOC adaptation as the paper's §4.3 chaincode change.
    """

    name = "confcc"

    def invoke(self, stub):
        function = stub.function
        if function == "init":
            return b"ok"
        handler = {"Put": self._put, "Get": self._get}.get(function)
        if handler is None:
            from repro.errors import ChaincodeError

            raise ChaincodeError(f"{self.name} has no function {function!r}")
        interop_raw = stub.get_transient(INTEROP_TRANSIENT_KEY)
        if interop_raw is not None:
            interop_ctx = json.loads(interop_raw)
            stub.invoke_chaincode(
                ECC_NAME,
                "CheckAccess",
                [
                    interop_ctx["requesting_network"],
                    interop_ctx["requesting_org"],
                    self.name,
                    function,
                ],
            )
            result = handler(stub)
            return stub.invoke_chaincode(
                ECC_NAME,
                "SealResponse",
                [
                    result.hex(),
                    interop_ctx["client_pubkey"],
                    "true" if interop_ctx["confidential"] else "false",
                ],
            )
        return handler(stub)

    def _put(self, stub) -> bytes:
        key, value = require_args(stub, 2)
        from repro.errors import ChaincodeError

        if stub.get_state("record/" + key) is not None:
            raise ChaincodeError(f"record {key!r} already exists")
        record = json.dumps(
            {"key": key, "value": value, "committed_at": stub.timestamp},
            sort_keys=True,
        ).encode("utf-8")
        stub.put_state("record/" + key, record)
        stub.set_event("Stored", key.encode("utf-8"))
        return record

    def _get(self, stub) -> bytes:
        (key,) = require_args(stub, 1)
        raw = stub.get_state("record/" + key)
        if raw is None:
            from repro.errors import ChaincodeError

            raise ChaincodeError(f"no record {key!r}")
        return raw


FABRIC_POLICY = "AND(org:conf-org-a, org:conf-org-b)"


def build_fabric_target() -> ConformanceTarget:
    clock = SimulatedClock(5_000.0)
    destination = make_destination()
    fabric = (
        NetworkBuilder("fabnetc", channel="trade", clock=clock)
        .add_org("conf-org-a")
        .add_org("conf-org-b")
        .add_peer("peer0", "conf-org-a")
        .add_peer("peer0", "conf-org-b")
        .add_client("admin", "conf-org-a")
        .build()
    )
    admin = fabric.org("conf-org-a").member("admin")
    enable_fabric_interop(fabric, admin)
    endorsement = "AND('conf-org-a.peer', 'conf-org-b.peer')"
    fabric.deploy_chaincode(ConformanceChaincode(), endorsement, initializer=admin)
    fabric.deploy_chaincode(FabricAssetChaincode(), endorsement, initializer=admin)

    # §3.3 initialization: record the requesting network's configuration
    # so certificate chains from destnet validate on this ledger.
    fabric.gateway.submit(
        admin,
        "cmdac",
        "RecordNetworkConfig",
        [destination.network_id, destination.config.encode().hex()],
    )
    # Exposure rules: one per remotely-used verb object (a governance
    # decision per §5 — "only requires the addition of a policy rule").
    for rule_object in (
        ("confcc", "Get"),
        ("confcc", "Put"),
        ("confcc", "event:Stored"),
        ("assetscc", "LockAsset"),
        ("assetscc", "ClaimAsset"),
        ("assetscc", "UnlockAsset"),
        ("assetscc", "GetLock"),
    ):
        fabric.gateway.submit(
            admin,
            "ecc",
            "AddAccessRule",
            [destination.network_id, "dest-org", rule_object[0], rule_object[1]],
        )

    relay = create_fabric_relay(fabric, destination.registry)
    invoker = fabric.org("conf-org-a").enroll("interop-invoker", role="client")
    enable_remote_transactions(fabric, relay, invoker)
    enable_relay_events(fabric, relay)
    asset_invoker = fabric.org("conf-org-a").enroll("asset-invoker", role="client")
    relay.driver_for("fabnetc").enable_assets(asset_invoker)

    def commit_count(tag: str) -> int:
        count = 0
        for block in fabric.peers[0].ledger.blocks():
            for tx in block.transactions:
                if (
                    tx.chaincode == "confcc"
                    and tx.function == "Put"
                    and tx.args
                    and tx.args[0] == tag
                ):
                    count += 1
        return count

    def trigger_event(tag: str) -> bytes:
        fabric.gateway.submit(admin, "confcc", "Put", [tag, "event-payload"])
        return tag.encode("utf-8")

    def issue_asset(tag: str, owner_party: str) -> str:
        asset_id = f"ASSET-{tag}"
        fabric.gateway.submit(
            admin, "assetscc", "Issue", [asset_id, owner_party, "{}"]
        )
        return asset_id

    def read_lock(asset_id: str) -> dict:
        raw = fabric.gateway.evaluate(admin, "assetscc", "GetLock", [asset_id])
        return json.loads(raw)

    seed_key = "SEED"
    fabric.gateway.submit(admin, "confcc", "Put", [seed_key, "genesis"])

    return ConformanceTarget(
        platform="fabric",
        network_id="fabnetc",
        client=destination.client,
        registry=destination.registry,
        relay=relay,
        policy=FABRIC_POLICY,
        query_address="fabnetc/trade/confcc/Get",
        query_args=[seed_key],
        expected_query=lambda data: json.loads(data)["value"] == "genesis",
        clock=clock,
        transact_address="fabnetc/trade/confcc/Put",
        transact_args=lambda tag: [tag, f"value-of-{tag}"],
        commit_count=commit_count,
        event_address="fabnetc/trade/confcc",
        event_name="Stored",
        trigger_event=trigger_event,
        event_verifier=lambda: EventVerifier(
            address="fabnetc/trade/confcc/Get",
            args=lambda notification: [notification.payload.decode("utf-8")],
            policy=FABRIC_POLICY,
        ),
        asset_contract_address="fabnetc/trade/assetscc",
        issue_asset=issue_asset,
        read_lock=read_lock,
        counter_client=destination.counter_client,
    )


# ---------------------------------------------------------------------------
# Quorum target
# ---------------------------------------------------------------------------

QUORUM_POLICY = "AND(org:op-org-1, org:op-org-2)"


def build_quorum_target() -> ConformanceTarget:
    clock = SimulatedClock(5_000.0)
    destination = make_destination()
    quorum = QuorumNetwork("quornetc", clock=clock)
    quorum.deploy_contract(DocumentRegistryContract())
    quorum.deploy_contract(QuorumAssetContract())
    quorum.add_peer("peer1", "op-org-1")
    quorum.add_peer("peer2", "op-org-2")
    admin = quorum.enroll_client("admin", "op-org-1")
    invoker = quorum.enroll_client("asset-invoker", "op-org-1")
    quorum.submit_transaction(
        admin, "document-registry", "RegisterDocument", ["SEED", '{"value": "genesis"}']
    )

    port = InteropPort("quornetc")
    port.record_network_config(destination.config)
    for contract, function in (
        ("document-registry", "GetDocument"),
        ("asset-vault", "LockAsset"),
        ("asset-vault", "ClaimAsset"),
        ("asset-vault", "UnlockAsset"),
        ("asset-vault", "GetLock"),
    ):
        port.add_access_rule(destination.network_id, "dest-org", contract, function)

    relay = RelayService("quornetc", destination.registry, clock=clock)
    driver = QuorumDriver(quorum, port)
    driver.enable_assets(invoker)
    relay.register_driver(driver)
    destination.registry.register("quornetc", relay)

    def issue_asset(tag: str, owner_party: str) -> str:
        asset_id = f"ASSET-{tag}"
        quorum.submit_transaction(
            invoker, "asset-vault", "Issue", [asset_id, owner_party, "{}"]
        )
        return asset_id

    def read_lock(asset_id: str) -> dict:
        ctx = CallContext(
            sender=invoker.id, sender_org=invoker.org, timestamp=clock.now()
        )
        raw = quorum.peers[0].view("asset-vault", "GetLock", [asset_id], ctx)
        return json.loads(raw)

    return ConformanceTarget(
        platform="quorum",
        network_id="quornetc",
        client=destination.client,
        registry=destination.registry,
        relay=relay,
        policy=QUORUM_POLICY,
        query_address="quornetc/state/document-registry/GetDocument",
        query_args=["SEED"],
        expected_query=lambda data: json.loads(data)["value"] == "genesis",
        clock=clock,
        asset_contract_address="quornetc/state/asset-vault",
        issue_asset=issue_asset,
        read_lock=read_lock,
        counter_client=destination.counter_client,
    )


# ---------------------------------------------------------------------------
# Corda target
# ---------------------------------------------------------------------------

CORDA_POLICY = "AND(org:nodeA, org:nodeB)"


def build_corda_target() -> ConformanceTarget:
    clock = SimulatedClock(5_000.0)
    destination = make_destination()
    network = CordaNetwork("cordanetc", clock=clock)
    node_a = network.add_node("nodeA")
    network.add_node("nodeB")
    node_a.propose(
        [],
        [
            LinearState(
                linear_id="SEED",
                kind="conformance",
                data={"value": "genesis"},
                participants=("nodeA", "nodeB"),
            )
        ],
        "Record",
    )

    port = InteropPort("cordanetc")
    port.record_network_config(destination.config)
    for function in ("GetState", "RecordState", "event:Record"):
        port.add_access_rule(destination.network_id, "dest-org", "vault", function)
    for function in ("LockAsset", "ClaimAsset", "UnlockAsset", "GetLock"):
        port.add_access_rule(
            destination.network_id, "dest-org", "asset-vault", function
        )

    relay = RelayService("cordanetc", destination.registry, clock=clock)
    driver = CordaDriver(network, port)
    driver.enable_transactions("nodeA")
    driver.enable_events()
    driver.enable_assets("nodeA")
    relay.register_driver(driver)
    destination.registry.register("cordanetc", relay)

    def issue_asset(tag: str, owner_party: str) -> str:
        asset_id = f"ASSET-{tag}"
        issue_corda_asset(network, node_a, asset_id, owner_party)
        return asset_id

    def read_lock(asset_id: str) -> dict:
        _ref, state = node_a.lookup(asset_id)
        lock = state.data.get("lock")
        if lock is None:
            # Synthesize the *available* record exactly as the port's
            # GetLock view does for an unlocked asset.
            asset = state.data["asset"]
            lock = {
                "asset_id": asset_id,
                "owner": asset["owner"],
                "recipient": "",
                "hashlock": "",
                "timeout": 0.0,
                "state": STATE_AVAILABLE,
                "preimage": "",
                "created_at": 0.0,
            }
        return lock

    def commit_count(tag: str) -> int:
        return sum(
            1
            for transaction in network.transactions.values()
            for output in transaction.outputs
            if output.linear_id == tag
        )

    def trigger_event(tag: str) -> bytes:
        node_a.propose(
            [],
            [
                LinearState(
                    linear_id=tag,
                    kind="conformance",
                    data={"via": "event"},
                    participants=("nodeA", "nodeB"),
                )
            ],
            "Record",
        )
        return tag.encode("utf-8")

    return ConformanceTarget(
        platform="corda",
        network_id="cordanetc",
        client=destination.client,
        registry=destination.registry,
        relay=relay,
        policy=CORDA_POLICY,
        query_address="cordanetc/vault/vault/GetState",
        query_args=["SEED"],
        expected_query=lambda data: json.loads(data)["data"]["value"] == "genesis",
        clock=clock,
        transact_address="cordanetc/vault/vault/RecordState",
        transact_args=lambda tag: [tag, "conformance", json.dumps({"tag": tag})],
        commit_count=commit_count,
        event_address="cordanetc/vault/vault",
        event_name="Record",
        trigger_event=trigger_event,
        event_verifier=lambda: EventVerifier(
            address="cordanetc/vault/vault/GetState",
            args=lambda notification: [notification.payload.decode("utf-8")],
            policy=CORDA_POLICY,
        ),
        asset_contract_address="cordanetc/vault/asset-vault",
        issue_asset=issue_asset,
        read_lock=read_lock,
        counter_client=destination.counter_client,
    )


# ---------------------------------------------------------------------------
# Public-chain target
# ---------------------------------------------------------------------------

PUBCHAIN_POLICY = "AND(org:pub-org-1, org:pub-org-2)"


def build_pubchain_target(
    auto_confirm: int = 2,
    finality: FinalityPolicy | None = None,
    fork_rate: float = 0.0,
    seed: int = 11,
) -> ConformanceTarget:
    """The fourth driver column: probabilistic finality behind the relay.

    The default build mines ``auto_confirm`` empty confirmation blocks
    after every transaction, deep enough for the default policy (K=2 for
    queries, K=3 for asset verbs) that the conformance scenarios settle
    instantly. Finality tests pass ``auto_confirm=0`` and drive
    ``target.substrate.mine()`` / ``force_reorg()`` by hand.
    """
    clock = SimulatedClock(5_000.0)
    destination = make_destination()
    chain = SimulatedPublicChain(
        "pubnetc",
        clock=clock,
        seed=seed,
        fork_rate=fork_rate,
        auto_confirm=auto_confirm,
    )
    chain.add_observer("obs1", "pub-org-1")
    chain.add_observer("obs2", "pub-org-2")
    admin = chain.enroll_client("admin", "pub-org-1")
    invoker = chain.enroll_client("asset-invoker", "pub-org-1")
    chain.deploy_contract(DocumentRegistryContract())
    chain.deploy_contract(QuorumAssetContract())
    finality = finality or FinalityPolicy(
        confirmations=2, per_verb={VERB_ASSETS: 3}
    )
    chain.submit_transaction(
        admin, "document-registry", "RegisterDocument", ["SEED", '{"value": "genesis"}']
    )
    # Settle the genesis record regardless of auto_confirm so the clean
    # baseline query is final from the first block.
    chain.mine(max(finality.required(VERB_QUERY), finality.required(VERB_ASSETS)))

    port = InteropPort("pubnetc")
    port.record_network_config(destination.config)
    for contract, function in (
        ("document-registry", "GetDocument"),
        ("asset-vault", "LockAsset"),
        ("asset-vault", "ClaimAsset"),
        ("asset-vault", "UnlockAsset"),
        ("asset-vault", "GetLock"),
    ):
        port.add_access_rule(destination.network_id, "dest-org", contract, function)

    relay = RelayService("pubnetc", destination.registry, clock=clock)
    driver = PubChainDriver(chain, port, finality)
    driver.enable_assets(invoker)
    relay.register_driver(driver)
    destination.registry.register("pubnetc", relay)

    def issue_asset(tag: str, owner_party: str) -> str:
        asset_id = f"ASSET-{tag}"
        chain.submit_transaction(
            invoker, "asset-vault", "Issue", [asset_id, owner_party, "{}"]
        )
        return asset_id

    def read_lock(asset_id: str) -> dict:
        raw, _read_keys = chain.view(invoker, "asset-vault", "GetLock", [asset_id])
        return json.loads(raw)

    return ConformanceTarget(
        platform="pubchain",
        network_id="pubnetc",
        client=destination.client,
        registry=destination.registry,
        relay=relay,
        policy=PUBCHAIN_POLICY,
        query_address="pubnetc/chain/document-registry/GetDocument",
        query_args=["SEED"],
        expected_query=lambda data: json.loads(data)["value"] == "genesis",
        clock=clock,
        asset_contract_address="pubnetc/chain/asset-vault",
        issue_asset=issue_asset,
        read_lock=read_lock,
        counter_client=destination.counter_client,
        substrate=chain,
    )


_BUILDERS = {
    "fabric": build_fabric_target,
    "quorum": build_quorum_target,
    "corda": build_corda_target,
    "pubchain": build_pubchain_target,
}


@pytest.fixture(scope="module")
def fabric_target():
    return build_fabric_target()


@pytest.fixture(scope="module")
def quorum_target():
    return build_quorum_target()


@pytest.fixture(scope="module")
def corda_target():
    return build_corda_target()


@pytest.fixture(scope="module")
def pubchain_target():
    return build_pubchain_target()


@pytest.fixture(scope="module")
def conformance_target(request):
    """Indirect platform fixture: parameterize with the platform name."""
    return _BUILDERS[request.param]()

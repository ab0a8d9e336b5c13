"""The four workloads: deployments, per-op inputs, and output checks.

Each workload is a class with the same five-method shape the runner
drives as a closed loop with one caller::

    deployment = Workload(seed)        # deployment + fixtures (part of setup_s)
    inputs = deployment.prepare(i)     # untimed per-op preparation
    output = deployment.run(inputs)    # the ONE timed call
    deployment.check(inputs, output)   # untimed; raises CheckFailed
    deployment.close()

Why these four (one line each; the long form is in README.md):

- ``bl_query``: the paper's §4.3 request — small payload, EC-dominated.
- ``bulk_query_16k``: same verb, 16 KiB payload — keystream-dominated, so
  an EC change should barely move it and an AEAD/codec change should.
- ``transact_durable``: the write path — order, commit, durable record.
- ``swap_2party``: the only path through ``repro.assets`` and Quorum.

The seed decides PO references, document keys and payload bytes; the
program under test only ever sees those generated inputs.
"""

from __future__ import annotations

import json
import random
import shutil
import string
import tempfile
from pathlib import Path

from repro.api import InteropGateway
from repro.apps import build_trade_scenario
from repro.apps.stl.chaincode import (
    STL_CARRIER_ORG,
    STL_CHAINCODE_NAME,
    STL_NETWORK_ID,
    STL_SELLER_ORG,
)
from repro.assets import FabricAssetChaincode, QuorumAssetContract
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
from repro.interop.bootstrap import record_foreign_network
from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.quorum_driver import QuorumDriver
from repro.interop.transactions import enable_remote_transactions
from repro.net import RelayServer
from repro.quorum import QuorumNetwork

#: Run-time scratch (durable relay state, span dumps); git-ignored.
OUT_DIR = Path(__file__).resolve().parent / ".out"

_ALPHABET = string.ascii_letters + string.digits


class CheckFailed(Exception):
    """An operation returned, but its output is not what was stored."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _text(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(_ALPHABET, k=length))


class WireTally:
    """Bytes and round trips seen on the destination relay's dial side."""

    def __init__(self) -> None:
        self.round_trips = 0
        self.bytes = 0


class CountingEndpoint:
    """A relay endpoint that counts what crosses it, then forwards.

    Registered in discovery *in place of* the real endpoint, so it sees
    exactly the serialized envelopes the dialing relay sends and the
    replies it gets back — the same bytes a socket would carry, minus the
    4-byte frame prefix.
    """

    def __init__(self, inner, tally: WireTally) -> None:
        self._inner = inner
        self._tally = tally

    def handle_request(self, data: bytes) -> bytes:
        reply = self._inner.handle_request(data)
        self._tally.round_trips += 1
        self._tally.bytes += len(data) + len(reply)
        return reply


def _serve_over_tcp(registry: InMemoryRegistry, network_id: str, relay, tally: WireTally):
    """Put ``relay`` behind a loopback RelayServer; discovery dials it.

    One serve worker and one pooled connection: the single caller blocks
    on each reply, so nothing else would ever be in flight. Returns the
    function that tears both down.
    """
    server = RelayServer(relay, max_workers=1).start()
    endpoint = server.endpoint(timeout=60.0, max_pool_size=1)
    for stale in registry.lookup(network_id):
        registry.unregister(network_id, stale)
    registry.register(network_id, CountingEndpoint(endpoint, tally))

    def close() -> None:
        endpoint.close()
        server.stop()

    return close


# -- bl_query ---------------------------------------------------------------------


class BlQuery:
    """§4.3: SWT's seller client fetches a bill of lading from STL."""

    name = "bl_query"
    #: B/Ls issued up front; the loop cycles through them.
    DOCUMENTS = 2

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.tally = WireTally()
        scenario = build_trade_scenario()
        self._client = scenario.swt_seller_client
        self._expected: dict[str, bytes] = {}
        admin = scenario.stl.org(STL_SELLER_ORG).member("admin")
        for _ in range(self.DOCUMENTS):
            po_ref = f"PO-{_text(rng, 10)}"
            scenario.stl_seller_app.create_shipment(po_ref, _text(rng, 40))
            scenario.carrier_app.accept_shipment(po_ref)
            scenario.carrier_app.record_handover(po_ref)
            scenario.carrier_app.issue_bill_of_lading(po_ref, vessel=f"MV {_text(rng, 8)}")
            self._expected[po_ref] = scenario.stl.gateway.evaluate(
                admin, STL_CHAINCODE_NAME, "GetBillOfLading", [po_ref]
            )
        self._po_refs = list(self._expected)
        self.close = _serve_over_tcp(
            scenario.discovery, STL_NETWORK_ID, scenario.stl_relay, self.tally
        )

    def prepare(self, index: int) -> str:
        return self._po_refs[index % len(self._po_refs)]

    def run(self, po_ref: str):
        return self._client.fetch_bill_of_lading(po_ref, confidential=True)

    def check(self, po_ref: str, result) -> None:
        _require(result.data == self._expected[po_ref], "B/L bytes differ from the ledger's")
        orgs = {attestation.metadata().org for attestation in result.proof.attestations}
        _require(
            orgs >= {STL_SELLER_ORG, STL_CARRIER_ORG},
            f"proof attested by {sorted(orgs)}, need both STL orgs",
        )


# -- the quickstart-style two-org source ------------------------------------------


class DocumentChaincode(Chaincode):
    """Store and fetch documents (the quickstart's source-side contract)."""

    name = "docs"

    def invoke(self, stub):
        if stub.function == "init":
            return b"ok"
        if stub.function == "Put":
            key, value = require_args(stub, 2)
            stub.put_state(key, value.encode())
            return b"ok"
        if stub.function == "Get":
            (key,) = require_args(stub, 1)
            value = stub.get_state(key)
            if value is None:
                raise ValueError(f"no document {key!r}")
            interop_raw = stub.get_transient("interop")
            if interop_raw is None:
                return value
            ctx = json.loads(interop_raw)
            stub.invoke_chaincode(
                "ecc",
                "CheckAccess",
                [ctx["requesting_network"], ctx["requesting_org"], self.name, "Get"],
            )
            return stub.invoke_chaincode(
                "ecc",
                "SealResponse",
                [value.hex(), ctx["client_pubkey"], "true" if ctx["confidential"] else "false"],
            )
        raise ValueError(f"unknown function {stub.function}")


SOURCE_ORGS = ("producer-org", "auditor-org")
DOCS_GET = "source-net/main/docs/Get"
DOCS_PUT = "source-net/main/docs/Put"


class _DocumentSource:
    """source-net (two orgs, ``docs`` chaincode) linked to dest-net."""

    def __init__(self, state_dir: Path | None = None) -> None:
        source = NetworkBuilder("source-net")
        for org in SOURCE_ORGS:
            source = source.add_org(org).add_peer("peer0", org)
        self.source = source.add_client("admin", SOURCE_ORGS[0]).build()
        destination = (
            NetworkBuilder("dest-net")
            .add_org("consumer-org")
            .add_peer("peer0", "consumer-org")
            .add_client("admin", "consumer-org")
            .add_client("app", "consumer-org")
            .build()
        )
        self.admin = self.source.org(SOURCE_ORGS[0]).member("admin")
        dest_admin = destination.org("consumer-org").member("admin")
        self.source.deploy_chaincode(
            DocumentChaincode(),
            "AND('producer-org.peer', 'auditor-org.peer')",
            initializer=self.admin,
        )
        enable_fabric_interop(self.source, self.admin)
        enable_fabric_interop(destination, dest_admin)
        link_networks(destination, dest_admin, self.source, self.admin)
        for function in ("Get", "Put"):
            self.source.gateway.submit(
                self.admin, "ecc", "AddAccessRule", ["dest-net", "consumer-org", "docs", function]
            )
        self.registry = InMemoryRegistry()
        self.relay = create_fabric_relay(self.source, self.registry, state_dir=state_dir)
        self.client = InteropClient(
            destination.org("consumer-org").member("app"),
            RelayService("dest-net", self.registry),
            "dest-net",
            gateway=destination.gateway,
        )

    def put(self, key: str, value: str) -> None:
        self.source.gateway.submit(self.admin, "docs", "Put", [key, value])

    def get(self, key: str) -> bytes:
        return self.source.gateway.evaluate(self.admin, "docs", "Get", [key])


# -- bulk_query_16k ---------------------------------------------------------------


class BulkQuery16k:
    """The same query verb at the other end of the size axis."""

    name = "bulk_query_16k"
    DOCUMENTS = 2
    DOCUMENT_BYTES = 16 * 1024

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.tally = WireTally()
        self._deployment = _DocumentSource()
        self._expected: dict[str, bytes] = {}
        for _ in range(self.DOCUMENTS):
            key = f"doc-{_text(rng, 10)}"
            value = _text(rng, self.DOCUMENT_BYTES)
            self._deployment.put(key, value)
            self._expected[key] = value.encode()
        self._keys = list(self._expected)
        self.close = _serve_over_tcp(
            self._deployment.registry, "source-net", self._deployment.relay, self.tally
        )

    def prepare(self, index: int) -> str:
        return self._keys[index % len(self._keys)]

    def run(self, key: str):
        return self._deployment.client.remote_query(DOCS_GET, [key])

    def check(self, key: str, result) -> None:
        _require(result.data == self._expected[key], "document bytes differ from what was stored")
        orgs = {attestation.metadata().org for attestation in result.proof.attestations}
        _require(orgs >= set(SOURCE_ORGS), f"proof attested by {sorted(orgs)}, need both orgs")


# -- transact_durable -------------------------------------------------------------


class TransactDurable:
    """A remote transaction through a relay with an fsync'd state dir."""

    name = "transact_durable"
    VALUE_BYTES = 256

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.tally = WireTally()
        OUT_DIR.mkdir(exist_ok=True)
        self._state_dir = Path(tempfile.mkdtemp(prefix="relay-state-", dir=OUT_DIR))
        self._deployment = _DocumentSource(state_dir=self._state_dir)
        source, relay = self._deployment.source, self._deployment.relay
        invoker = source.org(SOURCE_ORGS[0]).enroll("interop-invoker", role="client")
        enable_remote_transactions(source, relay, invoker)
        registry = self._deployment.registry
        registry.unregister("source-net", relay)
        registry.register("source-net", CountingEndpoint(relay, self.tally))
        self._gateway = InteropGateway.from_client(self._deployment.client)

    def prepare(self, index: int) -> tuple[str, str]:
        return f"doc-{_text(self._rng, 10)}-{index}", _text(self._rng, self.VALUE_BYTES)

    def run(self, inputs: tuple[str, str]):
        return self._gateway.transact(DOCS_PUT).with_args(*inputs).execute()

    def check(self, inputs: tuple[str, str], outcome) -> None:
        key, value = inputs
        for peer in self._deployment.source.peers:
            _require(
                peer.ledger.contains_tx(outcome.tx_id),
                f"{outcome.tx_id} is not on {peer.peer_id}'s ledger",
            )
        _require(self._deployment.get(key) == value.encode(), "committed value differs")
        _require(
            set(outcome.attesting_orgs) >= set(SOURCE_ORGS),
            f"commit attested by {outcome.attesting_orgs}, need both orgs",
        )

    def close(self) -> None:
        self._deployment.relay.store.close()
        shutil.rmtree(self._state_dir, ignore_errors=True)


# -- swap_2party ------------------------------------------------------------------


class Swap2Party:
    """Fabric <-> Quorum HTLC exchange, as in bench_asset_exchange.py."""

    name = "swap_2party"
    OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
    ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.tally = WireTally()
        fabric = (
            NetworkBuilder("fabnet", channel="trade")
            .add_org("traders-org")
            .add_org("audit-org")
            .add_peer("peer0", "traders-org")
            .add_peer("peer0", "audit-org")
            .add_client("admin", "traders-org")
            .add_client("alice", "traders-org")
            .build()
        )
        self._fabric = fabric
        self._fabric_admin = fabric.org("traders-org").member("admin")
        enable_fabric_interop(fabric, self._fabric_admin)
        fabric.deploy_chaincode(
            FabricAssetChaincode(),
            "AND('traders-org.peer', 'audit-org.peer')",
            initializer=self._fabric_admin,
        )

        quorum = QuorumNetwork("quornet")
        quorum.deploy_contract(QuorumAssetContract())
        quorum.add_peer("peer1", "op-org-1")
        quorum.add_peer("peer2", "op-org-2")
        self._quorum = quorum
        bob = quorum.enroll_client("bob", "op-org-1")
        self._quorum_invoker = quorum.enroll_client("asset-invoker", "op-org-1")
        quorum_port = InteropPort("quornet")
        quorum_port.record_network_config(fabric.export_config())
        for function in ("LockAsset", "ClaimAsset", "UnlockAsset", "GetLock"):
            quorum_port.add_access_rule("fabnet", "traders-org", "asset-vault", function)

        registry = InMemoryRegistry()
        fabric_relay = create_fabric_relay(fabric, registry, register=False)
        fabric_relay.driver_for("fabnet").enable_assets(
            fabric.org("traders-org").enroll("asset-invoker", role="client")
        )
        quorum_relay = RelayService("quornet", registry)
        quorum_driver = QuorumDriver(quorum, quorum_port)
        quorum_driver.enable_assets(self._quorum_invoker)
        quorum_relay.register_driver(quorum_driver)
        registry.register("fabnet", CountingEndpoint(fabric_relay, self.tally))
        registry.register("quornet", CountingEndpoint(quorum_relay, self.tally))

        for function in ("ClaimAsset", "UnlockAsset", "GetLock"):
            fabric.gateway.submit(
                self._fabric_admin,
                "ecc",
                "AddAccessRule",
                ["quornet", "op-org-1", "assetscc", function],
            )
        record_foreign_network(
            fabric, self._fabric_admin, quorum, verification_policy=self.ASK_POLICY
        )
        alice = fabric.org("traders-org").member("alice")
        self._gateway = InteropGateway.from_client(
            InteropClient(alice, fabric_relay, "fabnet", gateway=fabric.gateway)
        )
        self._bob_client = InteropClient(bob, quorum_relay, "quornet")

    def prepare(self, index: int) -> tuple[str, str]:
        """Issue a fresh asset pair (untimed)."""
        suffix = f"{_text(self._rng, 8)}-{index}"
        gold, oil = f"GOLD-{suffix}", f"OIL-{suffix}"
        self._fabric.gateway.submit(
            self._fabric_admin, "assetscc", "Issue", [gold, "alice@fabnet", "{}"]
        )
        self._quorum.submit_transaction(
            self._quorum_invoker, "asset-vault", "Issue", [oil, "bob@quornet", "{}"]
        )
        return gold, oil

    def run(self, inputs: tuple[str, str]):
        gold, oil = inputs
        return (
            self._gateway.exchange()
            .offer("fabnet/trade/assetscc", gold)
            .ask("quornet/state/asset-vault", oil)
            .with_counterparty(self._bob_client)
            .with_timeouts(offer=600.0, counter=300.0)
            .with_policies(offer=self.OFFER_POLICY, ask=self.ASK_POLICY)
            .run()
        )

    def check(self, inputs: tuple[str, str], result) -> None:
        gold, oil = inputs
        _require(result.completed, f"exchange ended in state {result.state.value}")
        gold_record = json.loads(
            self._fabric.gateway.evaluate(self._fabric_admin, "assetscc", "GetAsset", [gold])
        )
        oil_record = json.loads(
            self._quorum.peers[0].storage_snapshot("asset-vault")[f"asset/{oil}"]
        )
        _require(gold_record["owner"] == "bob@quornet", f"{gold} owner {gold_record['owner']}")
        _require(oil_record["owner"] == "alice@fabnet", f"{oil} owner {oil_record['owner']}")

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (BlQuery, BulkQuery16k, TransactDurable, Swap2Party)}

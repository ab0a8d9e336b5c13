#!/usr/bin/env python3
"""Quickstart: trusted data transfer between two blockchain networks.

Builds two independent Fabric-like networks, augments them for
interoperability (relays + system contracts), links them, and performs a
cross-network query whose response carries a consensus-backed proof.

Run::

    python examples/quickstart.py
"""

from __future__ import annotations

import json

from repro.api import EventVerifier, InteropGateway
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
from repro.interop.events import enable_relay_events
from repro.interop.transactions import enable_remote_transactions


class DocumentChaincode(Chaincode):
    """A tiny source-side contract: store and fetch documents.

    The interop-enabled dispatch (ECC check + response sealing) is the
    one-time ~tens-of-SLOC adaptation described in the paper's §5.
    """

    name = "docs"

    def invoke(self, stub):
        if stub.function == "init":
            return b"ok"
        interop_raw = stub.get_transient("interop")
        if stub.function == "Put":
            key, value = require_args(stub, 2)
            stub.put_state(key, value.encode())
            stub.set_event("DocumentStored", key.encode())
            return b"ok"
        if stub.function == "Get":
            (key,) = require_args(stub, 1)
            value = stub.get_state(key)
            if value is None:
                raise ValueError(f"no document {key!r}")
            if interop_raw is not None:  # incoming relay query
                ctx = json.loads(interop_raw)
                stub.invoke_chaincode(
                    "ecc",
                    "CheckAccess",
                    [ctx["requesting_network"], ctx["requesting_org"], self.name, "Get"],
                )
                return stub.invoke_chaincode(
                    "ecc",
                    "SealResponse",
                    [
                        value.hex(),
                        ctx["client_pubkey"],
                        "true" if ctx["confidential"] else "false",
                    ],
                )
            return value
        raise ValueError(f"unknown function {stub.function}")


def main() -> None:
    # --- 1. Two independent, self-governing networks -----------------------
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
    source_admin = source.org("producer-org").member("admin")
    dest_admin = destination.org("consumer-org").member("admin")

    source.deploy_chaincode(
        DocumentChaincode(),
        "AND('producer-org.peer', 'auditor-org.peer')",
        initializer=source_admin,
    )
    source.gateway.submit(
        source_admin, "docs", "Put", ["invoice-7", '{"amount": 1200, "currency": "USD"}']
    )
    print(f"source network up: {len(source.peers)} peers, "
          f"ledger height {source.peers[0].ledger.height}")

    # --- 2. Augment for interoperability (no protocol changes) -------------
    enable_fabric_interop(source, source_admin)
    enable_fabric_interop(destination, dest_admin)
    link_networks(destination, dest_admin, source, source_admin)

    # Exposure control: consumer-org of dest-net may call docs/Get.
    source.gateway.submit(
        source_admin, "ecc", "AddAccessRule", ["dest-net", "consumer-org", "docs", "Get"]
    )

    # --- 3. Relays + discovery ---------------------------------------------
    registry = InMemoryRegistry()
    source_relay = create_fabric_relay(source, registry)
    dest_relay = RelayService("dest-net", registry)

    # --- 4. A trusted cross-network query -----------------------------------
    app = destination.org("consumer-org").member("app")
    client = InteropClient(app, dest_relay, "dest-net", gateway=destination.gateway)
    result = client.remote_query("source-net/main/docs/Get", ["invoice-7"])

    print(f"\nfetched data   : {result.data.decode()}")
    print(f"proof          : {len(result.proof)} attestations "
          f"({', '.join(sorted(a.metadata().org for a in result.proof.attestations))})")
    print(f"nonce          : {result.nonce}")
    print(f"proof size     : {len(result.proof_json)} bytes (JSON)")
    print("\nEach attestation is a source-peer signature over the query, the")
    print("nonce, and the result hash — validated against the source network's")
    print("MSP roots recorded on the destination ledger. No trusted mediator.")

    # --- 5. Batched, pipelined queries via the unified gateway ---------------
    # The repro.api façade wraps the same machinery with a fluent builder and
    # future-style handles: every submit() below is pipelined, and all three
    # queries travel to source-net in ONE batch envelope — one discovery
    # lookup, one round-trip, one failover loop, with the source driver
    # fanning the members concurrently.
    for key, value in [
        ("invoice-8", '{"amount": 760, "currency": "EUR"}'),
        ("invoice-9", '{"amount": 90, "currency": "GBP"}'),
    ]:
        source.gateway.submit(source_admin, "docs", "Put", [key, value])

    gateway = InteropGateway.from_client(client)
    handles = [
        gateway.query("source-net/main/docs/Get").with_args(key).submit()
        for key in ("invoice-7", "invoice-8", "invoice-9")
    ]
    print("\nbatched fetch via InteropGateway (one envelope round-trip):")
    for key, handle in zip(("invoice-7", "invoice-8", "invoice-9"), handles):
        document = handle.result()  # first result() flushes the whole set
        print(f"  {key}: {document.data.decode()}  "
              f"[{len(document.proof)} attestations]")
    source_relay_stats = registry.lookup("source-net")[0].stats
    print(f"source relay totals: {source_relay_stats.requests_served} queries "
          f"served, {source_relay_stats.batches_served} batch envelope(s)")

    # --- 6. Transact and subscribe through the gateway -----------------------
    # The other two §2 primitives ride the same relay machinery. A remote
    # *transaction* runs through the source network's endorse-order-commit
    # pipeline under a designated local invoker, and its attestations cover
    # the committed tx id/block. A *subscription* taps the source event hub
    # via relay envelopes; because notifications are unauthenticated, the
    # VerifiedEventStream upgrades each one with a follow-up proof-carrying
    # query before the application sees it (notify-then-verify).
    invoker = source.org("producer-org").enroll("interop-invoker", role="client")
    enable_remote_transactions(source, source_relay, invoker, discovery=registry)
    enable_relay_events(source, source_relay, source_admin)
    # Events invert the flow: the *source* relay must be able to discover
    # the subscriber's relay to push notifications to it.
    registry.register("dest-net", dest_relay)
    source.gateway.submit(
        source_admin, "ecc", "AddAccessRule", ["dest-net", "consumer-org", "docs", "Put"]
    )
    source.gateway.submit(
        source_admin, "ecc", "AddAccessRule",
        ["dest-net", "consumer-org", "docs", "event:DocumentStored"],
    )

    verifier = EventVerifier(
        address="source-net/main/docs/Get",
        # The notification payload is the stored key; fetching it with a
        # proof-carrying query IS the verification (a forged key fails the
        # query), so the consistency check just requires a non-empty doc.
        args=lambda notification: [notification.payload.decode()],
        check=lambda notification, result: result.data != b"",
    )
    stream = gateway.subscribe("source-net/main/docs", "DocumentStored",
                               verifier=verifier)

    outcome = (
        gateway.transact("source-net/main/docs/Put")
        .with_args("invoice-10", '{"amount": 3400, "currency": "CHF"}')
        .execute()
    )
    print(f"\nremote transaction: committed as {outcome.tx_id} in block "
          f"{outcome.block_number}, attested by "
          f"{', '.join(outcome.attesting_orgs)}")

    event = stream.take()  # verifies via a proof-carrying query
    print(f"verified event    : {event.notification.name} for "
          f"{event.notification.payload.decode()} -> trusted data "
          f"{event.data.decode()} [{len(event.verification.proof)} attestations]")
    print("the notification itself is untrusted; a tampered one would fail")
    print("its follow-up query and land in stream.rejected instead.")
    stream.close()

    # --- 7. Atomic asset exchange: Fabric <-> Quorum (HTLC) ------------------
    # The same envelope + proof machinery now carries VALUE: a trader on the
    # Fabric source network swaps GOLD-1 for OIL-9 held by a dealer on a
    # Quorum network, atomically, with no shared trusted party. Each side
    # escrows under a hash-time-lock; each verifies the other's escrow with
    # a PROOF-CARRYING GetLock query before its irreversible step; the claim
    # reveals the preimage on-ledger, which unlocks the other leg.
    from repro.assets import FabricAssetChaincode, QuorumAssetContract
    from repro.interop.bootstrap import record_foreign_network
    from repro.interop.contracts.ports import InteropPort
    from repro.interop.drivers.quorum_driver import QuorumDriver
    from repro.quorum import QuorumNetwork

    # The Fabric side hosts the HTLC vault as ordinary chaincode...
    source.deploy_chaincode(
        FabricAssetChaincode(),
        "AND('producer-org.peer', 'auditor-org.peer')",
        initializer=source_admin,
    )
    trader = source.org("producer-org").enroll("trader", role="client")
    source.gateway.submit(
        source_admin, "assetscc", "Issue", ["GOLD-1", "trader@source-net", "{}"]
    )
    # ...and a Quorum commodity network hosts it as a contract.
    commodity = QuorumNetwork("commodity-net")
    commodity.deploy_contract(QuorumAssetContract())
    commodity.add_peer("peer1", "dealer-org")
    commodity.add_peer("peer2", "exchange-org")
    dealer = commodity.enroll_client("dealer", "dealer-org")
    commodity_invoker = commodity.enroll_client("asset-invoker", "dealer-org")
    commodity.submit_transaction(
        commodity_invoker, "asset-vault", "Issue",
        ["OIL-9", "dealer@commodity-net", "{}"],
    )

    # Mutual governance: each side whitelists the other's HTLC verbs and
    # records the other's identity configuration for proof validation.
    commodity_port = InteropPort("commodity-net")
    commodity_port.record_network_config(source.export_config())
    for fn in ("LockAsset", "ClaimAsset", "UnlockAsset", "GetLock"):
        commodity_port.add_access_rule(
            "source-net", "producer-org", "asset-vault", fn
        )
    for fn in ("ClaimAsset", "UnlockAsset", "GetLock"):
        source.gateway.submit(
            source_admin, "ecc", "AddAccessRule",
            ["commodity-net", "dealer-org", "assetscc", fn],
        )
    record_foreign_network(
        source, source_admin, commodity,
        verification_policy="AND(org:dealer-org, org:exchange-org)",
    )

    # Asset capability on both relays (driver-level AssetLedgerPort).
    asset_invoker = source.org("producer-org").enroll("asset-invoker", role="client")
    source_relay.driver_for("source-net").enable_assets(asset_invoker)
    commodity_relay = RelayService("commodity-net", registry)
    commodity_driver = QuorumDriver(commodity, commodity_port)
    commodity_driver.enable_assets(commodity_invoker)
    commodity_relay.register_driver(commodity_driver)
    registry.register("commodity-net", commodity_relay)

    trader_client = InteropClient(trader, source_relay, "source-net",
                                  gateway=source.gateway)
    dealer_client = InteropClient(dealer, commodity_relay, "commodity-net")

    exchange = (
        InteropGateway.from_client(trader_client)
        .exchange()
        .offer("source-net/main/assetscc", "GOLD-1")
        .ask("commodity-net/state/asset-vault", "OIL-9")
        .with_counterparty(dealer_client)
        .with_timeouts(offer=600.0, counter=300.0)
        .with_policies(offer="AND(org:producer-org, org:auditor-org)",
                       ask="AND(org:dealer-org, org:exchange-org)")
        .build()
    )
    outcome = exchange.run()
    gold = json.loads(source.gateway.evaluate(
        source_admin, "assetscc", "GetAsset", ["GOLD-1"]))
    oil = json.loads(commodity.peers[0].storage_snapshot(
        "asset-vault")["asset/OIL-9"].decode())
    print(f"\natomic exchange  : {outcome.state.value} "
          f"(hashlock {outcome.hashlock.hex()[:16]}…)")
    print(f"GOLD-1 owner     : {gold['owner']}  (was trader@source-net)")
    print(f"OIL-9 owner      : {oil['owner']}  (was dealer@commodity-net)")
    print("had either party walked away before the reveal, abort() + refund()")
    print("would have unwound both escrows after their timelocks — the claim")
    print("and refund windows partition time, so nothing double-spends.")

    # --- 8. Deployment: relays as network services on real sockets -----------
    # So far every envelope travelled as an in-process call. In the paper's
    # deployment each relay is a *service* other networks reach over the
    # wire; repro.net supplies that transport without touching one protocol
    # rule. Each relay goes behind an asyncio RelayServer speaking
    # length-prefixed envelope frames; discovery hands back pooled
    # TcpRelayEndpoints for tcp://host:port addresses; the failover loop,
    # interceptors, proofs — everything above the socket — runs unchanged.
    # (Run examples/tcp_relay_demo.py for the same topology as two separate
    # OS processes.)
    from repro.net import RelayServer

    source_server = RelayServer(source_relay, max_workers=4).start()
    dest_server = RelayServer(dest_relay, max_workers=4).start()
    # Re-point discovery at the sockets: from here on, the ONLY path
    # between the two relays is framed envelopes on TCP connections.
    for network_id, server in (("source-net", source_server),
                               ("dest-net", dest_server)):
        for endpoint in list(registry.lookup(network_id)):
            registry.unregister(network_id, endpoint)
        registry.register(network_id, server.endpoint(timeout=10.0))

    socket_result = client.remote_query("source-net/main/docs/Get", ["invoice-7"])
    assert socket_result.data == result.data  # same data, same proofs
    print(f"\nsocket deployment: {source_server.address} <-> {dest_server.address}")
    print(f"re-fetched over TCP: {socket_result.data.decode()} "
          f"[{len(socket_result.proof)} attestations]")
    print("trust boundary: the socket is the UNTRUSTED edge — drop, delay,")
    print("duplicate, or corrupt the frames and the protocol still only")
    print("accepts data whose proofs verify end-to-end; transport failures")
    print("surface as typed RelayUnavailableError and engage failover.")
    source_server.stop()
    dest_server.stop()

    # --- 9. Durability: kill the relay, keep its promises --------------------
    # Every relay above kept its exactly-once record in process memory
    # (the MemoryStore default): crash one and a replayed transaction
    # envelope would execute TWICE on the source ledger. Deployments
    # start the relay with --state-dir instead, which journals that
    # record (and the served-subscription table) into a SqliteStore —
    # an fsync-on-commit write-ahead log checkpointed into sqlite.
    # Walkthrough: commit through a durable relay, kill it, restart it
    # on the same directory, and replay the captured envelope.
    import tempfile

    from repro.interop.transactions import RemoteTransactionClient
    from repro.proto.messages import (
        MSG_KIND_TRANSACT_REQUEST,
        PROTOCOL_VERSION,
        RelayEnvelope,
    )

    state_dir = tempfile.mkdtemp(prefix="quickstart-relay-")
    for endpoint in list(registry.lookup("source-net")):
        registry.unregister("source-net", endpoint)
    durable_relay = create_fabric_relay(source, registry, state_dir=state_dir)
    enable_remote_transactions(source, durable_relay, invoker, discovery=registry)

    prepared = RemoteTransactionClient(client).prepare_transaction(
        "source-net/main/docs/Put",
        ["invoice-11", '{"amount": 12, "currency": "USD"}'],
    )
    raw = RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=MSG_KIND_TRANSACT_REQUEST,
        request_id="req-invoice-11",  # the exactly-once identity
        source_network="dest-net",
        destination_network="source-net",
        payload=prepared.query.encode(),
    ).encode()
    first_reply = durable_relay.handle_request(raw)
    print(f"\ndurable relay     : journaling to {state_dir}")
    print(f"committed         : invoice-11 under request_id=req-invoice-11")

    durable_relay.store.close()  # the "crash": object gone, handles dead
    for endpoint in list(registry.lookup("source-net")):
        registry.unregister("source-net", endpoint)
    del durable_relay

    restarted_relay = create_fabric_relay(source, registry, state_dir=state_dir)
    enable_remote_transactions(source, restarted_relay, invoker, discovery=registry)
    replayed = restarted_relay.handle_request(raw)
    assert replayed == first_reply  # answered from the durable record
    assert restarted_relay.stats.duplicates_suppressed == 1
    print("restarted relay   : same --state-dir, fresh process state")
    print("replayed envelope : answered byte-for-byte from the durable")
    print("record — invoice-11 was NOT committed a second time. The same")
    print("journal re-opens event taps on recover(); the exchange")
    print("coordinator journals its HTLC ladder the same way, so a crash")
    print("between lock and claim resumes instead of stranding escrows.")
    restarted_relay.store.close()

    # --- 10. Observability: one trace id, scraped metrics, probes ------------
    # Deployments start the relay with --metrics-port and --json-logs
    # (see examples/tcp_relay_demo.py). The first opens an HTTP probe
    # listener next to the frame socket: GET /healthz (liveness),
    # /readyz (store open + drivers attached + executor accepting, the
    # eviction signal a fleet balancer watches) and /metrics (Prometheus
    # text exposition fed by the interceptor chain, relay/server stats,
    # and store counters). The second routes every "repro.*" logger
    # through one JSON formatter. Each request carries a trace id in its
    # envelope headers across every hop — the same id appears in log
    # records from the client session, both relays, the TCP frame
    # server, and the driver, and comes back in error replies too.
    import urllib.request

    from repro.api.middleware import MetricsInterceptor
    from repro.ops import activate, capture_logs, new_trace

    for endpoint in list(registry.lookup("source-net")):
        registry.unregister("source-net", endpoint)
    source_relay.use(MetricsInterceptor())  # bound when the probe starts
    ops_server = RelayServer(source_relay, max_workers=4, probe_port=0).start()
    registry.register("source-net", ops_server.endpoint(timeout=10.0))

    with capture_logs() as captured:
        with activate(new_trace()) as trace:
            client.remote_query("source-net/main/docs/Get", ["invoice-7"])
    layers = sorted({r["logger"] for r in captured.with_trace(trace.trace_id)})
    print(f"\ntrace {trace.trace_id} crossed layers: {', '.join(layers)}")

    with urllib.request.urlopen(f"{ops_server.probe.url}/readyz", timeout=5.0) as rsp:
        print(f"readyz           : {rsp.read().decode()}")
    with urllib.request.urlopen(f"{ops_server.probe.url}/metrics", timeout=5.0) as rsp:
        scrape = rsp.read().decode()
    print("scrape excerpt   :")
    for line in scrape.splitlines():
        if line.startswith("repro_relay_requests_total"):
            print(f"  {line}")
    ops_server.stop()

    # --- 11. Fleet: N replicas, one network id, balanced + health-evicted ----
    # One relay per network is a bottleneck AND a single point of failure
    # (the paper's §5 DoS concern). A fleet runs N replica relays for the
    # same network id; BalancedDiscovery wraps any DiscoveryService and
    # turns each lookup into a managed pool: read-only envelopes spread
    # by power-of-two-choices on live in-flight counts, side-effecting
    # ones stick to a replica by consistent hash of their request_id (so
    # idempotent replays land on the SAME replica and exactly-once holds
    # fleet-wide even though each replica keeps its own record). A
    # ReadinessMonitor polls every replica's /readyz probe and benches
    # not-ready members — they drop to the END of the failover order, so
    # a fully-benched fleet degrades to plain failover, never an outage.
    import time

    from repro.net import BalancedDiscovery, ReadinessMonitor

    for endpoint in list(registry.lookup("source-net")):
        registry.unregister("source-net", endpoint)
    replica_servers = [
        RelayServer(
            create_fabric_relay(source, InMemoryRegistry()),
            max_workers=4,
            probe_port=0,
        ).start()
        for _ in range(2)
    ]
    fleet_endpoints = [s.endpoint(timeout=10.0) for s in replica_servers]
    for endpoint in fleet_endpoints:
        registry.register("source-net", endpoint)

    balanced = BalancedDiscovery(registry)
    fleet_relay = RelayService("dest-net", balanced)
    fleet_client = InteropClient(
        app, fleet_relay, "dest-net", gateway=destination.gateway
    )
    monitor = ReadinessMonitor(
        balanced.pool("source-net"),
        probe_urls={
            endpoint.address: server.probe.url
            for endpoint, server in zip(fleet_endpoints, replica_servers)
        },
        interval=0.1,
    ).start()
    try:
        for i in range(12):
            fleet_client.remote_query("source-net/main/docs/Get", ["invoice-7"])
        snapshot = balanced.pools()[0]
        spread = {
            key.rsplit(":", 1)[-1]: member["requests"]
            for key, member in sorted(snapshot["members"].items())
        }
        print(f"\nfleet of 2       : 12 queries balanced across ports {spread}")

        replica_servers[0].stop()  # the crash; its /readyz now refuses
        victim = fleet_endpoints[0].address
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if balanced.pools()[0]["members"][victim]["evicted"]:
                break
            time.sleep(0.05)
        for i in range(6):
            fleet_client.remote_query("source-net/main/docs/Get", ["invoice-7"])
        print("replica 0 killed : monitor evicted it off /readyz; 6 more")
        print("queries served by the survivor — zero caller-visible errors.")
    finally:
        monitor.stop()
        balanced.close()
        for server in replica_servers:
            server.stop()

    # --- 12. Three-party cycle: Fabric -> Quorum -> Corda -> Fabric ----------
    # The two-party swap of §7 generalises to a ring settled by ONE
    # preimage: the trader wants the dealer's oil, the dealer wants a
    # collector's artwork on a Corda network, the collector wants the
    # trader's gold. Every leg locks under the same hashlock with
    # per-hop DECREMENTED timelocks (leg i expires hop_gap earlier than
    # leg i-1); claims then cascade backward from the preimage holder,
    # each claim publishing on-ledger exactly the secret the upstream
    # neighbour needs. The decrement is the safety margin: a downstream
    # claim inside its own window leaves every upstream window open.
    from repro.assets.contracts import issue_corda_asset
    from repro.corda import CordaNetwork
    from repro.interop.drivers.corda_driver import CordaDriver
    from repro.store import MemoryStore

    # §§8–11 re-pointed source-net discovery at (now stopped) sockets;
    # restore the in-process relay for this walkthrough.
    for endpoint in list(registry.lookup("source-net")):
        registry.unregister("source-net", endpoint)
    registry.register("source-net", source_relay)

    # Fresh assets on the two existing networks...
    source.gateway.submit(
        source_admin, "assetscc", "Issue", ["GOLD-2", "trader@source-net", "{}"]
    )
    commodity.submit_transaction(
        commodity_invoker, "asset-vault", "Issue",
        ["OIL-10", "dealer@commodity-net", "{}"],
    )
    # ...and a third, Corda-based art network joins the ring.
    art = CordaNetwork("art-net")
    collector_node = art.add_node("carol")
    art.add_node("dana")
    art_port = InteropPort("art-net")
    art_relay = RelayService("art-net", registry)
    art_driver = CordaDriver(art, art_port)
    art_driver.enable_assets("carol")
    art_relay.register_driver(art_driver)
    registry.register("art-net", art_relay)
    issue_corda_asset(art, collector_node, "ART-7", "carol@art-net")

    # Ring governance: each vault admits its DOWNSTREAM neighbour (the
    # party that verifies and claims it). source-net already admits the
    # dealer from §7; the two new edges:
    record_foreign_network(
        source, source_admin, art,
        verification_policy="AND(org:carol, org:dana)",
    )
    commodity_port.record_network_config(art.export_config())
    art_port.record_network_config(source.export_config())
    for fn in ("ClaimAsset", "GetLock"):
        commodity_port.add_access_rule("art-net", "carol", "asset-vault", fn)
        art_port.add_access_rule("source-net", "producer-org", "asset-vault", fn)

    collector_client = InteropClient(collector_node.identity, art_relay, "art-net")
    ring = (
        InteropGateway.from_client(trader_client)     # trader is party 0
        .exchange_cycle()
        .leg("source-net/main/assetscc", "GOLD-2",
             policy="AND(org:producer-org, org:auditor-org)")
        .leg("commodity-net/state/asset-vault", "OIL-10", party=dealer_client,
             policy="AND(org:dealer-org, org:exchange-org)")
        .leg("art-net/vault/asset-vault", "ART-7", party=collector_client,
             policy="AND(org:carol, org:dana)")
        .with_window(timeout=7_200.0, hop_gap=120.0)  # leg i expires 120s earlier
        .journal_to(MemoryStore())  # point at a SqliteStore (§9) to survive crashes
        .run()
    )
    gold2 = json.loads(source.gateway.evaluate(
        source_admin, "assetscc", "GetAsset", ["GOLD-2"]))
    oil10 = json.loads(commodity.peers[0].storage_snapshot(
        "asset-vault")["asset/OIL-10"].decode())
    _, art_state = collector_node.lookup("ART-7")
    print(f"\nthree-party ring : {ring.state.value} "
          f"(one hashlock {ring.hashlock.hex()[:16]}…)")
    print(f"GOLD-2 owner     : {gold2['owner']}  (was trader@source-net)")
    print(f"OIL-10 owner     : {oil10['owner']}  (was dealer@commodity-net)")
    print(f"ART-7 owner      : {art_state.data['asset']['owner']}  (was carol@art-net)")
    print("every asset moved ONE hop around the ring, atomically; had any")
    print("leg stalled, the decremented windows guarantee each escrow is")
    print("refundable in turn — and the journal makes the coordinator")
    print("recoverable mid-cycle: CycleCoordinator.resume(parties, store, id),")
    print("then .recover().")


if __name__ == "__main__":
    main()

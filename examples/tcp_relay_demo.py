#!/usr/bin/env python3
"""Two relays, two OS processes, one socket between them.

The deployment shape the paper implies: each network's relay is a real
service on its own host. This demo runs the *source* network (ledger,
drivers, relay, :class:`repro.net.RelayServer`) in a child Python
process, and the *destination* network in the parent; the only channel
between them is the TCP socket carrying length-prefixed relay envelopes.

The parent never holds a Python reference into the source network — it
cannot "cheat" past the protocol. Everything it learns arrives as
serialized envelopes whose proofs it verifies against the source
network's MSP roots, which is the whole point: the socket is the
untrusted edge, and the data is exactly as trustworthy as it proves
itself to be.

Run::

    PYTHONPATH=src python examples/tcp_relay_demo.py

With ``--state-dir DIR`` the source relay journals its state to a
:class:`repro.store.SqliteStore` rooted there, and the demo adds a
second act: commit a cross-network transaction, ``kill()`` the relay
process mid-conversation, respawn it on the same state directory, and
replay the captured transaction envelope — the restarted relay answers
byte-for-byte from its durable record instead of executing twice.

With ``--metrics-port PORT`` (0 picks a free port) the source relay
opens its ops probe next to the frame socket and the parent scrapes
``/readyz`` and ``/metrics`` across the process boundary, like a
Prometheus server would. ``--json-logs`` switches the source relay to
one-JSON-line-per-record logging on stderr with the trace-id of the
request each record served — grep for the id of a query you issued and
every hop is there.

(The child is spawned automatically; ``--serve`` is its internal mode.)
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


# ---------------------------------------------------------------------------
# Child process: the source network, served on a socket.
# ---------------------------------------------------------------------------

SOURCE_MSP_ROOT_PREFIX = "MSP-ROOT "
READY_PREFIX = "READY "
PROBE_PREFIX = "PROBE "

# The destination network's identity configuration must be recorded on
# the source ledger (§3.3 initialization). Processes cannot share Python
# objects, so the demo pins the destination's org with a fixed seed and
# both sides derive the same MSP root from it.
DEST_NETWORK = "dest-net"
DEST_ORG = "consumer-org"
POLICY = "AND(org:producer-org, org:auditor-org)"


def serve(
    host: str,
    state_dir: str | None = None,
    metrics_port: int | None = None,
    json_logs: bool = False,
    replicas: int = 1,
) -> None:
    """Build the source network and serve its relay(s) on socket(s).

    With ``replicas > 1`` the ONE source network is fronted by N
    independent relay services, each behind its own
    :class:`~repro.net.RelayServer` and ops probe — the fleet topology:
    many relay processes-worth of serving capacity, one network
    identity, one set of MSP roots for proofs to verify against. The
    parent may send ``KILL <i>`` on stdin to crash replica ``i``
    mid-conversation.
    """
    from repro.api.middleware import MetricsInterceptor
    from repro.fabric import NetworkBuilder
    from repro.interop.bootstrap import create_fabric_relay, enable_fabric_interop
    from repro.interop.discovery import InMemoryRegistry
    from repro.interop.transactions import enable_remote_transactions
    from repro.net import RelayServer
    from repro.proto.messages import NetworkConfigMsg

    if json_logs:
        # One JSON line per record on stderr, trace-id field included —
        # what a deployment ships to its log pipeline.
        import logging

        from repro.ops import configure_json_logging

        configure_json_logging(level=logging.DEBUG)  # show per-hop records

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from quickstart import DocumentChaincode  # the §5 ~tens-of-SLOC contract

    source = (
        NetworkBuilder("source-net")
        .add_org("producer-org")
        .add_org("auditor-org")
        .add_peer("peer0", "producer-org")
        .add_peer("peer0", "auditor-org")
        .add_client("admin", "producer-org")
        .build()
    )
    admin = source.org("producer-org").member("admin")
    enable_fabric_interop(source, admin)
    source.deploy_chaincode(
        DocumentChaincode(),
        "AND('producer-org.peer', 'auditor-org.peer')",
        initializer=admin,
    )
    source.gateway.submit(
        admin, "docs", "Put", ["invoice-7", '{"amount": 1200, "currency": "USD"}']
    )

    # §3.3: record the destination network's configuration (sent by the
    # parent over stdin as hex-encoded wire bytes) + an exposure rule.
    config_hex = sys.stdin.readline().strip()
    config = NetworkConfigMsg.decode(bytes.fromhex(config_hex))
    source.gateway.submit(
        admin, "cmdac", "RecordNetworkConfig", [config.network_id, config_hex]
    )
    source.gateway.submit(
        admin, "ecc", "AddAccessRule", [DEST_NETWORK, DEST_ORG, "docs", "Get"]
    )
    source.gateway.submit(
        admin, "ecc", "AddAccessRule", [DEST_NETWORK, DEST_ORG, "docs", "Put"]
    )
    invoker = source.org("producer-org").enroll("interop-invoker", role="client")

    # ``--state-dir`` makes the relay durable: its exactly-once record
    # and served subscriptions live in a SqliteStore that a respawned
    # process re-opens (create_fabric_relay recovers it automatically).
    # A fleet always opens probes (port 0) — the parent's readiness
    # monitor needs /readyz to drive eviction.
    want_ops = metrics_port is not None or replicas > 1
    servers = []
    for index in range(replicas):
        replica_state = (
            str(Path(state_dir) / f"replica-{index}") if state_dir else None
        )
        middleware = [MetricsInterceptor()] if want_ops else None
        relay = create_fabric_relay(
            source,
            InMemoryRegistry(),
            state_dir=replica_state,
            middleware=middleware,
        )
        enable_remote_transactions(source, relay, invoker)
        probe_port = metrics_port if (replicas == 1 and index == 0) else (
            0 if want_ops else None
        )
        servers.append(
            RelayServer(
                relay, host=host, port=0, max_workers=4, probe_port=probe_port
            ).start()
        )

    # Hand the parent what it needs: our addresses and our MSP roots (in
    # a real deployment these travel out of band / via governance).
    print(SOURCE_MSP_ROOT_PREFIX + source.export_config().encode().hex(), flush=True)
    for server in servers:
        if server.probe is not None:
            print(PROBE_PREFIX + server.probe.url, flush=True)
    print(
        READY_PREFIX + " ".join(server.address for server in servers),
        flush=True,
    )
    try:
        # Serve until the parent closes our stdin; a "KILL <i>" line
        # crashes replica i (the fleet demo's churn injection).
        for line in sys.stdin:
            command = line.strip().split()
            if len(command) == 2 and command[0] == "KILL":
                servers[int(command[1])].stop()
                print(f"KILLED {command[1]}", flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        for server in servers:
            server.stop()


# ---------------------------------------------------------------------------
# Parent process: the destination network, dialing tcp://.
# ---------------------------------------------------------------------------


def spawn_source(
    destination,
    state_dir: str | None,
    metrics_port: int | None = None,
    json_logs: bool = False,
    replicas: int = 1,
):
    """Spawn the source-relay process; returns (child, addresses,
    config_hex, probe_urls) — one address (and, when the ops plane is
    on, one probe url) per replica."""
    command = [sys.executable, __file__, "--serve", "127.0.0.1"]
    if state_dir:
        command += ["--state-dir", state_dir]
    if metrics_port is not None:
        command += ["--metrics-port", str(metrics_port)]
    if json_logs:
        command += ["--json-logs"]
    if replicas != 1:
        command += ["--replicas", str(replicas)]
    child = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    assert child.stdin is not None and child.stdout is not None
    child.stdin.write(destination.export_config().encode().hex() + "\n")
    child.stdin.flush()

    source_config_hex = ""
    addresses: list[str] = []
    probe_urls: list[str] = []
    for line in child.stdout:
        if line.startswith(SOURCE_MSP_ROOT_PREFIX):
            source_config_hex = line[len(SOURCE_MSP_ROOT_PREFIX):].strip()
        elif line.startswith(PROBE_PREFIX):
            probe_urls.append(line[len(PROBE_PREFIX):].strip())
        elif line.startswith(READY_PREFIX):
            addresses = line[len(READY_PREFIX):].strip().split()
            break
    if not addresses:
        raise RuntimeError("source relay process never became ready")
    return child, addresses, source_config_hex, probe_urls


def main(
    state_dir: str | None = None,
    metrics_port: int | None = None,
    json_logs: bool = False,
    replicas: int = 1,
) -> None:
    from repro.fabric import NetworkBuilder
    from repro.interop.bootstrap import enable_fabric_interop
    from repro.interop.client import InteropClient
    from repro.interop.contracts.cmdac import CMDAC_NAME
    from repro.interop.discovery import AddressResolver, FileRegistry
    from repro.interop.relay import RelayService
    from repro.net import BalancedDiscovery, ReadinessMonitor
    from repro.proto.messages import NetworkConfigMsg
    import tempfile
    import time

    destination = (
        NetworkBuilder(DEST_NETWORK)
        .add_org(DEST_ORG)
        .add_peer("peer0", DEST_ORG)
        .add_client("admin", DEST_ORG)
        .add_client("app", DEST_ORG)
        .build()
    )
    dest_admin = destination.org(DEST_ORG).member("admin")
    enable_fabric_interop(destination, dest_admin)

    # --- spawn the source-network relay(s) as a separate OS process -------
    child, addresses, source_config_hex, probe_urls = spawn_source(
        destination,
        state_dir,
        metrics_port=metrics_port,
        json_logs=json_logs,
        replicas=replicas,
    )
    address = addresses[0]
    probe_url = probe_urls[0] if probe_urls else ""
    try:
        if len(addresses) == 1:
            print(f"source relay process {child.pid} serving at {address}")
        else:
            print(f"source relay process {child.pid} serving "
                  f"{len(addresses)} replicas at {', '.join(addresses)}")
        if probe_url:
            print(f"ops probe listening at {probe_url} "
                  f"(/healthz /readyz /metrics)")

        # §3.3 on our side: record the source network's configuration and
        # a verification policy, so proofs validate against *ledger*
        # -recorded roots, not anything the socket told us at query time.
        source_config = NetworkConfigMsg.decode(bytes.fromhex(source_config_hex))
        destination.gateway.submit(
            dest_admin,
            CMDAC_NAME,
            "RecordNetworkConfig",
            [source_config.network_id, source_config_hex],
        )
        destination.gateway.submit(
            dest_admin,
            CMDAC_NAME,
            "SetVerificationPolicy",
            [source_config.network_id, POLICY],
        )

        # --- discovery: a registry FILE naming tcp:// address(es) --------
        # Exactly the paper's PoC shape ("a local file-based registry was
        # plugged into the SWT Relay", §4.3) — except the addresses now
        # cross a process boundary. With --replicas the registry names
        # the whole fleet and a BalancedDiscovery pool spreads traffic
        # over it.
        registry_file = Path(tempfile.mkstemp(suffix=".json")[1])
        registry_file.write_text(json.dumps({"source-net": addresses}))
        resolver = AddressResolver()  # tcp:// dialing is built in
        registry = FileRegistry(registry_file, resolver)
        balanced = BalancedDiscovery(registry) if len(addresses) > 1 else None
        relay = RelayService(DEST_NETWORK, balanced or registry)

        # --- a trusted cross-process, cross-network query -----------------
        app = destination.org(DEST_ORG).member("app")
        client = InteropClient(app, relay, DEST_NETWORK, gateway=destination.gateway)
        result = client.remote_query("source-net/main/docs/Get", ["invoice-7"])

        print(f"\nfetched over TCP : {result.data.decode()}")
        print(f"proof            : {len(result.proof)} attestations "
              f"({', '.join(sorted(a.metadata().org for a in result.proof.attestations))})")
        print("\nThe socket is the untrusted edge: every byte crossed a real")
        print("process boundary, and the result was accepted only because its")
        print("attestations verified against the source MSP roots recorded on")
        print("the destination ledger. Kill -9 the child and the same query")
        print("raises a typed RelayUnavailableError instead.")

        # --- ops plane (--metrics-port): scrape the child like Prometheus --
        if probe_url:
            import urllib.request

            with urllib.request.urlopen(f"{probe_url}/readyz", timeout=5.0) as rsp:
                ready = json.loads(rsp.read())
            with urllib.request.urlopen(f"{probe_url}/metrics", timeout=5.0) as rsp:
                scrape = rsp.read().decode()
            print(f"\nreadyz across the process boundary: ready={ready['ready']} "
                  f"({len(ready['checks'])} checks)")
            for line in scrape.splitlines():
                if line.startswith("repro_relay_requests_total"):
                    print(f"scraped          : {line}")

        # --- fleet act (--replicas N): balance, kill one, keep serving ----
        if balanced is not None:
            monitor = ReadinessMonitor(
                balanced.pool("source-net"),
                probe_urls=dict(zip(addresses, probe_urls)),
                interval=0.1,
                timeout=2.0,
            ).start()
            try:
                for sequence in range(12):
                    client.remote_query(
                        "source-net/main/docs/Get", ["invoice-7"]
                    )
                snapshot = balanced.pools()[0]
                spread = {
                    key.rsplit(":", 1)[-1]: member["requests"]
                    for key, member in sorted(snapshot["members"].items())
                }
                print(f"\n12 queries p2c-balanced across {len(addresses)} "
                      f"replicas (requests per port): {spread}")

                # Churn: crash replica 0 inside the child process, let the
                # readiness monitor evict it, and keep querying — the
                # callers never see the difference.
                assert child.stdin is not None and child.stdout is not None
                child.stdin.write("KILL 0\n")
                child.stdin.flush()
                child.stdout.readline()  # the KILLED ack
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    members = balanced.pools()[0]["members"]
                    if members[addresses[0]]["evicted"]:
                        break
                    time.sleep(0.05)
                for sequence in range(12):
                    client.remote_query(
                        "source-net/main/docs/Get", ["invoice-7"]
                    )
                snapshot = balanced.pools()[0]
                print(f"killed replica 0 mid-conversation: monitor evicted "
                      f"it ({snapshot['evictions']} eviction), 12 more "
                      f"queries served by the survivors with zero errors")
            finally:
                monitor.stop()

        # --- act two (--state-dir): crash the relay, replay the past -------
        if state_dir and len(addresses) == 1:
            from repro.proto.messages import (
                INVOCATION_TRANSACTION,
                MSG_KIND_TRANSACT_REQUEST,
                PROTOCOL_VERSION,
                QueryResponse,
                RelayEnvelope,
            )

            prepared = client.prepare_query(
                "source-net/main/docs/Put",
                ["receipt-9", '{"paid": true}'],
                invocation=INVOCATION_TRANSACTION,
            )
            raw = RelayEnvelope(
                version=PROTOCOL_VERSION,
                kind=MSG_KIND_TRANSACT_REQUEST,
                request_id="demo-receipt-9",
                source_network=DEST_NETWORK,
                destination_network="source-net",
                payload=prepared.query.encode(),
            ).encode()
            first = resolver.resolve(address).handle_request(raw)
            outcome = client.finalize_response(
                prepared, QueryResponse.decode(RelayEnvelope.decode(first).payload)
            )
            print(f"\ncommitted receipt-9 via request_id=demo-receipt-9 as "
                  f"{outcome.tx_id} in block {outcome.block_number}, attested by "
                  f"{outcome.attesting_orgs} ({len(first)}-byte reply)")

            child.kill()
            child.wait(timeout=10)
            print(f"killed relay process {child.pid} (simulated crash)")

            child, addresses, _, _ = spawn_source(destination, state_dir)
            address = addresses[0]
            registry_file.write_text(json.dumps({"source-net": [address]}))
            print(f"respawned as {child.pid} at {address} "
                  f"on the same --state-dir")

            second = resolver.resolve(address).handle_request(raw)
            assert second == first, "replay must be answered from the record"
            print("\nreplayed the SAME captured envelope: the restarted relay")
            print("answered byte-for-byte from its durable exactly-once record")
            print("— the transaction did not execute a second time. Without")
            print("--state-dir that record dies with the process.")
        registry_file.unlink()
    finally:
        if child.stdin is not None:
            child.stdin.close()
        child.wait(timeout=10)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", metavar="HOST", help=argparse.SUPPRESS)
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="journal the source relay's state to a SqliteStore rooted "
        "here and demo crash + replay recovery (e.g. /tmp/relay-state)",
    )
    parser.add_argument(
        "--metrics-port",
        metavar="PORT",
        type=int,
        default=None,
        help="open the source relay's ops probe (GET /healthz /readyz "
        "/metrics, Prometheus text exposition) on this port; 0 picks a "
        "free one. The parent scrapes it across the process boundary.",
    )
    parser.add_argument(
        "--replicas",
        metavar="N",
        type=int,
        default=1,
        help="serve the source network through N relay replicas (one "
        "process, N sockets + probes) and demo client-side balancing, "
        "readiness-driven eviction, and a mid-conversation replica kill",
    )
    parser.add_argument(
        "--json-logs",
        action="store_true",
        help="emit one JSON log line per record (trace-id field included) "
        "on the source relay's stderr, as a deployment would ship to its "
        "log pipeline",
    )
    arguments = parser.parse_args()
    if arguments.serve:
        serve(
            arguments.serve,
            state_dir=arguments.state_dir,
            metrics_port=arguments.metrics_port,
            json_logs=arguments.json_logs,
            replicas=arguments.replicas,
        )
    else:
        main(
            state_dir=arguments.state_dir,
            metrics_port=arguments.metrics_port,
            json_logs=arguments.json_logs,
            replicas=arguments.replicas,
        )

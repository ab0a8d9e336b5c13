"""One trace id, end to end over real sockets.

Acceptance for the observability tentpole: a single trace id opened by
the client verb appears in the JSON log records of every layer serving
that request — client session (``repro.api``), both relay services
(``repro.relay``), the TCP frame server (``repro.net``), and the Fabric
driver (``repro.driver``) — with the only link between the two relays
being framed envelopes on a real TCP connection. Rejections correlate
too: error envelopes and rate-limit sheds carry the caller's trace id
back in their reply headers.
"""

from __future__ import annotations

import json

import pytest

from repro.fabric import NetworkBuilder
from repro.fabric.chaincode import Chaincode, require_args
from repro.fabric.identity import Organization
from repro.interop.bootstrap import create_fabric_relay, enable_fabric_interop
from repro.interop.client import InteropClient
from repro.interop.contracts.ecc import ECC_NAME
from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.fabric_driver import INTEROP_TRANSIENT_KEY
from repro.interop.relay import RateLimiter, RateLimitInterceptor, RelayService
from repro.net import RelayServer
from repro.ops.logging import capture_logs
from repro.ops.trace import (
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    activate,
    new_trace,
)
from repro.proto.messages import (
    MSG_KIND_ERROR,
    PROTOCOL_VERSION,
    NetworkConfigMsg,
    OrganizationConfigMsg,
    RelayEnvelope,
)

SOURCE = "tracenet"
DESTINATION = "tracedest"
POLICY = "AND(org:trace-org-a, org:trace-org-b)"

#: The logger of every layer one traced query must touch.
EXPECTED_LAYERS = {"repro.api", "repro.relay", "repro.net", "repro.driver"}


class TraceChaincode(Chaincode):
    """Get-only record store with the §4.3 interop adaptation."""

    name = "tracecc"

    def invoke(self, stub):
        if stub.function == "init":
            return b"ok"
        if stub.function == "Put":
            key, value = require_args(stub, 2)
            stub.put_state("record/" + key, value.encode("utf-8"))
            return b"ok"
        if stub.function != "Get":
            from repro.errors import ChaincodeError

            raise ChaincodeError(f"{self.name} has no function {stub.function!r}")
        (key,) = require_args(stub, 1)
        raw = stub.get_state("record/" + key)
        if raw is None:
            from repro.errors import ChaincodeError

            raise ChaincodeError(f"no record {key!r}")
        interop_raw = stub.get_transient(INTEROP_TRANSIENT_KEY)
        if interop_raw is None:
            return raw
        interop_ctx = json.loads(interop_raw)
        stub.invoke_chaincode(
            ECC_NAME,
            "CheckAccess",
            [
                interop_ctx["requesting_network"],
                interop_ctx["requesting_org"],
                self.name,
                "Get",
            ],
        )
        return stub.invoke_chaincode(
            ECC_NAME,
            "SealResponse",
            [
                raw.hex(),
                interop_ctx["client_pubkey"],
                "true" if interop_ctx["confidential"] else "false",
            ],
        )


@pytest.fixture(scope="module")
def traced_topology():
    """Fabric source + bare destination, joined ONLY by TCP frames."""
    destination_org = Organization("trace-dest-org", network=DESTINATION)
    app = destination_org.enroll("app", role="client")
    registry = InMemoryRegistry()
    destination_relay = RelayService(DESTINATION, registry)
    registry.register(DESTINATION, destination_relay)

    fabric = (
        NetworkBuilder(SOURCE, channel="trade")
        .add_org("trace-org-a")
        .add_org("trace-org-b")
        .add_peer("peer0", "trace-org-a")
        .add_peer("peer0", "trace-org-b")
        .add_client("admin", "trace-org-a")
        .build()
    )
    admin = fabric.org("trace-org-a").member("admin")
    enable_fabric_interop(fabric, admin)
    fabric.deploy_chaincode(
        TraceChaincode(),
        "AND('trace-org-a.peer', 'trace-org-b.peer')",
        initializer=admin,
    )
    config = NetworkConfigMsg(
        network_id=DESTINATION,
        platform="fabric",
        organizations=[
            OrganizationConfigMsg(
                org_id="trace-dest-org",
                msp_id="trace-dest-orgMSP",
                root_certificate=destination_org.msp.root_certificate.to_bytes(),
            )
        ],
    )
    fabric.gateway.submit(
        admin, "cmdac", "RecordNetworkConfig", [DESTINATION, config.encode().hex()]
    )
    fabric.gateway.submit(
        admin,
        "ecc",
        "AddAccessRule",
        [DESTINATION, "trace-dest-org", "tracecc", "Get"],
    )
    fabric.gateway.submit(admin, "tracecc", "Put", ["DOC-1", "trace-payload"])

    source_relay = create_fabric_relay(fabric, registry, register=False)
    server = RelayServer(source_relay, max_workers=4, probe_port=0).start()
    registry.register(SOURCE, server.endpoint(timeout=10.0))
    client = InteropClient(app, destination_relay, DESTINATION)
    try:
        yield client, source_relay, server
    finally:
        server.stop()


class TestTracePropagation:
    def test_one_trace_id_spans_every_layer(self, traced_topology):
        client, _, _ = traced_topology
        with capture_logs() as capture:
            context = new_trace()
            with activate(context):
                result = client.remote_query(
                    f"{SOURCE}/trade/tracecc/Get", ["DOC-1"], policy=POLICY
                )
        assert result.data == b"trace-payload"
        correlated = capture.with_trace(context.trace_id)
        layers = {record["logger"] for record in correlated}
        assert EXPECTED_LAYERS <= layers, (
            f"trace {context.trace_id} missing layers "
            f"{EXPECTED_LAYERS - layers}; saw {sorted(layers)} in "
            f"{len(correlated)} records"
        )
        # Both relay hops logged under the one trace: the destination
        # forwarding the envelope, the source serving it.
        relay_messages = {
            record["message"]
            for record in correlated
            if record["logger"] == "repro.relay"
        }
        assert "forwarding envelope" in relay_messages
        assert "serving inbound envelope" in relay_messages
        # The frame server attributes the frame to the same trace even
        # though it logs from the asyncio loop, outside the serve thread.
        net_records = [
            record for record in correlated if record["logger"] == "repro.net"
        ]
        assert net_records and all(
            record["trace_id"] == context.trace_id for record in net_records
        )

    def test_concurrent_queries_do_not_cross_pollute(self, traced_topology):
        client, _, _ = traced_topology
        import threading

        traces: dict[str, str] = {}
        lock = threading.Lock()

        def worker(index: int) -> None:
            with activate(new_trace()) as context:
                client.remote_query(
                    f"{SOURCE}/trade/tracecc/Get", ["DOC-1"], policy=POLICY
                )
                with lock:
                    traces[f"w{index}"] = context.trace_id

        with capture_logs() as capture:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(set(traces.values())) == 4
        for trace_id in traces.values():
            layers = capture.loggers(trace_id)
            assert EXPECTED_LAYERS <= layers, (
                f"trace {trace_id} leaked/merged: saw only {sorted(layers)}"
            )

    def test_error_reply_carries_the_callers_trace_id(self, traced_topology):
        _, _, server = traced_topology
        endpoint = server.endpoint(timeout=10.0)
        request = RelayEnvelope(
            version=PROTOCOL_VERSION,
            kind=424242,  # no such kind: the relay must answer an error
            request_id="req-err-1",
            source_network=DESTINATION,
            destination_network=SOURCE,
            payload=b"",
            headers={TRACE_ID_HEADER: "trace-err-probe", SPAN_ID_HEADER: "span-1"},
        )
        reply = RelayEnvelope.decode(endpoint.handle_request(request.encode()))
        assert reply.kind == MSG_KIND_ERROR
        assert b"unexpected message kind" in reply.payload
        assert reply.headers[TRACE_ID_HEADER] == "trace-err-probe"
        assert reply.request_id == "req-err-1"
        endpoint.close()

    def test_rate_limit_shed_carries_the_callers_trace_id(self):
        registry = InMemoryRegistry()
        relay = RelayService("shednet", registry).use(
            RateLimitInterceptor(RateLimiter(1, 3600.0))
        )
        with RelayServer(relay, max_workers=2) as server:
            endpoint = server.endpoint(timeout=10.0)

            def traced_request(tag: str) -> RelayEnvelope:
                request = RelayEnvelope(
                    version=PROTOCOL_VERSION,
                    kind=424242,
                    request_id=f"req-{tag}",
                    source_network=DESTINATION,
                    destination_network="shednet",
                    payload=b"",
                    headers={
                        TRACE_ID_HEADER: f"trace-{tag}",
                        SPAN_ID_HEADER: f"span-{tag}",
                    },
                )
                return RelayEnvelope.decode(
                    endpoint.handle_request(request.encode())
                )

            traced_request("warmup")  # consumes the single window slot
            shed = traced_request("shed")
            assert shed.kind == MSG_KIND_ERROR
            assert b"rate limit exceeded" in shed.payload
            assert shed.headers[TRACE_ID_HEADER] == "trace-shed"
            assert shed.headers["retryable"] == "true"
            endpoint.close()

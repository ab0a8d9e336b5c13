"""A forwarded query the driver cannot serve is answered, never raised.

``RelayService.handle_request`` promises serialized bytes for every
request: a remote relay cannot catch our exceptions across the wire, and
over TCP an escaping exception closes the whole connection, dropping any
request pipelined behind it. So a single query whose address has an
empty segment gets a ``STATUS_ERROR`` reply from every driver family,
and the connection it arrived on keeps serving.
"""

from __future__ import annotations

import pytest

from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers import NetworkDriver
from repro.interop.relay import RelayService
from repro.net import RelayServer, TcpTransport
from repro.proto.messages import (
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_QUERY_RESPONSE,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
    VerificationPolicyMsg,
)

PLATFORMS = ("fabric", "quorum", "corda", "pubchain")


def forwarded(target, ledger: str | None = None, function: str | None = None) -> bytes:
    network, default_ledger, contract, default_function = target.query_address.split("/")
    query = NetworkQuery(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(
            network=network,
            ledger=default_ledger if ledger is None else ledger,
            contract=contract,
            function=default_function if function is None else function,
        ),
        args=list(target.query_args),
        nonce=f"FORWARDED-{ledger}-{function}",
        auth=target.client.auth_info(),
        policy=VerificationPolicyMsg(expression=target.policy),
    )
    return RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=MSG_KIND_QUERY_REQUEST,
        request_id=f"req-{query.nonce}",
        source_network="destnet",
        destination_network=network,
        payload=query.encode(),
    ).encode()


def reply_of(raw: bytes) -> QueryResponse:
    envelope = RelayEnvelope.decode(raw)
    assert envelope.kind == MSG_KIND_QUERY_RESPONSE
    return QueryResponse.decode(envelope.payload)


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("segment", ["ledger", "function"])
def test_empty_segment_is_answered(request, platform, segment):
    target = request.getfixturevalue(f"{platform}_target")
    reply = reply_of(target.relay.handle_request(forwarded(target, **{segment: ""})))
    assert reply.status == STATUS_ERROR
    if platform == "fabric" and segment == "ledger":
        # Fabric names its one ledger, its channel, and refuses any other
        # ledger name before the address is decoded.
        assert reply.error == "network 'fabnetc' has no ledger ''"
    else:
        assert reply.error == (
            f"query has an invalid address: address segment {segment!r} must be non-empty"
        )


class FailingDriver(NetworkDriver):
    """A driver with a bug: every query raises."""

    platform = "failing"

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        raise RuntimeError("driver bug")


def test_a_raising_driver_is_answered_with_an_error_reply(quorum_target):
    relay = RelayService("quornetc", InMemoryRegistry())
    relay.register_driver(FailingDriver("quornetc"))
    reply = reply_of(relay.handle_request(forwarded(quorum_target)))
    assert (reply.status, reply.error) == (
        STATUS_ERROR,
        "driver failed to execute the query: driver bug",
    )


def test_connection_keeps_serving_after_a_refused_query(quorum_target):
    target = quorum_target
    server = RelayServer(target.relay, max_workers=2).start()
    transport = TcpTransport(timeout=10.0, max_pool_size=1)
    try:
        endpoint = transport.connect(server.address)
        refused = reply_of(endpoint.handle_request(forwarded(target, function="")))
        served = reply_of(endpoint.handle_request(forwarded(target)))
        stats = server.stats.snapshot()
    finally:
        transport.close()
        server.stop()
    assert refused.status == STATUS_ERROR
    assert (served.status, served.error) == (STATUS_OK, "")
    assert stats["connections_accepted"] == 1
    assert stats["frames_rejected"] == 0

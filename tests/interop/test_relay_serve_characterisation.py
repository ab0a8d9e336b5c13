"""Characterisation of the relay's serve half.

One case per request kind and outcome — undecodable payload, no driver
for the target network, a driver without the needed capability, served,
and (for the verbs that answer a refusal in-band) denied — plus an
unknown kind. Each case pins what a caller and an operator observe: the
reply kind, the ``retryable`` and ``error-kind`` headers, the error or
ack text, and the exact :meth:`RelayStats.snapshot` delta. A second,
byte-identical delivery pins the exactly-once record: side-effecting
kinds are answered from it, everything else is served again.
"""

from __future__ import annotations

import pytest

from repro.errors import AccessDeniedError
from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.base import NetworkDriver
from repro.interop.relay import RelayService
from repro.ops.trace import SPAN_ID_HEADER, TRACE_ID_HEADER
from repro.proto.messages import (
    ASSET_COMMAND_KINDS,
    ERROR_KIND_CAPABILITY,
    ERROR_KIND_HEADER,
    INVOCATION_TRANSACTION,
    MSG_KIND_ASSET_ACK,
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_STATUS,
    MSG_KIND_ASSET_UNLOCK,
    MSG_KIND_BATCH_REQUEST,
    MSG_KIND_BATCH_RESPONSE,
    MSG_KIND_ERROR,
    MSG_KIND_EVENT_ACK,
    MSG_KIND_EVENT_PUBLISH,
    MSG_KIND_EVENT_SUBSCRIBE,
    MSG_KIND_EVENT_UNSUBSCRIBE,
    MSG_KIND_QUERY_REQUEST,
    MSG_KIND_QUERY_RESPONSE,
    MSG_KIND_TRANSACT_REQUEST,
    MSG_KIND_TRANSACT_RESPONSE,
    PROTOCOL_VERSION,
    READ_ONLY_KINDS,
    SIDE_EFFECTING_KINDS,
    STATUS_ACCESS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    AssetAckMsg,
    AssetCommandMsg,
    BatchQueryRequest,
    BatchQueryResponse,
    EventAck,
    EventNotificationMsg,
    EventSubscribeRequest,
    EventUnsubscribeRequest,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
)

SOURCE = "srcnet"
CALLER = "callnet"
UNKNOWN_KIND = 99
TRACE = {TRACE_ID_HEADER: "trace-char", SPAN_ID_HEADER: "span-char"}
STATUS_NAMES = {STATUS_OK: "ok", STATUS_ERROR: "error", STATUS_ACCESS_DENIED: "denied"}
ASSET_STATES = {
    MSG_KIND_ASSET_LOCK: "LOCKED",
    MSG_KIND_ASSET_CLAIM: "CLAIMED",
    MSG_KIND_ASSET_UNLOCK: "UNLOCKED",
    MSG_KIND_ASSET_STATUS: "STATUS",
}
ASSET_NAMES = {
    MSG_KIND_ASSET_LOCK: "lock",
    MSG_KIND_ASSET_CLAIM: "claim",
    MSG_KIND_ASSET_UNLOCK: "unlock",
    MSG_KIND_ASSET_STATUS: "status",
}

NO_DRIVER = f"relay 'relay-{SOURCE}' has no driver for network '{SOURCE}'"


def incapable(capability: str) -> str:
    return f"relay 'relay-{SOURCE}' has no {capability}-capable driver for network '{SOURCE}'"


class QueryOnlyDriver(NetworkDriver):
    """Answers queries and holds no other capability."""

    platform = "test"

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        return QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_OK,
            result_plain=b"query:" + ",".join(query.args).encode(),
        )


class FullDriver(QueryOnlyDriver):
    """Every capability, each verb answering deterministically — or
    refusing with :class:`AccessDeniedError` when built with ``deny``."""

    supports_transactions = True
    supports_events = True
    supports_assets = True

    def __init__(self, network_id: str, deny: bool = False) -> None:
        super().__init__(network_id)
        self.deny = deny

    def execute_transaction(self, query: NetworkQuery) -> QueryResponse:
        return QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_OK,
            result_plain=b"tx:" + ",".join(query.args).encode(),
        )

    def open_event_tap(self, request, listener):
        if self.deny:
            raise AccessDeniedError("event rule missing")
        return object()

    def close_event_tap(self, tap) -> None:
        pass

    def _ack(self, kind: int, command: AssetCommandMsg) -> AssetAckMsg:
        if self.deny:
            raise AccessDeniedError(f"{ASSET_NAMES[kind]} denied")
        return AssetAckMsg(
            version=PROTOCOL_VERSION,
            nonce=command.nonce,
            status=STATUS_OK,
            asset_id=command.asset_id,
            state=ASSET_STATES[kind],
        )

    def lock_asset(self, command):
        return self._ack(MSG_KIND_ASSET_LOCK, command)

    def claim_asset(self, command):
        return self._ack(MSG_KIND_ASSET_CLAIM, command)

    def unlock_asset(self, command):
        return self._ack(MSG_KIND_ASSET_UNLOCK, command)

    def asset_status(self, command):
        return self._ack(MSG_KIND_ASSET_STATUS, command)


def address() -> NetworkAddressMsg:
    return NetworkAddressMsg(network=SOURCE, ledger="ledger", contract="cc", function="fn")


def query(nonce: str = "n-1", invocation: str = "") -> NetworkQuery:
    return NetworkQuery(
        version=PROTOCOL_VERSION,
        address=address(),
        args=["a"],
        nonce=nonce,
        invocation=invocation,
    )


def asset_command() -> AssetCommandMsg:
    return AssetCommandMsg(
        version=PROTOCOL_VERSION, address=address(), asset_id="A-1", nonce="an-1"
    )


PAYLOADS = {
    MSG_KIND_QUERY_REQUEST: query,
    # One read member and one transaction member, so every batch case
    # shows both routes.
    MSG_KIND_BATCH_REQUEST: lambda: BatchQueryRequest(
        version=PROTOCOL_VERSION,
        queries=[query("n-1"), query("n-2", INVOCATION_TRANSACTION)],
    ),
    MSG_KIND_TRANSACT_REQUEST: lambda: query(invocation=INVOCATION_TRANSACTION),
    MSG_KIND_EVENT_SUBSCRIBE: lambda: EventSubscribeRequest(
        version=PROTOCOL_VERSION,
        address=address(),
        event_name="Evt",
        subscription_id="sub-1",
    ),
    MSG_KIND_EVENT_PUBLISH: lambda: EventNotificationMsg(
        version=PROTOCOL_VERSION,
        subscription_id="sub-1",
        source_network=CALLER,
        name="Evt",
        payload=b"p",
    ),
    MSG_KIND_EVENT_UNSUBSCRIBE: lambda: EventUnsubscribeRequest(
        version=PROTOCOL_VERSION, subscription_id="sub-1"
    ),
    **{kind: asset_command for kind in ASSET_COMMAND_KINDS},
    UNKNOWN_KIND: query,
}


def response_text(response: QueryResponse) -> str:
    detail = response.error or response.result_plain.decode()
    return f"{STATUS_NAMES[response.status]}: {detail}"


def reply_text(reply: RelayEnvelope) -> str:
    """The error or ack text a caller reads out of ``reply``."""
    if reply.kind == MSG_KIND_ERROR:
        return reply.payload.decode("utf-8")
    if reply.kind in (MSG_KIND_QUERY_RESPONSE, MSG_KIND_TRANSACT_RESPONSE):
        return response_text(QueryResponse.decode(reply.payload))
    if reply.kind == MSG_KIND_BATCH_RESPONSE:
        batch = BatchQueryResponse.decode(reply.payload)
        return " | ".join(response_text(member) for member in batch.responses)
    if reply.kind == MSG_KIND_EVENT_ACK:
        ack = EventAck.decode(reply.payload)
        return f"{STATUS_NAMES[ack.status]}: {ack.error or ack.subscription_id}"
    assert reply.kind == MSG_KIND_ASSET_ACK, reply.kind
    ack = AssetAckMsg.decode(reply.payload)
    return f"{STATUS_NAMES[ack.status]}: {ack.error or ack.state}"


def served_once(relay: RelayService, request: bytes) -> tuple[bytes, dict[str, int]]:
    before = relay.stats.snapshot()
    reply = relay.handle_request(request)
    after = relay.stats.snapshot()
    return reply, {
        name: after[name] - before[name] for name in after if after[name] != before[name]
    }


def error(text: str, error_kind: str | None = None) -> tuple:
    return (MSG_KIND_ERROR, "false", error_kind, text)


def reply(kind: int, text: str) -> tuple:
    return (kind, None, None, text)


FAILED = {"requests_failed": 1}
CAPABILITY = ERROR_KIND_CAPABILITY

# (kind, situation, (reply kind, retryable, error-kind, text), stats delta).
# An "undecodable …:" text ends at the colon: the detail after it is the
# decoder's own wording.
CASES = [
    (MSG_KIND_QUERY_REQUEST, "undecodable", error("undecodable query: "), FAILED),
    (MSG_KIND_QUERY_REQUEST, "no driver", error(NO_DRIVER), FAILED),
    (
        MSG_KIND_QUERY_REQUEST,
        "served",
        reply(MSG_KIND_QUERY_RESPONSE, "ok: query:a"),
        {"requests_served": 1},
    ),
    (MSG_KIND_BATCH_REQUEST, "undecodable", error("undecodable batch: "), FAILED),
    (
        MSG_KIND_BATCH_REQUEST,
        "no driver",
        reply(
            MSG_KIND_BATCH_RESPONSE,
            f"error: {NO_DRIVER} | error: {incapable('transaction')}",
        ),
        {"requests_failed": 2, "batches_served": 1},
    ),
    (
        MSG_KIND_BATCH_REQUEST,
        "incapable",
        reply(MSG_KIND_BATCH_RESPONSE, f"ok: query:a | error: {incapable('transaction')}"),
        {"requests_served": 1, "requests_failed": 1, "batches_served": 1},
    ),
    (
        MSG_KIND_BATCH_REQUEST,
        "served",
        reply(MSG_KIND_BATCH_RESPONSE, "ok: query:a | ok: tx:a"),
        {"requests_served": 2, "transactions_served": 1, "batches_served": 1},
    ),
    (MSG_KIND_TRANSACT_REQUEST, "undecodable", error("undecodable transaction: "), FAILED),
    (
        MSG_KIND_TRANSACT_REQUEST,
        "no driver",
        error(incapable("transaction"), CAPABILITY),
        FAILED,
    ),
    (
        MSG_KIND_TRANSACT_REQUEST,
        "incapable",
        error(incapable("transaction"), CAPABILITY),
        FAILED,
    ),
    (
        MSG_KIND_TRANSACT_REQUEST,
        "served",
        reply(MSG_KIND_TRANSACT_RESPONSE, "ok: tx:a"),
        {"requests_served": 1, "transactions_served": 1},
    ),
    (MSG_KIND_EVENT_SUBSCRIBE, "undecodable", error("undecodable subscription: "), FAILED),
    (MSG_KIND_EVENT_SUBSCRIBE, "no driver", error(incapable("event"), CAPABILITY), FAILED),
    (MSG_KIND_EVENT_SUBSCRIBE, "incapable", error(incapable("event"), CAPABILITY), FAILED),
    (
        MSG_KIND_EVENT_SUBSCRIBE,
        "served",
        reply(MSG_KIND_EVENT_ACK, "ok: sub-1"),
        {"requests_served": 1, "subscriptions_served": 1},
    ),
    (
        MSG_KIND_EVENT_SUBSCRIBE,
        "denied",
        reply(MSG_KIND_EVENT_ACK, "denied: event rule missing"),
        FAILED,
    ),
    (MSG_KIND_EVENT_PUBLISH, "undecodable", error("undecodable notification: "), FAILED),
    *(
        (
            MSG_KIND_EVENT_PUBLISH,
            situation,
            reply(
                MSG_KIND_EVENT_ACK,
                f"error: relay 'relay-{SOURCE}' has no sink for subscription 'sub-1'",
            ),
            FAILED,
        )
        for situation in ("no driver", "incapable")
    ),
    (
        MSG_KIND_EVENT_PUBLISH,
        "served",
        reply(MSG_KIND_EVENT_ACK, "ok: sub-1"),
        {"requests_served": 1, "events_delivered": 1},
    ),
    (MSG_KIND_EVENT_UNSUBSCRIBE, "undecodable", error("undecodable unsubscribe: "), FAILED),
    *(
        (
            MSG_KIND_EVENT_UNSUBSCRIBE,
            situation,
            reply(MSG_KIND_EVENT_ACK, "ok: sub-1"),
            {"requests_served": 1},
        )
        for situation in ("no driver", "incapable", "served")
    ),
    *(
        case
        for kind in sorted(ASSET_COMMAND_KINDS)
        for case in (
            (kind, "undecodable", error("undecodable asset command: "), FAILED),
            (kind, "no driver", error(incapable("asset"), CAPABILITY), FAILED),
            (kind, "incapable", error(incapable("asset"), CAPABILITY), FAILED),
            (
                kind,
                "served",
                reply(MSG_KIND_ASSET_ACK, f"ok: {ASSET_STATES[kind]}"),
                {"requests_served": 1, "asset_commands_served": 1},
            ),
            (
                kind,
                "denied",
                reply(MSG_KIND_ASSET_ACK, f"denied: {ASSET_NAMES[kind]} denied"),
                FAILED,
            ),
        )
    ),
    (UNKNOWN_KIND, "served", error(f"unexpected message kind {UNKNOWN_KIND}"), FAILED),
]

_KIND_NAMES = {
    MSG_KIND_QUERY_REQUEST: "query",
    MSG_KIND_BATCH_REQUEST: "batch",
    MSG_KIND_TRANSACT_REQUEST: "transact",
    MSG_KIND_EVENT_SUBSCRIBE: "subscribe",
    MSG_KIND_EVENT_PUBLISH: "publish",
    MSG_KIND_EVENT_UNSUBSCRIBE: "unsubscribe",
    **{kind: f"asset-{name}" for kind, name in ASSET_NAMES.items()},
    UNKNOWN_KIND: "unknown-kind",
}


def test_matrix_covers_every_request_kind():
    covered = {kind for kind, *_ in CASES}
    assert SIDE_EFFECTING_KINDS | READ_ONLY_KINDS <= covered
    for kind in SIDE_EFFECTING_KINDS | READ_ONLY_KINDS:
        situations = {situation for k, situation, *_ in CASES if k == kind}
        assert {"undecodable", "no driver", "served"} <= situations, kind


@pytest.mark.parametrize(
    "kind, situation, expected, delta",
    [
        pytest.param(*case, id=f"{_KIND_NAMES[case[0]]}-{case[1].replace(' ', '-')}")
        for case in CASES
    ],
)
def test_serve_outcome(kind, situation, expected, delta):
    relay = RelayService(SOURCE, InMemoryRegistry())
    if situation == "incapable":
        relay.register_driver(QueryOnlyDriver(SOURCE))
    elif situation != "no driver":
        relay.register_driver(FullDriver(SOURCE, deny=situation == "denied"))
    delivered: list[EventNotificationMsg] = []
    if situation == "served" and kind == MSG_KIND_EVENT_PUBLISH:
        relay.register_event_sink("sub-1", delivered.append)
    request = RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=kind,
        request_id="req-char",
        source_network=CALLER,
        destination_network=SOURCE,
        payload=b"\xff" if situation == "undecodable" else PAYLOADS[kind]().encode(),
        headers=dict(TRACE),
    ).encode()

    raw, first_delta = served_once(relay, request)
    answer = RelayEnvelope.decode(raw)
    reply_kind, retryable, error_kind, text = expected
    assert answer.kind == reply_kind
    assert answer.headers.get("retryable") == retryable
    assert answer.headers.get(ERROR_KIND_HEADER) == error_kind
    if text.startswith("undecodable "):
        assert reply_text(answer).startswith(text)
    else:
        assert reply_text(answer) == text
    assert first_delta == delta
    # Every reply correlates to the request and carries the caller's trace.
    assert answer.request_id == "req-char"
    assert answer.source_network == SOURCE
    assert answer.destination_network == ("" if reply_kind == MSG_KIND_ERROR else CALLER)
    assert {k: answer.headers[k] for k in TRACE} == TRACE
    assert len(delivered) == (1 if situation == "served" and kind == MSG_KIND_EVENT_PUBLISH else 0)

    replayed, replay_delta = served_once(relay, request)
    assert replayed == raw
    if kind in SIDE_EFFECTING_KINDS:
        assert replay_delta == {"duplicates_suppressed": 1}
    else:
        assert replay_delta == delta

"""A subscriber-proposed subscription id is claimed once per source relay."""

from __future__ import annotations

from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.base import NetworkDriver
from repro.interop.relay import RelayService
from repro.proto.messages import (
    MSG_KIND_EVENT_ACK,
    MSG_KIND_EVENT_SUBSCRIBE,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    EventAck,
    EventSubscribeRequest,
    NetworkAddressMsg,
    RelayEnvelope,
)


class TapDriver(NetworkDriver):
    supports_events = True

    def __init__(self) -> None:
        super().__init__("srcnet")
        self.taps = 0

    def execute_query(self, query):
        raise AssertionError("no queries here")

    def open_event_tap(self, request, listener):
        self.taps += 1
        return self.taps

    def close_event_tap(self, tap) -> None:
        pass


def subscribe(relay: RelayService, request_id: str) -> EventAck:
    request = EventSubscribeRequest(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(network="srcnet", ledger="l", contract="cc"),
        event_name="Evt",
        subscription_id="sub-taken",
    )
    reply = RelayEnvelope.decode(
        relay.handle_request(
            RelayEnvelope(
                version=PROTOCOL_VERSION,
                kind=MSG_KIND_EVENT_SUBSCRIBE,
                request_id=request_id,
                source_network="callnet",
                destination_network="srcnet",
                payload=request.encode(),
            ).encode()
        )
    )
    assert reply.kind == MSG_KIND_EVENT_ACK
    return EventAck.decode(reply.payload)


def test_second_subscribe_with_a_live_id_is_refused_without_a_tap():
    relay = RelayService("srcnet", InMemoryRegistry())
    driver = TapDriver()
    relay.register_driver(driver)
    first = subscribe(relay, "req-1")
    assert (first.status, first.subscription_id) == (STATUS_OK, "sub-taken")
    second = subscribe(relay, "req-2")
    assert second.status == STATUS_ERROR
    assert second.subscription_id == ""
    assert second.error == "subscription id 'sub-taken' already in use"
    assert driver.taps == 1
    assert relay.stats.requests_failed == 1

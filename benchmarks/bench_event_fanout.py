"""E-events — publish → verified delivery latency for N subscribers.

The §2 third primitive through the gateway: N ``GatewaySession``
subscribers hold relay-envelope subscriptions to the same chaincode event;
one source-network commit fans N ``MSG_KIND_EVENT_PUBLISH`` envelopes out
through discovery + the interceptor chain, and each subscriber then
upgrades its unauthenticated notification to trusted data with a
proof-carrying query (notify-then-verify).

The two phases are reported separately because they scale differently:
the *push* is one compact envelope per subscriber (no crypto), while the
*verify* runs the full trusted-transfer protocol per subscriber — the
price of not believing unauthenticated notifications.
"""

from __future__ import annotations

import time

import pytest

from repro.api import EventVerifier, InteropGateway
from repro.interop.events import enable_relay_events
from repro.sim import format_table

GET_BL_ADDRESS = "stl/trade-logistics/TradeLensCC/GetBillOfLading"
CHAINCODE_ADDRESS = "stl/trade-logistics/TradeLensCC"
EVENT_NAME = "BillOfLadingIssued"
POLICY = "AND(org:seller-org, org:carrier-org)"
SUBSCRIBER_COUNTS = (1, 4, 8)


@pytest.fixture(scope="module")
def event_scenario(scenario):
    """The bench scenario with relay-side events enabled and exposed."""
    stl_admin = scenario.stl.org("seller-org").member("admin")
    enable_relay_events(scenario.stl, scenario.stl_relay)
    scenario.stl.gateway.submit(
        stl_admin,
        "ecc",
        "AddAccessRule",
        ["swt", "seller-bank-org", "TradeLensCC", f"event:{EVENT_NAME}"],
    )
    return scenario


def _verifier() -> EventVerifier:
    return EventVerifier(
        address=GET_BL_ADDRESS,
        args=lambda notification: [notification.payload.decode()],
        policy=POLICY,
    )


def _issue(scenario, po_ref: str) -> None:
    scenario.stl_seller_app.create_shipment(po_ref, "fanout goods")
    scenario.carrier_app.accept_shipment(po_ref)
    scenario.carrier_app.record_handover(po_ref)
    scenario.carrier_app.issue_bill_of_lading(po_ref, vessel="MV Fanout")


def _run_fanout(scenario, subscribers: int, po_ref: str):
    """Subscribe N sessions, publish once, verify every delivery."""
    gateway = InteropGateway.from_client(scenario.swt_seller_client.interop_client)
    sessions = [gateway.session() for _ in range(subscribers)]
    streams = [
        session.subscribe(CHAINCODE_ADDRESS, EVENT_NAME, verifier=_verifier())
        for session in sessions
    ]
    published_before = scenario.stl_relay.stats.events_published

    push_started = time.perf_counter()
    _issue(scenario, po_ref)
    push_seconds = time.perf_counter() - push_started

    verify_started = time.perf_counter()
    events = [stream.take() for stream in streams]
    verify_seconds = time.perf_counter() - verify_started

    assert all(event is not None for event in events)
    assert all(event.notification.payload == po_ref.encode() for event in events)
    assert all(len(event.verification.proof) == 2 for event in events)
    assert (
        scenario.stl_relay.stats.events_published - published_before == subscribers
    )
    for session in sessions:
        session.close()
    return push_seconds, verify_seconds


def test_event_fanout_scaling(event_scenario):
    """Acceptance: every subscriber gets its verified event; the table
    shows how publish fan-out and verification cost scale with N."""
    rows = []
    for index, subscribers in enumerate(SUBSCRIBER_COUNTS):
        push_s, verify_s = _run_fanout(
            event_scenario, subscribers, f"PO-FAN-{index}"
        )
        rows.append(
            (
                str(subscribers),
                f"{push_s * 1e3:9.2f} ms",
                f"{verify_s * 1e3:9.2f} ms",
                f"{(push_s + verify_s) * 1e3:9.2f} ms",
                f"{(push_s + verify_s) / subscribers * 1e3:9.2f} ms",
            )
        )
    print(f"\nE-events — publish → verified delivery ({EVENT_NAME})")
    print(
        format_table(
            rows,
            headers=[
                "subscribers",
                "commit+push",
                "verify (proof-backed)",
                "total",
                "per subscriber",
            ],
        )
    )


def test_bench_single_subscriber_roundtrip(benchmark, event_scenario):
    """Wall-clock of one publish → verified-delivery round."""
    counter = iter(range(1000))

    def run():
        return _run_fanout(
            event_scenario, 1, f"PO-FAN-BENCH-{next(counter)}"
        )

    push_s, verify_s = benchmark.pedantic(run, rounds=3, iterations=1)
    assert push_s >= 0 and verify_s >= 0

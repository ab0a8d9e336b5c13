"""A two-party exchange is an N=2 ring: same envelopes, same windows.

Characterises ``gateway.exchange()`` on the ``exchange_scenario`` fixture
by the envelopes that leave each party's relay, and runs the identical
assertions over a two-leg ``gateway.exchange_cycle()`` with the matching
window (``cycle_timeout = offer_timeout``, ``hop_gap = offer_timeout −
counter_timeout``), so the equivalence is pinned by a test rather than
argued in prose.
"""

from __future__ import annotations

import pytest

from repro.api import InteropGateway
from repro.proto.messages import (
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_STATUS,
)

OFFER_ADDRESS = "fabnet/trade/assetscc"
ASK_ADDRESS = "quornet/state/asset-vault"
OFFER_POLICY = "AND(org:traders-org, org:audit-org)"
ASK_POLICY = "AND(org:op-org-1, org:op-org-2)"

ASSET_KIND_NAMES = {
    MSG_KIND_ASSET_LOCK: "LOCK",
    MSG_KIND_ASSET_CLAIM: "CLAIM",
    MSG_KIND_ASSET_STATUS: "STATUS",
}

EXPECTED_ENVELOPES = [
    ("alice", "LOCK"),
    ("bob", "GetLock"),
    ("bob", "LOCK"),
    ("alice", "GetLock"),
    ("alice", "CLAIM"),
    ("bob", "STATUS"),
    ("bob", "CLAIM"),
]


def spy_on_relays(scenario, monkeypatch) -> list[tuple[str, str]]:
    """Record every asset command and query each party's relay sends."""
    sent: list[tuple[str, str]] = []
    for party, relay in (
        ("alice", scenario.fabric_relay),
        ("bob", scenario.quorum_relay),
    ):
        send_asset, send_query = relay.remote_asset, relay.remote_query

        def remote_asset(kind, command, party=party, send=send_asset):
            sent.append((party, ASSET_KIND_NAMES[kind]))
            return send(kind, command)

        def remote_query(query, party=party, send=send_query):
            sent.append((party, query.address.function))
            return send(query)

        monkeypatch.setattr(relay, "remote_asset", remote_asset)
        monkeypatch.setattr(relay, "remote_query", remote_query)
    return sent


def run_as_exchange(scenario) -> dict:
    exchange = (
        InteropGateway.from_client(scenario.alice_client)
        .exchange()
        .offer(OFFER_ADDRESS, "GOLD-1")
        .ask(ASK_ADDRESS, "OIL-9")
        .with_counterparty(scenario.bob_client)
        .with_timeouts(offer=600.0, counter=300.0)
        .with_policies(offer=OFFER_POLICY, ask=ASK_POLICY)
        .build()
    )
    result = exchange.run()
    return {
        "completed": result.completed,
        "deadlines": [exchange.offer_deadline, exchange.counter_deadline],
        "verify_margin": exchange.verify_margin,
        "locks": [result.offer_lock, result.counter_lock],
        "claims": [result.offer_claim, result.counter_claim],
        "preimage": result.preimage,
    }


def run_as_cycle(scenario) -> dict:
    cycle = (
        InteropGateway.from_client(scenario.alice_client)
        .exchange_cycle()
        .leg(OFFER_ADDRESS, "GOLD-1", policy=OFFER_POLICY)
        .leg(ASK_ADDRESS, "OIL-9", party=scenario.bob_client, policy=ASK_POLICY)
        .with_window(timeout=600.0, hop_gap=300.0)
        .build()
    )
    result = cycle.run()
    return {
        "completed": result.completed,
        "deadlines": list(cycle.deadlines),
        "verify_margin": cycle.verify_margin,
        "locks": list(result.locks),
        "claims": list(result.claims),
        "preimage": result.preimage,
    }


@pytest.mark.parametrize("drive", [run_as_exchange, run_as_cycle])
def test_seven_envelopes_same_windows_same_owners(
    exchange_scenario, monkeypatch, drive
):
    scenario = exchange_scenario
    sent = spy_on_relays(scenario, monkeypatch)

    outcome = drive(scenario)

    assert sent == EXPECTED_ENVELOPES
    assert outcome["completed"]
    # The fixture's clock starts at 1000.0 and nothing advances it.
    assert outcome["deadlines"] == [1600.0, 1300.0]
    assert outcome["verify_margin"] == 150.0
    # All four side-effecting commits are attested with real tx ids.
    for ack in outcome["locks"] + outcome["claims"]:
        assert ack is not None and ack.tx_id
    # One preimage settles both legs.
    offer_claim, counter_claim = outcome["claims"]
    assert outcome["preimage"]
    assert counter_claim.preimage == offer_claim.preimage == outcome["preimage"]
    assert scenario.gold_owner() == "bob@quornet"
    assert scenario.oil_owner() == "alice@fabnet"

"""Counts and outcomes behind the paper's §4.3 flow and §5 evaluation.

Each test pins one claim as a count or an outcome, never a duration:
Table 1's glossary, the combined CMDAC's one cross-contract call per
endorsing peer, one source execution per required attestation, exposing
a second function by one policy rule, and availability with k redundant
relays of which f have failed.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import build_trade_scenario
from repro.apps.glossary import GLOSSARY, render_glossary
from repro.errors import AccessDeniedError, RelayUnavailableError
from repro.fabric.chaincode import ChaincodeStub

POLICY = "AND(org:seller-org, org:carrier-org)"
SHIPMENT_ADDRESS = "stl/trade-logistics/TradeLensCC/GetShipment"


def test_table1_lists_the_papers_seven_acronyms():
    text = render_glossary()
    acronyms = [acronym for acronym, _ in GLOSSARY]
    assert acronyms == ["L/C", "B/L", "(S)TL", "(S)WT", "SWT-SC", "ECC", "CMDAC"]
    for acronym in acronyms:
        assert acronym in text


class TestMessageFlow:
    """§4.3: the source executes the query once per required org, and the
    destination validates the proof in one call to the combined CMDAC."""

    def test_combined_cmdac_is_one_cross_contract_call_per_endorsing_peer(
        self, shipped_scenario, monkeypatch
    ):
        scenario, po_ref = shipped_scenario
        client = scenario.swt_seller_client
        fetched = client.fetch_bill_of_lading(po_ref)
        calls: list[tuple[str, str]] = []
        original = ChaincodeStub.invoke_chaincode

        def counting(self, chaincode_name, function, args):
            calls.append((chaincode_name, function))
            return original(self, chaincode_name, function, args)

        monkeypatch.setattr(ChaincodeStub, "invoke_chaincode", counting)
        lc = client.upload_dispatch_docs(po_ref, fetched)

        assert lc["status"] == "DOCS_UPLOADED"
        ledger = scenario.swt.peers[0].ledger
        committed = ledger.block(ledger.height - 1).transactions[-1]
        assert committed.function == "UploadDispatchDocs"
        endorsers = len(committed.endorsements)
        assert endorsers == 2
        cmdac_calls = [call for call in calls if call[0] == "cmdac"]
        assert cmdac_calls == [("cmdac", "ValidateProof")] * endorsers

    def test_a_query_runs_once_on_each_required_peer(self, shipped_scenario):
        scenario, po_ref = shipped_scenario
        before = sum(peer.endorsement_count for peer in scenario.stl.peers)
        fetched = scenario.swt_seller_client.fetch_bill_of_lading(po_ref)
        executions = sum(peer.endorsement_count for peer in scenario.stl.peers) - before
        assert executions == len(fetched.proof) == 2
        # The proof is self-contained: kilobytes, not megabytes.
        assert len(fetched.proof_json) < 64 * 1024


def test_exposing_another_function_takes_one_policy_rule(shipped_scenario):
    """§5: permitting access to functions other than GetBillOfLading
    "only requires the addition of a policy rule, and no further chaincode
    modification"."""
    scenario, po_ref = shipped_scenario
    client = scenario.swt_seller_client.interop_client
    with pytest.raises(AccessDeniedError):
        client.remote_query(SHIPMENT_ADDRESS, [po_ref], policy=POLICY)

    admin = scenario.stl.org("seller-org").member("admin")
    height = scenario.stl.peers[0].ledger.height
    added = scenario.stl.gateway.submit(
        admin,
        "ecc",
        "AddAccessRule",
        ["swt", "seller-bank-org", "TradeLensCC", "GetShipment"],
    )
    assert added.committed
    assert scenario.stl.peers[0].ledger.height == height + 1

    result = client.remote_query(SHIPMENT_ADDRESS, [po_ref], policy=POLICY)
    assert json.loads(result.data)["po_ref"] == po_ref
    assert b"test goods" in result.data


@pytest.mark.parametrize("relays", [1, 2, 3])
def test_a_query_is_served_iff_one_of_k_relays_survives(relays):
    """§5: "the effects of DoS attacks can be mitigated by adding
    redundant relays": with k relays of which f have failed, a query is
    served iff f < k."""
    scenario = build_trade_scenario(stl_relay_count=relays)
    po_ref = "PO-AVAIL"
    scenario.stl_seller_app.create_shipment(po_ref, "goods")
    scenario.carrier_app.accept_shipment(po_ref)
    scenario.carrier_app.record_handover(po_ref)
    scenario.carrier_app.issue_bill_of_lading(po_ref, "MV A")
    for failed in range(relays + 1):
        for index, relay in enumerate(scenario.stl_relays):
            relay.available = index >= failed
        try:
            fetched = scenario.swt_seller_client.fetch_bill_of_lading(po_ref)
        except RelayUnavailableError:
            served = False
        else:
            served = json.loads(fetched.data)["po_ref"] == po_ref
        assert served == (failed < relays), (relays, failed)

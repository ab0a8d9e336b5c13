"""Tests for the ECC and CMDAC system contracts (as deployed chaincode)."""

from __future__ import annotations

import json

import pytest

from repro.apps import build_trade_scenario
from repro.apps.stl.chaincode import STL_CHAINCODE_NAME
from repro.errors import EndorsementError
from repro.interop.contracts import CMDAC_NAME, ECC_NAME


@pytest.fixture()
def scenario(trade_scenario):
    return trade_scenario


def stl_admin(scenario):
    return scenario.stl.org("seller-org").member("admin")


def swt_admin(scenario):
    return scenario.swt.org("buyer-bank-org").member("admin")


class TestECC:
    def test_rule_recorded_by_bootstrap(self, scenario):
        raw = scenario.stl.gateway.evaluate(
            stl_admin(scenario), ECC_NAME, "ListAccessRules", []
        )
        rules = json.loads(raw)
        assert ["swt", "seller-bank-org", STL_CHAINCODE_NAME, "GetBillOfLading"] in rules

    def test_add_and_remove_rule(self, scenario):
        admin = stl_admin(scenario)
        scenario.stl.gateway.submit(
            admin, ECC_NAME, "AddAccessRule", ["swt", "*", "SomeCC", "*"]
        )
        rules = json.loads(
            scenario.stl.gateway.evaluate(admin, ECC_NAME, "ListAccessRules", [])
        )
        assert ["swt", "*", "SomeCC", "*"] in rules
        scenario.stl.gateway.submit(
            admin, ECC_NAME, "RemoveAccessRule", ["swt", "*", "SomeCC", "*"]
        )
        rules = json.loads(
            scenario.stl.gateway.evaluate(admin, ECC_NAME, "ListAccessRules", [])
        )
        assert ["swt", "*", "SomeCC", "*"] not in rules

    def test_remove_missing_rule_fails(self, scenario):
        with pytest.raises(EndorsementError, match="no access rule"):
            scenario.stl.gateway.submit(
                stl_admin(scenario), ECC_NAME, "RemoveAccessRule", ["a", "b", "c", "d"]
            )

    def test_wildcard_network_rejected(self, scenario):
        with pytest.raises(EndorsementError, match="specific network"):
            scenario.stl.gateway.submit(
                stl_admin(scenario), ECC_NAME, "AddAccessRule", ["*", "o", "cc", "fn"]
            )

    def test_wildcard_chaincode_rejected(self, scenario):
        with pytest.raises(EndorsementError, match="specific chaincode"):
            scenario.stl.gateway.submit(
                stl_admin(scenario), ECC_NAME, "AddAccessRule", ["swt", "o", "*", "fn"]
            )

    def test_unknown_function(self, scenario):
        with pytest.raises(EndorsementError, match="no function"):
            scenario.stl.gateway.evaluate(stl_admin(scenario), ECC_NAME, "Bogus", [])

    def test_seal_response_plain(self, scenario):
        envelope = scenario.stl.gateway.evaluate(
            stl_admin(scenario),
            ECC_NAME,
            "SealResponse",
            [b"data".hex(), "", "false"],
        )
        from repro.interop.proofs import unseal_result

        assert unseal_result(envelope) == b"data"

    def test_seal_response_invalid_pubkey(self, scenario):
        with pytest.raises(EndorsementError, match="public key"):
            scenario.stl.gateway.evaluate(
                stl_admin(scenario),
                ECC_NAME,
                "SealResponse",
                [b"data".hex(), "zz", "true"],
            )


class TestCMDAC:
    def test_configs_recorded_by_linking(self, scenario):
        raw = scenario.swt.gateway.evaluate(
            swt_admin(scenario), CMDAC_NAME, "GetNetworkConfig", ["stl"]
        )
        from repro.proto.messages import NetworkConfigMsg

        config = NetworkConfigMsg.decode(bytes.fromhex(raw.decode("ascii")))
        assert config.network_id == "stl"
        assert {org.org_id for org in config.organizations} == {
            "seller-org",
            "carrier-org",
        }

    def test_list_networks(self, scenario):
        raw = scenario.swt.gateway.evaluate(
            swt_admin(scenario), CMDAC_NAME, "ListNetworks", []
        )
        assert json.loads(raw) == ["stl"]

    def test_verification_policy_recorded(self, scenario):
        raw = scenario.swt.gateway.evaluate(
            swt_admin(scenario), CMDAC_NAME, "GetVerificationPolicy", ["stl"]
        )
        assert raw.decode() == "AND(org:seller-org, org:carrier-org)"

    def test_missing_config_errors(self, scenario):
        with pytest.raises(EndorsementError, match="no configuration"):
            scenario.swt.gateway.evaluate(
                swt_admin(scenario), CMDAC_NAME, "GetNetworkConfig", ["atlantis"]
            )

    def test_missing_policy_errors(self, scenario):
        with pytest.raises(EndorsementError, match="no verification policy"):
            scenario.swt.gateway.evaluate(
                swt_admin(scenario), CMDAC_NAME, "GetVerificationPolicy", ["atlantis"]
            )

    def test_malformed_policy_rejected_at_write(self, scenario):
        with pytest.raises(EndorsementError):
            scenario.swt.gateway.submit(
                swt_admin(scenario),
                CMDAC_NAME,
                "SetVerificationPolicy",
                ["stl", "NOT A POLICY ("],
            )

    def test_config_network_id_mismatch_rejected(self, scenario):
        config_hex = scenario.stl.export_config().encode().hex()
        with pytest.raises(EndorsementError, match="not"):
            scenario.swt.gateway.submit(
                swt_admin(scenario),
                CMDAC_NAME,
                "RecordNetworkConfig",
                ["wrong-name", config_hex],
            )

    def test_undecodable_config_rejected(self, scenario):
        with pytest.raises(EndorsementError):
            scenario.swt.gateway.submit(
                swt_admin(scenario),
                CMDAC_NAME,
                "RecordNetworkConfig",
                ["x", "zzzz"],
            )

    def test_validate_proof_full_path_via_use_case(self, shipped_scenario):
        """ValidateProof accepts a genuine proof and consumes the nonce."""
        scenario, po_ref = shipped_scenario
        fetched = scenario.swt_seller_client.fetch_bill_of_lading(po_ref)
        lc = scenario.swt_seller_client.upload_dispatch_docs(po_ref, fetched)
        assert lc["status"] == "DOCS_UPLOADED"
        # The nonce is now consumed on the SWT ledger.
        peer = scenario.swt.peers[0]
        nonce_key = f"cmdac\x00nonce/stl/{fetched.nonce}"
        assert peer.state.get(nonce_key) is not None

    def test_validate_proof_rejects_bad_args_json(self, scenario):
        with pytest.raises(EndorsementError):
            scenario.swt.gateway.evaluate(
                swt_admin(scenario),
                CMDAC_NAME,
                "ValidateProof",
                ["stl", "stl/l/c/f", "not-json", "n", "00", "[]"],
            )

    def test_validate_proof_rejects_address_network_mismatch(self, scenario):
        with pytest.raises(EndorsementError, match="does not belong"):
            scenario.swt.gateway.evaluate(
                swt_admin(scenario),
                CMDAC_NAME,
                "ValidateProof",
                ["stl", "other/l/c/f", "[]", "n", "00", "[]"],
            )

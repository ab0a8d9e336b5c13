"""Tests for the extension features: cross-network transactions.

Cross-network events are covered by ``tests/api/test_session.py`` and
``tests/conformance``.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro.errors import AccessDeniedError
from repro.interop.transactions import enable_remote_transactions
from repro.proto.messages import INVOCATION_TRANSACTION

POLICY = "AND(org:seller-org, org:carrier-org)"


@pytest.fixture()
def tx_scenario(trade_scenario):
    """Trade scenario with remote transactions enabled on STL."""
    scenario = trade_scenario
    invoker = scenario.stl.org("seller-org").enroll("interop-invoker", role="client")
    enable_remote_transactions(scenario.stl, scenario.stl_relay, invoker)
    admin = scenario.stl.org("seller-org").member("admin")
    # Expose CreateShipment for remote invocation by SWT's seller org.
    scenario.stl.gateway.submit(
        admin,
        "ecc",
        "AddAccessRule",
        ["swt", "seller-bank-org", "TradeLensCC", "CreateShipment"],
    )
    transact = partial(
        scenario.swt_seller_client.interop_client.remote_query,
        invocation=INVOCATION_TRANSACTION,
    )
    return scenario, transact


class TestRemoteTransactions:
    def test_remote_transaction_commits_on_source(self, tx_scenario):
        scenario, transact = tx_scenario
        result = transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-REMOTE-1", "remotely created goods"],
            policy=POLICY,
        )
        assert result.tx_id.startswith("tx-")
        assert result.attesting_orgs == ["carrier-org", "seller-org"]
        shipment = json.loads(result.result)
        assert shipment["po_ref"] == "PO-REMOTE-1"
        # The update is really on the source ledger.
        local = scenario.stl_seller_app.get_shipment("PO-REMOTE-1")
        assert local["status"] == "CREATED"

    def test_attestations_cover_commit_metadata(self, tx_scenario):
        scenario, transact = tx_scenario
        result = transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-REMOTE-2", "goods"],
            policy=POLICY,
        )
        assert result.block_number >= 0
        block = scenario.stl.peers[0].ledger.block(result.block_number)
        assert any(tx.tx_id == result.tx_id for tx in block.transactions)

    def test_unexposed_function_denied(self, tx_scenario):
        scenario, transact = tx_scenario
        with pytest.raises(AccessDeniedError):
            transact(
                "stl/trade-logistics/TradeLensCC/AcceptShipment",
                ["PO-REMOTE-1"],
                policy=POLICY,
            )

    def test_failed_source_transaction_reported(self, tx_scenario):
        scenario, transact = tx_scenario
        from repro.errors import RelayError

        transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-DUP", "goods"],
            policy=POLICY,
        )
        with pytest.raises(RelayError, match="already exists"):
            transact(
                "stl/trade-logistics/TradeLensCC/CreateShipment",
                ["PO-DUP", "goods"],
                policy=POLICY,
            )

    def test_non_confidential_remote_transaction(self, tx_scenario):
        scenario, transact = tx_scenario
        result = transact(
            "stl/trade-logistics/TradeLensCC/CreateShipment",
            ["PO-REMOTE-3", "goods"],
            policy=POLICY,
            confidential=False,
        )
        assert json.loads(result.result)["po_ref"] == "PO-REMOTE-3"

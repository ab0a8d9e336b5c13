"""Every driver family logs the query it executes, from the one template."""

from __future__ import annotations

import logging

import pytest

from repro.proto.messages import (
    PROTOCOL_VERSION,
    STATUS_OK,
    NetworkAddressMsg,
    NetworkQuery,
    VerificationPolicyMsg,
)


@pytest.mark.parametrize("platform", ["fabric", "quorum", "corda", "pubchain"])
def test_query_is_logged_at_debug(request, caplog, platform):
    target = request.getfixturevalue(f"{platform}_target")
    network, ledger, contract, function = target.query_address.split("/")
    query = NetworkQuery(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(
            network=network, ledger=ledger, contract=contract, function=function
        ),
        args=list(target.query_args),
        nonce=f"LOG-{platform}",
        auth=target.client.auth_info(),
        policy=VerificationPolicyMsg(expression=target.policy),
    )
    with caplog.at_level(logging.DEBUG, logger="repro.driver"):
        response = target.driver.execute_query(query)
    assert response.status == STATUS_OK
    [record] = [r for r in caplog.records if r.getMessage() == "driver executing query"]
    assert (record.network_id, record.contract, record.function, record.nonce) == (
        network,
        contract,
        function,
        f"LOG-{platform}",
    )

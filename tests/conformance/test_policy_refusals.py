"""One refusal text per verification-policy cause, on every driver family.

Every driver turns a request's policy into the peers that attest through
one call, :func:`repro.interop.policy.attesters_for`, before any side
effect. So a request whose policy is missing, empty, malformed or
unsatisfiable gets the same ``STATUS_ERROR`` text from Fabric, Quorum,
Corda and the public chain, for queries and, where the family serves
them, transactions, and a refused transaction commits nothing.
"""

from __future__ import annotations

import pytest

from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    NetworkAddressMsg,
    NetworkQuery,
    VerificationPolicyMsg,
)

#: cause -> (the policy the request carries, the refusal text)
CAUSES = {
    "no-policy": (None, "request carries no verification policy"),
    "empty-expression": ("", "request carries no verification policy"),
    "malformed": (
        "AND(org:a",
        "malformed verification policy: expected ',' or ')', found the end in "
        "policy 'AND(org:a'",
    ),
    "unsatisfiable": (
        "org:nobody-org",
        "verification policy org:nobody-org cannot be satisfied by the "
        "attesters of network '{network}'",
    ),
}
CELLS = [
    (platform, verb, cause)
    for platform in ("fabric", "quorum", "corda", "pubchain")
    for verb in ("query", "transact")
    if verb == "query" or platform in ("fabric", "corda")
    for cause in CAUSES
]


def request_for(target, verb: str, expression: str | None, tag: str) -> NetworkQuery:
    network, ledger, contract, function = (
        target.transact_address if verb == "transact" else target.query_address
    ).split("/")
    return NetworkQuery(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(
            network=network, ledger=ledger, contract=contract, function=function
        ),
        args=target.transact_args(tag) if verb == "transact" else target.query_args,
        nonce=tag,
        auth=target.client.auth_info(),
        policy=None if expression is None else VerificationPolicyMsg(expression=expression),
        invocation=INVOCATION_TRANSACTION if verb == "transact" else "",
    )


@pytest.mark.parametrize(
    "platform, verb, cause", [pytest.param(*cell, id="-".join(cell)) for cell in CELLS]
)
def test_policy_refusal(request, platform, verb, cause):
    target = request.getfixturevalue(f"{platform}_target")
    expression, text = CAUSES[cause]
    tag = f"POLICY-{verb}-{cause}"
    query = request_for(target, verb, expression, tag)
    if verb == "query":
        response = target.driver.execute_query(query)
    else:
        assert target.supports_transactions
        response = target.driver.execute_transaction(query)
        assert target.commit_count(tag) == 0
    assert (response.status, response.error) == (
        STATUS_ERROR,
        text.format(network=target.network_id),
    )


@pytest.mark.parametrize("platform", ["fabric", "corda"])
def test_satisfiable_transaction_still_commits(request, platform):
    """The control row: the same request under the target's own policy commits."""
    target = request.getfixturevalue(f"{platform}_target")
    tag = "POLICY-transact-control"
    response = target.driver.execute_transaction(
        request_for(target, "transact", target.policy, tag)
    )
    assert response.error == ""
    assert target.commit_count(tag) == 1

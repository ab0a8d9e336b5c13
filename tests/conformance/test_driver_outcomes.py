"""Characterisation of what each driver family answers when a request
cannot be served as asked.

One row per driver family, verb and cause. Each row drives the source
relay's driver directly (``execute_query`` / ``execute_transaction``)
and records what comes back: the reply status or the raised exception
type, and the text. A transaction id in a text is written ``<tx>``.

The causes:

- ``no-address``: the request carries no address;
- ``empty-ledger`` / ``empty-function``: one address segment is empty;
- ``wrong-ledger``: the ledger segment names a ledger the network does
  not have (only Fabric names its ledger, its channel; the other
  families serve any ledger name);
- ``unknown-function``: the function segment names nothing deployed;
- ``read-failure``: the peer, node or observer fails to read the
  requested record;
- ``pending`` / ``reorg``: the public chain's read is not yet final, or
  its latest write was orphaned;
- ``submit-failure``: the source network refuses the transaction;
- ``uncommitted``: an attester does not hold the committed transaction;
- ``no-capability``: a transaction on a family that serves none.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    MSG_KIND_ASSET_LOCK,
    PROTOCOL_VERSION,
    STATUS_ACCESS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PENDING_FINALITY,
    STATUS_REORG,
    NetworkAddressMsg,
    NetworkQuery,
    VerificationPolicyMsg,
)

STATUS_NAMES = {
    STATUS_OK: "STATUS_OK",
    STATUS_ERROR: "STATUS_ERROR",
    STATUS_ACCESS_DENIED: "STATUS_ACCESS_DENIED",
    STATUS_PENDING_FINALITY: "STATUS_PENDING_FINALITY",
    STATUS_REORG: "STATUS_REORG",
}

# platform  verb  cause  | reply status or exception type | text
TABLE = """
fabric   query    no-address       | STATUS_ERROR            | network 'fabnetc' has no ledger ''
fabric   query    empty-ledger     | STATUS_ERROR            | network 'fabnetc' has no ledger ''
fabric   query    empty-function   | STATUS_ERROR            | query has an invalid address: address segment 'function' must be non-empty
fabric   query    wrong-ledger     | STATUS_ERROR            | network 'fabnetc' has no ledger 'no-such-ledger'
fabric   query    unknown-function | STATUS_ERROR            | peer 'peer0.conf-org-a' failed to execute the query: ChaincodeError: confcc has no function 'NoSuchFunction'
fabric   query    read-failure     | STATUS_ERROR            | peer 'peer0.conf-org-a' failed to execute the query: ChaincodeError: no record 'MISSING'
fabric   transact no-address       | STATUS_ERROR            | transaction request has no address
fabric   transact empty-ledger     | STATUS_ERROR            | transaction request has an invalid address: address segment 'ledger' must be non-empty
fabric   transact empty-function   | STATUS_ERROR            | transaction request has an invalid address: address segment 'function' must be non-empty
fabric   transact wrong-ledger     | STATUS_OK               |
fabric   transact unknown-function | STATUS_ACCESS_DENIED    | exposure control denied <destnet, dest-org, confcc, NoSuchFunction>: no matching access rule
fabric   transact submit-failure   | STATUS_ERROR            | source transaction failed: confcc.Put endorsement failed on peer0.conf-org-a: ChaincodeError: record 'SEED' already exists
fabric   transact uncommitted      | STATUS_ERROR            | peer 'peer0.conf-org-b' has not committed '<tx>'
quorum   query    no-address       | STATUS_ERROR            | query has no address
quorum   query    empty-ledger     | STATUS_ERROR            | query has an invalid address: address segment 'ledger' must be non-empty
quorum   query    empty-function   | STATUS_ERROR            | query has an invalid address: address segment 'function' must be non-empty
quorum   query    wrong-ledger     | STATUS_OK               |
quorum   query    unknown-function | STATUS_ACCESS_DENIED    | exposure control denied <destnet, dest-org, document-registry, NoSuchFunction>: no matching access rule
quorum   query    read-failure     | STATUS_ERROR            | peer 'peer1.op-org-1' query failed: no document 'MISSING'
quorum   transact no-capability    | STATUS_ERROR            | driver for network 'quornetc' does not support cross-network transactions
corda    query    no-address       | STATUS_ERROR            | query has no address
corda    query    empty-ledger     | STATUS_ERROR            | query has an invalid address: address segment 'ledger' must be non-empty
corda    query    empty-function   | STATUS_ERROR            | query has an invalid address: address segment 'function' must be non-empty
corda    query    wrong-ledger     | STATUS_OK               |
corda    query    unknown-function | STATUS_ERROR            | corda network 'cordanetc' serves no query vault/NoSuchFunction
corda    query    read-failure     | STATUS_ERROR            | node 'nodeA.nodeA' query failed: node 'nodeA' holds no unconsumed state 'MISSING'
corda    transact no-address       | STATUS_ERROR            | transaction request has no address
corda    transact empty-ledger     | STATUS_ERROR            | transaction request has an invalid address: address segment 'ledger' must be non-empty
corda    transact empty-function   | STATUS_ERROR            | transaction request has an invalid address: address segment 'function' must be non-empty
corda    transact wrong-ledger     | STATUS_OK               |
corda    transact unknown-function | STATUS_ERROR            | corda network 'cordanetc' serves no flow vault/NoSuchFunction
corda    transact submit-failure   | STATUS_ERROR            | source transaction failed: RecordState expects linear_id, kind, data_json[, participants]
corda    transact uncommitted      | STATUS_ERROR            | node 'nodeB.nodeB' has not finalized '<tx>'
pubchain query    no-address       | STATUS_ERROR            | query has no address
pubchain query    empty-ledger     | STATUS_ERROR            | query has an invalid address: address segment 'ledger' must be non-empty
pubchain query    empty-function   | STATUS_ERROR            | query has an invalid address: address segment 'function' must be non-empty
pubchain query    wrong-ledger     | STATUS_OK               |
pubchain query    unknown-function | STATUS_ACCESS_DENIED    | exposure control denied <destnet, dest-org, document-registry, NoSuchFunction>: no matching access rule
pubchain query    read-failure     | STATUS_ERROR            | observer 'obs1.pub-org-1' query failed: no document 'MISSING'
pubchain query    pending          | STATUS_PENDING_FINALITY | record on 'pubnetc' has 1 of 3 required confirmation(s); pending, not verified
pubchain query    reorg            | STATUS_REORG            | chain reorg on 'pubnetc' orphaned the latest write of 'lock/ASSET-OUTCOME-REORG' (tx <tx>); re-verify before acting
pubchain transact no-capability    | STATUS_ERROR            | driver for network 'pubnetc' does not support cross-network transactions
"""


def parse_table(text: str) -> dict[tuple[str, str, str], tuple[str, str]]:
    cells = {}
    for line in text.strip().splitlines():
        where, outcome, text = (part.strip() for part in line.split("|"))
        platform, verb, cause = where.split()
        cells[(platform, verb, cause)] = (outcome, text)
    return cells


CELLS = parse_table(TABLE)


def address_for(target, verb: str, cause: str) -> NetworkAddressMsg | None:
    if cause == "no-address":
        return None
    network, ledger, contract, function = (
        target.transact_address if verb == "transact" and target.transact_address
        else target.query_address
    ).split("/")
    if cause == "empty-ledger":
        ledger = ""
    elif cause == "empty-function":
        function = ""
    elif cause == "wrong-ledger":
        ledger = "no-such-ledger"
    elif cause == "unknown-function":
        function = "NoSuchFunction"
    return NetworkAddressMsg(
        network=network, ledger=ledger, contract=contract, function=function
    )


def request_for(target, verb: str, cause: str, args: list[str]) -> NetworkQuery:
    return NetworkQuery(
        version=PROTOCOL_VERSION,
        address=address_for(target, verb, cause),
        args=args,
        nonce=f"OUTCOME-{verb}-{cause}",
        auth=target.client.auth_info(),
        policy=VerificationPolicyMsg(expression=target.policy),
        invocation=INVOCATION_TRANSACTION if verb == "transact" else "",
    )


def args_for(target, verb: str, cause: str) -> list[str]:
    tag = f"OUTCOME-{target.platform}-{cause}"
    if verb == "query":
        return ["MISSING"] if cause == "read-failure" else list(target.query_args)
    if not target.transact_address:
        return [tag]
    if cause == "submit-failure":
        # Fabric's Put refuses a key that already exists; Corda's
        # RecordState refuses too few arguments.
        return ["SEED", "again"] if target.platform == "fabric" else [tag]
    return target.transact_args(tag)


def withhold_commit(target, monkeypatch) -> None:
    """Make the second attester miss every committed transaction."""
    if target.platform == "fabric":
        ledger = target.driver._network.peers[1].ledger
        monkeypatch.setattr(ledger, "contains_tx", lambda tx_id: False)
    else:
        node = target.driver._network.node("nodeB")
        monkeypatch.setattr(node, "transactions", _Forgetful())


class _Forgetful(dict):
    """A transaction history that records nothing."""

    def __setitem__(self, key, value) -> None:
        pass


def outcome(call) -> tuple[str, str]:
    try:
        response = call()
    except Exception as exc:  # noqa: BLE001 - the raised type is the outcome
        return type(exc).__name__, str(exc)
    return STATUS_NAMES[response.status], response.error


def run_cell(target, verb: str, cause: str, monkeypatch) -> tuple[str, str]:
    query = request_for(target, verb, cause, args_for(target, verb, cause))
    if verb == "query":
        return outcome(lambda: target.driver.execute_query(query))
    if cause == "uncommitted":
        withhold_commit(target, monkeypatch)
    return outcome(lambda: target.driver.execute_transaction(query))


def matches(expected: str, actual: str) -> bool:
    pattern = re.escape(expected).replace(re.escape("<tx>"), r"[\w-]+")
    return re.fullmatch(pattern, actual) is not None


STATIC_CELLS = [cell for cell in CELLS if cell[2] not in ("pending", "reorg")]


@pytest.mark.parametrize(
    "platform, verb, cause",
    [pytest.param(*cell, id="-".join(cell)) for cell in STATIC_CELLS],
)
def test_driver_outcome(request, monkeypatch, platform, verb, cause):
    target = request.getfixturevalue(f"{platform}_target")
    status, text = run_cell(target, verb, cause, monkeypatch)
    expected_status, expected_text = CELLS[(platform, verb, cause)]
    assert status == expected_status
    assert matches(expected_text, text), text


@pytest.fixture()
def manual_target(pubchain_target, monkeypatch):
    """The pubchain target, its confirmations accruing only via ``mine()``."""
    monkeypatch.setattr(pubchain_target.substrate, "auto_confirm", 0)
    return pubchain_target


def getlock_query(target, asset_id: str) -> NetworkQuery:
    network, ledger, contract = target.asset_contract_address.split("/")
    return NetworkQuery(
        version=PROTOCOL_VERSION,
        address=NetworkAddressMsg(
            network=network, ledger=ledger, contract=contract, function="GetLock"
        ),
        args=[asset_id],
        nonce=f"OUTCOME-{asset_id}",
        auth=target.client.auth_info(),
        policy=VerificationPolicyMsg(expression=target.policy),
    )


def test_pubchain_pending_finality(manual_target):
    target = manual_target
    asset_id = target.issue_asset("OUTCOME-PENDING", target.party(target.client))
    status, text = outcome(
        lambda: target.driver.execute_query(getlock_query(target, asset_id))
    )
    expected_status, expected_text = CELLS[("pubchain", "query", "pending")]
    assert status == expected_status
    assert matches(expected_text, text), text


def test_pubchain_reorg(manual_target):
    target = manual_target
    chain = target.substrate
    asset_id = target.issue_asset("OUTCOME-REORG", target.party(target.client))
    chain.mine(3)
    ack = target.client.relay.remote_asset(
        MSG_KIND_ASSET_LOCK,
        target.asset_command(
            target.client,
            asset_id,
            recipient=target.party(target.counter_client),
            hashlock=hashlib.sha256(b"outcome-secret").digest(),
            timeout=target.clock.now() + 600.0,
        ),
    )
    assert ack.tx_id in chain.force_reorg(1)
    status, text = outcome(
        lambda: target.driver.execute_query(getlock_query(target, asset_id))
    )
    expected_status, expected_text = CELLS[("pubchain", "query", "reorg")]
    assert status == expected_status
    assert matches(expected_text, text), text

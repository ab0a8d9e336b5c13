"""Characterisation of what the client's finalizer does with each reply.

One row per verb and case, recording the exception class the finalizer
raises (or ``OK``) and its exact text. Queries run on all four driver
families, transactions on the two that serve them (Fabric and Corda).

Every row starts from one honest exchange: the client prepares a
request, the source relay answers it, and the row then edits the reply,
or the request on its way, before the finalizer sees it. Statuses other
than OK are set on an honest reply with a fixed cause, since pending
finality and reorgs never come from an honest Fabric or Corda source;
what each driver really answers is characterised in
``test_driver_outcomes.py``.

The cases:

- ``ok``: the honest reply;
- ``denied`` / ``pending`` / ``reorg`` / ``error``: the reply's status;
- ``nonce``: the reply names another request's nonce;
- ``no-envelope``: the reply carries no result envelope;
- ``no-proof``: the reply carries no attestations;
- ``digest``: the result is resealed to the client over other bytes;
- ``args``: the relay sends the source other arguments than the client
  asked for, keeping the nonce;
- ``policy``: the reply drops the second attestation, so the policy
  is not met;
- ``peer-policy``: the request names its attesters by peer id;
- ``reseal-non-json``: the result is resealed as ``b"\\xff\\xfe"``;
- ``reseal-mvcc``: the result is resealed as an outcome reporting
  ``MVCC_READ_CONFLICT`` for a write that committed.

In a text, ``{address}`` is the request's address, ``{nonce}`` its
nonce, ``{policy}`` the target's policy and ``{first}`` the first
attester's ``(org, peer_id)``.
"""

from __future__ import annotations

import copy

import pytest

from repro.crypto.keys import PublicKey
from repro.interop.proofs import seal_result
from repro.proto.messages import (
    INVOCATION_QUERY,
    INVOCATION_TRANSACTION,
    STATUS_ACCESS_DENIED,
    STATUS_ERROR,
    STATUS_PENDING_FINALITY,
    STATUS_REORG,
)
from repro.utils.encoding import canonical_json

CAUSE = "cause set on an honest reply"
OTHER_NONCE = "nonce-of-another-request"

PEER_POLICIES = {
    "fabric": "AND(peer:peer0.conf-org-a, peer:peer0.conf-org-b)",
    "quorum": "AND(peer:peer1.op-org-1, peer:peer2.op-org-2)",
    "corda": "AND(peer:nodeA.nodeA, peer:nodeB.nodeB)",
    "pubchain": "AND(peer:obs1.pub-org-1, peer:obs2.pub-org-2)",
}

# verb  case | exception class or OK | text
TABLE = """
query     ok               | OK                  |
query     denied           | AccessDeniedError   | source network denied the query {address!r}: {cause}
query     pending          | FinalityPendingError | remote query {address!r} is below its required confirmation depth: {cause}
query     reorg            | ReorgDetectedError  | remote query {address!r} depends on a reorged-out record: {cause}
query     error            | RelayError          | remote query {address!r} failed: {cause}
query     nonce            | ProofError          | response nonce {other_nonce!r} does not match the query nonce {nonce!r} (possible replay or relay confusion)
query     no-envelope      | ProofError          | response carries no result envelope
query     no-proof         | ProofError          | response proof is empty
query     digest           | ProofError          | attestation[0]: attested hash does not cover the decrypted data
query     args             | ProofError          | attestation[0]: attested arguments do not match the query
query     policy           | ProofError          | attesters [{first!r}] do not satisfy the requested policy {policy}
query     peer-policy      | OK                  |
query     reseal-non-json  | ProofError          | attestation[0]: attested hash does not cover the decrypted data
query     reseal-mvcc      | ProofError          | attestation[0]: attested hash does not cover the decrypted data
transact  ok               | OK                  |
transact  denied           | AccessDeniedError   | source network denied the transaction {address!r}: {cause}
transact  pending          | FinalityPendingError | remote transaction {address!r} is below its required confirmation depth: {cause}
transact  reorg            | ReorgDetectedError  | remote transaction {address!r} depends on a reorged-out record: {cause}
transact  error            | RelayError          | remote transaction {address!r} failed: {cause}
transact  nonce            | ProofError          | response nonce {other_nonce!r} does not match the query nonce {nonce!r} (possible replay or relay confusion)
transact  no-envelope      | ProofError          | response carries no result envelope
transact  no-proof         | ProofError          | response proof is empty
transact  digest           | ProofError          | attestation[0]: attested hash does not cover the decrypted data
transact  args             | ProofError          | attestation[0]: attested arguments do not match the query
transact  policy           | ProofError          | attesters [{first!r}] do not satisfy the requested policy {policy}
transact  peer-policy      | OK                  |
transact  reseal-non-json  | ProofError          | attestation[0]: attested hash does not cover the decrypted data
transact  reseal-mvcc      | ProofError          | attestation[0]: attested hash does not cover the decrypted data
"""

def _rows():
    rows = []
    for line in TABLE.strip().splitlines():
        key, outcome, text = (part.strip() for part in line.split("|"))
        verb, case = key.split()
        rows.append((verb, case, outcome, text))
    return rows


ROWS = _rows()
PLATFORMS = {"query": ("fabric", "quorum", "corda", "pubchain"), "transact": ("fabric", "corda")}


def _cells():
    for verb, case, outcome, text in ROWS:
        for platform in PLATFORMS[verb]:
            yield pytest.param(
                platform, verb, case, outcome, text, id=f"{platform}-{verb}-{case}"
            )


def _status(status):
    def edit(response, client_key):
        response.status = status
        response.error = CAUSE

    return edit


def _reseal(plaintext: bytes):
    def edit(response, client_key):
        response.result_cipher = seal_result(plaintext, client_key, True)

    return edit


def _set(field, value):
    def edit(response, client_key):
        setattr(response, field, value)

    return edit


def _keep_first_attestation(response, client_key):
    response.attestations = response.attestations[:1]


FORGED_OUTCOME = canonical_json(
    {"block_number": 1, "result": b"other".hex(), "tx_id": "tx-other", "validation_code": "VALID"}
)

#: case -> edit of the honest reply
REPLY_EDITS = {
    "denied": _status(STATUS_ACCESS_DENIED),
    "pending": _status(STATUS_PENDING_FINALITY),
    "reorg": _status(STATUS_REORG),
    "error": _status(STATUS_ERROR),
    "nonce": _set("nonce", OTHER_NONCE),
    "no-envelope": _set("result_cipher", b""),
    "no-proof": _set("attestations", []),
    "digest": _reseal(FORGED_OUTCOME),
    "policy": _keep_first_attestation,
    "reseal-non-json": _reseal(b"\xff\xfe"),
    "reseal-mvcc": _reseal(b'{"validation_code":"MVCC_READ_CONFLICT"}'),
}


def exchange(target, verb: str, args: list[str], policy: str, sent_args=None):
    """Prepare one request and send it; returns (finalize, prepared, response).

    ``sent_args`` replaces the arguments on the way to the source, as a
    rewriting relay would."""
    client = target.client
    if verb == "query":
        address, invocation = target.query_address, INVOCATION_QUERY
        send = client.relay.remote_query
    else:
        address, invocation = target.transact_address, INVOCATION_TRANSACTION
        send = client.relay.remote_transact
    prepared = client.prepare_query(address, args, policy=policy, invocation=invocation)
    finalize = client.finalize_response
    query = prepared.query
    if sent_args is not None:
        query = copy.deepcopy(query)
        query.args = list(sent_args)
    return finalize, prepared, send(query)


@pytest.mark.parametrize("platform, verb, case, outcome, text", list(_cells()))
def test_finalizer_outcome(request, platform, verb, case, outcome, text):
    target = request.getfixturevalue(f"{platform}_target")
    tag = f"FINALIZE-{case}"
    args = list(target.query_args) if verb == "query" else target.transact_args(tag)
    policy = PEER_POLICIES[platform] if case == "peer-policy" else target.policy
    sent_args = None
    if case == "args":
        sent_args = args
        args = ["NO-SUCH-RECORD"] if verb == "query" else target.transact_args(tag + "-ASKED")
    finalize, prepared, response = exchange(target, verb, args, policy, sent_args)
    first = response.attestations[0]
    if case in REPLY_EDITS:
        client_key = PublicKey.from_bytes(prepared.query.auth.public_key)
        REPLY_EDITS[case](response, client_key)
    try:
        finalize(prepared, response)
    except Exception as exc:  # noqa: BLE001 - the row records any exception
        observed = (type(exc).__name__, str(exc))
    else:
        observed = ("OK", "")
    expected = text.format(
        address=prepared.address_text,
        nonce=prepared.nonce,
        other_nonce=OTHER_NONCE,
        cause=CAUSE,
        policy=policy,
        first=(first.org, first.peer_id),
    )
    assert observed == (outcome, expected)

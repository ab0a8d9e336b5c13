"""The result crosses the wire once.

Peers attest to the result's digest and the reply carries one sealed
copy, so a confidential reply costs the payload plus a fixed overhead
(the ECIES box, two attestations of under 1 KiB each) — not a multiple
of the payload.
"""

from __future__ import annotations

import json

from repro.proto.messages import INVOCATION_TRANSACTION

DOCUMENT_BYTES = 16 * 1024
OVERHEAD_BYTES = 4 * 1024


def test_confidential_16k_reply_is_the_payload_plus_overhead(fabric_target):
    target = fabric_target
    document = "d" * DOCUMENT_BYTES
    target.client.remote_query(
        target.transact_address,
        ["SIZE-16K", document],
        policy=target.policy,
        invocation=INVOCATION_TRANSACTION,
    )
    result = target.client.remote_query(
        target.query_address, ["SIZE-16K"], policy=target.policy, confidential=True
    )
    assert json.loads(result.data)["value"] == document
    assert len(result.response.result_cipher) < DOCUMENT_BYTES + 1024
    assert len(result.response.encode()) <= DOCUMENT_BYTES + OVERHEAD_BYTES

"""Records written by the first proof format still verify.

Format 1 embedded the whole seal envelope (canonical JSON, ECIES box as
hex) in every peer's signed metadata, beside its SHA-256. Bundles of
that shape sit on destination ledgers and in relay idempotency records;
the destination contract and the client must keep accepting them. See
``conftest.py`` for how the fixture was made.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import EndorsementError
from repro.interop.proofs import ProofBundle


@pytest.fixture()
def pinned(load_pinned):
    return load_pinned(1)


def test_stored_bundle_validates_through_cmdac(pinned, pinned_destination):
    bundle = pinned["bundle"]
    result = pinned_destination(pinned, bundle["nonce"], bundle["proof_json"])
    assert result.committed
    assert result.result == b"OK"


def test_stored_bundle_is_bound_to_its_data(pinned, pinned_destination):
    bundle = pinned["bundle"]
    with pytest.raises(EndorsementError, match="data hash"):
        pinned_destination(
            pinned, bundle["nonce"], bundle["proof_json"], data=b'{"bl_id":"BL-FORGED"}'
        )


def test_stored_bundle_replay_is_refused(pinned, pinned_destination):
    bundle = pinned["bundle"]
    assert pinned_destination(pinned, bundle["nonce"], bundle["proof_json"]).committed
    with pytest.raises(EndorsementError, match="already"):
        pinned_destination(pinned, bundle["nonce"], bundle["proof_json"])


def test_reply_finalizes_through_the_client(pinned, finalize_pinned):
    result = finalize_pinned(pinned)
    assert result.data == pinned["data"].encode("ascii")
    assert json.loads(result.data)["bl_id"] == "BL-PINNED-1"
    assert {attestation.metadata().org for attestation in result.proof.attestations} == {
        "seller-org",
        "carrier-org",
    }


def test_finalized_reply_proof_validates_through_cmdac(
    pinned, finalize_pinned, pinned_destination
):
    result = finalize_pinned(pinned)
    restored = ProofBundle.from_json(result.proof_json)
    assert restored == result.proof
    outcome = pinned_destination(pinned, result.nonce, result.proof_json, data=result.data)
    assert outcome.committed

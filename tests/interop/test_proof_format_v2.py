"""The second proof format: peers sign the result's digest, and the reply
carries the sealed result once, as bytes.

The pinned fixture was written by this format's writer from the seeds
``conftest.py`` describes. Its plain-mode reply is deterministic (RFC 6979
signatures, no encryption), so the writer must reproduce it byte for
byte; the confidential bundle is pinned as written.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.crypto.certs import CertificateAuthority
from repro.crypto.hashing import sha256
from repro.crypto.keys import generate_keypair
from repro.errors import ProofError
from repro.fabric.identity import Identity, Organization
from repro.interop.client import InteropClient, PreparedQuery
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import (
    ENVELOPE_VERSION,
    AttestationProofScheme,
    ProofBundle,
    attested_data_hash,
    decrypt_attestation,
    seal_result,
)
from repro.proto.address import parse_address
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    PROTOCOL_VERSION,
    STATUS_OK,
    NetworkQuery,
    ProofMetadata,
    QueryResponse,
)


@pytest.fixture()
def pinned(load_pinned):
    return load_pinned(2)


def rebuild_reply(pinned: dict) -> QueryResponse:
    """What the format-2 writer produces for the pinned plain-mode query."""
    scheme = AttestationProofScheme()
    data = pinned["data"].encode("ascii")
    nonce = pinned["reply"]["nonce"]
    envelope = seal_result(data, None, False)
    attestations = []
    for org in ("seller-org", "carrier-org"):
        ca = CertificateAuthority(
            org,
            network=pinned["network"],
            keypair=generate_keypair(seed=f"pinned-v2/{org}/ca".encode()),
        )
        keypair = generate_keypair(seed=f"pinned-v2/{org}/peer0".encode())
        peer = Identity("peer0", org, "peer", keypair, ca.issue("peer0", keypair.public, role="peer"))
        attestations.append(
            scheme.generate_attestation(
                peer_identity=peer,
                network=pinned["network"],
                address=parse_address(pinned["address"]),
                args=pinned["args"],
                nonce=nonce,
                result_envelope=envelope,
                client_key=None,
                confidential=False,
                timestamp=1.0,
            )
        )
    return QueryResponse(
        version=PROTOCOL_VERSION,
        nonce=nonce,
        status=STATUS_OK,
        result_plain=envelope,
        attestations=attestations,
    )


def stored_metadata(pinned: dict) -> list[ProofMetadata]:
    bundle = ProofBundle.from_json(pinned["bundle"]["proof_json"])
    return [attestation.metadata() for attestation in bundle.attestations]


def test_writer_reproduces_the_pinned_reply(pinned):
    assert rebuild_reply(pinned).encode().hex() == pinned["reply"]["query_response"]


def test_reply_carries_the_result_once(pinned):
    data = pinned["data"].encode("ascii")
    response = QueryResponse.decode(bytes.fromhex(pinned["reply"]["query_response"]))
    envelope = response.result_plain
    assert envelope[0] == ENVELOPE_VERSION
    assert envelope == bytes((ENVELOPE_VERSION, 0)) + sha256(data) + data
    for attestation in response.attestations:
        metadata = decrypt_attestation(attestation, None).metadata()
        assert metadata.data_hash == sha256(data)
        assert not metadata.result and not metadata.result_hash
        assert data not in attestation.encode()


def test_stored_bundle_validates_through_cmdac(pinned, pinned_destination):
    bundle = pinned["bundle"]
    result = pinned_destination(pinned, bundle["nonce"], bundle["proof_json"])
    assert result.committed
    assert result.result == b"OK"


def test_reply_finalizes_through_the_client(pinned, finalize_pinned, pinned_destination):
    result = finalize_pinned(pinned)
    assert result.data == pinned["data"].encode("ascii")
    assert pinned_destination(pinned, result.nonce, result.proof_json, data=result.data).committed


def test_both_formats_attest_the_same_digest(pinned, load_pinned):
    """The translation function reads a format-1 record's embedded
    envelope and a format-2 record's digest as the same answer."""
    expected = sha256(pinned["data"].encode("ascii")).hex()
    for fixture in (load_pinned(1), pinned):
        assert fixture["data"] == pinned["data"]
        assert {attested_data_hash(metadata) for metadata in stored_metadata(fixture)} == {expected}


def test_format_1_record_must_match_its_own_hash(load_pinned):
    metadata = stored_metadata(load_pinned(1))[0]
    metadata.result_hash = bytes(32)
    with pytest.raises(ProofError, match="result hash"):
        attested_data_hash(metadata)


def test_record_mixing_both_formats_is_refused(pinned, load_pinned):
    mixed = stored_metadata(load_pinned(1))[0]
    mixed.data_hash = stored_metadata(pinned)[0].data_hash
    with pytest.raises(ProofError, match="mixes"):
        attested_data_hash(mixed)


def test_recorded_format_1_transaction_reply_still_finalizes():
    """A relay's idempotency record answers a replayed transaction with the
    reply it stored; one stored before the upgrade is a format-1 reply
    (``fixtures/proof_format_v1_transaction.json``, same seeds, plain mode)."""
    recorded = json.loads(
        (Path(__file__).parent / "fixtures" / "proof_format_v1_transaction.json").read_text()
    )
    requester = Organization("pinned-client-org", network="pinned-dest").enroll("app")
    client = InteropClient(requester, relay=None, network_id="pinned-dest")
    prepared = PreparedQuery(
        address_text=recorded["address"],
        address=parse_address(recorded["address"]),
        args=list(recorded["args"]),
        nonce=recorded["nonce"],
        query=NetworkQuery(invocation=INVOCATION_TRANSACTION),
        parsed_policy=parse_verification_policy(recorded["policy"]),
        confidential=False,
    )
    reply = QueryResponse.decode(bytes.fromhex(recorded["query_response"]))
    result = client.finalize_response(prepared, reply)
    assert (result.tx_id, result.block_number, result.result) == (
        recorded["tx_id"],
        recorded["block_number"],
        b"ok",
    )
    assert result.attesting_orgs == ["carrier-org", "seller-org"]

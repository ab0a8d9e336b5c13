"""Every proof-format reader turns relay-supplied bytes into a ProofError.

The seal envelope, the attested-hash reader and the bundle parser all read
bytes an untrusted relay controls. Arbitrary input must give an answer or
a :class:`ProofError` — never a stray exception or a hang.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keypair
from repro.errors import DecodeError, ProofError
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import (
    ENVELOPE_VERSION,
    AttestationProofScheme,
    ProofBundle,
    attested_data_hash,
    envelope_plaintext_hash,
    seal_result,
    unseal_result,
)
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import ProofMetadata

CLIENT = generate_keypair(seed=b"proof-decoder-fuzz")

# Format-2 headers in both modes and with unknown modes, then anything.
v2_envelopes = st.builds(
    lambda mode, digest, body: bytes((ENVELOPE_VERSION, mode)) + digest + body,
    st.integers(0, 255),
    st.binary(min_size=0, max_size=40),
    st.binary(max_size=160),
)
# JSON shaped like a format-1 envelope or a bundle record, with wrong types.
json_keys = st.sampled_from(["hash", "cipher", "plain", "metadata", "signature", "certificate", "x"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | st.binary(max_size=16).map(bytes.hex),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=12,
)
v1_envelopes = json_values.map(lambda value: json.dumps(value).encode())
envelopes = st.one_of(st.binary(max_size=200), v2_envelopes, v1_envelopes)


def answer_or_proof_error(call, *args):
    try:
        return call(*args)
    except ProofError:
        return None


@given(envelopes)
@settings(max_examples=300)
def test_envelope_readers_raise_only_proof_errors(envelope):
    answer_or_proof_error(envelope_plaintext_hash, envelope)
    answer_or_proof_error(unseal_result, envelope)
    answer_or_proof_error(unseal_result, envelope, CLIENT.private)


@given(st.binary(max_size=64), st.booleans())
@settings(max_examples=100, deadline=None)
def test_a_sealed_result_opens_to_itself(plaintext, confidential):
    envelope = seal_result(plaintext, CLIENT.public, confidential)
    assert unseal_result(envelope, CLIENT.private) == plaintext


@given(st.binary(max_size=200))
@settings(max_examples=300)
def test_attested_hash_of_arbitrary_metadata_bytes(raw):
    try:
        metadata = ProofMetadata.decode(raw)
    except DecodeError:
        return
    answer_or_proof_error(attested_data_hash, metadata)


@given(
    data_hash=st.binary(max_size=40),
    result=st.one_of(st.binary(max_size=80), envelopes),
    result_hash=st.binary(max_size=40),
)
@settings(max_examples=300)
def test_attested_hash_of_arbitrary_fields(data_hash, result, result_hash):
    metadata = ProofMetadata(data_hash=data_hash, result=result, result_hash=result_hash)
    answer = answer_or_proof_error(attested_data_hash, metadata)
    if answer is not None:
        assert len(bytes.fromhex(answer)) == 32


SCHEME = AttestationProofScheme()
POLICY = parse_verification_policy("org:seller-org")
ADDRESS = CrossNetworkAddress("stl", "main", "cc", "Get")


@given(st.one_of(st.text(max_size=200), json_values.map(json.dumps)))
@settings(max_examples=300)
def test_bundle_parser_and_validator_raise_only_proof_errors(text):
    bundle = answer_or_proof_error(ProofBundle.from_json, text)
    if bundle is None:
        return
    for attestation in bundle.attestations:
        answer_or_proof_error(attestation.metadata)
    answer_or_proof_error(
        lambda: SCHEME.validate_bundle(
            bundle,
            expected_network="stl",
            expected_address=ADDRESS,
            expected_args=[],
            expected_nonce="n",
            expected_data_hash="00" * 32,
            policy=POLICY,
            org_roots={},
        )
    )

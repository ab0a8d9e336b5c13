"""Tests for seal envelopes, attestations, and proof-bundle validation."""

from __future__ import annotations

import pytest

from repro.crypto.ecies import ecies_encrypt
from repro.crypto.hashing import sha256
from repro.errors import ProofError
from repro.fabric.identity import Organization
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import (
    AttestationProofScheme,
    ProofBundle,
    SignedAttestation,
    decrypt_attestation,
    envelope_plaintext_hash,
    seal_result,
    unseal_result,
)
from repro.proto.address import CrossNetworkAddress

ADDRESS = CrossNetworkAddress("stl", "main", "TradeLensCC", "GetBillOfLading")
ARGS = ["PO-1"]
NONCE = "nonce-42"
DATA = b'{"bl_id": "BL-PO-1"}'
ENVELOPE_HEADER = 2 + 32  # version byte, mode byte, SHA-256 of the plaintext


@pytest.fixture(scope="module")
def world():
    """Two source orgs with one peer each, plus a requesting client."""
    seller = Organization("seller-org", network="stl")
    carrier = Organization("carrier-org", network="stl")
    client_org = Organization("client-org", network="swt")
    return {
        "seller_peer": seller.enroll("peer0", role="peer"),
        "carrier_peer": carrier.enroll("peer0", role="peer"),
        "client": client_org.enroll("app", role="client"),
        "org_roots": {
            "seller-org": seller.msp.root_certificate,
            "carrier-org": carrier.msp.root_certificate,
        },
        "seller_org": seller,
        "carrier_org": carrier,
    }


def make_bundle(world, confidential=True, data=DATA, nonce=NONCE, args=ARGS):
    scheme = AttestationProofScheme()
    client_key = world["client"].keypair.public if confidential else None
    attestations = []
    for peer in (world["seller_peer"], world["carrier_peer"]):
        envelope = seal_result(data, client_key, confidential)
        wire = scheme.generate_attestation(
            peer_identity=peer,
            network="stl",
            address=ADDRESS,
            args=args,
            nonce=nonce,
            result_envelope=envelope,
            client_key=client_key,
            confidential=confidential,
            timestamp=1.0,
        )
        attestations.append(
            decrypt_attestation(
                wire, world["client"].keypair.private if confidential else None
            )
        )
    return ProofBundle(attestations=tuple(attestations))


def validate(world, bundle, **overrides):
    scheme = AttestationProofScheme()
    kwargs = dict(
        expected_network="stl",
        expected_address=ADDRESS,
        expected_args=ARGS,
        expected_nonce=NONCE,
        expected_data_hash=sha256(DATA).hex(),
        policy=parse_verification_policy("AND(org:seller-org, org:carrier-org)"),
        org_roots=world["org_roots"],
    )
    kwargs.update(overrides)
    return scheme.validate_bundle(bundle, **kwargs)


class TestSealEnvelopes:
    def test_confidential_roundtrip(self, world):
        client = world["client"]
        envelope = seal_result(DATA, client.keypair.public, True)
        assert unseal_result(envelope, client.keypair.private) == DATA
        assert envelope_plaintext_hash(envelope) == sha256(DATA).hex()
        assert DATA not in envelope

    def test_plain_roundtrip(self):
        envelope = seal_result(DATA, None, False)
        assert unseal_result(envelope) == DATA

    def test_confidential_requires_key(self):
        with pytest.raises(ProofError):
            seal_result(DATA, None, True)

    def test_unseal_confidential_requires_private_key(self, world):
        envelope = seal_result(DATA, world["client"].keypair.public, True)
        with pytest.raises(ProofError, match="private key"):
            unseal_result(envelope)

    def test_hash_mismatch_detected(self):
        envelope = seal_result(DATA, None, False)
        tampered = envelope.replace(DATA, DATA[::-1])
        with pytest.raises(ProofError, match="hash does not match"):
            unseal_result(tampered)

    # The ephemeral-key region of the ECIES box (prefix byte, x, y), which
    # follows the envelope's version byte, mode byte and SHA-256.
    @pytest.mark.parametrize("position", [0, 1, 32, 33, 64])
    def test_tampered_ephemeral_key_is_a_proof_error(self, world, position):
        client = world["client"]
        envelope = bytearray(seal_result(DATA, client.keypair.public, True))
        envelope[ENVELOPE_HEADER + position] ^= 0x01
        with pytest.raises(ProofError, match="corrupt or undecryptable"):
            unseal_result(bytes(envelope), client.keypair.private)

    def test_malformed_envelope(self):
        with pytest.raises(ProofError):
            unseal_result(b"garbage")
        with pytest.raises(ProofError):
            unseal_result(b'{"no_hash": 1}')


class TestBundleSerialization:
    def test_json_roundtrip(self, world):
        bundle = make_bundle(world)
        restored = ProofBundle.from_json(bundle.to_json())
        assert restored == bundle
        assert len(restored) == 2

    def test_bad_json_rejected(self):
        with pytest.raises(ProofError):
            ProofBundle.from_json("not json")
        with pytest.raises(ProofError):
            ProofBundle.from_json('{"not": "a list"}')
        with pytest.raises(ProofError):
            ProofBundle.from_json('[{"metadata": "zz"}]')


class TestValidation:
    def test_valid_bundle_accepted(self, world):
        attesters = validate(world, make_bundle(world))
        assert {org for org, _ in attesters} == {"seller-org", "carrier-org"}

    def test_plain_mode_bundle_accepted(self, world):
        attesters = validate(world, make_bundle(world, confidential=False))
        assert len(attesters) == 2

    def test_empty_bundle_rejected(self, world):
        with pytest.raises(ProofError, match="empty"):
            validate(world, ProofBundle(attestations=()))

    def test_policy_unsatisfied_rejected(self, world):
        bundle = make_bundle(world)
        one_org_only = ProofBundle(attestations=bundle.attestations[:1])
        with pytest.raises(ProofError, match="policy"):
            validate(world, one_org_only)

    def test_wrong_nonce_rejected(self, world):
        with pytest.raises(ProofError, match="nonce"):
            validate(world, make_bundle(world), expected_nonce="other-nonce")

    def test_wrong_args_rejected(self, world):
        with pytest.raises(ProofError, match="argument"):
            validate(world, make_bundle(world), expected_args=["PO-2"])

    def test_wrong_address_rejected(self, world):
        other = CrossNetworkAddress("stl", "main", "TradeLensCC", "GetShipment")
        with pytest.raises(ProofError, match="address"):
            validate(world, make_bundle(world), expected_address=other)

    def test_wrong_network_rejected(self, world):
        with pytest.raises(ProofError, match="network"):
            validate(world, make_bundle(world), expected_network="mars")

    def test_data_hash_mismatch_rejected(self, world):
        with pytest.raises(ProofError, match="data hash"):
            validate(
                world,
                make_bundle(world),
                expected_data_hash=sha256(b"forged B/L").hex(),
            )

    def test_unknown_org_rejected(self, world):
        rogue = Organization("rogue-org", network="stl")
        rogue_peer = rogue.enroll("peer0", role="peer")
        scheme = AttestationProofScheme()
        envelope = seal_result(DATA, None, False)
        wire = scheme.generate_attestation(
            peer_identity=rogue_peer,
            network="stl",
            address=ADDRESS,
            args=ARGS,
            nonce=NONCE,
            result_envelope=envelope,
            client_key=None,
            confidential=False,
            timestamp=1.0,
        )
        bundle = ProofBundle(attestations=(decrypt_attestation(wire, None),))
        with pytest.raises(ProofError, match="not in the recorded configuration"):
            validate(
                world, bundle, policy=parse_verification_policy("org:rogue-org")
            )

    def test_non_peer_signer_rejected(self, world):
        admin = world["seller_org"].enroll("sneaky-admin", role="admin")
        scheme = AttestationProofScheme()
        envelope = seal_result(DATA, None, False)
        wire = scheme.generate_attestation(
            peer_identity=admin,
            network="stl",
            address=ADDRESS,
            args=ARGS,
            nonce=NONCE,
            result_envelope=envelope,
            client_key=None,
            confidential=False,
            timestamp=1.0,
        )
        bundle = ProofBundle(attestations=(decrypt_attestation(wire, None),))
        with pytest.raises(ProofError, match="not a peer"):
            validate(world, bundle, policy=parse_verification_policy("org:seller-org"))

    def test_tampered_signature_rejected(self, world):
        bundle = make_bundle(world)
        victim = bundle.attestations[0]
        forged = SignedAttestation(
            metadata_bytes=victim.metadata_bytes,
            signature=bytes(64),
            certificate=victim.certificate,
        )
        tampered = ProofBundle(attestations=(forged, bundle.attestations[1]))
        with pytest.raises(ProofError):
            validate(world, tampered)

    def test_tampered_metadata_rejected(self, world):
        bundle = make_bundle(world)
        victim = bundle.attestations[0]
        mutated = bytearray(victim.metadata_bytes)
        mutated[-1] ^= 0x01
        forged = SignedAttestation(
            metadata_bytes=bytes(mutated),
            signature=victim.signature,
            certificate=victim.certificate,
        )
        tampered = ProofBundle(attestations=(forged, bundle.attestations[1]))
        with pytest.raises(ProofError):
            validate(world, tampered)

    def test_cross_org_certificate_swap_rejected(self, world):
        """Metadata claims seller-org but the certificate is carrier-org."""
        bundle = make_bundle(world)
        seller_att, carrier_att = bundle.attestations
        swapped = SignedAttestation(
            metadata_bytes=seller_att.metadata_bytes,
            signature=seller_att.signature,
            certificate=carrier_att.certificate,
        )
        tampered = ProofBundle(attestations=(swapped, carrier_att))
        with pytest.raises(ProofError):
            validate(world, tampered)

    def test_attestation_without_metadata_rejected(self, world):
        from repro.proto.messages import Attestation

        with pytest.raises(ProofError, match="no metadata"):
            decrypt_attestation(Attestation(signature=b"s"), None)

    def test_encrypted_metadata_needs_key(self, world):
        scheme = AttestationProofScheme()
        client_key = world["client"].keypair.public
        envelope = seal_result(DATA, client_key, True)
        wire = scheme.generate_attestation(
            peer_identity=world["seller_peer"],
            network="stl",
            address=ADDRESS,
            args=ARGS,
            nonce=NONCE,
            result_envelope=envelope,
            client_key=client_key,
            confidential=True,
            timestamp=1.0,
        )
        with pytest.raises(ProofError, match="private key"):
            decrypt_attestation(wire, None)

    @pytest.mark.parametrize("position", [0, 1, 32, 33, 64])
    def test_tampered_metadata_ephemeral_key_is_a_proof_error(self, world, position):
        from repro.proto.messages import Attestation

        client = world["client"]
        box = bytearray(ecies_encrypt(client.keypair.public, b"metadata"))
        box[position] ^= 0x01
        wire = Attestation(metadata_cipher=bytes(box), signature=b"s")
        with pytest.raises(ProofError, match="corrupt or undecryptable"):
            decrypt_attestation(wire, client.keypair.private)

"""Tests for seal envelopes, attestations, and proof-bundle validation."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.crypto.ecies import ecies_encrypt
from repro.crypto.hashing import sha256
from repro.errors import ProofError
from repro.fabric.identity import Organization
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import (
    AttestationProofScheme,
    ProofBundle,
    ReplyOpener,
    SignedAttestation,
    attest_reply,
    decrypt_attestation,
    envelope_plaintext_hash,
    peer_reply,
    seal_result,
    unseal_result,
)
from repro.proto.messages import AuthInfo, NetworkAddressMsg, NetworkQuery
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


EPHEMERAL = 65  # uncompressed P-256 point that opens every ECIES box
NONCE_BYTES = 12


def ephemeral_of(box: bytes) -> bytes:
    return box[:EPHEMERAL]


def nonce_of(box: bytes) -> bytes:
    return box[EPHEMERAL : EPHEMERAL + NONCE_BYTES]


def network_query(world, nonce=NONCE, confidential=True) -> NetworkQuery:
    return NetworkQuery(
        address=NetworkAddressMsg(
            network=ADDRESS.network,
            ledger=ADDRESS.ledger,
            contract=ADDRESS.contract,
            function=ADDRESS.function,
        ),
        args=list(ARGS),
        nonce=nonce,
        auth=AuthInfo(public_key=world["client"].keypair.public.to_bytes()),
        confidential=confidential,
    )


def peer_replies(world, query, envelope=b""):
    """Each source peer's reply to ``query``: [(envelope, attestation)]."""
    return [
        attest_reply(
            AttestationProofScheme(), peer, "stl", ADDRESS, query, DATA, 1.0, envelope
        )
        for peer in (world["seller_peer"], world["carrier_peer"])
    ]


class TestOneKeyAgreementPerPeerReply:
    def test_a_peers_two_boxes_share_one_ephemeral_key(self, world):
        (envelope, attestation), _ = peer_replies(world, network_query(world))
        result_box = envelope[ENVELOPE_HEADER:]
        metadata_box = attestation.metadata_cipher
        assert ephemeral_of(result_box) == ephemeral_of(metadata_box)
        assert nonce_of(result_box) != nonce_of(metadata_box)

    def test_two_peers_never_share_an_ephemeral_key(self, world):
        replies = peer_replies(world, network_query(world))
        keys = {
            ephemeral_of(box)
            for envelope, attestation in replies
            for box in (envelope[ENVELOPE_HEADER:], attestation.metadata_cipher)
        }
        assert len(keys) == len(replies)

    def test_two_requests_never_share_an_ephemeral_key(self, world):
        first = peer_replies(world, network_query(world, nonce="n-1"))
        second = peer_replies(world, network_query(world, nonce="n-2"))
        keys = [ephemeral_of(att.metadata_cipher) for _, att in first + second]
        assert len(set(keys)) == len(keys)

    def test_a_forwarded_envelope_is_not_resealed(self, world):
        """A transaction's later peers attest the first peer's envelope."""
        query = network_query(world)
        envelope, first = peer_replies(world, query)[0]
        replies = peer_replies(world, query, envelope)
        assert all(forwarded == envelope for forwarded, _ in replies)
        assert ephemeral_of(first.metadata_cipher) == ephemeral_of(
            envelope[ENVELOPE_HEADER:]
        )
        assert all(
            ephemeral_of(att.metadata_cipher) != ephemeral_of(envelope[ENVELOPE_HEADER:])
            for _, att in replies
        )

    def test_plain_replies_seal_nothing(self, world):
        envelope, attestation = peer_replies(world, network_query(world, confidential=False))[0]
        assert unseal_result(envelope) == DATA
        assert attestation.metadata_plain and not attestation.metadata_cipher

    def test_each_recipient_gets_its_own_key_agreement(self, world):
        other = world["seller_org"].enroll("other-client", role="client")
        with peer_reply():
            mine = seal_result(DATA, world["client"].keypair.public, True)
            theirs = seal_result(DATA, other.keypair.public, True)
            mine_again = seal_result(DATA, world["client"].keypair.public, True)
        assert ephemeral_of(mine[ENVELOPE_HEADER:]) == ephemeral_of(
            mine_again[ENVELOPE_HEADER:]
        )
        assert ephemeral_of(mine[ENVELOPE_HEADER:]) != ephemeral_of(
            theirs[ENVELOPE_HEADER:]
        )
        assert unseal_result(theirs, other.keypair.private) == DATA

    def test_the_scope_ends_with_the_block(self, world):
        key = world["client"].keypair.public
        with peer_reply():
            inside = seal_result(DATA, key, True)
            with peer_reply():
                nested = seal_result(DATA, key, True)
        after = seal_result(DATA, key, True)
        boxes = [envelope[ENVELOPE_HEADER:] for envelope in (inside, nested, after)]
        assert len({ephemeral_of(box) for box in boxes}) == 3

    def test_every_box_opens_on_its_own(self, world):
        """A shared key agreement is invisible to a plain opener."""
        private = world["client"].keypair.private
        for envelope, attestation in peer_replies(world, network_query(world)):
            assert unseal_result(envelope, private) == DATA
            assert decrypt_attestation(attestation, private).metadata().nonce == NONCE

    def test_the_opener_derives_each_key_once(self, world, monkeypatch):
        from repro.crypto import ec

        replies = peer_replies(world, network_query(world))
        private = world["client"].keypair.private
        derivations = []
        original = ec.scalar_mult

        def counted(scalar, *rest):
            derivations.append(scalar)
            return original(scalar, *rest)

        monkeypatch.setattr(ec, "scalar_mult", counted)
        opener = ReplyOpener(private)
        assert opener.unseal(replies[0][0]) == DATA
        for _, attestation in replies:
            opener.attestation(attestation)
        assert derivations == [private.d] * len(replies)

    def test_concurrent_replies_never_share_a_key_agreement(self, world):
        """Threads sealing replies at once (a driver serving a batch) each
        get their own key agreement, and share it only within a reply."""
        key = world["client"].keypair.public
        replies: list[tuple[bytes, bytes]] = []
        lock = threading.Lock()
        start = threading.Barrier(6)

        def seal_two_replies():
            start.wait(timeout=10)
            for _ in range(2):
                with peer_reply():
                    result = seal_result(DATA, key, True)[ENVELOPE_HEADER:]
                    metadata = seal_result(NONCE.encode(), key, True)[ENVELOPE_HEADER:]
                with lock:
                    replies.append((ephemeral_of(result), ephemeral_of(metadata)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=seal_two_replies) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(replies) == 12
        assert all(result == metadata for result, metadata in replies)
        assert len({result for result, _ in replies}) == 12

"""Tests for ECIES hybrid encryption, certificates/CAs, and Merkle trees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.certs import (
    Certificate,
    CertificateAuthority,
    Subject,
    validate_chain,
)
from repro.crypto.ecies import ecies_decrypt, ecies_encrypt
from repro.crypto.keys import generate_keypair
from repro.crypto.merkle import AuditStep, MerkleTree, verify_audit_path
from repro.errors import CertificateError, DecryptionError


@pytest.fixture(scope="module")
def recipient():
    return generate_keypair(seed=b"ecies-recipient")


class TestECIES:
    def test_roundtrip(self, recipient):
        box = ecies_encrypt(recipient.public, b"top secret")
        assert ecies_decrypt(recipient.private, box) == b"top secret"

    def test_associated_data_binding(self, recipient):
        box = ecies_encrypt(recipient.public, b"data", b"ad")
        assert ecies_decrypt(recipient.private, box, b"ad") == b"data"
        with pytest.raises(DecryptionError):
            ecies_decrypt(recipient.private, box, b"other")

    def test_wrong_recipient_cannot_decrypt(self, recipient):
        box = ecies_encrypt(recipient.public, b"data")
        other = generate_keypair(seed=b"interloper")
        with pytest.raises(DecryptionError):
            ecies_decrypt(other.private, box)

    def test_ciphertexts_are_randomized(self, recipient):
        assert ecies_encrypt(recipient.public, b"x") != ecies_encrypt(
            recipient.public, b"x"
        )

    def test_fixed_ephemeral_reuses_public_prefix(self, recipient):
        ephemeral = generate_keypair(seed=b"fixed-ephemeral")
        a = ecies_encrypt(recipient.public, b"x", ephemeral=ephemeral)
        b = ecies_encrypt(recipient.public, b"x", ephemeral=ephemeral)
        # The ephemeral public key prefix is fixed; the AEAD nonce still
        # randomizes the remainder of the box.
        assert a[:65] == b[:65] == ephemeral.public.to_bytes()
        assert ecies_decrypt(recipient.private, a) == b"x"
        assert ecies_decrypt(recipient.private, b) == b"x"

    def test_truncated_box_rejected(self, recipient):
        with pytest.raises(DecryptionError):
            ecies_decrypt(recipient.private, b"\x04" + b"\x00" * 30)

    # Prefix byte, both ends of x, both ends of y: every flip leaves a
    # point that is off the curve (or not an uncompressed point at all).
    @pytest.mark.parametrize("position", [0, 1, 10, 32, 33, 64])
    def test_tampered_ephemeral_key_rejected(self, recipient, position):
        box = bytearray(ecies_encrypt(recipient.public, b"data"))
        box[position] ^= 0x01
        with pytest.raises(DecryptionError):
            ecies_decrypt(recipient.private, bytes(box))

    def test_substituted_ephemeral_key_rejected(self, recipient):
        # A valid point, just not the sender's: ECDH succeeds, the MAC fails.
        box = ecies_encrypt(recipient.public, b"data")
        other = generate_keypair(seed=b"interloper").public.to_bytes()
        with pytest.raises(DecryptionError):
            ecies_decrypt(recipient.private, other + box[65:])

    def test_empty_plaintext(self, recipient):
        box = ecies_encrypt(recipient.public, b"")
        assert ecies_decrypt(recipient.private, box) == b""

    @settings(max_examples=10, deadline=None)
    @given(data=st.binary(max_size=256))
    def test_roundtrip_property(self, recipient, data):
        assert ecies_decrypt(recipient.private, ecies_encrypt(recipient.public, data)) == data


class TestCertificates:
    @pytest.fixture(scope="class")
    def ca(self):
        return CertificateAuthority("acme-org", network="acme-net")

    def test_root_is_self_signed(self, ca):
        assert ca.root_certificate.is_self_signed
        assert ca.root_certificate.verify_signed_by(ca.public_key)

    def test_issue_and_validate(self, ca):
        keypair, cert = ca.enroll("peer0", role="peer")
        assert cert.subject.common_name == "peer0"
        assert cert.subject.organization == "acme-org"
        assert cert.subject.role == "peer"
        assert cert.public_key == keypair.public
        root = validate_chain(cert, [ca.root_certificate])
        assert root is ca.root_certificate

    def test_serial_numbers_increase(self, ca):
        _, cert_a = ca.enroll("a")
        _, cert_b = ca.enroll("b")
        assert cert_b.serial > cert_a.serial

    def test_serialization_roundtrip(self, ca):
        _, cert = ca.enroll("roundtrip")
        assert Certificate.from_bytes(cert.to_bytes()) == cert

    def test_malformed_bytes_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_bytes(b"not json at all")

    def test_validation_rejects_unknown_issuer(self, ca):
        other = CertificateAuthority("other-org")
        _, cert = other.enroll("impostor")
        with pytest.raises(CertificateError, match="no trusted root"):
            validate_chain(cert, [ca.root_certificate])

    def test_validation_rejects_expired(self):
        ca = CertificateAuthority("short-org", validity_seconds=10.0)
        _, cert = ca.enroll("member")
        with pytest.raises(CertificateError, match="validity"):
            validate_chain(cert, [ca.root_certificate], at_time=100.0)

    def test_validation_rejects_forged_signature(self, ca):
        _, cert = ca.enroll("victim")
        forged = Certificate(
            subject=Subject("mallory", "acme-org", "admin", "acme-net"),
            issuer=cert.issuer,
            public_key=cert.public_key,
            serial=cert.serial,
            not_before=cert.not_before,
            not_after=cert.not_after,
            signature=cert.signature,  # signature over different TBS bytes
        )
        with pytest.raises(CertificateError, match="invalid signature"):
            validate_chain(forged, [ca.root_certificate])

    def test_validation_rejects_non_self_signed_root(self, ca):
        _, member = ca.enroll("member-as-root")
        with pytest.raises(CertificateError, match="not self-signed"):
            validate_chain(member, [member])


class TestMerkle:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert verify_audit_path(b"only", tree.audit_path(0), tree.root)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_audit_paths_for_all_leaves(self):
        leaves = [f"leaf-{i}".encode() for i in range(7)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            assert verify_audit_path(leaf, tree.audit_path(index), tree.root)

    def test_wrong_leaf_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        assert not verify_audit_path(b"x", tree.audit_path(1), tree.root)

    def test_wrong_root_fails(self):
        tree = MerkleTree([b"a", b"b"])
        assert not verify_audit_path(b"a", tree.audit_path(0), b"\x00" * 32)

    def test_root_depends_on_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_leaf_interior_domain_separation(self):
        # A tree over one leaf must differ from a tree whose root equals
        # that leaf's raw hash (second-preimage hardening).
        inner = MerkleTree([b"a", b"b"])
        assert MerkleTree([inner.root]).root != inner.root

    def test_index_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.audit_path(1)

    def test_len(self):
        assert len(MerkleTree([b"a", b"b", b"c"])) == 3

    @settings(max_examples=20, deadline=None)
    @given(
        leaves=st.lists(st.binary(min_size=0, max_size=32), min_size=1, max_size=33),
        data=st.data(),
    )
    def test_audit_path_property(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(0, len(leaves) - 1))
        path = tree.audit_path(index)
        assert verify_audit_path(leaves[index], path, tree.root)

    def test_tampered_path_step_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        path = tree.audit_path(2)
        tampered = [AuditStep(sibling=b"\x00" * 32, sibling_is_left=s.sibling_is_left) for s in path]
        assert not verify_audit_path(b"c", tampered, tree.root)

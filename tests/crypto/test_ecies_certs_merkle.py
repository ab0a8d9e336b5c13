"""Tests for ECIES hybrid encryption, certificates/CAs, and Merkle trees."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.certs import (
    Certificate,
    CertificateAuthority,
    Subject,
    validate_chain,
)
from repro.crypto.ecies import Encapsulation, ecies_decrypt, ecies_encrypt
from repro.crypto.keys import generate_keypair
from repro.crypto.merkle import AuditStep, MerkleTree, verify_audit_path
from repro.errors import CertificateError, DecryptionError
from repro.utils.encoding import canonical_json


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


class TestEncapsulation:
    def test_boxes_share_the_ephemeral_key_not_the_nonce(self, recipient):
        encapsulation = Encapsulation(recipient.public)
        a = ecies_encrypt(recipient.public, b"result", encapsulation=encapsulation)
        b = ecies_encrypt(recipient.public, b"metadata", encapsulation=encapsulation)
        assert a[:65] == b[:65] == encapsulation.ephemeral_pub
        assert a[65:77] != b[65:77]
        assert ecies_decrypt(recipient.private, a) == b"result"
        assert ecies_decrypt(recipient.private, b) == b"metadata"

    def test_matches_a_one_shot_box_under_the_same_ephemeral_key(self, recipient):
        ephemeral = generate_keypair(seed=b"ecies-ephemeral")
        shared = ecies_encrypt(
            recipient.public, b"x", encapsulation=Encapsulation(recipient.public, ephemeral)
        )
        one_shot = ecies_encrypt(recipient.public, b"x", ephemeral=ephemeral)
        assert shared[:65] == one_shot[:65]
        assert len(shared) == len(one_shot)

    def test_seals_only_to_its_recipient(self, recipient):
        other = generate_keypair(seed=b"interloper")
        encapsulation = Encapsulation(recipient.public)
        with pytest.raises(ValueError):
            ecies_encrypt(other.public, b"x", encapsulation=encapsulation)
        with pytest.raises(ValueError):
            ecies_encrypt(
                recipient.public, b"x", ephemeral=other, encapsulation=encapsulation
            )

    def test_key_memo_derives_each_key_once(self, recipient, monkeypatch):
        from repro.crypto import ec

        encapsulation = Encapsulation(recipient.public)
        boxes = [
            ecies_encrypt(recipient.public, bytes([i]), encapsulation=encapsulation)
            for i in range(3)
        ] + [ecies_encrypt(recipient.public, b"other")]
        calls = []
        original = ec.scalar_mult
        monkeypatch.setattr(
            ec, "scalar_mult", lambda *args: calls.append(args) or original(*args)
        )
        memo: dict = {}
        opened = [ecies_decrypt(recipient.private, box, key_memo=memo) for box in boxes]
        assert opened == [b"\x00", b"\x01", b"\x02", b"other"]
        assert len(calls) == 2 == len(memo)

    def test_key_memo_is_keyed_by_private_key(self, recipient):
        other = generate_keypair(seed=b"interloper")
        encapsulation = Encapsulation(recipient.public)
        box = ecies_encrypt(recipient.public, b"x", encapsulation=encapsulation)
        memo: dict = {}
        assert ecies_decrypt(recipient.private, box, key_memo=memo) == b"x"
        with pytest.raises(DecryptionError):
            ecies_decrypt(other.private, box, key_memo=memo)

    def test_an_invalid_ephemeral_key_is_not_remembered(self, recipient):
        memo: dict = {}
        with pytest.raises(DecryptionError):
            ecies_decrypt(recipient.private, b"\x04" + b"\x00" * 100, key_memo=memo)
        assert memo == {}


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

    def test_validation_rejects_root_with_copied_signature(self, ca):
        # Subject and issuer names match, but the signature is another CA's.
        _, member = ca.enroll("member-under-copied-root")
        other = CertificateAuthority("other-org", network="acme-net").root_certificate
        root = dataclasses.replace(ca.root_certificate, signature=other.signature)
        assert root.is_self_signed
        with pytest.raises(CertificateError, match="not self-signed"):
            validate_chain(member, [root])


def _parses_or_refuses(data: bytes) -> None:
    """``Certificate.from_bytes`` may return, or raise CertificateError."""
    try:
        Certificate.from_bytes(data)
    except CertificateError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestCertificateDecoding:
    """Wrong-shape input becomes a CertificateError, never a stray exception."""

    @pytest.fixture(scope="class")
    def encoded(self):
        _, cert = CertificateAuthority("decode-org").enroll("member")
        return cert.to_dict()

    @pytest.mark.parametrize(
        "data",
        [
            b"null",
            b"[1]",
            b"1",
            b'"x"',
            b"{}",
            pytest.param(b"[" * 100_000, id="nested-100000-deep"),
        ],
    )
    def test_wrong_shape_bytes(self, data):
        with pytest.raises(CertificateError):
            Certificate.from_bytes(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("subject", "x"),
            ("subject", {"common_name": "x"}),
            ("subject", {"common_name": 1, "organization": "org"}),
            ("issuer", None),
            ("serial", [1]),
            ("serial", float("inf")),
            ("not_after", None),
            ("not_before", {}),
            ("public_key", 1),
            ("public_key", "04" + "00" * 64),  # off the curve
            ("signature", "00" * 63),  # wrong length
        ],
    )
    def test_wrong_field(self, encoded, field, value):
        with pytest.raises(CertificateError):
            Certificate.from_dict({**encoded, field: value})
        with pytest.raises(CertificateError):
            Certificate.from_bytes(canonical_json({**encoded, field: value}))

    @settings(max_examples=200, deadline=None)
    @given(value=json_values)
    def test_arbitrary_json(self, value):
        _parses_or_refuses(canonical_json(value))

    @settings(max_examples=200, deadline=None)
    @given(
        field=st.sampled_from(
            ["subject", "issuer", "public_key", "serial", "not_before", "not_after", "signature"]
        ),
        value=json_values,
    )
    def test_arbitrary_json_in_one_field(self, encoded, field, value):
        _parses_or_refuses(canonical_json({**encoded, field: value}))

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(["common_name", "organization", "role", "network"]),
        value=json_values,
    )
    def test_arbitrary_json_in_one_subject_field(self, encoded, field, value):
        _parses_or_refuses(canonical_json({**encoded, "subject": {**encoded["subject"], field: value}}))

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        _parses_or_refuses(data)


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

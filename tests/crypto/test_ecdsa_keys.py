"""Tests for ECDSA signatures and key handling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ec
from repro.crypto.ecdsa import Signature, sign, verify, verify_or_raise
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, generate_keypair
from repro.errors import InvalidKeyError, InvalidSignatureError


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(seed=b"ecdsa-tests")


class TestKeys:
    def test_generate_is_deterministic_with_seed(self):
        a = generate_keypair(seed=b"same")
        b = generate_keypair(seed=b"same")
        assert a.private.d == b.private.d

    def test_generate_differs_across_seeds(self):
        assert generate_keypair(seed=b"x").private.d != generate_keypair(seed=b"y").private.d

    def test_public_key_matches_private(self, keypair):
        assert keypair.private.public_key() == keypair.public

    def test_private_key_range_enforced(self):
        with pytest.raises(InvalidKeyError):
            PrivateKey(0)
        with pytest.raises(InvalidKeyError):
            PrivateKey(ec.N)

    def test_public_key_must_be_on_curve(self):
        with pytest.raises(InvalidKeyError):
            PublicKey(1, 1)

    def test_private_serialization_roundtrip(self, keypair):
        raw = keypair.private.to_bytes()
        assert len(raw) == 32
        assert PrivateKey.from_bytes(raw) == keypair.private

    def test_private_wrong_length_rejected(self):
        with pytest.raises(InvalidKeyError):
            PrivateKey.from_bytes(b"\x01" * 31)

    def test_public_serialization_roundtrip(self, keypair):
        raw = keypair.public.to_bytes()
        assert len(raw) == 65
        assert PublicKey.from_bytes(raw) == keypair.public

    def test_fingerprint_is_stable_and_short(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert len(keypair.public.fingerprint()) == 16

    def test_keypair_from_private(self, keypair):
        rebuilt = KeyPair.from_private(keypair.private)
        assert rebuilt.public == keypair.public


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        signature = sign(keypair.private, b"payload")
        assert verify(keypair.public, b"payload", signature)

    def test_deterministic_nonces(self, keypair):
        assert sign(keypair.private, b"m") == sign(keypair.private, b"m")

    def test_different_messages_different_signatures(self, keypair):
        assert sign(keypair.private, b"m1") != sign(keypair.private, b"m2")

    def test_tampered_message_fails(self, keypair):
        signature = sign(keypair.private, b"payload")
        assert not verify(keypair.public, b"payloae", signature)

    def test_wrong_key_fails(self, keypair):
        other = generate_keypair(seed=b"other")
        signature = sign(keypair.private, b"payload")
        assert not verify(other.public, b"payload", signature)

    def test_low_s_normalization(self, keypair):
        signature = sign(keypair.private, b"payload")
        assert signature.s <= ec.N // 2

    def test_out_of_range_components_rejected(self, keypair):
        assert not verify(keypair.public, b"m", Signature(0, 1))
        assert not verify(keypair.public, b"m", Signature(1, ec.N))

    def test_serialization_roundtrip(self, keypair):
        signature = sign(keypair.private, b"payload")
        raw = signature.to_bytes()
        assert len(raw) == 64
        assert Signature.from_bytes(raw) == signature

    def test_bad_serialization_length(self):
        with pytest.raises(InvalidSignatureError):
            Signature.from_bytes(b"\x00" * 63)

    def test_verify_or_raise(self, keypair):
        signature = sign(keypair.private, b"payload")
        verify_or_raise(keypair.public, b"payload", signature)
        with pytest.raises(InvalidSignatureError):
            verify_or_raise(keypair.public, b"other", signature)

    def test_empty_message_signable(self, keypair):
        assert verify(keypair.public, b"", sign(keypair.private, b""))

    @settings(max_examples=100, deadline=None)
    @given(message=st.binary(min_size=0, max_size=512))
    def test_roundtrip_property(self, keypair, message):
        signature = sign(keypair.private, message)
        assert verify(keypair.public, message, signature)

    @settings(max_examples=100, deadline=None)
    @given(message=st.binary(min_size=1, max_size=64), flip=st.integers(0, 63))
    def test_signature_corruption_detected(self, keypair, message, flip):
        signature = sign(keypair.private, message)
        raw = bytearray(signature.to_bytes())
        raw[flip % len(raw)] ^= 0x01
        try:
            corrupted = Signature.from_bytes(bytes(raw))
        except InvalidSignatureError:
            return
        assert not verify(keypair.public, message, corrupted)

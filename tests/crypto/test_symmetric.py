"""Tests for ChaCha20, the AEAD construction, HKDF and hashing helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import KEY_LEN, NONCE_LEN, open_, seal
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.hashing import constant_time_equal, hmac_sha256, sha256, sha256_hex
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract
from repro.errors import DecryptionError


class TestChaCha20RFC8439:
    """Official test vector from RFC 8439 §2.4.2."""

    KEY = bytes(range(32))
    NONCE = bytes.fromhex("000000000000004a00000000")
    PLAINTEXT = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    CIPHERTEXT = bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981"
        "e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b357"
        "1639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e"
        "52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42"
        "874d"
    )

    def test_rfc8439_encrypt(self):
        assert (
            chacha20_xor(self.KEY, self.NONCE, self.PLAINTEXT, initial_counter=1)
            == self.CIPHERTEXT
        )

    def test_rfc8439_decrypt(self):
        assert (
            chacha20_xor(self.KEY, self.NONCE, self.CIPHERTEXT, initial_counter=1)
            == self.PLAINTEXT
        )

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            chacha20_xor(b"\x00" * 31, self.NONCE, b"data")

    def test_nonce_length_enforced(self):
        with pytest.raises(ValueError):
            chacha20_xor(self.KEY, b"\x00" * 11, b"data")

    def test_empty_plaintext(self):
        assert chacha20_xor(self.KEY, self.NONCE, b"") == b""

    @settings(max_examples=25, deadline=None)
    @given(data=st.binary(max_size=1024))
    def test_xor_is_involution(self, data):
        once = chacha20_xor(self.KEY, self.NONCE, data)
        assert chacha20_xor(self.KEY, self.NONCE, once) == data


class TestAEAD:
    KEY = bytes(range(KEY_LEN))

    def test_roundtrip(self):
        box = seal(self.KEY, b"secret", b"context")
        assert open_(self.KEY, box, b"context") == b"secret"

    def test_tampered_ciphertext_rejected(self):
        box = bytearray(seal(self.KEY, b"secret"))
        box[NONCE_LEN] ^= 0x01
        with pytest.raises(DecryptionError):
            open_(self.KEY, bytes(box))

    def test_tampered_tag_rejected(self):
        box = bytearray(seal(self.KEY, b"secret"))
        box[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            open_(self.KEY, bytes(box))

    def test_associated_data_mismatch_rejected(self):
        box = seal(self.KEY, b"secret", b"ad-1")
        with pytest.raises(DecryptionError):
            open_(self.KEY, box, b"ad-2")

    def test_truncated_box_rejected(self):
        with pytest.raises(DecryptionError):
            open_(self.KEY, b"\x00" * (NONCE_LEN + 10))

    def test_wrong_key_rejected(self):
        box = seal(self.KEY, b"secret")
        with pytest.raises(DecryptionError):
            open_(bytes(reversed(self.KEY)), box)

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            seal(b"\x00" * 16, b"data")

    def test_explicit_nonce_is_deterministic(self):
        nonce = b"\x07" * NONCE_LEN
        assert seal(self.KEY, b"x", nonce=nonce) == seal(self.KEY, b"x", nonce=nonce)

    def test_random_nonces_differ(self):
        assert seal(self.KEY, b"x") != seal(self.KEY, b"x")

    @settings(max_examples=25, deadline=None)
    @given(data=st.binary(max_size=512), ad=st.binary(max_size=64))
    def test_roundtrip_property(self, data, ad):
        assert open_(self.KEY, seal(self.KEY, data, ad), ad) == data


class TestHKDF:
    """RFC 5869 test cases 1-3 (SHA-256)."""

    IKM = b"\x0b" * 22
    SALT = bytes(range(13))
    INFO = bytes(range(0xF0, 0xFA))

    def test_rfc5869_case1(self):
        okm = hkdf(self.IKM, 42, salt=self.SALT, info=self.INFO)
        assert okm == bytes.fromhex(
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_rfc5869_case2_longer_inputs_and_output(self):
        okm = hkdf(
            bytes(range(0x00, 0x50)),
            82,
            salt=bytes(range(0x60, 0xB0)),
            info=bytes(range(0xB0, 0x100)),
        )
        assert okm == bytes.fromhex(
            "b11e398dc80327a1c8e7f78c596a4934"
            "4f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09"
            "da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f"
            "1d87"
        )

    def test_rfc5869_case3_zero_length_salt_and_info(self):
        okm = hkdf(self.IKM, 42, salt=b"", info=b"")
        assert okm == bytes.fromhex(
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_extract_then_expand_matches_oneshot(self):
        prk = hkdf_extract(self.SALT, self.IKM)
        assert hkdf_expand(prk, self.INFO, 42) == hkdf(
            self.IKM, 42, salt=self.SALT, info=self.INFO
        )

    def test_empty_salt_allowed(self):
        assert len(hkdf(b"ikm", 32)) == 32

    def test_output_length_respected(self):
        for length in (0, 1, 31, 32, 33, 64, 100, 255 * 32):
            assert len(hkdf(b"ikm", length)) == length

    def test_too_long_output_rejected(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", 255 * 32 + 1)

    def test_different_info_different_keys(self):
        assert hkdf(b"ikm", 32, info=b"a") != hkdf(b"ikm", 32, info=b"b")


class TestHashing:
    def test_sha256_known_value(self):
        assert sha256_hex(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha256_multi_chunk(self):
        assert sha256(b"ab", b"c") == sha256(b"abc")

    def test_hmac_multi_chunk(self):
        assert hmac_sha256(b"k", b"ab", b"c") == hmac_sha256(b"k", b"abc")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"same", b"same")
        assert not constant_time_equal(b"same", b"diff")

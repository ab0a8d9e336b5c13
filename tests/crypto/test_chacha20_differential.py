"""Differential oracle: ``chacha20_xor`` against ``cryptography``'s ChaCha20.

OpenSSL's ChaCha20 shares no code with the keystream here, so agreement on
random keys, nonces, counters and lengths is evidence the in-repo
reference cannot give about itself. The module skips where the package is
not installed; CI's 3.12 cell installs it and fails if this file skipped.
"""

from __future__ import annotations

import pytest

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from hypothesis import given, settings, strategies as st

from repro.crypto.chacha20 import chacha20_xor
from tests.crypto.test_chacha20_vectors import SLAB_BYTES, counters, keys, nonces


def _lib_xor(key: bytes, nonce: bytes, data: bytes, counter: int) -> bytes:
    # The library takes the original 16-byte layout: counter_le32 || nonce.
    # Past 0xFFFFFFFF OpenSSL carries into the first nonce word (the 64-bit
    # counter of that layout) where RFC 8439 wraps to 0, so no example here
    # crosses the wrap; the in-repo reference covers it.
    cipher = Cipher(ChaCha20(key, counter.to_bytes(4, "little") + nonce), mode=None)
    return cipher.encryptor().update(data)


def _stays_below_wrap(counter: int, data: bytes) -> bool:
    return counter + -(-len(data) // 64) <= 1 << 32


@settings(max_examples=200, deadline=None)
@given(key=keys, nonce=nonces, counter=counters, data=st.binary(max_size=700))
def test_short_messages_match_library(key, nonce, counter, data):
    if not _stays_below_wrap(counter, data):
        counter = 1
    assert chacha20_xor(key, nonce, data, counter) == _lib_xor(key, nonce, data, counter)


@settings(max_examples=10, deadline=None)
@given(
    key=keys,
    nonce=nonces,
    counter=st.integers(min_value=0, max_value=1 << 31),
    extra=st.integers(min_value=-65, max_value=65),
    seed=st.binary(min_size=1, max_size=32),
)
def test_slab_sized_messages_match_library(key, nonce, counter, extra, seed):
    length = 2 * SLAB_BYTES + extra
    data = (seed * (length // len(seed) + 1))[:length]
    assert chacha20_xor(key, nonce, data, counter) == _lib_xor(key, nonce, data, counter)

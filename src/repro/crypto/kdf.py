"""HKDF (RFC 5869) over HMAC-SHA256.

Used by the ECIES hybrid-encryption scheme to derive the symmetric
encryption and MAC keys from an ECDH shared secret.
"""

from __future__ import annotations

from repro.crypto.hashing import hmac_sha256

_HASH_LEN = 32


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract step: compress IKM into a pseudorandom key."""
    if not salt:
        salt = b"\x00" * _HASH_LEN
    return hmac_sha256(salt, input_key_material)


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand step: stretch a PRK into ``length`` output bytes."""
    if length > 255 * _HASH_LEN:
        raise ValueError(f"HKDF output too long: {length}")
    blocks = []
    previous = b""
    for counter in range(1, -(-length // _HASH_LEN) + 1):
        previous = hmac_sha256(pseudo_random_key, previous, info, bytes([counter]))
        blocks.append(previous)
    return b"".join(blocks)[:length]


def hkdf(
    input_key_material: bytes,
    length: int,
    salt: bytes = b"",
    info: bytes = b"",
) -> bytes:
    """One-shot HKDF: extract then expand."""
    return hkdf_expand(hkdf_extract(salt, input_key_material), info, length)

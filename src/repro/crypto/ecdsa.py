"""ECDSA over P-256 with RFC 6979 deterministic nonces.

Deterministic nonces keep every signature reproducible for a given
(key, message) pair — which makes the simulators and property tests
stable — while remaining spec-compliant and verifiable.

Signatures serialize as 64 bytes: ``r || s``, each 32 bytes big-endian.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto import ec
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import InvalidSignatureError

_ORDER_BYTES = 32


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature as its two scalars."""

    r: int
    s: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(_ORDER_BYTES, "big") + self.s.to_bytes(
            _ORDER_BYTES, "big"
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 2 * _ORDER_BYTES:
            raise InvalidSignatureError(
                f"expected {2 * _ORDER_BYTES}-byte signature, got {len(data)}"
            )
        r = int.from_bytes(data[:_ORDER_BYTES], "big")
        s = int.from_bytes(data[_ORDER_BYTES:], "big")
        return cls(r, s)


def _bits_to_int(data: bytes) -> int:
    """Leftmost-bits conversion per RFC 6979 §2.3.2 (SHA-256 == order size)."""
    value = int.from_bytes(data, "big")
    excess = max(0, len(data) * 8 - ec.N.bit_length())
    return value >> excess


def _rfc6979_nonce(private: PrivateKey, digest: bytes) -> int:
    """Derive the per-signature nonce k deterministically (RFC 6979 §3.2)."""
    x = private.d.to_bytes(_ORDER_BYTES, "big")
    h1 = (_bits_to_int(digest) % ec.N).to_bytes(_ORDER_BYTES, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = _bits_to_int(v)
        if 1 <= candidate < ec.N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign(private: PrivateKey, message: bytes) -> Signature:
    """Sign ``message`` (hashed internally with SHA-256)."""
    digest = hashlib.sha256(message).digest()
    z = _bits_to_int(digest)
    while True:
        k = _rfc6979_nonce(private, digest)
        point = ec.scalar_mult(k)
        assert point is not None
        r = point[0] % ec.N
        if r == 0:  # pragma: no cover - probability ~2^-256
            digest = hashlib.sha256(digest).digest()
            continue
        k_inv = ec.inverse_mod(k, ec.N)
        s = (k_inv * (z + r * private.d)) % ec.N
        if s == 0:  # pragma: no cover - probability ~2^-256
            digest = hashlib.sha256(digest).digest()
            continue
        # Low-s normalization (as Fabric/bitcoin do) keeps encodings unique.
        if s > ec.N // 2:
            s = ec.N - s
        return Signature(r, s)


def verify(public: PublicKey, message: bytes, signature: Signature) -> bool:
    """Return True iff ``signature`` is valid for ``message`` under ``public``."""
    r, s = signature.r, signature.s
    # s is held to the low half, as sign() emits it and Fabric's verifier
    # requires: (r, N - s) satisfies the same equation, and accepting it
    # would let a relay re-encode an attestation into different bytes.
    if not (1 <= r < ec.N and 1 <= s <= ec.N // 2):
        return False
    digest = hashlib.sha256(message).digest()
    z = _bits_to_int(digest)
    s_inv = ec.inverse_mod(s, ec.N)
    u1 = (z * s_inv) % ec.N
    u2 = (r * s_inv) % ec.N
    point = ec.double_scalar_mult(u1, u2, public.point)
    if point is None:
        return False
    return point[0] % ec.N == r


def verify_or_raise(public: PublicKey, message: bytes, signature: Signature) -> None:
    """Like :func:`verify` but raises :class:`InvalidSignatureError` on failure."""
    if not verify(public, message, signature):
        raise InvalidSignatureError("ECDSA signature verification failed")

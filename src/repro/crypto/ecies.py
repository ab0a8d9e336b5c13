"""ECIES-style hybrid public-key encryption.

The paper's protocol requires source-network peers to encrypt both the
query *result* and the signed proof *metadata* with the remote client's
public key, so that an untrusted relay can neither read the data nor
exfiltrate a verifiable proof (§4.3). This module provides that
public-key encryption:

1. generate an ephemeral P-256 key pair,
2. ECDH against the recipient public key,
3. HKDF the shared x-coordinate into a 64-byte AEAD key,
4. seal the plaintext with ChaCha20 + HMAC-SHA256.

Wire layout: ``ephemeral_pubkey (65) || aead_box``.
"""

from __future__ import annotations

from repro.crypto import ec
from repro.crypto.aead import KEY_LEN, open_, seal
from repro.crypto.kdf import hkdf
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, generate_keypair
from repro.errors import DecryptionError, InvalidKeyError

_EPHEMERAL_LEN = 65
_HKDF_INFO = b"repro/ecies/v1"


def _derive_key(shared_point: ec.AffinePoint, ephemeral_pub: bytes) -> bytes:
    if shared_point is None:
        raise DecryptionError("ECDH produced the point at infinity")
    shared_x = shared_point[0].to_bytes(32, "big")
    # Bind the key to the ephemeral public key to prevent benign malleability.
    return hkdf(shared_x, KEY_LEN, salt=ephemeral_pub, info=_HKDF_INFO)


def ecies_encrypt(
    recipient: PublicKey,
    plaintext: bytes,
    associated_data: bytes = b"",
    ephemeral: KeyPair | None = None,
) -> bytes:
    """Encrypt ``plaintext`` so only the holder of ``recipient``'s private key can read it."""
    if ephemeral is None:
        ephemeral = generate_keypair()
    shared = ec.scalar_mult(ephemeral.private.d, recipient.point)
    ephemeral_pub = ephemeral.public.to_bytes()
    key = _derive_key(shared, ephemeral_pub)
    return ephemeral_pub + seal(key, plaintext, associated_data)


def ecies_decrypt(
    recipient: PrivateKey,
    box: bytes,
    associated_data: bytes = b"",
) -> bytes:
    """Decrypt a box produced by :func:`ecies_encrypt`.

    Raises :class:`DecryptionError` for every box that does not open,
    including one whose ephemeral key is malformed or off the curve.
    """
    if len(box) < _EPHEMERAL_LEN:
        raise DecryptionError("ciphertext too short for an ECIES box")
    ephemeral_pub = box[:_EPHEMERAL_LEN]
    try:
        ephemeral_point = PublicKey.from_bytes(ephemeral_pub)
    except InvalidKeyError as exc:
        raise DecryptionError("ephemeral public key is not a valid P-256 point") from exc
    shared = ec.scalar_mult(recipient.d, ephemeral_point.point)
    key = _derive_key(shared, ephemeral_pub)
    return open_(key, box[_EPHEMERAL_LEN:], associated_data)

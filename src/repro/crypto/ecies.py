"""ECIES-style hybrid public-key encryption.

The paper's protocol requires source-network peers to encrypt both the
query *result* and the signed proof *metadata* with the remote client's
public key, so that an untrusted relay can neither read the data nor
exfiltrate a verifiable proof (§4.3). This module provides that
public-key encryption in two steps:

1. **Key agreement** (:class:`Encapsulation`): generate a fresh ephemeral
   P-256 key pair, ECDH it against the recipient's public key, and HKDF
   the shared x-coordinate (salt = the ephemeral public key) into a
   64-byte AEAD key.
2. **Sealing** (:func:`ecies_encrypt`): seal one plaintext under that key
   with ChaCha20 + HMAC-SHA256 and a fresh random 96-bit nonce.

Without an ``encapsulation`` argument, :func:`ecies_encrypt` runs both
steps for one box, as a textbook ECIES does. Given one, it runs only the
second, so several boxes to one recipient can share one key agreement.
Either way a box has the same layout,
``ephemeral_pubkey (65) || nonce (12) || ciphertext || tag (32)``, and
:func:`ecies_decrypt` opens any box on its own: a shared encapsulation is
invisible on the wire.

**Scope.** An encapsulation belongs to one recipient key and one sender's
reply to one request; it is never kept beyond that. The interop layer
opens it per peer reply (:func:`repro.interop.proofs.peer_reply`), so a
peer's result box and metadata box share one ECDH, while two peers, two
requests or two recipients never share an ephemeral key. The opener's
side is the ``key_memo`` argument of :func:`ecies_decrypt`: a dict the
caller owns for one reply, holding one derived key per distinct
``(private key, ephemeral key bytes)``.

**Why two boxes under one key are safe.** Each box draws its own random
96-bit nonce, so two boxes never share a ChaCha20 keystream (a collision
needs ~2^48 boxes under one key; a reply has two). The HMAC covers the
nonce, the associated data and the ciphertext, so a box cannot be moved
to another nonce, and one box swapped for another under the same key
opens only to that other box's own plaintext, which the caller's
content checks (digests, signatures, decoders) then refuse.
"""

from __future__ import annotations

from repro.crypto import ec
from repro.crypto.aead import KEY_LEN, open_, seal
from repro.crypto.kdf import hkdf
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, generate_keypair
from repro.errors import DecryptionError, InvalidKeyError

_EPHEMERAL_LEN = 65
_HKDF_INFO = b"repro/ecies/v1"

#: Keys one recipient derived while opening one reply, by
#: ``(private scalar, ephemeral public key bytes)``.
KeyMemo = dict[tuple[int, bytes], bytes]


def _derive_key(shared_point: ec.AffinePoint, ephemeral_pub: bytes) -> bytes:
    if shared_point is None:
        raise DecryptionError("ECDH produced the point at infinity")
    shared_x = shared_point[0].to_bytes(32, "big")
    # Bind the key to the ephemeral public key to prevent benign malleability.
    return hkdf(shared_x, KEY_LEN, salt=ephemeral_pub, info=_HKDF_INFO)


class Encapsulation:
    """One key agreement with one recipient: a fresh ephemeral key and one ECDH.

    Pass it to :func:`ecies_encrypt` to seal several boxes to
    ``recipient`` for the price of one agreement. Keep it no longer than
    one reply (see the module docstring).
    """

    __slots__ = ("recipient", "ephemeral_pub", "_key")

    def __init__(self, recipient: PublicKey, ephemeral: KeyPair | None = None) -> None:
        if ephemeral is None:
            ephemeral = generate_keypair()
        self.recipient = recipient
        self.ephemeral_pub = ephemeral.public.to_bytes()
        shared = ec.scalar_mult(ephemeral.private.d, recipient.point)
        self._key = _derive_key(shared, self.ephemeral_pub)


def ecies_encrypt(
    recipient: PublicKey,
    plaintext: bytes,
    associated_data: bytes = b"",
    ephemeral: KeyPair | None = None,
    encapsulation: Encapsulation | None = None,
) -> bytes:
    """Encrypt ``plaintext`` so only the holder of ``recipient``'s private key can read it.

    With ``encapsulation``, seal under its key agreement (which must be
    with ``recipient``) instead of making a new one.
    """
    if encapsulation is None:
        encapsulation = Encapsulation(recipient, ephemeral)
    elif ephemeral is not None or encapsulation.recipient != recipient:
        raise ValueError("an encapsulation seals only to the recipient it was agreed with")
    return encapsulation.ephemeral_pub + seal(
        encapsulation._key, plaintext, associated_data
    )


def ecies_decrypt(
    recipient: PrivateKey,
    box: bytes,
    associated_data: bytes = b"",
    key_memo: KeyMemo | None = None,
) -> bytes:
    """Decrypt a box produced by :func:`ecies_encrypt`.

    With ``key_memo``, a key already derived for this private key and this
    box's exact ephemeral bytes is reused, and a newly derived one is
    added. Raises :class:`DecryptionError` for every box that does not
    open, including one whose ephemeral key is malformed or off the curve.
    """
    if len(box) < _EPHEMERAL_LEN:
        raise DecryptionError("ciphertext too short for an ECIES box")
    ephemeral_pub = bytes(box[:_EPHEMERAL_LEN])
    memo_key = (recipient.d, ephemeral_pub)
    key = key_memo.get(memo_key) if key_memo is not None else None
    if key is None:
        try:
            ephemeral_point = PublicKey.from_bytes(ephemeral_pub)
        except InvalidKeyError as exc:
            raise DecryptionError(
                "ephemeral public key is not a valid P-256 point"
            ) from exc
        key = _derive_key(ec.scalar_mult(recipient.d, ephemeral_point.point), ephemeral_pub)
        if key_memo is not None:
            key_memo[memo_key] = key
    return open_(key, box[_EPHEMERAL_LEN:], associated_data)

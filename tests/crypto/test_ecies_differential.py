"""Differential oracle: boxes sealed under one encapsulation, opened with
a key the ``cryptography`` package agreed.

Several boxes to one recipient may share one key agreement
(:class:`repro.crypto.ecies.Encapsulation`). Each must still be a
standard single-recipient ECIES box: ECDH (SECP256R1) between its
ephemeral key and the recipient, HKDF-SHA256 with the ephemeral public
key as salt, then the AEAD. Here OpenSSL's ECDH stands in for the
hand-written curve arithmetic on both sides of the agreement, and every
box must also open on its own through :func:`ecies_decrypt`. The module
skips where the package is not installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives.asymmetric import ec as lib_ec
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import KEY_LEN, open_
from repro.crypto.ecies import Encapsulation, ecies_decrypt, ecies_encrypt
from repro.crypto.kdf import hkdf
from repro.crypto.keys import KeyPair, PrivateKey
from tests.crypto.test_ec import scalars

_EPHEMERAL_LEN = 65
_HKDF_INFO = b"repro/ecies/v1"

plaintexts = st.lists(st.binary(max_size=128), min_size=2, max_size=4)


def _keypair(d: int) -> KeyPair:
    private = PrivateKey(d)
    return KeyPair(private=private, public=private.public_key())


def _lib_private(d: int) -> lib_ec.EllipticCurvePrivateKey:
    return lib_ec.derive_private_key(d, lib_ec.SECP256R1())


def _lib_public(encoded: bytes) -> lib_ec.EllipticCurvePublicKey:
    return lib_ec.EllipticCurvePublicKey.from_encoded_point(lib_ec.SECP256R1(), encoded)


def _library_key(private_d: int, peer_public: bytes, ephemeral_pub: bytes) -> bytes:
    shared_x = _lib_private(private_d).exchange(lib_ec.ECDH(), _lib_public(peer_public))
    return hkdf(shared_x, KEY_LEN, salt=ephemeral_pub, info=_HKDF_INFO)


@settings(max_examples=40, deadline=None)
@given(recipient_d=scalars, ephemeral_d=scalars, messages=plaintexts)
def test_boxes_under_one_encapsulation_open_with_the_library_key(
    recipient_d, ephemeral_d, messages
):
    recipient = _keypair(recipient_d)
    ephemeral = _keypair(ephemeral_d)
    encapsulation = Encapsulation(recipient.public, ephemeral)
    boxes = [
        ecies_encrypt(recipient.public, message, encapsulation=encapsulation)
        for message in messages
    ]
    ephemeral_pub = ephemeral.public.to_bytes()
    # The sender's side of the agreement and the recipient's side, both
    # computed by OpenSSL, give one key.
    sender_key = _library_key(ephemeral_d, recipient.public.to_bytes(), ephemeral_pub)
    recipient_key = _library_key(recipient_d, ephemeral_pub, ephemeral_pub)
    assert sender_key == recipient_key
    nonces = set()
    for box, message in zip(boxes, messages):
        assert box[:_EPHEMERAL_LEN] == ephemeral_pub
        assert open_(recipient_key, box[_EPHEMERAL_LEN:]) == message
        assert ecies_decrypt(recipient.private, box) == message
        nonces.add(box[_EPHEMERAL_LEN : _EPHEMERAL_LEN + 12])
    assert len(nonces) == len(boxes)


@settings(max_examples=20, deadline=None)
@given(recipient_d=scalars, message=st.binary(max_size=128))
def test_a_fresh_encapsulation_box_opens_with_the_library_key(recipient_d, message):
    recipient = _keypair(recipient_d)
    box = ecies_encrypt(recipient.public, message)
    ephemeral_pub = box[:_EPHEMERAL_LEN]
    key = _library_key(recipient_d, ephemeral_pub, ephemeral_pub)
    assert open_(key, box[_EPHEMERAL_LEN:]) == message

"""Differential oracle: the certificate-signature memo against ``cryptography``.

The memo in ``repro.crypto.certs`` answers repeated (issuer key, TBS bytes,
signature) triples without a verify. Over interleaved cache hits and
single-byte mutations of each part, its answer must be OpenSSL's ECDSA
verdict on the same triple, with the low-s rule ``ecdsa.verify`` adds. The
module skips where the package is not installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec as lib_ec
from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature
from hypothesis import given, settings

from repro.crypto import certs, ec
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import PublicKey
from tests.crypto.test_certs_memo import mutated_triple, steps

_ECDSA_SHA256 = lib_ec.ECDSA(hashes.SHA256())


def _library_accepts(key: PublicKey, tbs: bytes, signature: Signature) -> bool:
    public = lib_ec.EllipticCurvePublicNumbers(key.x, key.y, lib_ec.SECP256R1()).public_key()
    try:
        public.verify(encode_dss_signature(signature.r, signature.s), tbs, _ECDSA_SHA256)
    except InvalidSignature:
        return False
    # the library accepts both s and N - s; ours only the low one
    return signature.s <= ec.N // 2


@settings(max_examples=40, deadline=None)
@given(steps=steps)
def test_memo_agrees_with_library_verify(steps):
    for index, part, position, mask in steps:
        key, tbs, signature = mutated_triple(index, part, position, mask)
        expected = _library_accepts(key, tbs, signature)
        assert certs._issuer_signed(key, tbs, signature) == expected
        assert certs._issuer_signed(key, tbs, signature) == expected  # a hit

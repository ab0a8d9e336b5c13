"""Differential oracle: ``repro.crypto`` against the ``cryptography`` package.

``cryptography`` (OpenSSL underneath) shares no code with the hand-written
curve arithmetic here, so agreement over random scalars, keys and messages
is evidence neither a vector list nor a self-consistency test can give.
The module skips where the package is not installed.
"""

from __future__ import annotations

import pytest

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec as lib_ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from hypothesis import given, settings, strategies as st

from repro.crypto import ec
from repro.crypto.ecdsa import Signature, sign, verify
from repro.crypto.keys import PrivateKey, PublicKey
from tests.crypto.test_ec import scalars

messages = st.binary(min_size=0, max_size=256)
_ECDSA_SHA256 = lib_ec.ECDSA(hashes.SHA256())


def _lib_private(d: int) -> lib_ec.EllipticCurvePrivateKey:
    return lib_ec.derive_private_key(d, lib_ec.SECP256R1())


def _lib_multiple(k: int) -> tuple[int, int]:
    numbers = _lib_private(k).public_key().public_numbers()
    return (numbers.x, numbers.y)


def _lib_public(point: tuple[int, int]) -> lib_ec.EllipticCurvePublicKey:
    return lib_ec.EllipticCurvePublicNumbers(
        point[0], point[1], lib_ec.SECP256R1()
    ).public_key()


@settings(max_examples=100, deadline=None)
@given(k=scalars)
def test_generator_multiple_matches_library(k):
    assert ec.scalar_mult(k) == _lib_multiple(k)


@settings(max_examples=100, deadline=None)
@given(d=scalars, peer=scalars)
def test_ecdh_shared_point_matches_library(d, peer):
    peer_point = _lib_multiple(peer)
    shared = ec.scalar_mult(d, peer_point)
    assert shared is not None
    expected = _lib_private(d).exchange(lib_ec.ECDH(), _lib_public(peer_point))
    assert shared[0].to_bytes(32, "big") == expected
    # the y coordinate too: d * (peer * G) is one more generator multiple
    assert shared == _lib_multiple((d * peer) % ec.N)


@settings(max_examples=100, deadline=None)
@given(d=scalars, message=messages)
def test_our_signature_verifies_in_library(d, message):
    signature = sign(PrivateKey(d), message)
    der = encode_dss_signature(signature.r, signature.s)
    _lib_private(d).public_key().verify(der, message, _ECDSA_SHA256)


@settings(max_examples=100, deadline=None)
@given(d=scalars, message=messages)
def test_library_signature_verifies_in_ours(d, message):
    r, s = decode_dss_signature(_lib_private(d).sign(message, _ECDSA_SHA256))
    public = PublicKey(*_lib_multiple(d))
    # the library does not normalise; ours accepts the low-s twin only
    assert verify(public, message, Signature(r, min(s, ec.N - s)))
    assert not verify(public, message, Signature(r, max(s, ec.N - s)))
    assert not verify(public, message + b"\x00", Signature(r, min(s, ec.N - s)))


@settings(max_examples=50, deadline=None)
@given(d=scalars, message=messages, other=messages)
def test_library_and_ours_agree_on_rejection(d, message, other):
    signature = sign(PrivateKey(d), message)
    der = encode_dss_signature(signature.r, signature.s)
    try:
        _lib_private(d).public_key().verify(der, other, _ECDSA_SHA256)
        accepted = True
    except InvalidSignature:
        accepted = False
    assert verify(PublicKey(*_lib_multiple(d)), other, signature) == accepted


@settings(max_examples=100, deadline=None)
@given(u1=scalars, u2=scalars, d=scalars)
def test_double_scalar_mult_matches_library(u1, u2, d):
    point = _lib_multiple(d)
    joint = ec.double_scalar_mult(u1, u2, point)
    # two library multiplications, added: u2 * (d * G) is (u2 * d) * G
    assert joint == ec.point_add(_lib_multiple(u1), _lib_multiple(u2 * d % ec.N))
    # and with no arithmetic of ours at all, where the sum is not infinity
    total = (u1 + u2 * d) % ec.N
    assert joint == (_lib_multiple(total) if total else None)

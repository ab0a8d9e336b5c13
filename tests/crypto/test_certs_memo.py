"""The issuer-signature memo behind ``validate_chain`` is exact.

``repro.crypto.certs`` memoises one step, the verdict of an issuer's ECDSA
signature over a certificate's TBS bytes, keyed on (issuer key, TBS bytes,
signature). Every case below runs *after* a cache hit on the honest triple,
so a memo that keyed on too little, or skipped a check that must run on
every call, would accept what a fresh verify refuses.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import certs, ec
from repro.crypto.certs import CertificateAuthority, validate_chain
from repro.crypto.ecdsa import Signature, verify
from repro.crypto.keys import PrivateKey, PublicKey, generate_keypair
from repro.errors import CertificateError

_CA_KEYS = [generate_keypair(seed=f"memo-ca-{i}".encode()) for i in range(2)]
_CAS = [
    CertificateAuthority(f"memo-org-{i}", network="memo-net", keypair=keypair)
    for i, keypair in enumerate(_CA_KEYS)
]
_MEMBERS = [
    ca.issue(f"member-{i}", generate_keypair(seed=f"memo-member-{i}".encode()).public)
    for i, ca in enumerate(_CAS)
]

#: (issuer private key, TBS bytes, signature): two member certificates and
#: the two self-signed roots, each valid under its issuer's key.
TRIPLES = [
    (keypair.private, certificate.tbs_bytes(), certificate.signature)
    for keypair, certificate in zip(
        _CA_KEYS * 2, _MEMBERS + [ca.root_certificate for ca in _CAS]
    )
]

#: One step of an interleaving: which triple, which part to mutate (or none,
#: which is a cache hit after the first time), and where.
steps = st.lists(
    st.tuples(
        st.integers(0, len(TRIPLES) - 1),
        st.sampled_from(["none", "tbs", "signature", "key"]),
        st.integers(0, 2**16),
        st.integers(1, 255),
    ),
    min_size=1,
    max_size=10,
)


def _flip(data: bytes, position: int, mask: int) -> bytes:
    mutated = bytearray(data)
    mutated[position % len(mutated)] ^= mask
    return bytes(mutated)


def mutated_triple(index: int, part: str, position: int, mask: int) -> tuple[PublicKey, bytes, Signature]:
    """The triple ``index`` with one byte of one part flipped.

    A byte flipped in a SEC1 point almost never lands on the curve, so the
    key is mutated one byte up, in its private scalar.
    """
    private, tbs, signature = TRIPLES[index]
    if part == "tbs":
        tbs = _flip(tbs, position, mask)
    elif part == "signature":
        signature = Signature.from_bytes(_flip(signature.to_bytes(), position, mask))
    elif part == "key":
        scalar = int.from_bytes(_flip(private.to_bytes(), position, mask), "big")
        private = PrivateKey(scalar % ec.N or 1)
    return private.public_key(), tbs, signature


@pytest.fixture()
def ca():
    return CertificateAuthority("acme-org", network="acme-net", validity_seconds=10.0)


def _primed(ca):
    """A member certificate validated twice, so the second call was a hit."""
    _, member = ca.enroll("member")
    validate_chain(member, [ca.root_certificate])
    hits = certs._issuer_signed.cache_info().hits
    validate_chain(member, [ca.root_certificate])
    assert certs._issuer_signed.cache_info().hits == hits + 2  # root + member
    return member


def test_validity_window_is_checked_after_a_hit(ca):
    member = _primed(ca)
    with pytest.raises(CertificateError, match="validity window"):
        validate_chain(member, [ca.root_certificate], at_time=member.not_after + 1)


def test_same_tbs_with_another_signature_is_refused_after_a_hit(ca):
    member = _primed(ca)
    _, other = ca.enroll("other")  # a genuine signature, over other TBS bytes
    forged = dataclasses.replace(member, signature=other.signature)
    assert forged.tbs_bytes() == member.tbs_bytes()
    with pytest.raises(CertificateError, match="invalid signature"):
        validate_chain(forged, [ca.root_certificate])


def test_same_named_root_with_another_key_is_refused_after_a_hit(ca):
    member = _primed(ca)
    # A genuinely self-signed root under the same names and another key.
    impostor = CertificateAuthority("acme-org", network="acme-net").root_certificate
    assert impostor.subject == ca.root_certificate.subject
    with pytest.raises(CertificateError, match="invalid signature"):
        validate_chain(member, [impostor])
    # The real root's names and signature with another key in it.
    swapped = dataclasses.replace(ca.root_certificate, public_key=impostor.public_key)
    with pytest.raises(CertificateError, match="not self-signed"):
        validate_chain(member, [swapped])


@settings(max_examples=40, deadline=None)
@given(steps=steps)
def test_memo_agrees_with_uncached_verify(steps):
    for index, part, position, mask in steps:
        key, tbs, signature = mutated_triple(index, part, position, mask)
        assert certs._issuer_signed(key, tbs, signature) == verify(key, tbs, signature)
        assert certs._issuer_signed(key, tbs, signature) == (part == "none")

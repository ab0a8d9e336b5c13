"""Oracle for ``repro.crypto.chacha20``: published vectors, an in-repo
scalar reference and pinned ciphertext.

Three things pin the cipher's bytes independently of how
``chacha20_xor`` is written:

* the RFC 8439 vectors (§2.3.2 block function, Appendix A.1 keystream
  blocks, A.2 encryptions);
* :func:`reference_xor`, the textbook one-block-at-a-time,
  one-byte-at-a-time ChaCha20 — slow, obviously the RFC's pseudocode, and
  sharing nothing with ``src`` (the role ``reference_mult`` plays for EC);
* one ``aead.seal`` box and one ``ecies_encrypt`` box generated before the
  keystream was rewritten: a relay's ``SqliteStore`` may hold such boxes in
  its idempotency records, and they must reproduce and open unchanged.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import chacha20
from repro.crypto.aead import open_, seal
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.ecies import ecies_decrypt, ecies_encrypt
from repro.crypto.keys import generate_keypair

# --------------------------------------------------------------------------
# The scalar reference (RFC 8439 §2.1-§2.4 pseudocode, nothing clever).
# --------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _rotl32(value: int, count: int) -> int:
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def reference_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    state = [*_CONSTANTS, *struct.unpack("<8I", key), counter, *struct.unpack("<3I", nonce)]
    working = state.copy()
    for _ in range(10):  # 20 rounds: 10 column+diagonal double-rounds
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    return struct.pack("<16I", *((w + s) & _MASK32 for w, s in zip(working, state)))


def reference_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 1) -> bytes:
    out = bytearray()
    counter = initial_counter
    for offset in range(0, len(data), 64):
        block = reference_block(key, counter, nonce)
        out += bytes(b ^ k for b, k in zip(data[offset : offset + 64], block))
        counter = (counter + 1) & _MASK32
    return bytes(out)


# Shared with test_chacha20_differential.py.
keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=12, max_size=12)
# Half the counters sit within a few blocks of the 32-bit wrap.
counters = st.one_of(
    st.integers(min_value=0, max_value=_MASK32),
    st.integers(min_value=_MASK32 - 8, max_value=_MASK32),
)

# The bytes ``chacha20_xor`` keystreams per slab (1024 blocks); lengths
# around it exercise the slab seam. Spelled out, not imported, so that
# moving the constant fails test_slab_lengths_sit_on_the_slab_seam.
SLAB_BYTES = 64 * 1024

ZERO_KEY = bytes(32)
ZERO_NONCE = bytes(12)
RFC_KEY = bytes(range(32))


def _pattern(length: int) -> bytes:
    return bytes((7 * i + 3) % 256 for i in range(length))


# --------------------------------------------------------------------------
# RFC 8439 vectors
# --------------------------------------------------------------------------


def test_rfc8439_section_2_3_2_block_function():
    keystream = chacha20_xor(
        RFC_KEY, bytes.fromhex("000000090000004a00000000"), bytes(64), initial_counter=1
    )
    assert keystream == bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )


_KEY_LAST_BYTE_1 = bytes(31) + b"\x01"
_KEY_SECOND_BYTE_FF = b"\x00\xff" + bytes(30)
_NONCE_LAST_BYTE_2 = bytes(11) + b"\x02"

# RFC 8439 Appendix A.1, test vectors #1-#5: (key, nonce, counter, keystream block).
A1_VECTORS = [
    (
        ZERO_KEY,
        ZERO_NONCE,
        0,
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
        "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586",
    ),
    (
        ZERO_KEY,
        ZERO_NONCE,
        1,
        "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
        "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f",
    ),
    (
        _KEY_LAST_BYTE_1,
        ZERO_NONCE,
        1,
        "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
        "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0",
    ),
    (
        _KEY_SECOND_BYTE_FF,
        ZERO_NONCE,
        2,
        "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca"
        "13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096",
    ),
    (
        ZERO_KEY,
        _NONCE_LAST_BYTE_2,
        0,
        "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
        "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d",
    ),
]


@pytest.mark.parametrize(
    "key, nonce, counter, keystream", A1_VECTORS, ids=[f"A.1#{i}" for i in range(1, 6)]
)
def test_rfc8439_appendix_a1_keystream(key, nonce, counter, keystream):
    assert chacha20_xor(key, nonce, bytes(64), initial_counter=counter) == bytes.fromhex(keystream)
    assert reference_block(key, counter, nonce) == bytes.fromhex(keystream)


def test_a1_blocks_are_consecutive_in_one_message():
    # Vectors #1 and #2 share key and nonce at counters 0 and 1: one
    # 128-byte message from counter 0 must produce both, in order.
    two_blocks = chacha20_xor(ZERO_KEY, ZERO_NONCE, bytes(128), initial_counter=0)
    assert two_blocks.hex() == A1_VECTORS[0][3] + A1_VECTORS[1][3]


A2_2_PLAINTEXT = (
    b"Any submission to the IETF intended by the Contributor for publi"
    b"cation as all or part of an IETF Internet-Draft or RFC and any s"
    b"tatement made within the context of an IETF activity is consider"
    b'ed an "IETF Contribution". Such statements include oral statemen'
    b"ts in IETF sessions, as well as written and electronic communica"
    b"tions made at any time or place, which are addressed to"
)
A2_2_CIPHERTEXT = bytes.fromhex(
    "a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec"
    "2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d"
    "4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950"
    "42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a"
    "d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d"
    "c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b"
    "0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c"
    "cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b"
    "c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f"
    "5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6"
    "98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab"
    "7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221"
)

A2_3_KEY = bytes.fromhex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0")
A2_3_PLAINTEXT = (
    b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\n"
    b"All mimsy were the borogoves,\nAnd the mome raths outgrabe."
)
A2_3_CIPHERTEXT = bytes.fromhex(
    "62e6347f95ed87a45ffae7426f27a1df5fb69110044c0d73118effa95b01e5cf"
    "166d3df2d721caf9b21e5fb14c616871fd84c54f9d65b283196c7fe4f60553eb"
    "f39c6402c42234e32a356b3e764312a61a5532055716ead6962568f87d3f3f77"
    "04c6a8d1bcd1bf4d50d6154b6da731b187b58dfd728afa36757a797ac188d1"
)


def test_rfc8439_appendix_a2_vector_2():
    assert len(A2_2_PLAINTEXT) == 375
    assert (
        chacha20_xor(_KEY_LAST_BYTE_1, _NONCE_LAST_BYTE_2, A2_2_PLAINTEXT, initial_counter=1)
        == A2_2_CIPHERTEXT
    )


def test_rfc8439_appendix_a2_vector_3():
    assert len(A2_3_PLAINTEXT) == 127
    assert (
        chacha20_xor(A2_3_KEY, _NONCE_LAST_BYTE_2, A2_3_PLAINTEXT, initial_counter=42)
        == A2_3_CIPHERTEXT
    )
    assert (
        chacha20_xor(A2_3_KEY, _NONCE_LAST_BYTE_2, A2_3_CIPHERTEXT, initial_counter=42)
        == A2_3_PLAINTEXT
    )


# --------------------------------------------------------------------------
# Against the scalar reference
# --------------------------------------------------------------------------

BOUNDARY_LENGTHS = [
    0,
    1,
    63,
    64,
    65,
    127,
    128,
    129,
    SLAB_BYTES - 1,
    SLAB_BYTES,
    SLAB_BYTES + 1,
    3 * SLAB_BYTES + 1,
]


def test_slab_lengths_sit_on_the_slab_seam():
    assert chacha20._SLAB_BYTES == SLAB_BYTES


@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_boundary_lengths_match_reference(length):
    data = _pattern(length)
    nonce = bytes.fromhex("000000000000004a00000000")
    out = chacha20_xor(RFC_KEY, nonce, data)
    assert len(out) == length
    assert out == reference_xor(RFC_KEY, nonce, data)


@pytest.mark.parametrize("blocks_before_wrap", [1, 2, 3])
def test_counter_wraps_to_zero_inside_a_message(blocks_before_wrap):
    start = (1 << 32) - blocks_before_wrap
    nonce = bytes(range(12))
    out = chacha20_xor(RFC_KEY, nonce, bytes(64 * 5 + 17), initial_counter=start)
    assert out == reference_xor(RFC_KEY, nonce, bytes(64 * 5 + 17), initial_counter=start)
    # The block after 0xFFFFFFFF is block 0, not block 2^32.
    at_wrap = 64 * blocks_before_wrap
    assert out[at_wrap : at_wrap + 64] == reference_block(RFC_KEY, 0, nonce)
    assert out[at_wrap - 64 : at_wrap] == reference_block(RFC_KEY, _MASK32, nonce)


@settings(max_examples=100, deadline=None)
@given(key=keys, nonce=nonces, counter=counters, data=st.binary(max_size=700))
def test_random_inputs_match_reference(key, nonce, counter, data):
    assert chacha20_xor(key, nonce, data, counter) == reference_xor(key, nonce, data, counter)


@pytest.mark.parametrize("length", [0, 150])
@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview], ids=lambda t: t.__name__)
def test_bytes_like_input_returns_bytes(wrap, length):
    data = _pattern(length)
    out = chacha20_xor(RFC_KEY, ZERO_NONCE, wrap(data))
    assert type(out) is bytes
    assert out == reference_xor(RFC_KEY, ZERO_NONCE, data)


@pytest.mark.parametrize("counter", [-1, 1 << 32, (1 << 32) + 1])
def test_counter_outside_32_bits_rejected(counter):
    # These used to alias mod 2^32: -1 encrypted like 0xFFFFFFFF.
    with pytest.raises(ValueError):
        chacha20_xor(RFC_KEY, ZERO_NONCE, b"data", initial_counter=counter)
    with pytest.raises(ValueError):
        chacha20_xor(RFC_KEY, ZERO_NONCE, b"", initial_counter=counter)


@pytest.mark.parametrize("counter", [0, _MASK32])
def test_counter_bounds_accepted(counter):
    out = chacha20_xor(RFC_KEY, ZERO_NONCE, bytes(64), initial_counter=counter)
    assert out == reference_block(RFC_KEY, counter, ZERO_NONCE)


# --------------------------------------------------------------------------
# Pinned boxes: ciphertext written before the rewrite stays readable
# --------------------------------------------------------------------------

PINNED_PLAINTEXT = _pattern(200)
PINNED_AD = b"repro/pinned-box/v1"
PINNED_NONCE = bytes.fromhex("404142434445464748494a4b")

PINNED_SEAL_KEY = bytes(range(64))
PINNED_SEAL_BOX = bytes.fromhex(
    "404142434445464748494a4bfb5e6d996d6cc335638dbf50ecb108a1c7b6e290"
    "cb6adccb55be6b9b2de9efb613596888d94d6fe2114d06775d6aabd2b2090da1"
    "9100f0ab5050969bafc586dd08faf8858cf50adfb90c6499d4300046ee61d166"
    "b3ebbd0ad603d5ad8bd217e83d923fe29342d8a3d9397934fc4763b5b1e394d0"
    "fba9a209a24dfc1b133271775dbea95b0b1b5d28f27aeff06c20755e78e3de8f"
    "d3ba1f8379ac0fc96bf0992746070b1323eee069e84c698fd65447b2ec137ea2"
    "6a5858fd31267d7302d8fcdb053f0fc6d9b68d76f86c460acb5ab441743c38f1"
    "2dfd9cbb0692b9ec5f7d81baea5483b19b95e9e3"
)

PINNED_ECIES_BOX = bytes.fromhex(
    "04afcf144ef88e52f9fcc6ede5e54786aea873f8c63ecb22bc0398249d3caf56"
    "e9aaa49effa2a35ef644b7659d5c3d1d098557b098cbb00f9991102a97f4cbf7"
    "8b404142434445464748494a4b1ef7f6e5f54e8e15d6730512c506e3dda031e7"
    "b6649812a6bee75510eaf262729367d6ebcd936c7f169e5ecdf73ab8c2f4ff4e"
    "42f97deca47fe9bf45e2afbbac08f949177ef9127609c75d3705ac5728e8b915"
    "11d9da431f307ac7ab430225a08fd4af872cf8e2c0281becb3833a360685d0c4"
    "3c69fe0c8012b2342ea8f07df082613d0fedebac831b8e43f3d0c755cd81938c"
    "3acd8fb15253f675e9c29049d8a4e9ef8c5c1a88a2e3987f4956761e90d5c7b8"
    "8b83b101f07edb61cba2fc8b5883830457df5f5d0cd8c9240cd8cfae8f83fa91"
    "0d8805207f36c3e53ee5cb4b33a6077fa600598b03"
)


def test_pinned_seal_box_reproduces_and_opens():
    box = seal(PINNED_SEAL_KEY, PINNED_PLAINTEXT, PINNED_AD, nonce=PINNED_NONCE)
    assert box == PINNED_SEAL_BOX
    assert open_(PINNED_SEAL_KEY, PINNED_SEAL_BOX, PINNED_AD) == PINNED_PLAINTEXT


def test_pinned_ecies_box_reproduces_and_opens(monkeypatch):
    recipient = generate_keypair(seed=b"pinned-recipient")
    ephemeral = generate_keypair(seed=b"pinned-ephemeral")
    assert ecies_decrypt(recipient.private, PINNED_ECIES_BOX, PINNED_AD) == PINNED_PLAINTEXT
    # ecies_encrypt takes no nonce; the AEAD layer draws it from os.urandom.
    monkeypatch.setattr("repro.crypto.aead.os.urandom", lambda n: PINNED_NONCE[:n])
    box = ecies_encrypt(recipient.public, PINNED_PLAINTEXT, PINNED_AD, ephemeral=ephemeral)
    assert box == PINNED_ECIES_BOX

"""ChaCha20 stream cipher (RFC 8439), every block of a message in flight at once.

Encryption and decryption are the same XOR-keystream operation. Used only
through the AEAD construction in :mod:`repro.crypto.aead`; never use a raw
stream cipher without a MAC.

Lane layout
    ChaCha20's blocks are independent: they differ only in the counter
    word. So instead of running the 20 rounds once per 64-byte block, each
    of the 16 state words is one Python ``int`` that holds that word *for
    every block*, one 64-bit lane per block::

        bit  64j+63 ........ 64j+32 | 64j+31 ........ 64j
             32 guard bits (zero)   | word of block j

    A quarter-round is then ~28 big-int operations for the whole message —
    they run at C speed over all lanes — where a per-block loop interprets
    28 per block. The guard bits are what make plain integer arithmetic
    lane-safe: a 32-bit add carries into bit 32 of its own lane, ``<< r``
    spills at most into bits 32..47, and ``>> (32 - r)`` drops a lane's low
    bits into the top guard bits of the lane below (off the end for lane
    0). None of that reaches a neighbour's value bits, and one ``& mask``
    (``0xFFFFFFFF`` in every lane) clears it. The counter word is
    ``counter + j`` in lane ``j`` before the same mask, so the 32-bit
    counter wraps to 0 exactly as RFC 8439 has it.

    The finished words are packed two to a lane, written out little-endian
    and scattered into block order with strided ``memoryview`` slices
    (word pair ``i`` of every block in one assignment); the keystream is
    XORed onto the data as one wide integer.

Slab
    A message is processed ``_SLAB_BLOCKS`` = 1024 blocks (64 KiB) at a
    time, so working memory is bounded (~0.4 MB: 32 ints of 8 KiB plus the
    keystream) whatever the payload. Chosen by timing on 1 MiB and 4 MiB
    inputs: 64 blocks reads ~52 ns/byte, 256 ~40, 1024 ~33, 4096 ~33 —
    1024 is where the per-operation interpreter cost stops showing.
    Messages shorter than a slab use exactly as many lanes as they have
    blocks.

Not constant-time (big-int arithmetic is not), simulation-grade: it exists
so the protocol's confidentiality step is real and byte-compatible with
RFC 8439, not to protect production secrets.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

_SLAB_BLOCKS = 1024
_SLAB_BYTES = 64 * _SLAB_BLOCKS
# 1 in every lane (multiply by it to broadcast a word) and j in lane j.
_LANE_ONES = ((1 << (64 * _SLAB_BLOCKS)) - 1) // ((1 << 64) - 1)
_LANE_INDEX = int.from_bytes(struct.pack(f"<{_SLAB_BLOCKS}Q", *range(_SLAB_BLOCKS)), "little")


def _quarter_round(x: list[int], a: int, b: int, c: int, d: int, mask: int) -> None:
    """RFC 8439 §2.1 on four lane-packed words; operands are masked on entry and exit."""
    xa, xb, xc, xd = x[a], x[b], x[c], x[d]
    xa = (xa + xb) & mask
    xd ^= xa
    xd = ((xd << 16) | (xd >> 16)) & mask
    xc = (xc + xd) & mask
    xb ^= xc
    xb = ((xb << 12) | (xb >> 20)) & mask
    xa = (xa + xb) & mask
    xd ^= xa
    xd = ((xd << 8) | (xd >> 24)) & mask
    xc = (xc + xd) & mask
    xb ^= xc
    xb = ((xb << 7) | (xb >> 25)) & mask
    x[a], x[b], x[c], x[d] = xa, xb, xc, xd


def _keystream(words: tuple[int, ...], counter: int, blocks: int) -> bytearray:
    """The ``blocks`` (≤ one slab) keystream blocks starting at ``counter``.

    ``words`` is the 16-word initial state; its counter slot is ignored.
    """
    keep = (1 << (64 * blocks)) - 1
    ones = _LANE_ONES & keep
    mask = _MASK32 * ones
    initial = [word * ones for word in words]
    initial[12] = (counter * ones + (_LANE_INDEX & keep)) & mask
    x = initial.copy()
    for _ in range(10):  # 20 rounds: 10 column+diagonal double-rounds
        _quarter_round(x, 0, 4, 8, 12, mask)
        _quarter_round(x, 1, 5, 9, 13, mask)
        _quarter_round(x, 2, 6, 10, 14, mask)
        _quarter_round(x, 3, 7, 11, 15, mask)
        _quarter_round(x, 0, 5, 10, 15, mask)
        _quarter_round(x, 1, 6, 11, 12, mask)
        _quarter_round(x, 2, 7, 8, 13, mask)
        _quarter_round(x, 3, 4, 9, 14, mask)
    keystream = bytearray(64 * blocks)
    cells = memoryview(keystream).cast("Q")  # cell 8j+i = words 2i, 2i+1 of block j
    for i in range(8):
        low = (x[2 * i] + initial[2 * i]) & mask
        high = (x[2 * i + 1] + initial[2 * i + 1]) & mask
        pair = (low | (high << 32)).to_bytes(8 * blocks, "little")
        cells[i::8] = memoryview(pair).cast("Q")
    return keystream


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 1) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypts and decrypts).

    ``key`` must be 32 bytes, ``nonce`` 12 bytes (RFC 8439 layout) and
    ``initial_counter`` a 32-bit block counter; it wraps to 0 after
    ``0xFFFFFFFF``. ``data`` is any bytes-like object; the result is
    ``bytes``.
    """
    if len(key) != 32:
        raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    if not 0 <= initial_counter <= _MASK32:
        raise ValueError(f"ChaCha20 counter must be in [0, 2^32), got {initial_counter}")
    words = (*_CONSTANTS, *struct.unpack("<8I", key), 0, *struct.unpack("<3I", nonce))
    data = bytes(memoryview(data))
    counter = initial_counter
    out = []
    for offset in range(0, len(data), _SLAB_BYTES):
        chunk = data[offset : offset + _SLAB_BYTES]
        blocks = -(-len(chunk) // 64)
        keystream = memoryview(_keystream(words, counter, blocks))[: len(chunk)]
        mixed = int.from_bytes(chunk, "little") ^ int.from_bytes(keystream, "little")
        out.append(mixed.to_bytes(len(chunk), "little"))
        counter = (counter + blocks) & _MASK32
    return b"".join(out)

"""NIST P-256 (secp256r1) elliptic-curve arithmetic.

A small, self-contained implementation of the curve group used by
Hyperledger Fabric MSP identities. Points are exposed as affine
``(x, y)`` tuples with ``None`` representing the point at infinity;
internally everything runs in Jacobian coordinates and pays one modular
inversion per public call.

Scalar multiplication comes in three shapes, all built on two formulas —
a doubling that uses a = -3 and a mixed Jacobian + affine addition — each
written to minimise ``% P`` reductions (7 apiece), which is what a field
operation costs in Python:

- ``k * G`` reads a fixed-base table: 64 rows of the 15 non-zero 4-bit
  multiples of ``2^(4i) * G``, 960 affine points (~0.2 MB) built at import
  in ~10 ms and normalised with one batch inversion per row. It is an
  immutable module constant, so it needs no lock. A multiplication is at most 64
  mixed additions and no doubling (~0.33 ms against ~2.4 ms for a ladder).
- ``k * Q`` for any other point uses a width-5 NAF over the 8 odd multiples
  ``Q, 3Q, .. 15Q``, normalised to affine so the ~43 additions are mixed
  ones; the ~256 doublings remain (~1.4 ms against ~2.4 ms).
- ``u1 * G + u2 * Q``, the ECDSA verification sum, runs the NAF pass and
  then adds the table windows of ``u1`` into the same accumulator: one
  inversion, ~1.7 ms against ~4.8 ms for two ladders and an addition.

None of this is constant-time, and neither was the ladder it replaces:
table indices, NAF digits and branch choices all depend on the scalar.
It is simulation-grade arithmetic for reproducing a protocol, checked
against RFC 6979 vectors, a reference ladder and the ``cryptography``
package in ``tests/crypto`` — not something to hold real keys with.

This module implements *math only*; key handling and signatures live in
:mod:`repro.crypto.keys` and :mod:`repro.crypto.ecdsa`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidKeyError

# Curve parameters for NIST P-256 (FIPS 186-4, D.1.2.3).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

AffinePoint = Optional[Tuple[int, int]]
_JacobianPoint = Tuple[int, int, int]

_INFINITY_J: _JacobianPoint = (1, 1, 0)

GENERATOR: AffinePoint = (GX, GY)

# Window widths, picked by timing on the benchmark box and fixed here.
# Fixed base: 4 bits -> 64 rows x 15 affine multiples of G (960 points,
# ~10 ms to build); 5 bits is 1612 points for 0.06 ms less per k*G.
# Variable base: width-5 NAF over the 8 odd multiples P, 3P, .. 15P;
# widths 4 and 6 time the same to within noise.
_FIXED_WINDOW = 4
_NAF_WIDTH = 5


def inverse_mod(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-gcd ``pow``."""
    if value % modulus == 0:
        raise ZeroDivisionError("no inverse for 0")
    return pow(value, -1, modulus)


def is_on_curve(point: AffinePoint) -> bool:
    """Check that ``point`` satisfies the curve equation (or is infinity)."""
    if point is None:
        return True
    x, y = point
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + A * x + B)) % P == 0


def _double(x: int, y: int, z: int) -> _JacobianPoint:
    """Jacobian doubling for a = -3 (dbl-2001-b), 7 reductions. Infinity
    (z = 0) and the order-2 case (y = 0) both come out with z = 0."""
    zz = z * z % P
    yy = y * y % P
    beta = x * yy % P
    alpha = 3 * (x - zz) * (x + zz) % P
    x3 = (alpha * alpha - 8 * beta) % P
    return x3, (alpha * (4 * beta - x3) - 8 * yy * yy) % P, 2 * y * z % P


def _add_mixed(x1: int, y1: int, z1: int, x2: int, y2: int) -> _JacobianPoint:
    """Jacobian ``(x1, y1, z1)`` plus affine ``(x2, y2)``, 7 reductions.

    Complete: the accumulator may be infinity, equal to the affine point
    (doubling) or its negative (infinity) — the joint ECDSA pass meets
    all three.
    """
    if not z1:
        return x2, y2, 1
    zz = z1 * z1 % P
    h = (x2 * zz - x1) % P
    r = (y2 * zz * z1 - y1) % P
    if not h:
        return _double(x1, y1, z1) if not r else _INFINITY_J
    hh = h * h % P
    x3 = (r * r - hh * (h + 2 * x1)) % P
    return x3, (r * (x1 * hh - x3) - y1 * h * hh) % P, z1 * h % P


def _to_affine(x: int, y: int, z: int) -> AffinePoint:
    if not z:
        return None
    z_inv = inverse_mod(z, P)
    z_inv2 = z_inv * z_inv % P
    return x * z_inv2 % P, y * z_inv2 * z_inv % P


def _batch_to_affine(points: Sequence[_JacobianPoint]) -> List[Tuple[int, int]]:
    """Normalise finite Jacobian points with one inversion (Montgomery's
    trick: invert the product, peel one factor off per point)."""
    prefixes = []
    product = 1
    for _, _, z in points:
        prefixes.append(product)
        product = product * z % P
    inverse = inverse_mod(product, P)
    affine = []
    for (x, y, z), prefix in zip(reversed(points), reversed(prefixes)):
        z_inv = inverse * prefix % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        affine.append((x * z_inv2 % P, y * z_inv2 * z_inv % P))
    affine.reverse()
    return affine


def _multiples(x: int, y: int, step_x: int, step_y: int, count: int) -> List[_JacobianPoint]:
    """``(x, y) + i * step`` for ``i`` in ``range(count)``, in Jacobian form."""
    points = [(x, y, 1)]
    for _ in range(count - 1):
        points.append(_add_mixed(*points[-1], step_x, step_y))
    return points


def _build_generator_table() -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Row ``i`` holds ``d * 2^(w*i) * G`` for ``d`` in ``1 .. 2^w - 1``."""
    rows = -(-N.bit_length() // _FIXED_WINDOW)
    chain = [(GX, GY, 1)]
    for _ in range((rows - 1) * _FIXED_WINDOW):
        chain.append(_double(*chain[-1]))
    # One inversion per row rather than one for the whole table: ~1 ms more
    # to build, and the Jacobian intermediates never pile up in memory.
    return tuple(
        tuple(_batch_to_affine(_multiples(bx, by, bx, by, (1 << _FIXED_WINDOW) - 1)))
        for bx, by in _batch_to_affine(chain[::_FIXED_WINDOW])
    )


_GENERATOR_TABLE = _build_generator_table()


def _add_generator_multiple(x: int, y: int, z: int, k: int) -> _JacobianPoint:
    """``(x, y, z) + k * G`` for ``0 <= k < N``: one mixed addition per
    non-zero window of ``k``, no doubling."""
    mask = (1 << _FIXED_WINDOW) - 1
    for row in _GENERATOR_TABLE:
        digit = k & mask
        if digit:
            gx, gy = row[digit - 1]
            x, y, z = _add_mixed(x, y, z, gx, gy)
        k >>= _FIXED_WINDOW
    return x, y, z


def _naf_terms(k: int) -> List[Tuple[int, int]]:
    """Width-w NAF of ``k`` as ``(zeros, digit)`` pairs, least significant
    first: ``k = 2^z0 * (d0 + 2^z1 * (d1 + ...))`` with every digit odd
    and ``|digit| < 2^(w-1)``, so all ``zeros`` but the first are >= w."""
    full = 1 << _NAF_WIDTH
    terms = []
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        digit = k & (full - 1)
        if digit > full >> 1:
            digit -= full
        k -= digit
        terms.append((zeros, digit))
    return terms


def _variable_base_mult(k: int, px: int, py: int) -> _JacobianPoint:
    """``k * (px, py)`` for ``1 <= k < N`` and a point already checked to
    be on the curve (prime order, so no multiple below N is infinity)."""
    twice_x, twice_y = _to_affine(*_double(px, py, 1))
    odd = _batch_to_affine(_multiples(px, py, twice_x, twice_y, 1 << (_NAF_WIDTH - 2)))
    x, y, z = _INFINITY_J
    for zeros, digit in reversed(_naf_terms(k)):
        if digit > 0:
            tx, ty = odd[digit >> 1]
        else:
            tx, ty = odd[-digit >> 1]
            ty = P - ty
        x, y, z = _add_mixed(x, y, z, tx, ty)
        for _ in range(zeros):
            x, y, z = _double(x, y, z)
    return x, y, z


def point_add(p1: AffinePoint, p2: AffinePoint) -> AffinePoint:
    """Group addition on affine points."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return _to_affine(*_add_mixed(p1[0], p1[1], 1, p2[0], p2[1]))


def point_double(point: AffinePoint) -> AffinePoint:
    """Group doubling on an affine point."""
    if point is None:
        return None
    return _to_affine(*_double(point[0], point[1], 1))


def point_neg(point: AffinePoint) -> AffinePoint:
    """Group negation on an affine point."""
    if point is None:
        return None
    x, y = point
    return (x, (-y) % P)


def scalar_mult(scalar: int, point: AffinePoint = GENERATOR) -> AffinePoint:
    """Compute ``scalar * point``: from the fixed-base table when ``point``
    is the generator, by width-5 NAF otherwise."""
    if point is None or scalar % N == 0:
        return None
    if not is_on_curve(point):
        raise InvalidKeyError("point is not on the P-256 curve")
    k = scalar % N
    if point == GENERATOR:
        return _to_affine(*_add_generator_multiple(*_INFINITY_J, k))
    return _to_affine(*_variable_base_mult(k, *point))


def double_scalar_mult(u1: int, u2: int, point: AffinePoint) -> AffinePoint:
    """Compute ``u1 * G + u2 * point`` in one pass (the ECDSA verification
    sum): the NAF digits of ``u2`` and the table windows of ``u1`` go into
    one Jacobian accumulator, normalised by a single inversion."""
    if not is_on_curve(point):
        raise InvalidKeyError("point is not on the P-256 curve")
    k = u2 % N
    accumulator = _INFINITY_J
    if point is not None and k:
        accumulator = _variable_base_mult(k, *point)
    return _to_affine(*_add_generator_multiple(*accumulator, u1 % N))


def encode_point(point: AffinePoint) -> bytes:
    """Serialize a point to 65-byte uncompressed SEC1 form (0x04 || X || Y)."""
    if point is None:
        raise InvalidKeyError("cannot encode the point at infinity")
    x, y = point
    return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")


def decode_point(data: bytes) -> AffinePoint:
    """Parse a 65-byte uncompressed SEC1 point, validating curve membership."""
    if len(data) != 65:
        raise InvalidKeyError(
            f"expected 65-byte uncompressed point, got {len(data)} bytes"
        )
    if data[0] != 0x04:
        raise InvalidKeyError(
            f"expected uncompressed point prefix 0x04, got 0x{data[0]:02x}"
        )
    x = int.from_bytes(data[1:33], "big")
    y = int.from_bytes(data[33:65], "big")
    point = (x, y)
    if not is_on_curve(point):
        raise InvalidKeyError("decoded point is not on the P-256 curve")
    return point

"""Tests for P-256 curve arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ec
from repro.errors import InvalidKeyError

# st.integers alone draws ~80% of its values below 2^32; half the draws here
# are full-width so every table window and NAF digit position gets exercised.
scalars = st.one_of(
    st.integers(min_value=1, max_value=ec.N - 1),
    st.binary(min_size=32, max_size=32).map(
        lambda raw: int.from_bytes(raw, "big") % (ec.N - 1) + 1
    ),
)


def reference_add(p1, p2):
    """Textbook affine chord-and-tangent addition, one inversion per call:
    shares no formula with the Jacobian code in ``ec``."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % ec.P == 0:
            return None
        slope = (3 * x1 * x1 + ec.A) * pow(2 * y1, -1, ec.P)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, ec.P)
    x3 = (slope * slope - x1 - x2) % ec.P
    return (x3, (slope * (x1 - x3) - y1) % ec.P)


def reference_mult(scalar, point=ec.GENERATOR):
    """The bit-at-a-time double-and-add ladder ``ec.scalar_mult`` used to
    be, kept here as the reference the windowed code is compared with."""
    k = scalar % ec.N
    result = None
    addend = point
    while k:
        if k & 1:
            result = reference_add(result, addend)
        addend = reference_add(addend, addend)
        k >>= 1
    return result


# A point with no special relation to G, and the scalars the windowed code
# branches on: both window widths' boundaries, every all-ones window of the
# fixed-base table (4 bits) and of the NAF (5 bits), and the ends of the range.
OTHER_POINT = reference_mult(0xC0FFEE)
EDGE_SCALARS = sorted(
    {0, 1, 2, 15, 16, 17, 31, 32, 33, ec.N - 2, ec.N - 1, ec.N, ec.N + 1, 2**256 - 1}
    | {15 << shift for shift in range(0, 256, 4)}
    | {31 << shift for shift in range(0, 255, 5)}
    | {(1 << bits) - 1 for bits in (64, 128, 252, 255, 256)}
)


class TestCurveBasics:
    def test_generator_is_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_infinity_is_on_curve(self):
        assert ec.is_on_curve(None)

    def test_off_curve_point_rejected(self):
        assert not ec.is_on_curve((1, 1))

    def test_out_of_range_coordinates_rejected(self):
        assert not ec.is_on_curve((ec.P + 1, 2))

    def test_generator_has_order_n(self):
        assert ec.scalar_mult(ec.N) is None

    def test_known_scalar_multiple(self):
        # 2G for P-256 (published test value).
        point = ec.scalar_mult(2)
        assert point is not None
        assert point[0] == int(
            "7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978", 16
        )
        assert point[1] == int(
            "07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1", 16
        )


class TestGroupLaws:
    def test_add_identity(self):
        assert ec.point_add(ec.GENERATOR, None) == ec.GENERATOR
        assert ec.point_add(None, ec.GENERATOR) == ec.GENERATOR

    def test_add_inverse_is_infinity(self):
        assert ec.point_add(ec.GENERATOR, ec.point_neg(ec.GENERATOR)) is None

    def test_double_matches_add(self):
        assert ec.point_double(ec.GENERATOR) == ec.point_add(
            ec.GENERATOR, ec.GENERATOR
        )

    def test_associativity_sample(self):
        p2 = ec.scalar_mult(2)
        p3 = ec.scalar_mult(3)
        left = ec.point_add(ec.point_add(ec.GENERATOR, p2), p3)
        right = ec.point_add(ec.GENERATOR, ec.point_add(p2, p3))
        assert left == right

    @settings(max_examples=100, deadline=None)
    @given(a=scalars, b=scalars)
    def test_scalar_mult_distributes_over_addition(self, a, b):
        combined = ec.scalar_mult((a + b) % ec.N)
        separate = ec.point_add(ec.scalar_mult(a), ec.scalar_mult(b))
        assert combined == separate

    @settings(max_examples=100, deadline=None)
    @given(k=scalars)
    def test_scalar_mult_results_stay_on_curve(self, k):
        assert ec.is_on_curve(ec.scalar_mult(k))

    def test_scalar_mult_zero_is_infinity(self):
        assert ec.scalar_mult(0) is None

    def test_scalar_mult_rejects_off_curve_point(self):
        with pytest.raises(InvalidKeyError):
            ec.scalar_mult(2, (1, 1))


class TestAgainstReferenceLadder:
    def test_reference_agrees_with_known_multiple(self):
        assert reference_mult(2) == ec.point_double(ec.GENERATOR)
        assert reference_mult(ec.N - 1) == ec.point_neg(ec.GENERATOR)
        assert reference_mult(ec.N) is None

    @pytest.mark.parametrize("k", EDGE_SCALARS, ids=hex)
    def test_edge_scalars(self, k):
        assert ec.scalar_mult(k) == reference_mult(k)
        assert ec.scalar_mult(k, OTHER_POINT) == reference_mult(k, OTHER_POINT)

    @pytest.mark.parametrize("k", [1, 2, 3, 15, 16, 31, 32, ec.N - 1, 2**256 - 1])
    def test_generator_passed_explicitly_or_negated(self, k):
        minus_g = ec.point_neg(ec.GENERATOR)
        assert ec.scalar_mult(k, ec.GENERATOR) == reference_mult(k)
        assert ec.scalar_mult(k, minus_g) == reference_mult(k, minus_g)

    @settings(max_examples=100, deadline=None)
    @given(k=scalars, q=scalars)
    def test_random_scalars_and_points(self, k, q):
        point = ec.scalar_mult(q)
        assert point == reference_mult(q)
        assert ec.scalar_mult(k, point) == reference_mult(k, point)

    @settings(max_examples=100, deadline=None)
    @given(u1=scalars, u2=scalars, q=scalars)
    def test_double_scalar_mult_random(self, u1, u2, q):
        point = ec.scalar_mult(q)
        expected = reference_add(reference_mult(u1), reference_mult(u2, point))
        assert ec.double_scalar_mult(u1, u2, point) == expected

    @pytest.mark.parametrize("u1", [0, 1, 15, 16, ec.N - 1, ec.N, ec.N + 1, 2**256 - 1])
    @pytest.mark.parametrize("u2", [0, 1, 31, 32, ec.N - 1, ec.N, ec.N + 1, 2**256 - 1])
    @pytest.mark.parametrize(
        "point",
        [ec.GENERATOR, ec.point_neg(ec.GENERATOR), OTHER_POINT, None],
        ids=["G", "-G", "other", "infinity"],
    )
    def test_double_scalar_mult_edges(self, u1, u2, point):
        expected = reference_add(reference_mult(u1), reference_mult(u2, point))
        assert ec.double_scalar_mult(u1, u2, point) == expected

    @pytest.mark.parametrize("u", [1, 2, 15, 16, 0x30, 0xABCDEF, ec.N - 1])
    def test_double_scalar_mult_doubling_branch(self, u):
        # Q = G and u1 = u2: the accumulator u2*G meets the same table point.
        assert ec.double_scalar_mult(u, u, ec.GENERATOR) == reference_mult(2 * u)

    def test_double_scalar_mult_meets_table_point_mid_pass(self):
        # 0x2F*G, plus window 0 of 0x31 -> 0x30*G, which is window 1's entry.
        assert ec.double_scalar_mult(0x31, 0x2F, ec.GENERATOR) == reference_mult(0x60)

    @pytest.mark.parametrize("u", [1, 2, 15, 16, 0x30, 0xABCDEF, ec.N - 1])
    def test_double_scalar_mult_cancels_to_infinity(self, u):
        assert ec.double_scalar_mult(u, ec.N - u, ec.GENERATOR) is None
        assert ec.double_scalar_mult(u, u, ec.point_neg(ec.GENERATOR)) is None

    def test_double_scalar_mult_continues_past_infinity(self):
        # -0x31*G + 0x1*G + 0x30*G is infinity after two windows; the third
        # window then lands on an empty accumulator.
        assert ec.double_scalar_mult(0x131, ec.N - 0x31, ec.GENERATOR) == reference_mult(0x100)

    def test_double_scalar_mult_rejects_off_curve_point(self):
        with pytest.raises(InvalidKeyError):
            ec.double_scalar_mult(1, 1, (1, 1))
        with pytest.raises(InvalidKeyError):
            ec.double_scalar_mult(1, 0, (1, 1))


class TestEncoding:
    def test_roundtrip(self):
        encoded = ec.encode_point(ec.GENERATOR)
        assert len(encoded) == 65
        assert encoded[0] == 0x04
        assert ec.decode_point(encoded) == ec.GENERATOR

    def test_cannot_encode_infinity(self):
        with pytest.raises(InvalidKeyError):
            ec.encode_point(None)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(InvalidKeyError):
            ec.decode_point(b"\x04" + b"\x00" * 10)

    def test_decode_rejects_wrong_prefix(self):
        encoded = bytearray(ec.encode_point(ec.GENERATOR))
        encoded[0] = 0x02
        with pytest.raises(InvalidKeyError, match="prefix 0x04, got 0x02"):
            ec.decode_point(bytes(encoded))

    def test_decode_rejects_off_curve(self):
        bogus = b"\x04" + (5).to_bytes(32, "big") + (7).to_bytes(32, "big")
        with pytest.raises(InvalidKeyError):
            ec.decode_point(bogus)

    def test_inverse_mod(self):
        for value in (1, 2, 12345, ec.N - 1):
            assert (value * ec.inverse_mod(value, ec.N)) % ec.N == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ec.inverse_mod(0, ec.P)

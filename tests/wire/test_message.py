"""Tests for the declarative message-schema system."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecodeError, EncodeError
from repro.proto.messages import RelayEnvelope
from repro.wire import (
    BoolField,
    BytesField,
    DoubleField,
    MapField,
    Message,
    MessageField,
    RepeatedBytesField,
    RepeatedMessageField,
    RepeatedStringField,
    SintField,
    StringField,
    UintField,
)


class Inner(Message):
    tag = StringField(1)
    count = UintField(2)


class Everything(Message):
    uint_val = UintField(1)
    sint_val = SintField(2)
    bool_val = BoolField(3)
    double_val = DoubleField(4)
    string_val = StringField(5)
    bytes_val = BytesField(6)
    inner = MessageField(7, Inner)
    strings = RepeatedStringField(8)
    blobs = RepeatedBytesField(9)
    inners = RepeatedMessageField(10, Inner)
    labels = MapField(11)


def full_message() -> Everything:
    return Everything(
        uint_val=42,
        sint_val=-7,
        bool_val=True,
        double_val=3.25,
        string_val="héllo",
        bytes_val=b"\x00\x01\x02",
        inner=Inner(tag="in", count=1),
        strings=["a", "b"],
        blobs=[b"x", b"yz"],
        inners=[Inner(tag="r0", count=0), Inner(tag="r1", count=9)],
        labels={"k1": "v1", "k2": "v2"},
    )


class TestRoundtrip:
    def test_full_roundtrip(self):
        message = full_message()
        assert Everything.decode(message.encode()) == message

    def test_empty_message_encodes_empty(self):
        assert Everything().encode() == b""

    def test_defaults_skipped_on_wire(self):
        only_one = Everything(uint_val=5)
        data = only_one.encode()
        assert len(data) == 2  # tag byte + value byte
        assert Everything.decode(data) == only_one

    def test_deterministic_encoding(self):
        assert full_message().encode() == full_message().encode()

    def test_map_encoding_order_independent(self):
        a = Everything(labels={"x": "1", "y": "2"})
        b = Everything(labels={"y": "2", "x": "1"})
        assert a.encode() == b.encode()

    def test_negative_sint(self):
        message = Everything(sint_val=-(10**12))
        assert Everything.decode(message.encode()).sint_val == -(10**12)

    def test_double_precision(self):
        message = Everything(double_val=1.0 / 3.0)
        assert Everything.decode(message.encode()).double_val == 1.0 / 3.0

    def test_nested_none_by_default(self):
        assert Everything().inner is None

    def test_repr_mentions_set_fields_only(self):
        text = repr(Everything(uint_val=9))
        assert "uint_val=9" in text
        assert "sint_val" not in text

    def test_to_dict(self):
        data = full_message().to_dict()
        assert data["bytes_val"] == "000102"
        assert data["inner"]["tag"] == "in"
        assert data["labels"] == {"k1": "v1", "k2": "v2"}


class TestValidation:
    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="no field"):
            Everything(nope=1)

    def test_uint_rejects_negative(self):
        with pytest.raises(EncodeError):
            Everything(uint_val=-1)

    def test_uint_rejects_bool(self):
        with pytest.raises(EncodeError):
            Everything(uint_val=True)

    def test_string_rejects_bytes(self):
        with pytest.raises(EncodeError):
            Everything(string_val=b"bytes")

    def test_bytes_rejects_str(self):
        with pytest.raises(EncodeError):
            Everything(bytes_val="str")

    def test_nested_type_checked(self):
        with pytest.raises(EncodeError):
            Everything(inner="not a message")

    def test_repeated_item_type_checked(self):
        with pytest.raises(EncodeError):
            Everything(strings=[1, 2])

    def test_map_type_checked(self):
        with pytest.raises(EncodeError):
            Everything(labels={"k": 1})

    def test_duplicate_field_numbers_rejected(self):
        with pytest.raises(TypeError, match="duplicate field number"):

            class Broken(Message):
                a = UintField(1)
                b = StringField(1)


class TestForwardCompatibility:
    def test_unknown_fields_preserved(self):
        class V2(Message):
            known = UintField(1)
            extra = StringField(15)

        class V1(Message):
            known = UintField(1)

        original = V2(known=3, extra="future data")
        relayed = V1.decode(original.encode())
        assert relayed.known == 3
        # The old reader re-emits bytes the new reader can still parse fully.
        reparsed = V2.decode(relayed.encode())
        assert reparsed == original

    def test_decode_errors_on_truncation(self):
        data = full_message().encode()
        with pytest.raises(DecodeError):
            Everything.decode(data[:-1])

    def test_decode_rejects_field_number_zero(self):
        with pytest.raises(DecodeError):
            Everything.decode(b"\x00\x01")

    def test_decode_rejects_bad_wire_type(self):
        # field 1 with wire type 5 (unsupported)
        with pytest.raises(DecodeError):
            Everything.decode(bytes([(1 << 3) | 5]))

    def test_wrong_wire_type_for_known_field(self):
        # field 1 (uint) sent as length-delimited
        payload = bytes([(1 << 3) | 2, 1, 0])
        with pytest.raises(DecodeError):
            Everything.decode(payload)

    def test_invalid_utf8_rejected(self):
        payload = bytes([(5 << 3) | 2, 2, 0xFF, 0xFE])
        with pytest.raises(DecodeError):
            Everything.decode(payload)

    def test_invalid_utf8_map_key_rejected(self):
        # RelayEnvelope field 7 (headers): one entry whose key is 0xFF
        with pytest.raises(DecodeError):
            RelayEnvelope.decode(b"\x3a\x03\x0a\x01\xff")

    def test_invalid_utf8_map_value_rejected(self):
        with pytest.raises(DecodeError):
            RelayEnvelope.decode(b"\x3a\x05\x0a\x00\x12\x01\xff")


simple_messages = st.builds(
    Everything,
    uint_val=st.integers(0, 2**64 - 1),
    sint_val=st.integers(-(2**63), 2**63 - 1),
    bool_val=st.booleans(),
    string_val=st.text(max_size=64),
    bytes_val=st.binary(max_size=64),
    strings=st.lists(st.text(max_size=16), max_size=8),
    blobs=st.lists(st.binary(max_size=16), max_size=8),
    labels=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=6),
)

def _delimited(tag: int, payload: bytes) -> bytes:
    return bytes([tag, len(payload)]) + payload


# RelayEnvelope-shaped byte strings: length-delimited fields under the
# envelope's tags, header entries whose key and value are arbitrary bytes
# (often not UTF-8), and stray bytes, so fuzzing reaches nested decoders.
_header_entries = st.tuples(st.binary(max_size=4), st.binary(max_size=4)).map(
    lambda kv: _delimited(0x3A, _delimited(0x0A, kv[0]) + _delimited(0x12, kv[1]))
)
_delimited_fields = st.tuples(
    st.sampled_from([0x1A, 0x22, 0x2A, 0x32, 0x3A]), st.binary(max_size=8)
).map(lambda field: _delimited(*field))
envelope_like_bytes = st.lists(
    st.one_of(_header_entries, _delimited_fields, st.binary(max_size=3)),
    max_size=6,
).map(b"".join)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(message=simple_messages)
    def test_roundtrip_property(self, message):
        assert Everything.decode(message.encode()) == message

    @settings(max_examples=50, deadline=None)
    @given(message=simple_messages)
    def test_double_encode_stable(self, message):
        once = message.encode()
        assert Everything.decode(once).encode() == once

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=256), envelope_like_bytes))
    def test_relay_envelope_decode_raises_only_decode_error(self, data):
        try:
            RelayEnvelope.decode(data)
        except DecodeError:
            pass

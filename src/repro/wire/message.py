"""Declarative message schemas over the varint/TLV wire format.

Messages are declared like::

    class Ping(Message):
        sequence = UintField(1)
        payload = BytesField(2)

and provide ``encode() -> bytes`` / ``Ping.decode(data)`` with protobuf
semantics: fields are tagged by number, default values are omitted from the
wire, unknown fields are preserved and re-emitted (forward compatibility),
and encoding is deterministic (ascending field order) so hashes and
signatures over encoded messages are stable.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, ClassVar, Iterator, Type, TypeVar

from repro.errors import DecodeError, EncodeError
from repro.wire.varint import decode_varint, encode_varint, zigzag_decode, zigzag_encode

WIRE_VARINT = 0
WIRE_FIXED64 = 1
WIRE_LENGTH_DELIMITED = 2

_M = TypeVar("_M", bound="Message")


def _encode_tag(number: int, wire_type: int) -> bytes:
    return encode_varint((number << 3) | wire_type)


def _decode_tag(data: bytes, offset: int) -> tuple[int, int, int]:
    key, offset = decode_varint(data, offset)
    return key >> 3, key & 0x7, offset


def _encode_length_delimited(payload: bytes) -> bytes:
    return encode_varint(len(payload)) + payload


class Field:
    """Base descriptor for a message field.

    Subclasses define the value <-> wire translation; the descriptor itself
    stores per-instance values in the owning message's ``__dict__``.
    """

    wire_type: ClassVar[int] = WIRE_VARINT

    def __init__(self, number: int) -> None:
        if not (1 <= number <= (1 << 29) - 1):
            raise ValueError(f"field number {number} out of range")
        self.number = number
        self.name = "<unbound>"

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.name, self.default())

    def __set__(self, instance: Any, value: Any) -> None:
        instance.__dict__[self.name] = self.validate(value)

    # -- hooks --------------------------------------------------------------

    def default(self) -> Any:
        raise NotImplementedError

    def validate(self, value: Any) -> Any:
        return value

    def is_default(self, value: Any) -> bool:
        return value == self.default()

    def encode_value(self, value: Any) -> Iterator[bytes]:
        """Yield complete ``tag || payload`` chunks for ``value``."""
        raise NotImplementedError

    def decode_value(self, current: Any, wire_type: int, payload: Any) -> Any:
        """Fold one wire occurrence into the field's current value.

        ``payload`` is an ``int`` for varint/fixed64 wire types and
        ``bytes`` for length-delimited.
        """
        raise NotImplementedError

    def _expect(self, wire_type: int) -> None:
        if wire_type != self.wire_type:
            raise DecodeError(
                f"field {self.name!r} (#{self.number}) expected wire type "
                f"{self.wire_type}, got {wire_type}"
            )


class UintField(Field):
    """Unsigned 64-bit integer (varint)."""

    def default(self) -> int:
        return 0

    def validate(self, value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise EncodeError(f"field {self.name!r} requires a non-negative int")
        return value

    def encode_value(self, value: int) -> Iterator[bytes]:
        yield _encode_tag(self.number, WIRE_VARINT) + encode_varint(value)

    def decode_value(self, current: int, wire_type: int, payload: int) -> int:
        self._expect(wire_type)
        return payload


class SintField(Field):
    """Signed 64-bit integer (zig-zag varint)."""

    def default(self) -> int:
        return 0

    def validate(self, value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise EncodeError(f"field {self.name!r} requires an int")
        return value

    def encode_value(self, value: int) -> Iterator[bytes]:
        yield _encode_tag(self.number, WIRE_VARINT) + encode_varint(zigzag_encode(value))

    def decode_value(self, current: int, wire_type: int, payload: int) -> int:
        self._expect(wire_type)
        return zigzag_decode(payload)


class BoolField(Field):
    """Boolean (varint 0/1)."""

    def default(self) -> bool:
        return False

    def validate(self, value: Any) -> bool:
        if not isinstance(value, bool):
            raise EncodeError(f"field {self.name!r} requires a bool")
        return value

    def encode_value(self, value: bool) -> Iterator[bytes]:
        yield _encode_tag(self.number, WIRE_VARINT) + encode_varint(int(value))

    def decode_value(self, current: bool, wire_type: int, payload: int) -> bool:
        self._expect(wire_type)
        return bool(payload)


class DoubleField(Field):
    """IEEE-754 double (fixed64, little-endian)."""

    wire_type = WIRE_FIXED64

    def default(self) -> float:
        return 0.0

    def validate(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EncodeError(f"field {self.name!r} requires a float")
        return float(value)

    def encode_value(self, value: float) -> Iterator[bytes]:
        yield _encode_tag(self.number, WIRE_FIXED64) + struct.pack("<d", value)

    def decode_value(self, current: float, wire_type: int, payload: int) -> float:
        self._expect(wire_type)
        return struct.unpack("<d", payload.to_bytes(8, "little"))[0]


class StringField(Field):
    """UTF-8 string (length-delimited)."""

    wire_type = WIRE_LENGTH_DELIMITED

    def default(self) -> str:
        return ""

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise EncodeError(f"field {self.name!r} requires a str")
        return value

    def encode_value(self, value: str) -> Iterator[bytes]:
        yield _encode_tag(self.number, WIRE_LENGTH_DELIMITED) + _encode_length_delimited(
            value.encode("utf-8")
        )

    def decode_value(self, current: str, wire_type: int, payload: bytes) -> str:
        self._expect(wire_type)
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"field {self.name!r} is not valid UTF-8") from exc


class BytesField(Field):
    """Raw bytes (length-delimited)."""

    wire_type = WIRE_LENGTH_DELIMITED

    def default(self) -> bytes:
        return b""

    def validate(self, value: Any) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise EncodeError(f"field {self.name!r} requires bytes")
        return bytes(value)

    def encode_value(self, value: bytes) -> Iterator[bytes]:
        yield _encode_tag(self.number, WIRE_LENGTH_DELIMITED) + _encode_length_delimited(value)

    def decode_value(self, current: bytes, wire_type: int, payload: bytes) -> bytes:
        self._expect(wire_type)
        return payload


class MessageField(Field):
    """A nested message (length-delimited)."""

    wire_type = WIRE_LENGTH_DELIMITED

    def __init__(self, number: int, message_type: Callable[[], Type["Message"]] | Type["Message"]) -> None:
        super().__init__(number)
        self._message_type = message_type

    @property
    def message_type(self) -> Type["Message"]:
        if isinstance(self._message_type, type):
            return self._message_type
        resolved = self._message_type()
        self._message_type = resolved
        return resolved

    def default(self) -> "Message | None":
        return None

    def is_default(self, value: Any) -> bool:
        return value is None

    def validate(self, value: Any) -> Any:
        if value is not None and not isinstance(value, self.message_type):
            raise EncodeError(
                f"field {self.name!r} requires {self.message_type.__name__} or None"
            )
        return value

    def encode_value(self, value: "Message") -> Iterator[bytes]:
        yield _encode_tag(self.number, WIRE_LENGTH_DELIMITED) + _encode_length_delimited(
            value.encode()
        )

    def decode_value(self, current: Any, wire_type: int, payload: bytes) -> "Message":
        self._expect(wire_type)
        return self.message_type.decode(payload)


class _RepeatedField(Field):
    """Shared machinery for repeated (list-valued) fields."""

    wire_type = WIRE_LENGTH_DELIMITED

    def default(self) -> list:
        return []

    def is_default(self, value: Any) -> bool:
        return not value

    def validate(self, value: Any) -> list:
        if not isinstance(value, (list, tuple)):
            raise EncodeError(f"field {self.name!r} requires a list")
        return [self._validate_item(item) for item in value]

    def _validate_item(self, item: Any) -> Any:
        raise NotImplementedError

    def _encode_item(self, item: Any) -> bytes:
        raise NotImplementedError

    def _decode_item(self, payload: bytes) -> Any:
        raise NotImplementedError

    def encode_value(self, value: list) -> Iterator[bytes]:
        for item in value:
            yield _encode_tag(self.number, WIRE_LENGTH_DELIMITED) + _encode_length_delimited(
                self._encode_item(item)
            )

    def decode_value(self, current: list, wire_type: int, payload: bytes) -> list:
        self._expect(wire_type)
        return [*current, self._decode_item(payload)]


class RepeatedStringField(_RepeatedField):
    """``repeated string``."""

    def _validate_item(self, item: Any) -> str:
        if not isinstance(item, str):
            raise EncodeError(f"field {self.name!r} items must be str")
        return item

    def _encode_item(self, item: str) -> bytes:
        return item.encode("utf-8")

    def _decode_item(self, payload: bytes) -> str:
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"field {self.name!r} item is not valid UTF-8") from exc


class RepeatedBytesField(_RepeatedField):
    """``repeated bytes``."""

    def _validate_item(self, item: Any) -> bytes:
        if not isinstance(item, (bytes, bytearray)):
            raise EncodeError(f"field {self.name!r} items must be bytes")
        return bytes(item)

    def _encode_item(self, item: bytes) -> bytes:
        return item

    def _decode_item(self, payload: bytes) -> bytes:
        return payload


class RepeatedMessageField(_RepeatedField):
    """``repeated <Message>``."""

    def __init__(self, number: int, message_type: Callable[[], Type["Message"]] | Type["Message"]) -> None:
        super().__init__(number)
        self._message_type = message_type

    @property
    def message_type(self) -> Type["Message"]:
        if isinstance(self._message_type, type):
            return self._message_type
        resolved = self._message_type()
        self._message_type = resolved
        return resolved

    def _validate_item(self, item: Any) -> "Message":
        if not isinstance(item, self.message_type):
            raise EncodeError(
                f"field {self.name!r} items must be {self.message_type.__name__}"
            )
        return item

    def _encode_item(self, item: "Message") -> bytes:
        return item.encode()

    def _decode_item(self, payload: bytes) -> "Message":
        return self.message_type.decode(payload)


class MapField(Field):
    """``map<string, string>`` encoded as repeated key/value entry messages.

    Each entry is a nested message with field 1 = key (string) and
    field 2 = value (string), matching protobuf's map encoding. Keys are
    emitted in sorted order for deterministic serialization.
    """

    wire_type = WIRE_LENGTH_DELIMITED

    def default(self) -> dict:
        return {}

    def is_default(self, value: Any) -> bool:
        return not value

    def validate(self, value: Any) -> dict:
        if not isinstance(value, dict):
            raise EncodeError(f"field {self.name!r} requires a dict")
        for key, item in value.items():
            if not isinstance(key, str) or not isinstance(item, str):
                raise EncodeError(f"field {self.name!r} requires str keys and values")
        return dict(value)

    def encode_value(self, value: dict) -> Iterator[bytes]:
        for key in sorted(value):
            entry = (
                _encode_tag(1, WIRE_LENGTH_DELIMITED)
                + _encode_length_delimited(key.encode("utf-8"))
                + _encode_tag(2, WIRE_LENGTH_DELIMITED)
                + _encode_length_delimited(value[key].encode("utf-8"))
            )
            yield _encode_tag(self.number, WIRE_LENGTH_DELIMITED) + _encode_length_delimited(
                entry
            )

    def decode_value(self, current: dict, wire_type: int, payload: bytes) -> dict:
        self._expect(wire_type)
        key = ""
        item = ""
        offset = 0
        while offset < len(payload):
            number, entry_wire, offset = _decode_tag(payload, offset)
            if entry_wire != WIRE_LENGTH_DELIMITED:
                raise DecodeError(f"map entry in field {self.name!r} has bad wire type")
            length, offset = decode_varint(payload, offset)
            if offset + length > len(payload):
                raise DecodeError(f"truncated map entry in field {self.name!r}")
            chunk = payload[offset : offset + length]
            offset += length
            try:
                if number == 1:
                    key = chunk.decode("utf-8")
                elif number == 2:
                    item = chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DecodeError(
                    f"map entry in field {self.name!r} is not valid UTF-8"
                ) from exc
        merged = dict(current)
        merged[key] = item
        return merged


class Message:
    """Base class for wire-encodable messages."""

    _fields_by_name: ClassVar[dict[str, Field]]
    _fields_by_number: ClassVar[dict[int, Field]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        by_name: dict[str, Field] = {}
        by_number: dict[int, Field] = {}
        for base in reversed(cls.__mro__):
            for name, attr in vars(base).items():
                if isinstance(attr, Field):
                    if attr.number in by_number and by_number[attr.number].name != name:
                        raise TypeError(
                            f"{cls.__name__}: duplicate field number {attr.number}"
                        )
                    by_name[name] = attr
                    by_number[attr.number] = attr
        cls._fields_by_name = by_name
        cls._fields_by_number = by_number

    def __init__(self, **kwargs: Any) -> None:
        self._unknown: list[tuple[int, int, Any]] = []
        for name, value in kwargs.items():
            if name not in self._fields_by_name:
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}; "
                    f"known fields: {sorted(self._fields_by_name)}"
                )
            setattr(self, name, value)

    # -- encoding -----------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to deterministic wire bytes."""
        chunks: list[bytes] = []
        for number in sorted(self._fields_by_number):
            field = self._fields_by_number[number]
            value = getattr(self, field.name)
            if field.is_default(value):
                continue
            chunks.extend(field.encode_value(value))
        for number, wire_type, payload in self._unknown:
            if wire_type == WIRE_VARINT:
                chunks.append(_encode_tag(number, wire_type) + encode_varint(payload))
            elif wire_type == WIRE_FIXED64:
                chunks.append(
                    _encode_tag(number, wire_type) + payload.to_bytes(8, "little")
                )
            else:
                chunks.append(
                    _encode_tag(number, wire_type) + _encode_length_delimited(payload)
                )
        return b"".join(chunks)

    @classmethod
    def decode(cls: Type[_M], data: bytes) -> _M:
        """Parse wire bytes into a message instance.

        Unknown field numbers are retained and re-emitted by ``encode`` so
        old readers can relay messages from newer protocol versions intact.
        """
        instance = cls()
        offset = 0
        while offset < len(data):
            number, wire_type, offset = _decode_tag(data, offset)
            if number == 0:
                raise DecodeError("field number 0 is reserved")
            payload: Any
            if wire_type == WIRE_VARINT:
                payload, offset = decode_varint(data, offset)
            elif wire_type == WIRE_FIXED64:
                if offset + 8 > len(data):
                    raise DecodeError("truncated fixed64 value")
                payload = int.from_bytes(data[offset : offset + 8], "little")
                offset += 8
            elif wire_type == WIRE_LENGTH_DELIMITED:
                length, offset = decode_varint(data, offset)
                if offset + length > len(data):
                    raise DecodeError("truncated length-delimited value")
                payload = data[offset : offset + length]
                offset += length
            else:
                raise DecodeError(f"unsupported wire type {wire_type}")
            field = cls._fields_by_number.get(number)
            if field is None:
                instance._unknown.append((number, wire_type, payload))
                continue
            current = getattr(instance, field.name)
            instance.__dict__[field.name] = field.decode_value(current, wire_type, payload)
        return instance

    # -- ergonomics ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._fields_by_name
        )

    def __repr__(self) -> str:
        parts = []
        for name, field in self._fields_by_name.items():
            value = getattr(self, name)
            if not field.is_default(value):
                parts.append(f"{name}={value!r}")
        return f"{type(self).__name__}({', '.join(parts)})"

    def to_dict(self) -> dict:
        """Debug-friendly plain-dict rendering (bytes become hex)."""
        result: dict[str, Any] = {}
        for name in self._fields_by_name:
            value = getattr(self, name)
            result[name] = _dictify(value)
        return result


def _dictify(value: Any) -> Any:
    if isinstance(value, Message):
        return value.to_dict()
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, list):
        return [_dictify(item) for item in value]
    if isinstance(value, dict):
        return {key: _dictify(item) for key, item in value.items()}
    return value

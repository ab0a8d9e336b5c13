"""Cross-network addressing.

A remote view is addressed as ``network/ledger/contract/function`` —
the four coordinates the paper's client supplies in message-flow step (1):
"the source network's unique name, ledger, contract and function to
invoke". The canonical string form is what applications pass to the relay
client API and what exposure-control rules are matched against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import AddressError

if TYPE_CHECKING:
    from repro.proto.messages import NetworkAddressMsg

_SEPARATOR = "/"
_SEGMENTS = 4


@dataclass(frozen=True)
class CrossNetworkAddress:
    """The four coordinates of a remote query target."""

    network: str
    ledger: str
    contract: str
    function: str

    def __post_init__(self) -> None:
        for label, value in (
            ("network", self.network),
            ("ledger", self.ledger),
            ("contract", self.contract),
            ("function", self.function),
        ):
            if not value:
                raise AddressError(f"address segment {label!r} must be non-empty")
            if _SEPARATOR in value:
                raise AddressError(
                    f"address segment {label!r} must not contain {_SEPARATOR!r}: {value!r}"
                )

    @classmethod
    def from_msg(cls, msg: NetworkAddressMsg | None) -> CrossNetworkAddress:
        """The address a wire message carries.

        Raises :class:`AddressError` when there is none, or on an empty or
        ``'/'``-bearing segment.
        """
        if msg is None:
            raise AddressError("no address")
        return cls(network=msg.network, ledger=msg.ledger, contract=msg.contract, function=msg.function)

    def __str__(self) -> str:
        return _SEPARATOR.join((self.network, self.ledger, self.contract, self.function))


def parse_address(text: str) -> CrossNetworkAddress:
    """Parse ``network/ledger/contract/function`` into an address.

    Raises :class:`AddressError` on the wrong segment count or empty
    segments.
    """
    segments = text.split(_SEPARATOR)
    if len(segments) != _SEGMENTS:
        raise AddressError(
            f"expected {_SEGMENTS} '/'-separated segments "
            f"(network/ledger/contract/function), got {len(segments)}: {text!r}"
        )
    return CrossNetworkAddress(*segments)

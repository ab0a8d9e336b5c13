"""The adversary wrappers in repro.testing are reproducible from their seed."""

from __future__ import annotations

import random


def test_tampering_relay_is_seed_reproducible():
    """The seeded RNG threads through the attack: same seed, same bytes."""
    from repro.proto.messages import (
        MSG_KIND_QUERY_RESPONSE,
        PROTOCOL_VERSION,
        QueryResponse,
        RelayEnvelope,
    )
    from repro.testing import TamperingRelay

    class StubEndpoint:
        def handle_request(self, data: bytes) -> bytes:
            response = QueryResponse(
                version=PROTOCOL_VERSION,
                nonce="n",
                status=0,
                result_plain=b"attack-me-" * 4,
            )
            return RelayEnvelope(
                version=PROTOCOL_VERSION,
                kind=MSG_KIND_QUERY_RESPONSE,
                request_id="r",
                source_network="s",
                payload=response.encode(),
            ).encode()

    outputs = [
        TamperingRelay(StubEndpoint(), seed=77).handle_request(b"\x00")
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert (
        TamperingRelay(StubEndpoint(), seed=78).handle_request(b"\x00")
        != outputs[0]
    )


def test_flip_bytes_deterministic():
    from repro.testing import flip_bytes

    first = flip_bytes(b"hello world", random.Random(3))
    second = flip_bytes(b"hello world", random.Random(3))
    assert first == second != b"hello world"

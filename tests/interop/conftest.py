"""Pinned proof-format fixtures and the two readers they must satisfy.

Each ``fixtures/proof_format_v<N>.json`` holds bytes produced by the
format-``N`` writer from seeded keys (``generate_keypair(seed=...)``
with seeds ``pinned-v<N>/<org>/ca``, ``pinned-v<N>/<org>/peer0`` and
``pinned-v<N>/client``; two source orgs of network ``stl``, metadata
timestamp ``1.0``):

- ``reply``: a plain-mode :class:`~repro.proto.messages.QueryResponse`
  as a source driver returns it, with the nonce it answers;
- ``bundle``: a decrypted :class:`~repro.interop.proofs.ProofBundle` as a
  destination transaction carries it (and as a ledger stores it), made
  from a *confidential* query;
- ``org_roots``: the two source orgs' MSP root certificates, which a
  destination records through CMDAC ``RecordNetworkConfig``.

The files are never regenerated: a reader that stops accepting them has
stopped accepting records already written by an older writer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.crypto.hashing import sha256
from repro.fabric import NetworkBuilder
from repro.fabric.identity import Organization
from repro.interop.bootstrap import enable_fabric_interop
from repro.interop.client import InteropClient, PreparedQuery
from repro.interop.contracts.cmdac import CMDAC_NAME
from repro.interop.policy import parse_verification_policy
from repro.proto.address import parse_address
from repro.proto.messages import (
    NetworkConfigMsg,
    NetworkQuery,
    OrganizationConfigMsg,
    QueryResponse,
)
from repro.utils.clock import SimulatedClock
from repro.utils.encoding import canonical_json

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def load_pinned():
    """Returns ``load(version)``: the fixture proof-format ``version`` wrote."""

    def load(version: int) -> dict:
        return json.loads((FIXTURES / f"proof_format_v{version}.json").read_text())

    return load


@pytest.fixture()
def pinned_destination():
    """A destination ledger whose CMDAC records a pinned fixture's source.

    Returns ``validate(pinned, nonce, proof_json, data=None)``: record the
    fixture's org roots and policy (once per fixture network), then submit
    CMDAC ``ValidateProof`` and return the commit result.
    """
    network = (
        NetworkBuilder("pinned-dest", clock=SimulatedClock(10.0))
        .add_org("dest-org")
        .add_peer("peer0", "dest-org")
        .add_client("admin", "dest-org")
        .build()
    )
    admin = network.org("dest-org").member("admin")
    enable_fabric_interop(network, admin)
    recorded: set[str] = set()

    def validate(pinned: dict, nonce: str, proof_json: str, data: bytes | None = None):
        source = pinned["network"]
        if source not in recorded:
            config = NetworkConfigMsg(
                network_id=source,
                platform="fabric",
                organizations=[
                    OrganizationConfigMsg(
                        org_id=org,
                        msp_id=f"{org}MSP",
                        root_certificate=bytes.fromhex(root_hex),
                    )
                    for org, root_hex in sorted(pinned["org_roots"].items())
                ],
            )
            network.gateway.submit(
                admin, CMDAC_NAME, "RecordNetworkConfig", [source, config.encode().hex()]
            )
            network.gateway.submit(
                admin, CMDAC_NAME, "SetVerificationPolicy", [source, pinned["policy"]]
            )
            recorded.add(source)
        payload = data if data is not None else pinned["data"].encode("ascii")
        return network.gateway.submit(
            admin,
            CMDAC_NAME,
            "ValidateProof",
            [
                source,
                pinned["address"],
                canonical_json(pinned["args"]).decode("ascii"),
                nonce,
                sha256(payload).hex(),
                proof_json,
            ],
        )

    return validate


@pytest.fixture()
def finalize_pinned():
    """Returns ``finalize(pinned)``: run the fixture's plain-mode reply
    through ``InteropClient.finalize_response``, as the client that
    prepared the pinned query (same address, args, nonce, policy) would."""
    requester = Organization("pinned-client-org", network="pinned-dest")
    client = InteropClient(requester.enroll("app"), relay=None, network_id="pinned-dest")

    def finalize(pinned: dict):
        reply = pinned["reply"]
        prepared = PreparedQuery(
            address_text=pinned["address"],
            address=parse_address(pinned["address"]),
            args=list(pinned["args"]),
            nonce=reply["nonce"],
            query=NetworkQuery(),
            parsed_policy=parse_verification_policy(pinned["policy"]),
            confidential=False,
        )
        response = QueryResponse.decode(bytes.fromhex(reply["query_response"]))
        return client.finalize_response(prepared, response)

    return finalize

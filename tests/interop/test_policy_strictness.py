"""A proof carries exactly the attestations its verification policy needs.

On a four-org source network, a policy requiring k orgs yields a proof of
k attestations from those orgs, and the proof grows with k. The paper
leaves choosing a policy to future work (§7); what it fixes is that the
source collects no more and no fewer attestations than the policy asks.
"""

from __future__ import annotations

import json

import pytest

from repro.fabric import Chaincode, NetworkBuilder
from repro.fabric.identity import Organization
from repro.interop.bootstrap import create_fabric_relay, enable_fabric_interop
from repro.interop.client import InteropClient
from repro.interop.contracts.cmdac import CMDAC_NAME
from repro.interop.discovery import InMemoryRegistry
from repro.interop.relay import RelayService
from repro.proto.messages import NetworkConfigMsg, OrganizationConfigMsg

ORGS = [f"org{index}" for index in range(4)]
ADDRESS = "bignet/main/registry/Get"


class RegistryChaincode(Chaincode):
    name = "registry"

    def invoke(self, stub):
        if stub.function == "init":
            return b"ok"
        if stub.function == "Put":
            stub.put_state(stub.args[0], stub.args[1].encode())
            return b"ok"
        if stub.function == "Get":
            value = stub.get_state(stub.args[0]) or b""
            interop_raw = stub.get_transient("interop")
            if interop_raw is None:
                return value
            ctx = json.loads(interop_raw)
            stub.invoke_chaincode(
                "ecc",
                "CheckAccess",
                [ctx["requesting_network"], ctx["requesting_org"], self.name, "Get"],
            )
            return stub.invoke_chaincode(
                "ecc",
                "SealResponse",
                [value.hex(), ctx["client_pubkey"], "true" if ctx["confidential"] else "false"],
            )
        raise Exception("unknown function")


@pytest.fixture(scope="module")
def client() -> InteropClient:
    """A client of ``destnet`` allowed to read one document on a 4-org
    network whose chaincode every org's peer endorses."""
    builder = NetworkBuilder("bignet", channel="main")
    for org in ORGS:
        builder.add_org(org).add_peer("peer0", org)
    builder.add_client("admin", ORGS[0])
    network = builder.build()
    admin = network.org(ORGS[0]).member("admin")
    endorsement = "AND(" + ", ".join(f"'{org}.peer'" for org in ORGS) + ")"
    network.deploy_chaincode(RegistryChaincode(), endorsement, initializer=admin)
    enable_fabric_interop(network, admin)
    network.gateway.submit(admin, "registry", "Put", ["doc", '{"payload": "x"}'])

    registry = InMemoryRegistry()
    create_fabric_relay(network, registry)
    dest_org = Organization("dest-org", network="destnet")
    identity = dest_org.enroll("app", role="client")
    dest_config = NetworkConfigMsg(
        network_id="destnet",
        platform="fabric",
        organizations=[
            OrganizationConfigMsg(
                org_id="dest-org",
                msp_id="dest-orgMSP",
                root_certificate=dest_org.msp.root_certificate.to_bytes(),
            )
        ],
    )
    network.gateway.submit(
        admin, CMDAC_NAME, "RecordNetworkConfig", ["destnet", dest_config.encode().hex()]
    )
    network.gateway.submit(
        admin, "ecc", "AddAccessRule", ["destnet", "dest-org", "registry", "Get"]
    )
    return InteropClient(identity, RelayService("destnet", registry), "destnet")


def attesting_orgs(result) -> list[str]:
    return sorted(attestation.metadata().org for attestation in result.proof.attestations)


def test_an_and_policy_gets_one_attestation_per_required_org(client):
    sizes = []
    for required in range(1, len(ORGS) + 1):
        orgs = ORGS[:required]
        policy = f"org:{orgs[0]}" if required == 1 else (
            "AND(" + ", ".join(f"org:{org}" for org in orgs) + ")"
        )
        result = client.remote_query(ADDRESS, ["doc"], policy=policy)
        assert attesting_orgs(result) == orgs
        sizes.append(len(result.proof_json))
    # Each further attestation adds to the proof; four cost well over
    # twice what one does.
    assert sizes == sorted(set(sizes))
    assert sizes[-1] > 2 * sizes[0]


def test_a_threshold_policy_gets_exactly_its_threshold(client):
    policy = "OutOf(2, " + ", ".join(f"org:{org}" for org in ORGS) + ")"
    result = client.remote_query(ADDRESS, ["doc"], policy=policy)
    orgs = attesting_orgs(result)
    assert len(orgs) == 2
    assert set(orgs) <= set(ORGS)

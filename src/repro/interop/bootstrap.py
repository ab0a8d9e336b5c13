"""Bootstrapping interoperability onto existing Fabric networks.

The paper stresses that "existing blockchain deployments can be adapted
for interoperation" with minimal, one-time effort (§1, §5). This module
is that adaptation path:

- :func:`enable_fabric_interop` deploys the two system contracts (ECC and
  CMDAC) onto an existing network and registers the interop endorsement
  plugin on its peers — no change to the network's protocol or peers'
  normal operation.
- :func:`create_fabric_relay` stands up a relay fronting the network.
- :func:`link_networks` performs the §3.3 initialization: each network
  records the other's identity configuration and a verification policy on
  its own ledger, through its own consensus.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.fabric.identity import Identity
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Peer, Proposal
from repro.fabric.state import ReadWriteSet
from repro.interop.contracts import (
    CMDAC_NAME,
    ConfigAndDataAcceptanceChaincode,
    ECC_NAME,
    ExposureControlChaincode,
)
from repro.interop.drivers.fabric_driver import (
    INTEROP_PLUGIN,
    INTEROP_TRANSIENT_KEY,
    FabricDriver,
)
from repro.interop.discovery import DiscoveryService, InMemoryRegistry
from repro.interop.policy import all_orgs_policy
from repro.interop.proofs import AttestationProofScheme
from repro.interop.relay import RelayService
from repro.store import open_store
from repro.crypto.keys import PublicKey
from repro.proto.address import CrossNetworkAddress
from repro.utils.encoding import from_canonical_json


def _consortium_policy_expression(network: FabricNetwork) -> str:
    """Endorsement policy requiring a peer of every org (consensual writes)."""
    orgs = sorted(network.organizations)
    if len(orgs) == 1:
        return f"'{orgs[0]}.peer'"
    principals = ", ".join(f"'{org}.peer'" for org in orgs)
    return f"AND({principals})"


def make_interop_endorsement_plugin(network_id: str):
    """Build the custom endorsement logic of §4.3.

    Replaces the normal endorsement signature for relay queries: the peer
    signs proof metadata (binding the hash of the result its chaincode
    sealed) and then encrypts the signed metadata with the requesting
    client's public key, so that a malicious relay can neither read nor
    exfiltrate a verifiable proof. The returned bytes are a serialized
    :class:`repro.proto.Attestation`.
    """
    scheme = AttestationProofScheme()

    def plugin(peer: Peer, proposal: Proposal, result: bytes, rwset: ReadWriteSet) -> bytes:
        raw_context = proposal.transient.get(INTEROP_TRANSIENT_KEY)
        if raw_context is None:
            raise ValueError("interop endorsement requires the interop context")
        context = from_canonical_json(raw_context)
        address = CrossNetworkAddress(
            network=context["address"]["network"],
            ledger=context["address"]["ledger"],
            contract=context["address"]["contract"],
            function=context["address"]["function"],
        )
        confidential = bool(context["confidential"])
        client_key = None
        if confidential:
            client_key = PublicKey.from_bytes(bytes.fromhex(context["client_pubkey"]))
        attestation = scheme.generate_attestation(
            peer_identity=peer.identity,
            network=network_id,
            address=address,
            args=list(context["args"]),
            nonce=context["nonce"],
            result_envelope=result,
            client_key=client_key,
            confidential=confidential,
            timestamp=proposal.timestamp,
        )
        return attestation.encode()

    return plugin


def enable_fabric_interop(network: FabricNetwork, admin: Identity) -> None:
    """Deploy ECC + CMDAC and register the interop endorsement plugin.

    This is the one-time, protocol-preserving augmentation of §4: system
    contracts "can be implemented and deployed in the same way as
    application contracts" and the endorsement customization uses Fabric's
    pluggable endorsement (no peer code changes).
    """
    policy = _consortium_policy_expression(network)
    network.deploy_chaincode(ExposureControlChaincode(), policy, initializer=admin)
    network.deploy_chaincode(
        ConfigAndDataAcceptanceChaincode(), policy, initializer=admin
    )
    plugin = make_interop_endorsement_plugin(network.name)
    for peer in network.peers:
        peer.register_endorsement_plugin(INTEROP_PLUGIN, plugin)


def create_fabric_relay(
    network: FabricNetwork,
    discovery: DiscoveryService,
    relay_id: str | None = None,
    register: bool = True,
    middleware: Sequence | None = None,
    state_dir: "str | Path | None" = None,
) -> RelayService:
    """Stand up a relay service fronting ``network``.

    With ``register`` (and an :class:`InMemoryRegistry`), the relay is
    registered for discovery; deploy several relays for one network to get
    the paper's redundant-relay DoS mitigation. ``middleware`` installs
    interceptors (see :mod:`repro.api.middleware`) in the given order —
    a :class:`~repro.interop.relay.RateLimitInterceptor` first, to shed
    load before anything else runs. ``state_dir`` is the
    ``--state-dir`` deployment option: ``None`` keeps the volatile
    default, a path makes the relay durable (``repro.store.open_store``)
    and immediately :meth:`~RelayService.recover`\\ s any state already
    journaled there.
    """
    relay = RelayService(
        network_id=network.name,
        discovery=discovery,
        clock=network.clock,
        relay_id=relay_id,
        store=open_store(state_dir),
    )
    if middleware:
        relay.use(*middleware)
    relay.register_driver(FabricDriver(network))
    if state_dir is not None:
        relay.recover()  # re-open event taps journaled by a predecessor
    if register and isinstance(discovery, InMemoryRegistry):
        discovery.register(network.name, relay)
    return relay


def create_interop_gateway(
    identity: Identity,
    relay: RelayService,
    network_id: str,
    ledger_gateway=None,
):
    """Stand up the application-facing :class:`repro.api.InteropGateway`.

    Convenience mirror of :func:`create_fabric_relay` for the destination
    side; imports lazily so :mod:`repro.interop` stays importable without
    the api layer.
    """
    from repro.api.gateway import InteropGateway

    return InteropGateway(
        identity, relay, network_id, ledger_gateway=ledger_gateway
    )


def record_foreign_network(
    local: FabricNetwork,
    admin: Identity,
    foreign: FabricNetwork,
    verification_policy: str | None = None,
) -> None:
    """Record a foreign network's config + verification policy locally.

    Both records go through the local network's consensus (they are
    ordinary CMDAC transactions), implementing the §3.3 initialization.
    The default verification policy requires an attestation from every
    organization of the foreign network.
    """
    config_hex = foreign.export_config().encode().hex()
    result = local.gateway.submit(
        admin, CMDAC_NAME, "RecordNetworkConfig", [foreign.name, config_hex]
    )
    if not result.committed:
        raise RuntimeError(
            f"recording config of {foreign.name!r} on {local.name!r} failed: "
            f"{result.validation_code.value}"
        )
    expression = verification_policy or all_orgs_policy(
        foreign.organizations
    ).expression()
    result = local.gateway.submit(
        admin, CMDAC_NAME, "SetVerificationPolicy", [foreign.name, expression]
    )
    if not result.committed:
        raise RuntimeError(
            f"recording verification policy for {foreign.name!r} on "
            f"{local.name!r} failed: {result.validation_code.value}"
        )


def link_networks(
    network_a: FabricNetwork,
    admin_a: Identity,
    network_b: FabricNetwork,
    admin_b: Identity,
    policy_a_about_b: str | None = None,
    policy_b_about_a: str | None = None,
) -> None:
    """Mutually record configurations and verification policies (§3.3).

    "We assume that interoperating networks have a priori knowledge of each
    others' identities and configurations, recorded on their ledgers."
    """
    record_foreign_network(network_a, admin_a, network_b, policy_a_about_b)
    record_foreign_network(network_b, admin_b, network_a, policy_b_about_a)

"""Network assembly: organizations, peers, orderer, channel, chaincode.

:class:`NetworkBuilder` provides the declarative construction the paper's
use case needs (e.g. STL: "2 peers: one belongs to a Seller organization
and the other to a Carrier organization", §4.2), and
:class:`FabricNetwork` is the running network with deployment and gateway
access, plus export of the network's identity configuration for sharing
with foreign networks (§3.3).
"""

from __future__ import annotations

from repro.errors import LedgerError, MembershipError
from repro.fabric.chaincode import Chaincode
from repro.fabric.channel import ChannelConfig
from repro.fabric.events import EventHub
from repro.fabric.gateway import Gateway
from repro.fabric.identity import Identity, Organization
from repro.fabric.orderer import OrderingService, SoloOrderer
from repro.fabric.peer import Peer
from repro.fabric.policy import parse_endorsement_policy
from repro.proto.messages import NetworkConfigMsg, OrganizationConfigMsg, PeerConfigMsg
from repro.utils.clock import Clock, SystemClock


class FabricNetwork:
    """A running Fabric-like network with a single channel/ledger.

    (The paper assumes "a network has a single ledger" and uses network
    and ledger interchangeably, §2.)
    """

    def __init__(
        self,
        name: str,
        channel: str,
        organizations: dict[str, Organization],
        peers: list[Peer],
        orderer: OrderingService,
        channel_config: ChannelConfig,
        event_hub: EventHub,
        clock: Clock,
    ) -> None:
        self.name = name
        self.channel = channel
        self.organizations = organizations
        self.peers = peers
        self.orderer = orderer
        self.channel_config = channel_config
        self.event_hub = event_hub
        self.clock = clock
        self._gateway = Gateway(peers, orderer, channel_config, clock=clock)

    # -- lookup -------------------------------------------------------------------

    def org(self, org_id: str) -> Organization:
        try:
            return self.organizations[org_id]
        except KeyError:
            raise MembershipError(
                f"network {self.name!r} has no organization {org_id!r}"
            ) from None

    def peer(self, peer_id: str) -> Peer:
        for peer in self.peers:
            if peer.peer_id == peer_id or peer.identity.name == peer_id:
                return peer
        raise MembershipError(f"network {self.name!r} has no peer {peer_id!r}")

    def peers_of_org(self, org_id: str) -> list[Peer]:
        return [peer for peer in self.peers if peer.org == org_id]

    @property
    def gateway(self) -> Gateway:
        return self._gateway

    # -- deployment ------------------------------------------------------------------

    def deploy_chaincode(
        self,
        chaincode: Chaincode,
        endorsement_policy: str,
        initializer: Identity | None = None,
        init_args: list[str] | None = None,
    ) -> None:
        """Install a chaincode on every peer and record its policy.

        If ``initializer`` is given, an init transaction is submitted so
        chaincode bootstrapping goes through consensus like any update.
        """
        policy = parse_endorsement_policy(endorsement_policy)
        for peer in self.peers:
            peer.install_chaincode(chaincode)
        self.channel_config.set_policy(chaincode.name, policy)
        if initializer is not None:
            result = self._gateway.submit(
                initializer, chaincode.name, "init", init_args or []
            )
            if not result.committed:
                raise LedgerError(
                    f"chaincode {chaincode.name!r} init transaction failed: "
                    f"{result.validation_code.value}"
                )

    # -- configuration sharing (for the CMDAC of foreign networks) ---------------------

    def export_config(self) -> NetworkConfigMsg:
        """Serialize this network's identity/topology for foreign ledgers.

        This is the "organization and peer identities and root certificates
        used by MSPs to issue membership credentials" the paper records on
        the counterparty ledger (§4.3).
        """
        org_messages = []
        for org_id in sorted(self.organizations):
            org = self.organizations[org_id]
            peer_messages = [
                PeerConfigMsg(
                    peer_id=peer.peer_id,
                    org=org_id,
                    endpoint=f"sim://{self.name}/{peer.peer_id}",
                    certificate=peer.identity.certificate.to_bytes(),
                )
                for peer in self.peers_of_org(org_id)
            ]
            org_messages.append(
                OrganizationConfigMsg(
                    org_id=org_id,
                    msp_id=org.msp.msp_id,
                    root_certificate=org.msp.root_certificate.to_bytes(),
                    peers=peer_messages,
                )
            )
        return NetworkConfigMsg(
            network_id=self.name,
            platform="fabric",
            organizations=org_messages,
            ledgers=[self.channel],
        )


class NetworkBuilder:
    """Declarative construction of a :class:`FabricNetwork`."""

    def __init__(self, name: str, channel: str = "main", clock: Clock | None = None) -> None:
        self._name = name
        self._channel = channel
        self._clock = clock or SystemClock()
        self._organizations: dict[str, Organization] = {}
        self._peer_specs: list[tuple[str, str]] = []
        self._client_specs: list[tuple[str, str]] = []
        self._batch_size = 1

    def add_org(self, org_id: str) -> "NetworkBuilder":
        if org_id in self._organizations:
            raise MembershipError(f"organization {org_id!r} already added")
        self._organizations[org_id] = Organization(org_id, network=self._name)
        return self

    def add_peer(self, name: str, org_id: str) -> "NetworkBuilder":
        if org_id not in self._organizations:
            raise MembershipError(f"add organization {org_id!r} before its peers")
        self._peer_specs.append((name, org_id))
        return self

    def add_client(self, name: str, org_id: str) -> "NetworkBuilder":
        if org_id not in self._organizations:
            raise MembershipError(f"add organization {org_id!r} before its clients")
        self._client_specs.append((name, org_id))
        return self

    def with_solo_orderer(self, batch_size: int = 1) -> "NetworkBuilder":
        self._batch_size = batch_size
        return self

    def build(self) -> FabricNetwork:
        if not self._organizations:
            raise MembershipError("a network needs at least one organization")
        if not self._peer_specs:
            raise MembershipError("a network needs at least one peer")
        channel_config = ChannelConfig(channel=self._channel)
        for org_id, org in self._organizations.items():
            channel_config.add_org(org_id, org.msp.root_certificate)
        # Applications subscribe to one peer's event service (as in Fabric);
        # the network-level hub is backed by the first peer. Other peers get
        # private hubs so a commit is not reported once per replica.
        event_hub = EventHub()
        peers = []
        for index, (name, org_id) in enumerate(self._peer_specs):
            identity = self._organizations[org_id].enroll(name, role="peer")
            hub = event_hub if index == 0 else EventHub()
            peers.append(Peer(identity, channel_config, event_hub=hub))
        for name, org_id in self._client_specs:
            self._organizations[org_id].enroll(name, role="client")
        orderer = SoloOrderer(self._channel, batch_size=self._batch_size)
        for peer in peers:
            orderer.register_committer(peer.commit_block)
        return FabricNetwork(
            name=self._name,
            channel=self._channel,
            organizations=self._organizations,
            peers=peers,
            orderer=orderer,
            channel_config=channel_config,
            event_hub=event_hub,
            clock=self._clock,
        )

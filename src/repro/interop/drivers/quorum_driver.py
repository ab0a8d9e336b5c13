"""Quorum driver: the network-neutral protocol against a Quorum-like network.

Queries address contract view functions; each selected peer executes the
view against its replica and returns a *signed query response* — the §5
peer augmentation — which the attestation proof scheme packages exactly as
for Fabric. The driver supplies its peers and one peer's view; the query
procedure is :class:`NetworkDriver`'s.
"""

from __future__ import annotations

from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.base import NetworkDriver
from repro.interop.policy import Attester
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import NetworkQuery
from repro.quorum.contracts import CallContext
from repro.quorum.network import QuorumNetwork


class QuorumDriver(NetworkDriver):
    """Drives queries against an in-process :class:`QuorumNetwork`."""

    platform = "quorum"

    def __init__(self, network: QuorumNetwork, port: InteropPort) -> None:
        super().__init__(network.name, network.clock)
        self._network = network
        self._port = port

    def enable_assets(self, invoker, contract: str | None = None) -> None:
        """Grant the asset capability: HTLC commands submit under ``invoker``.

        The access gate is this driver's :class:`InteropPort`; ``contract``
        names the deployed vault contract (defaults to
        :data:`repro.assets.contracts.QUORUM_ASSET_CONTRACT`).
        """
        from repro.assets.contracts import QUORUM_ASSET_CONTRACT
        from repro.assets.ports import QuorumAssetLedgerPort

        self.attach_asset_port(
            QuorumAssetLedgerPort(
                self._network, self._port, invoker, contract or QUORUM_ASSET_CONTRACT
            )
        )

    def _attester_pool(self) -> list[Attester]:
        return [(peer.org, peer.peer_id) for peer in self._network.peers]

    def _read(self, peer_id: str, address: CrossNetworkAddress, query: NetworkQuery):
        peer = self._network.peer(peer_id)
        ctx = CallContext(
            sender=query.auth.requestor,
            sender_org=query.auth.requesting_org,
            timestamp=self._clock.now(),
        )
        plaintext = peer.view(address.contract, address.function, list(query.args), ctx)
        return peer.identity, plaintext, None

"""Quorum driver: the network-neutral protocol against a Quorum-like network.

Queries address contract view functions; each selected peer executes the
view against its replica and returns a *signed query response* — the §5
peer augmentation — which the attestation proof scheme packages exactly as
for Fabric.
"""

from __future__ import annotations

from repro.errors import AccessDeniedError, PolicyError, ReproError
from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.base import NetworkDriver
from repro.interop.policy import attesters_for
from repro.interop.proofs import AttestationProofScheme, attest_reply
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import Attestation, NetworkQuery, QueryResponse
from repro.quorum.contracts import CallContext
from repro.quorum.network import QuorumNetwork


class QuorumDriver(NetworkDriver):
    """Drives queries against an in-process :class:`QuorumNetwork`."""

    platform = "quorum"

    def __init__(self, network: QuorumNetwork, port: InteropPort) -> None:
        super().__init__(network.name)
        self._network = network
        self._port = port
        self._scheme = AttestationProofScheme()

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

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        address_msg = query.address
        if address_msg is None:
            return self._error(query, "query has no address")
        address = CrossNetworkAddress(
            network=address_msg.network,
            ledger=address_msg.ledger,
            contract=address_msg.contract,
            function=address_msg.function,
        )
        available = [(peer.org, peer.peer_id) for peer in self._network.peers]
        try:
            selection = attesters_for(query.policy, available, self.network_id)
        except PolicyError as exc:
            return self._error(query, str(exc))

        auth = query.auth
        try:
            self._port.check_access(auth, address.contract, address.function)
        except AccessDeniedError as exc:
            return self._denied(query, str(exc))

        attestations: list[Attestation] = []
        result_envelope = b""
        for org, peer_id in selection:
            peer = self._network.peer(peer_id)
            ctx = CallContext(
                sender=auth.requestor,
                sender_org=auth.requesting_org,
                timestamp=self._network.clock.now(),
            )
            try:
                plaintext = peer.view(
                    address.contract, address.function, list(query.args), ctx
                )
            except ReproError as exc:
                return self._error(query, f"peer {peer_id!r} query failed: {exc}")
            envelope, attestation = attest_reply(
                self._scheme,
                peer.identity,
                self.network_id,
                address,
                query,
                plaintext,
                self._network.clock.now(),
            )
            attestations.append(attestation)
            result_envelope = result_envelope or envelope

        return self._attested(query, attestations, result_envelope)

"""Fabric driver: proof orchestration against a Fabric-like network.

Implements §3.3 steps (5)-(7): "[the relay] uses the appropriate network
driver to orchestrate the query against the respective peers in the
network based on the specified verification policy. Each peer executing
the contract function refers to the Exposure Control contract ... The
results from each of the selected peers collectively form the proof
satisfying the verification policy."
"""

from __future__ import annotations

from repro.fabric.identity import Identity
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Proposal
from repro.interop.contracts.ecc import INTEROP_TRANSIENT_KEY, check_access
from repro.interop.drivers.base import NetworkDriver, _Refusal
from repro.interop.events import open_hub_tap
from repro.interop.policy import Attester
from repro.interop.proofs import peer_reply
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import STATUS_ACCESS_DENIED, Attestation, AuthInfo, NetworkQuery
from repro.utils.encoding import canonical_json
from repro.utils.ids import random_id

INTEROP_PLUGIN = "interop"

_ACCESS_DENIED_MARKER = "AccessDeniedError"


def build_interop_context(query: NetworkQuery) -> bytes:
    """The transient payload that travels into chaincode with a relay query.

    Source chaincode uses it to detect "an incoming query is from a relay"
    (§4.3) and to learn the requestor's identity and encryption key; the
    interop endorsement plugin uses it to build and protect the proof
    metadata.
    """
    address = query.address
    auth = query.auth
    return canonical_json(
        {
            "address": {
                "network": address.network if address else "",
                "ledger": address.ledger if address else "",
                "contract": address.contract if address else "",
                "function": address.function if address else "",
            },
            "args": list(query.args),
            "nonce": query.nonce,
            "requesting_network": auth.requesting_network if auth else "",
            "requesting_org": auth.requesting_org if auth else "",
            "requestor": auth.requestor if auth else "",
            "client_pubkey": auth.public_key.hex() if auth else "",
            "confidential": query.confidential,
        }
    )


class FabricDriver(NetworkDriver):
    """Drives queries — and, once enabled, transactions, events and asset
    commands — against an in-process :class:`FabricNetwork`."""

    platform = "fabric"

    def __init__(self, network: FabricNetwork) -> None:
        super().__init__(network.name, network.clock)
        self._network = network
        self._ledger = network.channel
        self._invoker: Identity | None = None

    def enable_transactions(self, invoker: Identity) -> None:
        """Grant the transaction capability: remote invocations submit
        under ``invoker``, the network's designated local submitter for
        remote requests (a governance choice, like the exposure rules)."""
        self._invoker = invoker
        self.supports_transactions = True

    def enable_events(self) -> None:
        """Grant the event capability (subscriptions tap the event hub)."""
        self.supports_events = True

    def enable_assets(self, invoker, contract: str | None = None) -> None:
        """Grant the asset capability: HTLC commands submit under ``invoker``.

        ``contract`` names the deployed asset chaincode (defaults to
        :data:`repro.assets.contracts.FABRIC_ASSET_CHAINCODE`).
        """
        from repro.assets.contracts import FABRIC_ASSET_CHAINCODE
        from repro.assets.ports import FabricAssetLedgerPort

        self.attach_asset_port(
            FabricAssetLedgerPort(
                self._network, invoker, contract or FABRIC_ASSET_CHAINCODE
            )
        )

    def open_event_tap(self, request, listener):
        """ECC-gate and tap the network's event hub (§2 primitive iii)."""
        if not self.supports_events:
            return super().open_event_tap(request, listener)
        contract = request.address.contract if request.address else ""
        check_access(
            self._network, request.auth, contract, f"event:{request.event_name}"
        )
        return open_hub_tap(self._network, contract, request.event_name, listener)

    def close_event_tap(self, tap) -> None:
        tap.close()

    def _attester_pool(self) -> list[Attester]:
        return [(peer.org, peer.peer_id) for peer in self._network.peers]

    def _gate(self, auth: AuthInfo | None, address: CrossNetworkAddress, verb: str) -> None:
        """ECC gates a transaction here; a query's ECC check runs inside
        the chaincode, during each peer's endorsement."""
        if verb == "transaction":
            check_access(self._network, auth, address.contract, address.function)

    def _peer_reply(
        self, peer_id: str, address: CrossNetworkAddress, query: NetworkQuery, first: bool
    ) -> tuple[bytes, Attestation]:
        """One interop endorsement: ECC ``SealResponse`` and the endorsement
        plugin seal one reply, and the endorsement is the attestation."""
        peer = self._network.peer(peer_id)
        proposal = Proposal(
            tx_id=random_id("interop-"),
            channel=self._network.channel,
            chaincode=address.contract,
            function=address.function,
            args=tuple(query.args),
            creator=query.auth.certificate if query.auth else b"",
            transient={INTEROP_TRANSIENT_KEY: build_interop_context(query)},
            timestamp=self._clock.now(),
        )
        with peer_reply():
            response = peer.endorse(proposal, plugin=INTEROP_PLUGIN)
        if not response.success:
            if response.message.startswith(_ACCESS_DENIED_MARKER):
                raise _Refusal(response.message, STATUS_ACCESS_DENIED)
            raise _Refusal(
                f"peer {peer_id!r} failed to execute the query: {response.message}"
            )
        assert response.endorsement is not None
        return response.result, Attestation.decode(response.endorsement.signature)

    def _submit(self, address: CrossNetworkAddress, query: NetworkQuery):
        """Endorse, order and commit under the invoker identity."""
        submit = self._network.gateway.submit(
            self._invoker, address.contract, address.function, list(query.args)
        )
        if not submit.committed:
            raise _Refusal(
                f"source transaction invalidated: {submit.validation_code.value}"
            )
        return submit.result, submit.tx_id, submit.block_number, submit.validation_code.value

    def _committed_at(self, peer_id: str, tx_id: str) -> Identity:
        peer = self._network.peer(peer_id)
        if not peer.ledger.contains_tx(tx_id):
            raise _Refusal(f"peer {peer_id!r} has not committed {tx_id!r}")
        return peer.identity

"""Fabric driver: proof orchestration against a Fabric-like network.

Implements §3.3 steps (5)-(7): "[the relay] uses the appropriate network
driver to orchestrate the query against the respective peers in the
network based on the specified verification policy. Each peer executing
the contract function refers to the Exposure Control contract ... The
results from each of the selected peers collectively form the proof
satisfying the verification policy."
"""

from __future__ import annotations

import logging

from repro.errors import AccessDeniedError, PolicyError, ReproError
from repro.fabric.identity import Identity
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Proposal
from repro.interop.contracts.ecc import INTEROP_TRANSIENT_KEY, check_access
from repro.interop.drivers.base import NetworkDriver
from repro.interop.events import open_hub_tap
from repro.interop.policy import Attester, attesters_for
from repro.interop.proofs import AttestationProofScheme, attest_reply, peer_reply
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import Attestation, NetworkQuery, QueryResponse
from repro.utils.encoding import canonical_json
from repro.utils.ids import random_id

INTEROP_PLUGIN = "interop"

#: Driver-layer structured logging; records carry the serving relay's
#: active trace (driver code runs on the relay's serve thread).
logger = logging.getLogger("repro.driver")

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
        super().__init__(network.name)
        self._network = network
        self._invoker: Identity | None = None
        self._scheme = AttestationProofScheme()

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

    def _attesters(self, query: NetworkQuery) -> list[Attester]:
        available = [(peer.org, peer.peer_id) for peer in self._network.peers]
        return attesters_for(query.policy, available, self.network_id)

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        address = query.address
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "driver executing query",
                extra={
                    "network_id": self.network_id,
                    "contract": address.contract if address else "",
                    "function": address.function if address else "",
                    "nonce": query.nonce,
                },
            )
        if address is None or address.ledger != self._network.channel:
            return self._error(
                query,
                f"network {self.network_id!r} has no ledger "
                f"{address.ledger if address else ''!r}",
            )
        try:
            selection = self._attesters(query)
        except PolicyError as exc:
            return self._error(query, str(exc))

        transient = {INTEROP_TRANSIENT_KEY: build_interop_context(query)}
        creator = query.auth.certificate if query.auth else b""
        attestations: list[Attestation] = []
        result_envelope = b""
        for org, peer_id in selection:
            peer = self._network.peer(peer_id)
            proposal = Proposal(
                tx_id=random_id("interop-"),
                channel=self._network.channel,
                chaincode=address.contract,
                function=address.function,
                args=tuple(query.args),
                creator=creator,
                transient=transient,
                timestamp=self._network.clock.now(),
            )
            # ECC SealResponse and the endorsement plugin seal one reply.
            with peer_reply():
                response = peer.endorse(proposal, plugin=INTEROP_PLUGIN)
            if not response.success:
                if response.message.startswith(_ACCESS_DENIED_MARKER):
                    return self._denied(query, response.message)
                return self._error(
                    query,
                    f"peer {peer_id!r} failed to execute the query: "
                    f"{response.message}",
                )
            assert response.endorsement is not None
            attestations.append(Attestation.decode(response.endorsement.signature))
            result_envelope = result_envelope or response.result

        return self._attested(query, attestations, result_envelope)

    def execute_transaction(self, query: NetworkQuery) -> QueryResponse:
        """Submit one remote invocation and attest the committed outcome (§5).

        The attesting peers are chosen first, so a policy no peer can
        satisfy is refused before anything commits. The request passes the
        same ECC gate as remote queries, then runs through the network's
        endorse-order-commit pipeline under the invoker identity; each
        attesting peer confirms the transaction is on *its* ledger replica
        before signing over the tx id, block number and validation code.
        """
        if self._invoker is None:
            return super().execute_transaction(query)
        address_msg = query.address
        if address_msg is None:
            return self._error(query, "transaction request has no address")
        address = CrossNetworkAddress(
            network=address_msg.network,
            ledger=address_msg.ledger,
            contract=address_msg.contract,
            function=address_msg.function,
        )
        try:
            selection = self._attesters(query)
        except PolicyError as exc:
            return self._error(query, str(exc))
        try:
            check_access(self._network, query.auth, address.contract, address.function)
        except AccessDeniedError as exc:
            return self._denied(query, str(exc))
        except ReproError as exc:
            return self._error(query, str(exc))

        try:
            submit = self._network.gateway.submit(
                self._invoker, address.contract, address.function, list(query.args)
            )
        except ReproError as exc:
            return self._error(query, f"source transaction failed: {exc}")
        if not submit.committed:
            return self._error(
                query,
                f"source transaction invalidated: {submit.validation_code.value}",
            )

        # Attest the committed outcome under the verification policy.
        outcome = canonical_json(
            {
                "result": submit.result.hex(),
                "tx_id": submit.tx_id,
                "block_number": submit.block_number,
                "validation_code": submit.validation_code.value,
            }
        )
        attestations: list[Attestation] = []
        envelope = b""
        for org, peer_id in selection:
            peer = self._network.peer(peer_id)
            # Each attesting peer confirms the tx is on ITS ledger replica.
            if not peer.ledger.contains_tx(submit.tx_id):
                return self._error(
                    query, f"peer {peer_id!r} has not committed {submit.tx_id!r}"
                )
            # The first attesting peer seals the outcome; the rest attest it.
            envelope, attestation = attest_reply(
                self._scheme,
                peer.identity,
                self._network.name,
                address,
                query,
                outcome,
                self._network.clock.now(),
                envelope,
            )
            attestations.append(attestation)
        return self._attested(query, attestations, envelope)

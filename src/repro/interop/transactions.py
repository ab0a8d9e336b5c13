"""Cross-network transaction invocation (the §5 extension).

"The query protocol presented in this paper can be easily extended to
enable cross-network chaincode invocations. While the sequence of steps is
expected to be different, the relay service, system contracts, and
application client support described earlier can be reused directly."

This module is that extension. A cross-network *transaction* reuses the
query machinery end to end — addressing, exposure control, relays,
attestation proofs — with two differences:

1. the source driver routes the request through the source network's
   normal endorse-order-commit pipeline (under a dedicated local *invoker*
   identity, since the foreign client is not a source-network member), and
2. the returned attestations cover the *committed* outcome: the metadata
   embeds the transaction id, block number and validation code alongside
   the result, so the destination can verify that the update really
   entered the source ledger.

Exposure control uses the same ``<network, org, chaincode, function>``
rules — a governance decision must whitelist each remotely-invokable
function, exactly as for queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import AccessDeniedError, ProofError, RelayError, ReproError
from repro.fabric.identity import Identity
from repro.fabric.network import FabricNetwork
from repro.interop.client import InteropClient
from repro.interop.drivers.base import NetworkDriver
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import AttestationProofScheme, decrypt_attestation, seal_result
from repro.crypto.certs import Certificate, validate_chain
from repro.crypto.keys import PublicKey
from repro.proto.address import CrossNetworkAddress, parse_address
from repro.proto.messages import (
    PROTOCOL_VERSION,
    STATUS_OK,
    Attestation,
    AuthInfo,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    VerificationPolicyMsg,
)
from repro.utils.encoding import canonical_json, from_canonical_json
from repro.utils.ids import random_id

from repro.proto.messages import INVOCATION_TRANSACTION

# Legacy alias: the invocation discriminator now lives on the wire
# (NetworkQuery.invocation) so batch envelopes can mix members.
INVOKE_TRANSACTION = INVOCATION_TRANSACTION


@dataclass
class RemoteTransactionResult:
    """Outcome of a cross-network transaction."""

    address: str
    args: list[str]
    result: bytes
    tx_id: str
    block_number: int
    nonce: str
    attesting_orgs: list[str]


def check_remote_invocation_exposure(
    network: FabricNetwork,
    invoker: Identity,
    auth: AuthInfo | None,
    contract: str,
    function: str,
) -> None:
    """ECC-gate and authenticate one remote invocation on a Fabric network.

    The same governance gate remote *queries* pass, applied to the other
    side-effecting verbs (transactions, asset lock/claim/unlock): the
    foreign requestor must present a certificate chaining to the
    CMDAC-recorded configuration of its claimed network, and an ECC rule
    must whitelist ``<network, org, contract, function>``. Raises
    :class:`AccessDeniedError` otherwise. ``invoker`` is the designated
    local identity used for the ledger reads.
    """
    if auth is None or not auth.certificate:
        raise AccessDeniedError("remote invocation carries no certificate")
    creator = Certificate.from_bytes(auth.certificate)
    if creator.subject.organization != auth.requesting_org:
        raise AccessDeniedError(
            f"certificate org {creator.subject.organization!r} does not "
            f"match claimed org {auth.requesting_org!r}"
        )
    rules_raw = network.gateway.evaluate(invoker, "ecc", "ListAccessRules", [])
    rules = {tuple(rule) for rule in json.loads(rules_raw)}
    candidates = {
        (auth.requesting_network, auth.requesting_org, contract, function),
        (auth.requesting_network, auth.requesting_org, contract, "*"),
        (auth.requesting_network, "*", contract, function),
        (auth.requesting_network, "*", contract, "*"),
    }
    if not candidates & rules:
        raise AccessDeniedError(
            f"exposure control denied remote invocation "
            f"<{auth.requesting_network}, {auth.requesting_org}, "
            f"{contract}, {function}>"
        )
    # Authenticate the foreign certificate against recorded config.
    config_hex = network.gateway.evaluate(
        invoker, "cmdac", "GetNetworkConfig", [auth.requesting_network]
    )
    from repro.interop.contracts.cmdac import org_roots_from_config
    from repro.proto.messages import NetworkConfigMsg

    config = NetworkConfigMsg.decode(bytes.fromhex(config_hex.decode("ascii")))
    roots = org_roots_from_config(config)
    root = roots.get(creator.subject.organization)
    if root is None:
        raise AccessDeniedError(
            f"org {creator.subject.organization!r} not in recorded config "
            f"of {auth.requesting_network!r}"
        )
    validate_chain(creator, [root])


class FabricTransactionDriver(NetworkDriver):
    """Source-side driver for remote *transactions* on a Fabric network.

    Deployed alongside the query driver under the same relay. The
    ``invoker`` identity is the network's designated local submitter for
    remote requests (a governance choice, like the exposure rules).
    """

    platform = "fabric"
    supports_transactions = True
    #: Transactions in one batch commit sequentially: concurrent submission
    #: would race MVCC validation for overlapping keys, and envelope-level
    #: ordering is part of the batch contract.
    batch_concurrency = 1

    def __init__(self, network: FabricNetwork, invoker: Identity) -> None:
        super().__init__(network.name + "#tx")
        self._network = network
        self._invoker = invoker
        self._scheme = AttestationProofScheme()

    def _check_exposure(self, query: NetworkQuery, address: CrossNetworkAddress) -> None:
        """Remote transactions pass the same ECC gate as remote queries."""
        check_remote_invocation_exposure(
            self._network, self._invoker, query.auth, address.contract, address.function
        )

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        """Legacy route: ``MSG_KIND_QUERY_REQUEST`` to the ``#tx``
        pseudo-network executes the transaction (pre-gateway wire shape)."""
        return self.execute_transaction(query)

    def execute_transaction(self, query: NetworkQuery) -> QueryResponse:
        address_msg = query.address
        if address_msg is None:
            return self._error(query, "transaction request has no address")
        address = CrossNetworkAddress(
            network=address_msg.network.removesuffix("#tx"),
            ledger=address_msg.ledger,
            contract=address_msg.contract,
            function=address_msg.function,
        )
        try:
            policy = parse_verification_policy(query.policy.expression)
        except (ReproError, AttributeError) as exc:
            return self._error(query, f"malformed verification policy: {exc}")
        try:
            self._check_exposure(query, address)
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
        available = [(peer.org, peer.peer_id) for peer in self._network.peers]
        selection = policy.select_attesters(available)
        if selection is None:
            return self._error(
                query, f"policy {policy.expression()} unsatisfiable on this network"
            )
        client_key = (
            PublicKey.from_bytes(query.auth.public_key) if query.confidential else None
        )
        outcome = canonical_json(
            {
                "result": submit.result.hex(),
                "tx_id": submit.tx_id,
                "block_number": submit.block_number,
                "validation_code": submit.validation_code.value,
            }
        )
        envelope = seal_result(outcome, client_key, query.confidential)
        attestations: list[Attestation] = []
        for org, peer_id in selection:
            peer = self._network.peer(peer_id)
            # Each attesting peer confirms the tx is on ITS ledger replica.
            if not peer.ledger.contains_tx(submit.tx_id):
                return self._error(
                    query, f"peer {peer_id!r} has not committed {submit.tx_id!r}"
                )
            attestations.append(
                self._scheme.generate_attestation(
                    peer_identity=peer.identity,
                    network=self._network.name,
                    address=address,
                    args=list(query.args),
                    nonce=query.nonce,
                    result_envelope=envelope,
                    client_key=client_key,
                    confidential=query.confidential,
                    timestamp=self._network.clock.now(),
                )
            )
        response = QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_OK,
            attestations=attestations,
        )
        if query.confidential:
            response.result_cipher = envelope
        else:
            response.result_plain = envelope
        return response


@dataclass
class PreparedTransaction:
    """A fully-built wire transaction awaiting transport.

    The front half of a cross-network transaction, mirroring
    :class:`repro.interop.client.PreparedQuery` so the gateway's pipelined
    executors can prepare many transactions, ship them (singly or as batch
    members), and finish each reply with
    :meth:`RemoteTransactionClient.finalize_transaction`.
    """

    address_text: str
    address: CrossNetworkAddress
    args: list[str]
    nonce: str
    query: NetworkQuery
    policy_expression: str
    confidential: bool

    @property
    def target_network(self) -> str:
        return self.address.network


class RemoteTransactionClient:
    """Application-facing API for cross-network transactions.

    Reuses the interop client's relay, identity, and decryption machinery
    ("the relay service, system contracts, and application client support
    ... can be reused directly", §5). Split into
    :meth:`prepare_transaction` / :meth:`finalize_transaction` halves so
    the gateway can pipeline and batch transactions exactly like queries;
    :meth:`remote_transact` remains as the synchronous shim over them.
    """

    def __init__(self, interop_client: InteropClient, relay=None) -> None:
        self._client = interop_client
        self._relay = relay if relay is not None else interop_client.relay

    @property
    def client(self) -> InteropClient:
        return self._client

    @property
    def relay(self):
        return self._relay

    def prepare_transaction(
        self,
        address_text: str,
        args: list[str],
        policy: str | None = None,
        confidential: bool = True,
    ) -> PreparedTransaction:
        """Build the wire transaction without sending it.

        With ``policy=None`` the locally-recorded CMDAC verification policy
        for the target network is used, exactly as for queries.
        """
        address = parse_address(address_text)
        policy_expression = (
            policy if policy is not None
            else self._client.lookup_policy(address.network)
        )
        nonce = random_id("txnonce-")
        query = NetworkQuery(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network=address.network,
                ledger=address.ledger,
                contract=address.contract,
                function=address.function,
            ),
            args=list(args),
            nonce=nonce,
            auth=self._client.auth_info(),
            policy=VerificationPolicyMsg(expression=policy_expression),
            confidential=confidential,
            invocation=INVOCATION_TRANSACTION,
        )
        return PreparedTransaction(
            address_text=address_text,
            address=address,
            args=list(args),
            nonce=nonce,
            query=query,
            policy_expression=policy_expression,
            confidential=confidential,
        )

    def finalize_transaction(
        self, prepared: PreparedTransaction, response: QueryResponse
    ) -> RemoteTransactionResult:
        """Decrypt and verify one transaction reply.

        Checks that the source committed the transaction (validation code),
        that every attestation binds to this request's nonce, and that the
        attesting organizations satisfy the verification policy.
        """
        from repro.interop.proofs import unseal_result
        from repro.proto.messages import STATUS_ACCESS_DENIED

        identity = self._client.identity
        confidential = prepared.confidential
        if response.status == STATUS_ACCESS_DENIED:
            raise AccessDeniedError(response.error)
        if response.status != STATUS_OK:
            raise RelayError(f"remote transaction failed: {response.error}")
        envelope = response.result_cipher if confidential else response.result_plain
        outcome_bytes = unseal_result(
            envelope, identity.keypair.private if confidential else None
        )
        outcome = from_canonical_json(outcome_bytes)
        if outcome.get("validation_code") != "VALID":
            raise ProofError(
                f"source network reports the transaction as "
                f"{outcome.get('validation_code')!r}"
            )
        attesting_orgs = []
        for attestation in response.attestations:
            signed = decrypt_attestation(
                attestation, identity.keypair.private if confidential else None
            )
            metadata = signed.metadata()
            if metadata.nonce != prepared.nonce:
                raise ProofError("attestation nonce mismatch on remote transaction")
            attesting_orgs.append(metadata.org)
        if not parse_verification_policy(prepared.policy_expression).satisfied_by(
            [(org, f"?.{org}") for org in attesting_orgs]
        ):
            raise ProofError(
                f"attesting orgs {sorted(attesting_orgs)} do not satisfy "
                f"{prepared.policy_expression}"
            )
        return RemoteTransactionResult(
            address=prepared.address_text,
            args=list(prepared.args),
            result=bytes.fromhex(outcome["result"]),
            tx_id=outcome["tx_id"],
            block_number=int(outcome["block_number"]),
            nonce=prepared.nonce,
            attesting_orgs=sorted(attesting_orgs),
        )

    def remote_transact(
        self,
        address_text: str,
        args: list[str],
        policy: str | None = None,
        confidential: bool = True,
    ) -> RemoteTransactionResult:
        """Synchronous single transaction (legacy shim over the halves)."""
        prepared = self.prepare_transaction(address_text, args, policy, confidential)
        response = self._relay.remote_transact(prepared.query)
        return self.finalize_transaction(prepared, response)


def enable_remote_transactions(
    network: FabricNetwork, relay, invoker: Identity, discovery=None
) -> None:
    """Attach a transaction driver for ``network`` to its relay.

    The driver answers to the pseudo-network ``<name>#tx`` so queries and
    transactions route independently; with an in-memory ``discovery`` the
    relay is registered under that name too.
    """
    relay.register_driver(FabricTransactionDriver(network, invoker))
    from repro.interop.discovery import InMemoryRegistry

    if discovery is not None and isinstance(discovery, InMemoryRegistry):
        discovery.register(network.name + "#tx", relay)

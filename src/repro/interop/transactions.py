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
2. the returned attestations cover the *committed* outcome: the sealed
   result holds the transaction id, block number and validation code
   beside the function's return value, and each peer's signed metadata
   carries that outcome's digest, so the destination can verify that the
   update really entered the source ledger.

Exposure control is the same gate, over the same
``<network, org, chaincode, function>`` rules — a governance decision
must whitelist each remotely-invokable function, exactly as for queries.

This module holds the client half; on Fabric the source half is the
network's own driver (:meth:`~repro.interop.drivers.base.NetworkDriver.execute_transaction`
over :class:`~repro.interop.drivers.fabric_driver.FabricDriver`'s hooks),
granted the capability by :func:`enable_remote_transactions`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AccessDeniedError, ProofError, RelayError
from repro.fabric.identity import Identity
from repro.fabric.network import FabricNetwork
from repro.interop.client import InteropClient
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import ReplyOpener, attested_data_hash, check_attested_query
from repro.crypto.hashing import sha256
from repro.proto.address import CrossNetworkAddress, parse_address
from repro.proto.messages import (
    INVOCATION_TRANSACTION,
    PROTOCOL_VERSION,
    STATUS_OK,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    VerificationPolicyMsg,
)
from repro.utils.encoding import from_canonical_json
from repro.utils.ids import random_id


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
        """Decrypt and check one transaction reply.

        Checks that the source committed the transaction (validation code),
        that every attestation attests to this request (network, address,
        args, nonce) and to the digest of the sealed outcome, and that the
        attesting organizations satisfy the verification policy. It does
        not yet verify the attestation signatures (ROADMAP item 1).
        """
        from repro.proto.messages import STATUS_ACCESS_DENIED

        identity = self._client.identity
        confidential = prepared.confidential
        if response.status == STATUS_ACCESS_DENIED:
            raise AccessDeniedError(response.error)
        if response.status != STATUS_OK:
            raise RelayError(f"remote transaction failed: {response.error}")
        envelope = response.result_cipher if confidential else response.result_plain
        opener = ReplyOpener(identity.keypair.private if confidential else None)
        outcome_bytes = opener.unseal(envelope)
        outcome = from_canonical_json(outcome_bytes)
        if outcome.get("validation_code") != "VALID":
            raise ProofError(
                f"source network reports the transaction as "
                f"{outcome.get('validation_code')!r}"
            )
        outcome_hash = sha256(outcome_bytes).hex()
        attesting_orgs = []
        for position, attestation in enumerate(response.attestations):
            label = f"transaction attestation[{position}]"
            signed = opener.attestation(attestation)
            metadata = signed.metadata()
            check_attested_query(
                label,
                metadata,
                network=prepared.address.network,
                address=prepared.address,
                args=prepared.args,
                nonce=prepared.nonce,
            )
            if attested_data_hash(metadata) != outcome_hash:
                raise ProofError(
                    f"{label}: attested hash does not cover the sealed outcome"
                )
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


def enable_remote_transactions(network: FabricNetwork, relay, invoker: Identity) -> None:
    """Grant the transaction capability to ``network``'s driver on ``relay``,
    with ``invoker`` as the local submitter for remote requests."""
    relay.driver_for(network.name).enable_transactions(invoker)

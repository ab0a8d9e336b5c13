"""The application-facing interop client.

Wraps the relay service API the way the paper's adapted SWT Seller
application uses it (§4.3/§5): issue a remote query via the local relay,
decrypt the response and proof metadata, and hand back the data plus a
proof bundle ready to be passed as transaction arguments to an
application chaincode (which will have the CMDAC validate it).

A cross-network transaction (§5) is the same request with the wire's
``invocation`` set to :data:`~repro.proto.messages.INVOCATION_TRANSACTION`:
one :meth:`InteropClient.prepare_query` builds either, and one
:meth:`InteropClient.finalize_response` checks either reply before a
per-verb reader turns the opened bytes into a result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.errors import (
    AccessDeniedError,
    FinalityPendingError,
    ProofError,
    ProtocolError,
    RelayError,
    ReorgDetectedError,
)
from repro.fabric.gateway import Gateway
from repro.fabric.identity import Identity
from repro.interop.contracts.cmdac import CMDAC_NAME
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import (
    ProofBundle,
    ReplyOpener,
    attested_data_hash,
    check_attested_query,
)
from repro.interop.relay import RelayService
from repro.crypto.hashing import sha256
from repro.proto.address import CrossNetworkAddress, parse_address
from repro.proto.messages import (
    INVOCATION_QUERY,
    INVOCATION_TRANSACTION,
    PROTOCOL_VERSION,
    STATUS_ACCESS_DENIED,
    STATUS_OK,
    STATUS_PENDING_FINALITY,
    STATUS_REORG,
    AuthInfo,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    VerificationPolicyMsg,
)
from repro.ops.trace import ensure_trace
from repro.utils.encoding import from_canonical_json
from repro.utils.ids import random_id

#: Client-session structured logging (see :mod:`repro.ops.logging`).
logger = logging.getLogger("repro.api")

#: Reply status -> (error class, text). Any other non-OK status is a
#: :class:`RelayError`; every text names the request's address.
_STATUS_ERRORS = {
    STATUS_ACCESS_DENIED: (
        AccessDeniedError,
        "source network denied the {verb} {address!r}: {error}",
    ),
    STATUS_PENDING_FINALITY: (
        FinalityPendingError,
        "remote {verb} {address!r} is below its required confirmation depth: {error}",
    ),
    STATUS_REORG: (
        ReorgDetectedError,
        "remote {verb} {address!r} depends on a reorged-out record: {error}",
    ),
}
_OTHER_STATUS = (RelayError, "remote {verb} {address!r} failed: {error}")


@dataclass
class RemoteQueryResult:
    """Decrypted outcome of a cross-network query.

    ``data`` is the plaintext remote result; ``proof`` / ``proof_json`` is
    the decrypted proof bundle to pass into the destination transaction;
    ``nonce`` must accompany the transaction so the CMDAC can bind proof to
    request and enforce replay protection.
    """

    address: str
    args: list[str]
    data: bytes
    proof: ProofBundle
    nonce: str
    response: QueryResponse

    @property
    def proof_json(self) -> str:
        return self.proof.to_json()

    @property
    def data_hash(self) -> str:
        return sha256(self.data).hex()


@dataclass
class RemoteTransactionResult:
    """Outcome of a cross-network transaction: the function's return value
    and the transaction id and block it committed in, as attested."""

    address: str
    args: list[str]
    result: bytes
    tx_id: str
    block_number: int
    nonce: str
    attesting_orgs: list[str]


@dataclass
class PreparedQuery:
    """A fully-built wire request awaiting transport.

    Produced by :meth:`InteropClient.prepare_query` and consumed by
    :meth:`InteropClient.finalize_response`; carries everything the client
    needs to check and decrypt the eventual reply (nonce binding, parsed
    policy, confidentiality mode). ``query.invocation`` tells a
    transaction from a query.
    """

    address_text: str
    address: CrossNetworkAddress
    args: list[str]
    nonce: str
    query: NetworkQuery
    parsed_policy: object
    confidential: bool

    @property
    def target_network(self) -> str:
        return self.address.network

    @property
    def is_transaction(self) -> bool:
        return self.query.invocation == INVOCATION_TRANSACTION


class InteropClient:
    """Issues trusted cross-network queries on behalf of one identity.

    The client's MSP-issued key pair doubles as its decryption key pair:
    "the SWT-SC generates an asymmetric key pair and gets a certificate
    from the Seller organization's MSP" (§4.3).
    """

    def __init__(
        self,
        identity: Identity,
        relay: RelayService,
        network_id: str,
        gateway: Gateway | None = None,
    ) -> None:
        self._identity = identity
        self._relay = relay
        self._network_id = network_id
        self._gateway = gateway

    @property
    def identity(self) -> Identity:
        return self._identity

    @property
    def relay(self) -> RelayService:
        return self._relay

    @property
    def network_id(self) -> str:
        return self._network_id

    def auth_info(self) -> AuthInfo:
        """Who is asking: the requestor block every outbound request,
        transaction, subscription and asset command carries."""
        identity = self._identity
        return AuthInfo(
            requesting_network=self._network_id,
            requesting_org=identity.org,
            requestor=identity.name,
            certificate=identity.certificate.to_bytes(),
            public_key=identity.keypair.public.to_bytes(),
        )

    def lookup_policy(self, target_network: str) -> str:
        """Fetch the locally-recorded verification policy for a network.

        Verification policies are governance decisions recorded on the
        local ledger via the CMDAC (§3.3), so by default the client reads
        them from there rather than inventing its own.
        """
        if self._gateway is None:
            raise ProtocolError(
                "no verification policy given and no gateway available to "
                "read one from the CMDAC"
            )
        raw = self._gateway.evaluate(
            self._identity, CMDAC_NAME, "GetVerificationPolicy", [target_network]
        )
        return raw.decode("utf-8")

    def prepare_query(
        self,
        address_text: str,
        args: list[str],
        policy: str | None = None,
        confidential: bool = True,
        invocation: str = INVOCATION_QUERY,
    ) -> PreparedQuery:
        """Build the wire request for one query or transaction without
        sending it.

        This is the front half of :meth:`remote_query`, exposed so batch
        and pipelined executors (:mod:`repro.api`) can prepare many
        requests up front, ship them in one envelope, and finish each reply
        with :meth:`finalize_response`. With ``policy=None`` the
        locally-recorded CMDAC verification policy for the target network
        is used.
        """
        address = parse_address(address_text)
        policy_expression = policy if policy is not None else self.lookup_policy(
            address.network
        )
        parsed_policy = parse_verification_policy(policy_expression)
        nonce = random_id("nonce-")
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
            auth=self.auth_info(),
            policy=VerificationPolicyMsg(expression=policy_expression),
            confidential=confidential,
            invocation=invocation,
        )
        return PreparedQuery(
            address_text=address_text,
            address=address,
            args=list(args),
            nonce=nonce,
            query=query,
            parsed_policy=parsed_policy,
            confidential=confidential,
        )

    def finalize_response(
        self, prepared: PreparedQuery, response: QueryResponse
    ) -> RemoteQueryResult | RemoteTransactionResult:
        """Check and decrypt one reply to a query or a transaction.

        The back half of :meth:`remote_query`. In order: the reply status,
        the nonce, the opened boxes, the proof bundle, and only then the
        per-verb reader. Raises :class:`AccessDeniedError`,
        :class:`FinalityPendingError`, :class:`ReorgDetectedError`,
        :class:`RelayError` or :class:`ProofError`.

        The bundle check cannot replace the consensual CMDAC validation —
        the client has no ledger-recorded org roots — but it fails fast
        before a doomed transaction is submitted. Each attestation must
        attest to the request this client prepared (network, address,
        args, nonce) and to the digest of the bytes it opened, and the
        attesting ``(org, peer_id)`` pairs must satisfy the policy.
        """
        address_text = prepared.address_text
        is_transaction = prepared.is_transaction
        if response.status != STATUS_OK:
            error_class, text = _STATUS_ERRORS.get(response.status, _OTHER_STATUS)
            raise error_class(
                text.format(
                    verb="transaction" if is_transaction else "query",
                    address=address_text,
                    error=response.error,
                )
            )
        if response.nonce != prepared.nonce:
            raise ProofError(
                f"response nonce {response.nonce!r} does not match the query "
                f"nonce {prepared.nonce!r} (possible replay or relay confusion)"
            )
        envelope = (
            response.result_cipher if prepared.confidential else response.result_plain
        )
        if not envelope:
            raise ProofError("response carries no result envelope")
        opener = ReplyOpener(
            self._identity.keypair.private if prepared.confidential else None
        )
        data = opener.unseal(envelope)
        bundle = ProofBundle(
            attestations=tuple(
                opener.attestation(attestation) for attestation in response.attestations
            )
        )
        if not bundle.attestations:
            raise ProofError("response proof is empty")
        data_hash = sha256(data).hex()
        attesters = []
        for position, attestation in enumerate(bundle.attestations):
            label = f"attestation[{position}]"
            metadata = attestation.metadata()
            check_attested_query(
                label,
                metadata,
                network=prepared.address.network,
                address=prepared.address,
                args=prepared.args,
                nonce=prepared.nonce,
            )
            if attested_data_hash(metadata) != data_hash:
                raise ProofError(
                    f"{label}: attested hash does not cover the decrypted data"
                )
            # Query-only: a signature check under the attestation's own
            # certificate costs two ECDSA verifies per transaction, ~15% of
            # a remote write. ROADMAP item 1 replaces it for both verbs.
            if not is_transaction and not attestation.signed_by(
                attestation.decoded_certificate().public_key
            ):
                raise ProofError(f"{label}: bad signature")
            attesters.append((metadata.org, metadata.peer_id))
        if not prepared.parsed_policy.satisfied_by(attesters):
            raise ProofError(
                f"attesters {sorted(attesters)} do not satisfy the requested "
                f"policy {prepared.parsed_policy.expression()}"
            )
        if is_transaction:
            result, tx_id, block_number = _read_outcome(data)
            return RemoteTransactionResult(
                address=address_text,
                args=list(prepared.args),
                result=result,
                tx_id=tx_id,
                block_number=block_number,
                nonce=prepared.nonce,
                attesting_orgs=sorted(org for org, _ in attesters),
            )
        return RemoteQueryResult(
            address=address_text,
            args=list(prepared.args),
            data=data,
            proof=bundle,
            nonce=prepared.nonce,
            response=response,
        )

    def remote_query(
        self,
        address_text: str,
        args: list[str],
        policy: str | None = None,
        confidential: bool = True,
        invocation: str = INVOCATION_QUERY,
    ) -> RemoteQueryResult | RemoteTransactionResult:
        """Execute steps (1)-(9) of the message flow and decrypt the reply.

        A transaction (``invocation=INVOCATION_TRANSACTION``) travels in
        its own ``MSG_KIND_TRANSACT_REQUEST`` envelope, which caches and
        other intermediaries never replay. Raises
        :class:`AccessDeniedError` if the source network's exposure
        control denied the request, :class:`RelayError` for relay-level
        failures, and :class:`ProofError` if the response or proof fails
        client-side checks.
        """
        with ensure_trace():
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "remote query",
                    extra={
                        "address": address_text,
                        "confidential": confidential,
                        "invocation": invocation,
                    },
                )
            prepared = self.prepare_query(
                address_text, args, policy, confidential, invocation
            )
            send = (
                self._relay.remote_transact
                if prepared.is_transaction
                else self._relay.remote_query
            )
            return self.finalize_response(prepared, send(prepared.query))


def _read_outcome(data: bytes) -> tuple[bytes, str, int]:
    """The return value, transaction id and block of an attested outcome.

    Runs only after the attestations bind ``data``, so a malformed
    outcome here came from the source's own attesters; it is refused
    with :class:`ProofError` like any other bad proof.
    """
    try:
        outcome = from_canonical_json(data)
    except ValueError as exc:
        raise ProofError(f"transaction outcome is not UTF-8 JSON: {exc}") from exc
    if not isinstance(outcome, dict):
        raise ProofError("transaction outcome is not a JSON object")
    if outcome.get("validation_code") != "VALID":
        raise ProofError(
            f"source network reports the transaction as "
            f"{outcome.get('validation_code')!r}"
        )
    try:
        result = bytes.fromhex(outcome["result"])
        tx_id, block_number = outcome["tx_id"], outcome["block_number"]
    except KeyError as exc:
        raise ProofError(f"transaction outcome has no {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ProofError(f"transaction outcome result is not hex: {exc}") from exc
    if not isinstance(tx_id, str) or type(block_number) is not int:
        raise ProofError(
            f"transaction outcome names tx {tx_id!r} in block {block_number!r}"
        )
    return result, tx_id, block_number

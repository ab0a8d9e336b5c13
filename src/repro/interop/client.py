"""The application-facing interop client.

Wraps the relay service API the way the paper's adapted SWT Seller
application uses it (§4.3/§5): issue a remote query via the local relay,
decrypt the response and proof metadata, and hand back the data plus a
proof bundle ready to be passed as transaction arguments to an
application chaincode (which will have the CMDAC validate it).
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
    AttestationProofScheme,
    ProofBundle,
    decrypt_attestation,
    unseal_result,
)
from repro.interop.relay import RelayService
from repro.crypto.hashing import sha256
from repro.proto.address import CrossNetworkAddress, parse_address
from repro.proto.messages import (
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
from repro.utils.ids import random_id

#: Client-session structured logging (see :mod:`repro.ops.logging`).
logger = logging.getLogger("repro.api")


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
class PreparedQuery:
    """A fully-built wire query awaiting transport.

    Produced by :meth:`InteropClient.prepare_query` and consumed by
    :meth:`InteropClient.finalize_response`; carries everything the client
    needs to check and decrypt the eventual reply (nonce binding, parsed
    policy, confidentiality mode).
    """

    address_text: str
    address: CrossNetworkAddress
    args: list[str]
    nonce: str
    query: NetworkQuery
    parsed_policy: object
    confidential: bool
    verify_locally: bool

    @property
    def target_network(self) -> str:
        return self.address.network


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
        self._scheme = AttestationProofScheme()

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

    def _lookup_policy(self, target_network: str) -> str:
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

    def lookup_policy(self, target_network: str) -> str:
        """Public form of the CMDAC policy lookup (used by batch executors
        to resolve the policy once per target network instead of once per
        member query)."""
        return self._lookup_policy(target_network)

    def prepare_query(
        self,
        address_text: str,
        args: list[str],
        policy: str | None = None,
        confidential: bool = True,
        verify_locally: bool = True,
    ) -> PreparedQuery:
        """Build the wire query for one request without sending it.

        This is the front half of :meth:`remote_query`, exposed so batch
        and pipelined executors (:mod:`repro.api`) can prepare many queries
        up front, ship them in one envelope, and finish each reply with
        :meth:`finalize_response`.
        """
        address = parse_address(address_text)
        policy_expression = policy if policy is not None else self._lookup_policy(
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
        )
        return PreparedQuery(
            address_text=address_text,
            address=address,
            args=list(args),
            nonce=nonce,
            query=query,
            parsed_policy=parsed_policy,
            confidential=confidential,
            verify_locally=verify_locally,
        )

    def finalize_response(
        self, prepared: PreparedQuery, response: QueryResponse
    ) -> RemoteQueryResult:
        """Decrypt, check, and (optionally) locally verify one reply.

        The back half of :meth:`remote_query`; raises exactly the same
        errors (:class:`AccessDeniedError`, :class:`RelayError`,
        :class:`ProofError`).
        """
        address_text = prepared.address_text
        if response.status == STATUS_ACCESS_DENIED:
            raise AccessDeniedError(
                f"source network denied the query {address_text!r}: "
                f"{response.error}"
            )
        if response.status == STATUS_PENDING_FINALITY:
            raise FinalityPendingError(
                f"remote query {address_text!r} is below its required "
                f"confirmation depth: {response.error}"
            )
        if response.status == STATUS_REORG:
            raise ReorgDetectedError(
                f"remote query {address_text!r} depends on a reorged-out "
                f"record: {response.error}"
            )
        if response.status != STATUS_OK:
            raise RelayError(
                f"remote query {address_text!r} failed: {response.error}"
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
        private_key = self._identity.keypair.private if prepared.confidential else None
        data = unseal_result(envelope, private_key)
        attestations = tuple(
            decrypt_attestation(attestation, self._identity.keypair.private)
            for attestation in response.attestations
        )
        bundle = ProofBundle(attestations=attestations)
        if prepared.verify_locally:
            self._verify_locally(
                prepared.address,
                prepared.args,
                prepared.nonce,
                data,
                bundle,
                prepared.parsed_policy,
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
        verify_locally: bool = True,
    ) -> RemoteQueryResult:
        """Execute steps (1)-(9) of the message flow and decrypt the reply.

        Raises :class:`AccessDeniedError` if the source network's exposure
        control denied the request, :class:`RelayError` for relay-level
        failures, and :class:`ProofError` if the response or proof fails
        client-side checks.
        """
        with ensure_trace():
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "remote query",
                    extra={"address": address_text, "confidential": confidential},
                )
            prepared = self.prepare_query(
                address_text, args, policy, confidential, verify_locally
            )
            response = self._relay.remote_query(prepared.query)
            return self.finalize_response(prepared, response)

    def remote_query_batch(
        self, requests: list[tuple[str, list[str]]], **options
    ) -> list[RemoteQueryResult]:
        """Execute N queries as batch envelopes (one per target network).

        ``requests`` is a list of ``(address, args)`` pairs; ``options``
        are forwarded to each member (``policy``, ``confidential``,
        ``verify_locally``). Unlike the :class:`repro.api.InteropGateway`
        pipeline, this convenience raises on the *first* failed member —
        use the gateway's :class:`~repro.api.QuerySet` for per-member
        partial-failure handling.
        """
        with ensure_trace():
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug("remote query batch", extra={"members": len(requests)})
            prepared = [
                self.prepare_query(address_text, args, **options)
                for address_text, args in requests
            ]
            responses = self._relay.remote_query_batch([p.query for p in prepared])
            return [
                self.finalize_response(p, response)
                for p, response in zip(prepared, responses)
            ]

    def _verify_locally(
        self,
        address: CrossNetworkAddress,
        args: list[str],
        nonce: str,
        data: bytes,
        bundle: ProofBundle,
        parsed_policy,
    ) -> None:
        """Client-side pre-validation (signatures + consistency + policy).

        This cannot replace the consensual CMDAC validation — the client
        has no ledger-recorded org roots, so it checks internal consistency
        against the certificates embedded in the proof — but it fails fast
        before a doomed transaction is submitted.
        """
        if not bundle.attestations:
            raise ProofError("response proof is empty")
        from repro.crypto.ecdsa import Signature, verify as verify_sig

        data_hash = sha256(data).hex()
        attesters = []
        for position, attestation in enumerate(bundle.attestations):
            metadata = attestation.metadata()
            certificate = attestation.decoded_certificate()
            if not verify_sig(
                certificate.public_key,
                attestation.metadata_bytes,
                Signature.from_bytes(attestation.signature),
            ):
                raise ProofError(f"attestation[{position}]: bad signature")
            if metadata.nonce != nonce:
                raise ProofError(f"attestation[{position}]: nonce mismatch")
            from repro.interop.proofs import envelope_plaintext_hash

            if envelope_plaintext_hash(metadata.result) != data_hash:
                raise ProofError(
                    f"attestation[{position}]: attested hash does not cover the "
                    f"decrypted data"
                )
            attesters.append((metadata.org, metadata.peer_id))
        if not parsed_policy.satisfied_by(attesters):
            raise ProofError(
                f"attesters {sorted(attesters)} do not satisfy the requested "
                f"policy {parsed_policy.expression()}"
            )

"""Threat-model harness for the §5 security evaluation.

The paper argues its protocol provides Confidentiality, Integrity and
Availability (the CIA triad). This module implements the attacks those
claims are measured against:

- **Malicious relays** (the protocol's explicitly untrusted component):
  tampering with results or proofs, eavesdropping/exfiltration, dropping
  requests.
- **Byzantine source peers**: returning corrupted results with valid
  signatures.
- **Replay**: re-submitting a previously-valid proof (§4.3's nonce
  mitigation).
- **DoS flooding** of a relay (§5's availability discussion: "not immune
  to DoS ... mitigated by adding redundant relays" and relay-level
  protection).

Every attack is an endpoint/peer *wrapper*, so the same scenario runs with
and without an adversary in place. All randomized attacks thread an
explicit :class:`random.Random` seeded generator, so every adversarial run
is reproducible from its seed — the generalized, schedule-driven form of
these wrappers lives in :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.certs import Certificate
from repro.errors import ProofError, RelayUnavailableError
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Peer, Proposal, ProposalResponse
from repro.interop.discovery import RelayEndpoint
from repro.interop.policy import parse_verification_policy
from repro.interop.proofs import (
    AttestationProofScheme,
    ProofBundle,
    decrypt_attestation,
)
from repro.proto.messages import (
    MSG_KIND_QUERY_RESPONSE,
    QueryResponse,
    RelayEnvelope,
)

# One corruption primitive for the whole testing package (this module's
# legacy name for :func:`repro.testing.faults.flip_byte`).
from repro.testing.faults import flip_byte as flip_bytes

TAMPER_RESULT = "result"
TAMPER_PROOF = "proof"
TAMPER_BOTH = "both"

__all__ = [
    "TAMPER_RESULT",
    "TAMPER_PROOF",
    "TAMPER_BOTH",
    "TamperingRelay",
    "DroppingRelay",
    "CapturedExchange",
    "EavesdroppingRelay",
    "ByzantinePeerProxy",
    "corrupt_network_peer",
    "restore_network_peer",
    "FloodReport",
    "flood_relay",
    "flip_bytes",
]




class TamperingRelay:
    """A malicious source relay that alters responses in flight.

    It operates below the protocol's protection boundary: it can decode the
    envelope and the response structure (those are not secret) but results
    and proof metadata are encrypted/signed end-to-end, so its mutations
    are detectable — this is the integrity experiment.
    """

    def __init__(self, inner: RelayEndpoint, mode: str = TAMPER_RESULT, seed: int = 13) -> None:
        if mode not in (TAMPER_RESULT, TAMPER_PROOF, TAMPER_BOTH):
            raise ValueError(f"unknown tamper mode {mode!r}")
        self._inner = inner
        self._mode = mode
        self._rng = random.Random(seed)
        self.tampered_responses = 0

    def handle_request(self, data: bytes) -> bytes:
        reply_bytes = self._inner.handle_request(data)
        envelope = RelayEnvelope.decode(reply_bytes)
        if envelope.kind != MSG_KIND_QUERY_RESPONSE:
            return reply_bytes
        response = QueryResponse.decode(envelope.payload)
        if self._mode in (TAMPER_RESULT, TAMPER_BOTH):
            if response.result_cipher:
                response.result_cipher = flip_bytes(response.result_cipher, self._rng)
            if response.result_plain:
                response.result_plain = flip_bytes(response.result_plain, self._rng)
        if self._mode in (TAMPER_PROOF, TAMPER_BOTH) and response.attestations:
            victim = response.attestations[self._rng.randrange(len(response.attestations))]
            if victim.metadata_cipher:
                victim.metadata_cipher = flip_bytes(victim.metadata_cipher, self._rng)
            if victim.metadata_plain:
                victim.metadata_plain = flip_bytes(victim.metadata_plain, self._rng)
            victim.signature = flip_bytes(victim.signature, self._rng)
        self.tampered_responses += 1
        envelope.payload = response.encode()
        return envelope.encode()


class DroppingRelay:
    """A relay that censors traffic (availability attack)."""

    def __init__(self, inner: RelayEndpoint | None = None) -> None:
        self._inner = inner
        self.dropped = 0

    def handle_request(self, data: bytes) -> bytes:
        self.dropped += 1
        raise RelayUnavailableError("relay silently dropped the request")


@dataclass
class CapturedExchange:
    """One request/response pair observed by an eavesdropping relay."""

    request: bytes
    response: bytes


class EavesdroppingRelay:
    """A passive malicious relay: records everything it forwards.

    Used for the confidentiality experiment: can the relay read the data,
    and can it *exfiltrate a verifiable proof* to a third party (§4.3)?
    """

    def __init__(self, inner: RelayEndpoint) -> None:
        self._inner = inner
        self.captured: list[CapturedExchange] = []

    def handle_request(self, data: bytes) -> bytes:
        reply = self._inner.handle_request(data)
        self.captured.append(CapturedExchange(request=data, response=reply))
        return reply

    def plaintext_visible(self, needle: bytes) -> bool:
        """Did ``needle`` (the secret document) appear in any captured bytes?

        Checks the raw form and its hex encoding — a relay that can read
        hex-encoded plaintext has read the plaintext.
        """
        forms = (needle, needle.hex().encode("ascii"))
        for exchange in self.captured:
            for form in forms:
                if form in exchange.request or form in exchange.response:
                    return True
        return False

    def exfiltrated_proof_validates(
        self,
        org_roots: dict[str, Certificate],
        policy_expression: str,
    ) -> bool:
        """Attempt the §4.3 exfiltration: validate a captured proof *without*
        the requesting client's decryption key.

        Returns True if any captured proof validates (the attack succeeded —
        expected only when confidentiality is disabled).
        """
        scheme = AttestationProofScheme()
        policy = parse_verification_policy(policy_expression)
        for exchange in self.captured:
            try:
                envelope = RelayEnvelope.decode(exchange.response)
                if envelope.kind != MSG_KIND_QUERY_RESPONSE:
                    continue
                response = QueryResponse.decode(envelope.payload)
                attestations = tuple(
                    decrypt_attestation(attestation, client_key=None)
                    for attestation in response.attestations
                )
                if not attestations:
                    continue
                bundle = ProofBundle(attestations=attestations)
                metadata = attestations[0].metadata()
                address_msg = metadata.address
                from repro.proto.address import CrossNetworkAddress
                from repro.interop.proofs import envelope_plaintext_hash

                address = CrossNetworkAddress(
                    network=address_msg.network,
                    ledger=address_msg.ledger,
                    contract=address_msg.contract,
                    function=address_msg.function,
                )
                scheme.validate_bundle(
                    bundle,
                    expected_network=metadata.network,
                    expected_address=address,
                    expected_args=list(metadata.args),
                    expected_nonce=metadata.nonce,
                    expected_data_hash=envelope_plaintext_hash(metadata.result),
                    policy=policy,
                    org_roots=org_roots,
                )
                return True
            except (ProofError, Exception):
                continue
        return False


class ByzantinePeerProxy:
    """A source peer that executes honestly but *signs a forged result*.

    Models an insider attack: the peer's signature is cryptographically
    valid, so detection relies on the verification policy requiring
    attestations from organizations the attacker does not control.
    """

    def __init__(self, inner: Peer, forged_payload: bytes) -> None:
        self._inner = inner
        self._forged_payload = forged_payload
        self.forgeries = 0

    # The driver only touches these members.
    @property
    def peer_id(self) -> str:
        return self._inner.peer_id

    @property
    def org(self) -> str:
        return self._inner.org

    @property
    def identity(self):
        return self._inner.identity

    def has_chaincode(self, name: str) -> bool:
        return self._inner.has_chaincode(name)

    def endorse(self, proposal: Proposal, plugin: str | None = None) -> ProposalResponse:
        from repro.interop.proofs import seal_result
        from repro.crypto.keys import PublicKey
        from repro.utils.encoding import from_canonical_json

        response = self._inner.endorse(proposal, plugin=None)
        if plugin is None or not response.success:
            return response
        # Re-run the interop plugin path over a forged sealed result.
        context_raw = proposal.transient.get("interop")
        assert context_raw is not None
        context = from_canonical_json(context_raw)
        confidential = bool(context["confidential"])
        client_key = (
            PublicKey.from_bytes(bytes.fromhex(context["client_pubkey"]))
            if confidential
            else None
        )
        forged_envelope = seal_result(self._forged_payload, client_key, confidential)
        plugin_fn = self._inner._endorsement_plugins[plugin]
        forged_attestation = plugin_fn(
            self._inner, proposal, forged_envelope, response.rwset
        )
        self.forgeries += 1
        from repro.fabric.ledger import Endorsement

        response.result = forged_envelope
        response.endorsement = Endorsement(
            peer_id=self.peer_id,
            org=self.org,
            role="peer",
            certificate=self._inner.identity.certificate.to_bytes(),
            signature=forged_attestation,
        )
        return response


def corrupt_network_peer(
    network: FabricNetwork, peer_id: str, forged_payload: bytes
) -> ByzantinePeerProxy:
    """Replace ``peer_id`` in the network with a byzantine proxy.

    Returns the proxy; call :func:`restore_network_peer` to undo.
    """
    for index, peer in enumerate(network.peers):
        if peer.peer_id == peer_id:
            proxy = ByzantinePeerProxy(peer, forged_payload)
            network.peers[index] = proxy  # type: ignore[assignment]
            return proxy
    raise KeyError(f"network {network.name!r} has no peer {peer_id!r}")


def restore_network_peer(network: FabricNetwork, proxy: ByzantinePeerProxy) -> None:
    for index, peer in enumerate(network.peers):
        if peer is proxy:
            network.peers[index] = proxy._inner
            return


@dataclass
class FloodReport:
    """Outcome of a DoS flood against a relay endpoint."""

    requests_sent: int = 0
    shed_by_rate_limit: int = 0
    served: int = 0
    transport_failures: int = 0
    leftover: list[str] = field(default_factory=list)


def flood_relay(endpoint: RelayEndpoint, request_bytes: bytes, count: int) -> FloodReport:
    """Send ``count`` copies of a request at a relay as fast as possible."""
    report = FloodReport()
    for _ in range(count):
        report.requests_sent += 1
        try:
            reply = endpoint.handle_request(request_bytes)
        except RelayUnavailableError:
            report.transport_failures += 1
            continue
        envelope = RelayEnvelope.decode(reply)
        if envelope.kind == MSG_KIND_QUERY_RESPONSE:
            report.served += 1
        elif b"rate limit" in envelope.payload:
            report.shed_by_rate_limit += 1
        else:
            report.leftover.append(envelope.payload.decode("utf-8", "replace"))
    return report

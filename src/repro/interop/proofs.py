"""Attestation-based proofs: generation, packaging, validation.

The paper's proof format (§4.3): each source peer produces
``<encrypted result, encrypted metadata, signature>``; the array of
``<encrypted metadata, signature>`` pairs constitutes the proof. The
signature is over the *plaintext* metadata (peers sign, then encrypt), so
after the requesting client decrypts the metadata, anyone holding the
source network's recorded configuration can validate the signatures —
which is exactly what the destination's Data Acceptance contract does.

**What a signature covers (proof format 2).** A peer signs the encoded
:class:`~repro.proto.messages.ProofMetadata`: the query it answered
(network, address, args, nonce), its own identity (org, peer id), a
timestamp, and ``data_hash``, the SHA-256 of the plaintext result. The
signature covers the result's digest, not the result, so metadata stays
a few hundred bytes however large the result is. On a transaction the
plaintext is the sealed outcome (result, tx id, block number,
validation code), so the digest covers the commit coordinates too.

**The result travels once,** in ``QueryResponse.result_cipher`` /
``result_plain``, as a *seal envelope* of bytes: a version byte
(:data:`ENVELOPE_VERSION`), a mode byte (plain or cipher), the 32-byte
``data_hash``, then the raw ECIES box (confidential mode) or the
plaintext. The hash inside the envelope only lets the opener check what
it decrypted; trust comes from the signed ``data_hash`` in every
attestation, which the opened plaintext must equal.

**Deviation from §4.3.** The paper has every peer return its own
encrypted result. Here each selected peer still seals the result (the
chaincode calls ECC ``SealResponse`` on every endorser), but the reply
carries one envelope: all peers attest to the same digest, so one copy
lets the client check every attestation. And where the paper encrypts
the result and the metadata separately, a peer here seals both boxes
under one key agreement with the client (:func:`peer_reply`): one fresh
ephemeral key and one ECDH per peer reply, with a fresh random nonce per
box. Each box is still a standard single-recipient ECIES box, and the
client derives each distinct key once per reply (:class:`ReplyOpener`).
Static-static ECDH between the peer's and the client's long-lived keys
would save the ephemeral key too, but a leaked peer key would then open
every past reply, so every reply keeps its own ephemeral key.

**Format 1,** written before this one, embedded a JSON seal envelope
(ciphertext in hex) in each peer's metadata as ``result`` beside its
hash ``result_hash``. Such bundles sit on destination ledgers and in
relay idempotency records. :func:`attested_data_hash` is the one reader
of "what did this peer attest to" and the one translation from format 1;
:func:`unseal_result` opens both envelope versions.

The architecture "allows any suitable proof scheme to be plugged in" (§6);
:class:`ProofScheme` is that plug point and
:class:`AttestationProofScheme` is the paper's scheme.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.crypto.certs import Certificate, validate_chain
from repro.crypto.ecdsa import Signature, verify
from repro.crypto.ecies import Encapsulation, KeyMemo, ecies_decrypt, ecies_encrypt
from repro.crypto.hashing import sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import DecodeError, DecryptionError, InvalidSignatureError, ProofError
from repro.fabric.identity import Identity
from repro.interop.policy import Attester, VerificationPolicy
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import (
    Attestation,
    NetworkAddressMsg,
    NetworkQuery,
    ProofMetadata,
)
from repro.utils.encoding import from_canonical_json


# ---------------------------------------------------------------------------
# One key agreement per peer reply
# ---------------------------------------------------------------------------

#: The encapsulations of the peer reply being sealed in this context, by
#: recipient; ``None`` outside :func:`peer_reply`. A context variable and
#: not a parameter because on Fabric the result is sealed inside chaincode
#: (ECC ``SealResponse``), which receives nothing from its caller but the
#: proposal; each thread sees only its own value.
_REPLY: ContextVar[dict[PublicKey, Encapsulation] | None] = ContextVar(
    "repro_peer_reply", default=None
)


@contextmanager
def peer_reply() -> Iterator[None]:
    """Scope one peer's reply to one request.

    Every box sealed inside the block to one recipient (the result by
    :func:`seal_result`, the metadata by
    :meth:`AttestationProofScheme.generate_attestation`) shares one
    :class:`~repro.crypto.ecies.Encapsulation`; the block's end drops it.
    On Fabric the block spans one ``Peer.endorse``, which covers ECC
    ``SealResponse`` inside the chaincode and the interop endorsement
    plugin after it. A nested block starts a reply of its own.
    """
    token = _REPLY.set({})
    try:
        yield
    finally:
        _REPLY.reset(token)


def _encrypt(recipient: PublicKey, plaintext: bytes) -> bytes:
    """Seal one box, under the current peer reply's key agreement if any."""
    encapsulations = _REPLY.get()
    if encapsulations is None:
        return ecies_encrypt(recipient, plaintext)
    encapsulation = encapsulations.get(recipient)
    if encapsulation is None:
        encapsulation = encapsulations[recipient] = Encapsulation(recipient)
    return ecies_encrypt(recipient, plaintext, encapsulation=encapsulation)


class ReplyOpener:
    """Opens the boxes of one reply for one client.

    It derives one key per distinct ``(private key, ephemeral key bytes)``,
    so a peer's result box and metadata box cost one ECDH between them.
    Create one per finalize call and drop it after; every box is still
    authenticated on its own.
    """

    def __init__(self, private_key: PrivateKey | None) -> None:
        self._private_key = private_key
        self._keys: KeyMemo = {}

    def unseal(self, envelope_bytes: bytes) -> bytes:
        """:func:`unseal_result` through this reply's key memo."""
        return unseal_result(envelope_bytes, self._private_key, self._keys)

    def attestation(self, attestation: Attestation) -> SignedAttestation:
        """:func:`decrypt_attestation` through this reply's key memo."""
        return decrypt_attestation(attestation, self._private_key, self._keys)


def attest_reply(
    scheme: ProofScheme,
    peer_identity: Identity,
    network: str,
    address: CrossNetworkAddress,
    query: NetworkQuery,
    plaintext: bytes,
    timestamp: float,
    envelope: bytes = b"",
) -> tuple[bytes, Attestation]:
    """One peer's reply to ``query``: seal ``plaintext``, then attest the seal.

    Both boxes share one key agreement (:func:`peer_reply`). A peer that
    attests an ``envelope`` another peer already sealed seals nothing and
    passes it through. Returns the envelope and the attestation.
    """
    client_key = (
        PublicKey.from_bytes(query.auth.public_key) if query.confidential else None
    )
    with peer_reply():
        if not envelope:
            envelope = seal_result(plaintext, client_key, query.confidential)
        attestation = scheme.generate_attestation(
            peer_identity=peer_identity,
            network=network,
            address=address,
            args=list(query.args),
            nonce=query.nonce,
            result_envelope=envelope,
            client_key=client_key,
            confidential=query.confidential,
            timestamp=timestamp,
        )
    return envelope, attestation


# ---------------------------------------------------------------------------
# Seal envelopes (result channel)
# ---------------------------------------------------------------------------

#: First byte of a format-2 seal envelope. A format-1 envelope is
#: canonical JSON, so its first byte is ``{``.
ENVELOPE_VERSION = 2
_MODE_PLAIN = 0
_MODE_CIPHER = 1
_HASH_BYTES = 32
_HEADER_BYTES = 2 + _HASH_BYTES


@dataclass(frozen=True)
class _Sealed:
    """A parsed seal envelope of either version."""

    data_hash: bytes
    payload: bytes  # the ECIES box if ``confidential``, else the plaintext
    confidential: bool


def seal_result(
    plaintext: bytes,
    client_key: PublicKey | None,
    confidential: bool,
) -> bytes:
    """Package a query result for the response channel.

    Confidential mode encrypts under the requesting client's public key so
    "an untrusted relay cannot read or exfiltrate the information" (§5);
    either way the envelope carries the plaintext hash that the signed
    metadata will bind to.
    """
    if confidential:
        if client_key is None:
            raise ProofError("confidential responses require the client public key")
        mode, payload = _MODE_CIPHER, _encrypt(client_key, plaintext)
    else:
        mode, payload = _MODE_PLAIN, plaintext
    return b"".join((bytes((ENVELOPE_VERSION, mode)), sha256(plaintext), payload))


def unseal_result(
    envelope_bytes: bytes,
    client_key: PrivateKey | None = None,
    key_memo: KeyMemo | None = None,
) -> bytes:
    """Recover and integrity-check the plaintext from a seal envelope of
    either version. Raises :class:`ProofError` and nothing else."""
    sealed = _read_envelope(envelope_bytes)
    if sealed.confidential:
        if client_key is None:
            raise ProofError("envelope is confidential but no private key was supplied")
        try:
            plaintext = ecies_decrypt(client_key, sealed.payload, key_memo=key_memo)
        except (ValueError, DecryptionError) as exc:
            raise ProofError(
                f"seal envelope payload is corrupt or undecryptable: {exc}"
            ) from exc
    else:
        plaintext = sealed.payload
    if sha256(plaintext) != sealed.data_hash:
        raise ProofError("seal envelope hash does not match its payload")
    return plaintext


def envelope_plaintext_hash(envelope_bytes: bytes) -> str:
    """Extract the plaintext hash a seal envelope commits to (hex)."""
    return _read_envelope(envelope_bytes).data_hash.hex()


def _read_envelope(envelope_bytes: bytes) -> _Sealed:
    if envelope_bytes[:1] == b"{":
        return _read_v1_envelope(envelope_bytes)
    if len(envelope_bytes) < _HEADER_BYTES or envelope_bytes[0] != ENVELOPE_VERSION:
        raise ProofError(
            "malformed seal envelope: unknown version or a header shorter "
            f"than {_HEADER_BYTES} bytes"
        )
    mode = envelope_bytes[1]
    if mode not in (_MODE_PLAIN, _MODE_CIPHER):
        raise ProofError(f"malformed seal envelope: unknown mode {mode}")
    return _Sealed(
        data_hash=bytes(envelope_bytes[2:_HEADER_BYTES]),
        payload=bytes(envelope_bytes[_HEADER_BYTES:]),
        confidential=mode == _MODE_CIPHER,
    )


def _read_v1_envelope(envelope_bytes: bytes) -> _Sealed:
    """Format 1: canonical JSON ``{"hash": hex, "cipher" | "plain": hex}``."""
    try:
        envelope = from_canonical_json(envelope_bytes)
        data_hash = bytes.fromhex(envelope["hash"])
        if "cipher" in envelope:
            return _Sealed(data_hash, bytes.fromhex(envelope["cipher"]), True)
        return _Sealed(data_hash, bytes.fromhex(envelope["plain"]), False)
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise ProofError(f"malformed seal envelope: {exc!r}") from exc


# ---------------------------------------------------------------------------
# What a peer attested to
# ---------------------------------------------------------------------------


def attested_data_hash(metadata: ProofMetadata) -> str:
    """The plaintext hash (hex) a peer's signed metadata commits to.

    Every check of "does this attestation cover this data" reads it here.
    Format 2 metadata carries it as ``data_hash``. Format 1 metadata
    embedded the seal envelope as ``result`` with its SHA-256 as
    ``result_hash``; the two must agree, and the answer is the hash inside
    that envelope. Raises :class:`ProofError` and nothing else.
    """
    if metadata.data_hash:
        if metadata.result or metadata.result_hash:
            raise ProofError("metadata mixes a data hash with an embedded result")
        if len(metadata.data_hash) != _HASH_BYTES:
            raise ProofError(
                f"attested data hash is {len(metadata.data_hash)} bytes, "
                f"expected {_HASH_BYTES}"
            )
        return metadata.data_hash.hex()
    if not metadata.result:
        raise ProofError("metadata attests no data hash")
    if sha256(metadata.result) != metadata.result_hash:
        raise ProofError("result hash does not match embedded result")
    return envelope_plaintext_hash(metadata.result)


def check_attested_query(
    label: str,
    metadata: ProofMetadata,
    *,
    network: str,
    address: CrossNetworkAddress,
    args: Sequence[str],
    nonce: str,
) -> None:
    """Raise :class:`ProofError` unless ``metadata`` attests exactly this
    query: the same source network, address, arguments and nonce.

    The destination contract and the requesting client both run it, so a
    relay that rewrites the request and keeps the nonce is caught by
    either.
    """
    if metadata.network != network:
        raise ProofError(
            f"{label}: attests network {metadata.network!r}, expected {network!r}"
        )
    attested = metadata.address
    if attested is None or (
        attested.network,
        attested.ledger,
        attested.contract,
        attested.function,
    ) != (address.network, address.ledger, address.contract, address.function):
        raise ProofError(f"{label}: attested address does not match the query")
    if list(metadata.args) != list(args):
        raise ProofError(f"{label}: attested arguments do not match the query")
    if metadata.nonce != nonce:
        raise ProofError(
            f"{label}: attested nonce {metadata.nonce!r} does not match {nonce!r}"
        )


# ---------------------------------------------------------------------------
# Signed attestations and proof bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedAttestation:
    """One peer's decrypted attestation: plaintext metadata + signature."""

    metadata_bytes: bytes
    signature: bytes
    certificate: bytes

    def metadata(self) -> ProofMetadata:
        try:
            return ProofMetadata.decode(self.metadata_bytes)
        except DecodeError as exc:
            raise ProofError(f"undecodable attestation metadata: {exc}") from exc

    def decoded_certificate(self) -> Certificate:
        return Certificate.from_bytes(self.certificate)

    def attester(self) -> Attester:
        meta = self.metadata()
        return (meta.org, meta.peer_id)

    def signed_by(self, public_key: PublicKey) -> bool:
        """True iff ``signature`` signs ``metadata_bytes`` under ``public_key``."""
        try:
            signature = Signature.from_bytes(self.signature)
        except InvalidSignatureError:
            return False
        return verify(public_key, self.metadata_bytes, signature)

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata_bytes.hex(),
            "signature": self.signature.hex(),
            "certificate": self.certificate.hex(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SignedAttestation":
        try:
            return cls(
                metadata_bytes=bytes.fromhex(data["metadata"]),
                signature=bytes.fromhex(data["signature"]),
                certificate=bytes.fromhex(data["certificate"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ProofError(f"malformed attestation record: {exc}") from exc


@dataclass(frozen=True)
class ProofBundle:
    """The decrypted proof a destination transaction carries as an argument."""

    attestations: tuple[SignedAttestation, ...]

    def to_json(self) -> str:
        return json.dumps(
            [attestation.to_dict() for attestation in self.attestations],
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ProofBundle":
        try:
            records = json.loads(text)
        except (ValueError, TypeError, RecursionError) as exc:
            raise ProofError(f"proof bundle is not valid JSON: {exc}") from exc
        if not isinstance(records, list):
            raise ProofError("proof bundle must be a JSON array")
        return cls(
            attestations=tuple(
                SignedAttestation.from_dict(record) for record in records
            )
        )

    def __len__(self) -> int:
        return len(self.attestations)


# ---------------------------------------------------------------------------
# Proof schemes
# ---------------------------------------------------------------------------


class ProofScheme(ABC):
    """Plug point for proof mechanisms (§6: attestations, SPV, NIPoPoW...)."""

    name: str = ""

    @abstractmethod
    def generate_attestation(
        self,
        peer_identity: Identity,
        network: str,
        address: CrossNetworkAddress,
        args: Sequence[str],
        nonce: str,
        result_envelope: bytes,
        client_key: PublicKey | None,
        confidential: bool,
        timestamp: float,
    ) -> Attestation:
        """Peer-side: sign (and optionally encrypt) an attestation."""

    @abstractmethod
    def validate_bundle(
        self,
        bundle: ProofBundle,
        *,
        expected_network: str,
        expected_address: CrossNetworkAddress,
        expected_args: Sequence[str],
        expected_nonce: str,
        expected_data_hash: str,
        policy: VerificationPolicy,
        org_roots: Mapping[str, Certificate],
    ) -> list[Attester]:
        """Destination-side: validate a decrypted proof bundle.

        Returns the attesters on success; raises :class:`ProofError` with a
        specific reason otherwise.
        """


class AttestationProofScheme(ProofScheme):
    """The paper's scheme: per-peer signatures under a verification policy."""

    name = "attestation"

    def build_metadata(
        self,
        peer_identity: Identity,
        network: str,
        address: CrossNetworkAddress,
        args: Sequence[str],
        nonce: str,
        result_envelope: bytes,
        timestamp: float,
    ) -> ProofMetadata:
        """The metadata a peer signs: the query, the peer, and the hash of
        the plaintext that ``result_envelope`` seals (never the envelope)."""
        return ProofMetadata(
            address=NetworkAddressMsg(
                network=address.network,
                ledger=address.ledger,
                contract=address.contract,
                function=address.function,
            ),
            args=list(args),
            nonce=nonce,
            peer_id=peer_identity.id,
            org=peer_identity.org,
            network=network,
            timestamp=timestamp,
            data_hash=_read_envelope(result_envelope).data_hash,
        )

    def generate_attestation(
        self,
        peer_identity: Identity,
        network: str,
        address: CrossNetworkAddress,
        args: Sequence[str],
        nonce: str,
        result_envelope: bytes,
        client_key: PublicKey | None,
        confidential: bool,
        timestamp: float,
    ) -> Attestation:
        metadata = self.build_metadata(
            peer_identity, network, address, args, nonce, result_envelope, timestamp
        )
        metadata_bytes = metadata.encode()
        signature = peer_identity.sign(metadata_bytes).to_bytes()
        attestation = Attestation(
            signature=signature,
            certificate=peer_identity.certificate.to_bytes(),
            peer_id=peer_identity.id,
            org=peer_identity.org,
        )
        if confidential:
            if client_key is None:
                raise ProofError("confidential attestations require the client key")
            attestation.metadata_cipher = _encrypt(client_key, metadata_bytes)
        else:
            attestation.metadata_plain = metadata_bytes
        return attestation

    # -- validation ------------------------------------------------------------

    def validate_bundle(
        self,
        bundle: ProofBundle,
        *,
        expected_network: str,
        expected_address: CrossNetworkAddress,
        expected_args: Sequence[str],
        expected_nonce: str,
        expected_data_hash: str,
        policy: VerificationPolicy,
        org_roots: Mapping[str, Certificate],
    ) -> list[Attester]:
        if not bundle.attestations:
            raise ProofError("proof bundle is empty")
        attesters: list[Attester] = []
        for position, attestation in enumerate(bundle.attestations):
            attesters.append(
                self._validate_attestation(
                    position,
                    attestation,
                    expected_network=expected_network,
                    expected_address=expected_address,
                    expected_args=expected_args,
                    expected_nonce=expected_nonce,
                    expected_data_hash=expected_data_hash,
                    org_roots=org_roots,
                )
            )
        if not policy.satisfied_by(attesters):
            raise ProofError(
                f"verification policy {policy.expression()} not satisfied by "
                f"attesters {sorted(attesters)}"
            )
        return attesters

    def _validate_attestation(
        self,
        position: int,
        attestation: SignedAttestation,
        *,
        expected_network: str,
        expected_address: CrossNetworkAddress,
        expected_args: Sequence[str],
        expected_nonce: str,
        expected_data_hash: str,
        org_roots: Mapping[str, Certificate],
    ) -> Attester:
        label = f"attestation[{position}]"
        try:
            certificate = attestation.decoded_certificate()
        except Exception as exc:
            raise ProofError(f"{label}: unparseable certificate: {exc}") from exc
        org_id = certificate.subject.organization
        root = org_roots.get(org_id)
        if root is None:
            raise ProofError(
                f"{label}: organization {org_id!r} is not in the recorded "
                f"configuration of network {expected_network!r}"
            )
        try:
            validate_chain(certificate, [root])
        except Exception as exc:
            raise ProofError(f"{label}: signer certificate not trusted: {exc}") from exc
        if certificate.subject.role != "peer":
            raise ProofError(
                f"{label}: signer role {certificate.subject.role!r} is not a peer"
            )
        try:
            metadata = attestation.metadata()
        except ProofError as exc:
            raise ProofError(f"{label}: unparseable metadata: {exc}") from exc
        if metadata.org != org_id:
            raise ProofError(
                f"{label}: metadata org {metadata.org!r} does not match "
                f"certificate org {org_id!r}"
            )
        check_attested_query(
            label,
            metadata,
            network=expected_network,
            address=expected_address,
            args=expected_args,
            nonce=expected_nonce,
        )
        try:
            data_hash = attested_data_hash(metadata)
        except ProofError as exc:
            raise ProofError(f"{label}: {exc}") from exc
        if data_hash != expected_data_hash:
            raise ProofError(
                f"{label}: attested data hash {data_hash} does not match the "
                f"transaction data hash {expected_data_hash}"
            )
        if not attestation.signed_by(certificate.public_key):
            raise ProofError(f"{label}: signature verification failed")
        return (metadata.org, metadata.peer_id)


def decrypt_attestation(
    attestation: Attestation,
    client_key: PrivateKey | None,
    key_memo: KeyMemo | None = None,
) -> SignedAttestation:
    """Client-side: decrypt one wire attestation into its signed plaintext.

    "Only the SWT-SC possesses a decryption key" (§4.3) — this is the step
    where the requesting client turns the exfiltration-proof wire form into
    the validatable plaintext form it submits on-ledger.
    """
    if attestation.metadata_cipher:
        if client_key is None:
            raise ProofError("attestation metadata is encrypted; private key required")
        try:
            metadata_bytes = ecies_decrypt(
                client_key, attestation.metadata_cipher, key_memo=key_memo
            )
        except DecryptionError as exc:
            raise ProofError(
                f"attestation metadata is corrupt or undecryptable: {exc}"
            ) from exc
    elif attestation.metadata_plain:
        metadata_bytes = attestation.metadata_plain
    else:
        raise ProofError("attestation carries no metadata")
    return SignedAttestation(
        metadata_bytes=metadata_bytes,
        signature=attestation.signature,
        certificate=attestation.certificate,
    )

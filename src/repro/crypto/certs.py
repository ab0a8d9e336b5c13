"""Simplified X.509-style certificates and certificate authorities.

Fabric MSPs identify members through CA-issued X.509 certificates; the
interop protocol records foreign networks' *root* certificates on the local
ledger and authenticates remote signers against them (§3.3, §4.3).

This module reproduces those semantics with a canonical-JSON certificate
encoding instead of ASN.1 DER: a certificate binds a subject (name, org,
role, network) to a P-256 public key, carries a validity window, and is
signed by its issuer. Chains validate up to a trusted, self-signed root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from repro.crypto.ecdsa import Signature, sign, verify
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, generate_keypair
from repro.errors import CertificateError
from repro.utils.encoding import canonical_json, from_canonical_json


@dataclass(frozen=True)
class Subject:
    """The identity a certificate attests to."""

    common_name: str
    organization: str
    role: str = "client"  # client | peer | orderer | admin | ca
    network: str = ""

    def to_dict(self) -> dict:
        return {
            "common_name": self.common_name,
            "organization": self.organization,
            "role": self.role,
            "network": self.network,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Subject":
        return cls(
            common_name=data["common_name"],
            organization=data["organization"],
            role=data.get("role", "client"),
            network=data.get("network", ""),
        )


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a :class:`Subject` to a public key."""

    subject: Subject
    issuer: Subject
    public_key: PublicKey
    serial: int
    not_before: float
    not_after: float
    signature: Signature = field(repr=False)

    # -- serialization ------------------------------------------------------

    def _tbs_dict(self) -> dict:
        """The to-be-signed portion, as a canonicalizable dict."""
        return {
            "subject": self.subject.to_dict(),
            "issuer": self.issuer.to_dict(),
            "public_key": self.public_key.to_bytes().hex(),
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
        }

    def tbs_bytes(self) -> bytes:
        return canonical_json(self._tbs_dict())

    def to_dict(self) -> dict:
        data = self._tbs_dict()
        data["signature"] = self.signature.to_bytes().hex()
        return data

    @cached_property
    def _encoded(self) -> bytes:
        return canonical_json(self.to_dict())

    def to_bytes(self) -> bytes:
        # One bytes object per certificate: every endorsement a peer makes
        # embeds its certificate, and the ledgers keep those for good.
        return self._encoded

    @classmethod
    def from_dict(cls, data: Mapping) -> "Certificate":
        try:
            return cls(
                subject=Subject.from_dict(data["subject"]),
                issuer=Subject.from_dict(data["issuer"]),
                public_key=PublicKey.from_bytes(bytes.fromhex(data["public_key"])),
                serial=int(data["serial"]),
                not_before=float(data["not_before"]),
                not_after=float(data["not_after"]),
                signature=Signature.from_bytes(bytes.fromhex(data["signature"])),
            )
        except (KeyError, ValueError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        try:
            decoded = from_canonical_json(data)
        except ValueError as exc:
            raise CertificateError(f"certificate is not valid JSON: {exc}") from exc
        return cls.from_dict(decoded)

    # -- semantics ----------------------------------------------------------

    @property
    def is_self_signed(self) -> bool:
        return self.subject == self.issuer

    def is_within_validity(self, at_time: float) -> bool:
        return self.not_before <= at_time <= self.not_after

    def verify_signed_by(self, issuer_key: PublicKey) -> bool:
        """Check this certificate's signature under ``issuer_key``."""
        return verify(issuer_key, self.tbs_bytes(), self.signature)


class CertificateAuthority:
    """Issues member certificates for one organization's MSP.

    The CA's own certificate is self-signed and acts as the trust root that
    gets recorded on foreign ledgers by the Configuration Management
    contract.
    """

    def __init__(
        self,
        organization: str,
        network: str = "",
        keypair: KeyPair | None = None,
        validity_seconds: float = 10 * 365 * 24 * 3600.0,
        now: float = 0.0,
    ) -> None:
        self.organization = organization
        self.network = network
        self._keypair = keypair or generate_keypair()
        self._next_serial = 1
        self._validity = validity_seconds
        self._now = now
        self._root_subject = Subject(
            common_name=f"ca.{organization}",
            organization=organization,
            role="ca",
            network=network,
        )
        self.root_certificate = self._issue(
            subject=self._root_subject,
            public_key=self._keypair.public,
        )

    @property
    def public_key(self) -> PublicKey:
        return self._keypair.public

    def _issue(self, subject: Subject, public_key: PublicKey) -> Certificate:
        serial = self._next_serial
        self._next_serial += 1
        tbs = Certificate(
            subject=subject,
            issuer=self._root_subject,
            public_key=public_key,
            serial=serial,
            not_before=self._now,
            not_after=self._now + self._validity,
            signature=Signature(1, 1),  # placeholder, replaced below
        )
        signature = sign(self._keypair.private, tbs.tbs_bytes())
        return Certificate(
            subject=tbs.subject,
            issuer=tbs.issuer,
            public_key=tbs.public_key,
            serial=tbs.serial,
            not_before=tbs.not_before,
            not_after=tbs.not_after,
            signature=signature,
        )

    def issue(
        self,
        common_name: str,
        public_key: PublicKey,
        role: str = "client",
    ) -> Certificate:
        """Issue a member certificate for ``common_name`` in this org."""
        subject = Subject(
            common_name=common_name,
            organization=self.organization,
            role=role,
            network=self.network,
        )
        return self._issue(subject, public_key)

    def enroll(self, common_name: str, role: str = "client") -> tuple[KeyPair, Certificate]:
        """Generate a key pair and issue a certificate for it in one step."""
        keypair = generate_keypair()
        return keypair, self.issue(common_name, keypair.public, role=role)


def validate_chain(
    certificate: Certificate,
    trusted_roots: Iterable[Certificate],
    at_time: float = 0.0,
) -> Certificate:
    """Validate ``certificate`` against a set of trusted self-signed roots.

    Returns the root that anchored trust. Raises :class:`CertificateError`
    when the certificate is expired, its issuer is unknown, or the issuer's
    signature does not verify. (Chains here are depth-2: root -> member,
    matching Fabric's common single-intermediate-free deployment.)
    """
    if not certificate.is_within_validity(at_time):
        raise CertificateError(
            f"certificate for {certificate.subject.common_name!r} is outside "
            f"its validity window at t={at_time}"
        )
    for root in trusted_roots:
        if not root.is_self_signed:
            raise CertificateError(
                f"trusted root for {root.subject.organization!r} is not self-signed"
            )
        if root.subject != certificate.issuer:
            continue
        if not certificate.verify_signed_by(root.public_key):
            raise CertificateError(
                f"certificate for {certificate.subject.common_name!r} carries "
                f"an invalid signature from {root.subject.common_name!r}"
            )
        return root
    raise CertificateError(
        f"no trusted root found for issuer {certificate.issuer.common_name!r}"
    )

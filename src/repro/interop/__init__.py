"""The paper's core contribution: trusted cross-network data transfer.

Components (paper §3):

- :class:`~repro.interop.relay.RelayService` — the per-network relay that
  serves applications' requests for authentic remote data (§3.2), with
  pluggable drivers and discovery, redundant-relay failover and DoS
  protection.
- :mod:`repro.interop.drivers` — network drivers translating the
  network-neutral protocol into calls on a concrete platform (Fabric,
  Corda-like, Quorum-like).
- :mod:`repro.interop.contracts` — the system contracts: Exposure Control
  (ECC) and Configuration Management & Data Acceptance (CMDAC).
- :class:`~repro.interop.client.InteropClient` — the application-facing
  API: remote query, response decryption, proof unmarshalling.
- :mod:`repro.interop.policy` — verification-policy algebra.
- :mod:`repro.interop.proofs` — attestation-based proof assembly and
  validation (pluggable proof schemes).
- :mod:`repro.testing` — the threat-model harness used by the security
  evaluation (malicious relays, byzantine peers, replay, DoS) plus the
  seeded fault-injection and cross-driver conformance machinery.
"""

from repro.interop.policy import VerificationPolicy, parse_verification_policy
from repro.interop.proofs import (
    AttestationProofScheme,
    ProofBundle,
    ProofScheme,
    SignedAttestation,
)
from repro.interop.discovery import (
    DiscoveryService,
    FileRegistry,
    InMemoryRegistry,
)
from repro.interop.relay import (
    RateLimiter,
    RateLimitInterceptor,
    RelayContext,
    RelayService,
)
from repro.interop.client import InteropClient, PreparedQuery, RemoteQueryResult
from repro.interop.bootstrap import (
    create_fabric_relay,
    create_interop_gateway,
    enable_fabric_interop,
    link_networks,
)

__all__ = [
    "VerificationPolicy",
    "parse_verification_policy",
    "ProofScheme",
    "AttestationProofScheme",
    "ProofBundle",
    "SignedAttestation",
    "DiscoveryService",
    "InMemoryRegistry",
    "FileRegistry",
    "RelayService",
    "RateLimiter",
    "RateLimitInterceptor",
    "RelayContext",
    "InteropClient",
    "PreparedQuery",
    "RemoteQueryResult",
    "enable_fabric_interop",
    "create_fabric_relay",
    "create_interop_gateway",
    "link_networks",
]

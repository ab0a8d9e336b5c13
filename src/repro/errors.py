"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class. Sub-hierarchies mirror the package
layout: crypto, wire/proto, ledger substrates, and the interoperability
layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidSignatureError(CryptoError):
    """A digital signature failed verification."""


class InvalidKeyError(CryptoError):
    """A key is malformed, off-curve, or otherwise unusable."""


class DecryptionError(CryptoError):
    """Ciphertext could not be authenticated or decrypted."""


class CertificateError(CryptoError):
    """A certificate is malformed, expired, or not trusted."""


# ---------------------------------------------------------------------------
# Wire / protocol
# ---------------------------------------------------------------------------


class WireError(ReproError):
    """Base class for wire-format (serialization) failures."""


class EncodeError(WireError):
    """A message could not be serialized."""


class DecodeError(WireError):
    """A byte stream could not be parsed into a message."""


class ProtocolError(ReproError):
    """A relay protocol message violated the protocol contract."""


class AddressError(ProtocolError):
    """A cross-network address string is malformed."""


# ---------------------------------------------------------------------------
# Ledger substrates (Fabric / Corda / Quorum simulators)
# ---------------------------------------------------------------------------


class LedgerError(ReproError):
    """Base class for ledger-substrate failures."""


class ChaincodeError(LedgerError):
    """A chaincode (smart contract) invocation failed."""


class EndorsementError(LedgerError):
    """A transaction failed to gather a valid set of endorsements."""


class EndorsementPolicyError(LedgerError):
    """An endorsement policy expression is invalid or unsatisfiable."""

class ValidationError(LedgerError):
    """A transaction failed commit-time validation (e.g. MVCC conflict)."""


class OrderingError(LedgerError):
    """The ordering service could not order a transaction."""


class MembershipError(LedgerError):
    """An identity is not a member of the required organization/network."""


class StateError(LedgerError):
    """World-state access failed (missing key, bad composite key, ...)."""


class NotaryError(LedgerError):
    """A Corda-style notary rejected a transaction (e.g. double spend)."""


class EVMError(LedgerError):
    """A Quorum-style contract execution failed."""


# ---------------------------------------------------------------------------
# Interoperability layer
# ---------------------------------------------------------------------------


class InteropError(ReproError):
    """Base class for interoperability-layer failures."""


class RelayError(InteropError):
    """A relay could not serve a request."""


class RelayUnavailableError(RelayError):
    """No relay for the target network is reachable."""


class DiscoveryError(InteropError):
    """Network discovery/lookup failed."""


class DriverError(InteropError):
    """A network driver could not translate or execute a request."""


class UnsupportedCapabilityError(DriverError, RelayError):
    """A verb was routed at a driver/relay that does not support it.

    The capability gate *fails closed*: a network that has not opted into
    transactions, events, or asset exchange answers with this typed error
    rather than guessing. Subclasses both :class:`DriverError` (the local,
    driver-side raise) and :class:`RelayError` (the client-side raise when
    the refusal travels back as a capability-marked error envelope), so
    existing handlers for either family keep working.
    """


class AccessDeniedError(InteropError):
    """The source network's exposure-control policy denied the request."""


class ProofError(InteropError):
    """A proof is malformed or fails verification-policy validation."""


class PolicyError(InteropError):
    """A verification policy is malformed or cannot be satisfied."""


class ConfigurationError(InteropError):
    """Foreign-network configuration is missing or inconsistent."""


class ReplayError(InteropError):
    """A proof/nonce was already consumed (replay attack detected)."""


class DoSError(RelayError):
    """A relay shed load due to rate limiting (availability protection)."""


# ---------------------------------------------------------------------------
# Durable state (repro.store)
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """A durable state-store operation failed."""


class StoreCorruptionError(StoreError):
    """Persisted state cannot be opened: the database file is not a
    readable sqlite database, or the directory is in the old
    write-ahead-log layout with records still in ``state.wal``."""


# ---------------------------------------------------------------------------
# Asset exchange (HTLC subsystem)
# ---------------------------------------------------------------------------


class AssetError(InteropError):
    """An asset operation (lock/claim/unlock/status) failed."""


class ExchangeStateError(AssetError):
    """An exchange step was attempted from an incompatible state."""


# ---------------------------------------------------------------------------
# Probabilistic finality (repro.pubchain)
# ---------------------------------------------------------------------------


class FinalityError(InteropError):
    """A record cannot (yet) be treated as final on a probabilistic chain.

    Raised by the verification side of the public-chain driver, never by
    the ledger itself: a transaction can be *included* at any depth, but
    the :class:`repro.pubchain.FinalityPolicy` decides when its effects
    are trustworthy enough to attest across networks.
    """


class FinalityPendingError(FinalityError):
    """The record is on the canonical chain but below the required
    confirmation depth — *pending*, not verified. Retry after more blocks
    accumulate; nothing is wrong with the record itself."""


class ReorgDetectedError(FinalityError):
    """A chain reorganization orphaned a record this query depends on.

    The state previously observable (e.g. an HTLC lock) is no longer on
    the canonical chain and has not been re-included — the caller must
    re-verify from scratch rather than act on stale observations."""

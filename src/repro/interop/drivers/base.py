"""Driver interface: network-neutral protocol -> platform calls.

:class:`NetworkDriver` runs the one procedure every platform shares for
a query or a transaction (§3.3 steps 5-7): decode the address, select
the attesters the verification policy asks for, gate the request,
collect one attested reply per attester, and answer. What a new
platform implements is the part that really differs:

- ``_attester_pool()``: the ``(org, id)`` pairs that may attest;
- ``_read(attester_id, address, query)``: one attester's identity, the
  plaintext it reads, and what the read depended on; a
  :class:`~repro.errors.ReproError` is that attester's read failure;
- ``_noun``: how a refusal names one attester (``"peer"``, ``"node"``);

and, where the platform needs it:

- ``_ledger``: the one ledger name it serves, when it names one;
- ``_lookup(address, verb)``: refuse what it serves nothing at, before
  the policy is read;
- ``_gate(auth, address, verb)``: the access gate (default: the
  platform's :class:`~repro.interop.contracts.ports.InteropPort`);
- ``_check_read(address, evidence)``: a check on the first read;
- ``_peer_reply(...)``: one attester's sealed reply, for a platform whose
  peers seal and attest by themselves;
- ``_submit(address, query)`` and ``_committed_at(attester_id, tx_id)``:
  the transaction capability.

A hook refuses a request by raising :class:`_Refusal`; the template
turns it into the one reply.
"""

from __future__ import annotations

import logging
from abc import ABC
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import (
    AccessDeniedError,
    AddressError,
    PolicyError,
    ReproError,
    UnsupportedCapabilityError,
)
from repro.interop.policy import Attester, attesters_for
from repro.interop.proofs import AttestationProofScheme, attest_reply
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import (
    PROTOCOL_VERSION,
    STATUS_ACCESS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    Attestation,
    AuthInfo,
    EventSubscribeRequest,
    NetworkQuery,
    QueryResponse,
)
from repro.utils.clock import Clock, SystemClock
from repro.utils.encoding import canonical_json

if TYPE_CHECKING:
    from repro.fabric.identity import Identity
    from repro.interop.contracts.ports import InteropPort

_logger = logging.getLogger("repro.driver")


class _Refusal(Exception):
    """A hook declining a request: the reply's status and its text."""

    def __init__(self, text: str, status: int = STATUS_ERROR) -> None:
        super().__init__(text)
        self.status = status


class NetworkDriver(ABC):
    """Translates :class:`NetworkQuery` into calls on one concrete network.

    A driver runs *inside* the source network's trust domain (it is part of
    the relay deployment) but holds no signing keys of its own: proofs come
    from peers, so a compromised driver can deny service but cannot forge
    consensus-backed data.
    """

    platform: str = ""

    #: Upper bound on concurrent in-flight queries when serving a batch.
    #: Drivers fronting networks whose client stack is not thread-safe can
    #: set this to 1 to force sequential execution.
    batch_concurrency: int = 4

    #: Capability flags — the relay routes transact/subscribe/asset
    #: envelopes only to drivers that declare support (§2 lists query,
    #: transact, and publish/subscribe as the three interoperability
    #: primitives; hash-time-locked asset exchange is the §6 extension).
    supports_transactions: bool = False
    supports_events: bool = False
    supports_assets: bool = False

    #: How refusal texts name one attester.
    _noun = "peer"
    #: The one ledger a query may name; ``None`` serves any ledger name.
    _ledger: str | None = None
    #: The refusal of a transaction on a driver without the capability.
    _no_transactions = "driver for network {!r} does not support cross-network transactions"
    #: The default access gate: the platform's exposure rules.
    _port: InteropPort | None = None

    def __init__(self, network_id: str, clock: Clock | None = None) -> None:
        self.network_id = network_id
        self._clock = clock or SystemClock()
        self._scheme = AttestationProofScheme()
        self._asset_port = None

    # -- the query and transaction templates -------------------------------------

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        """Orchestrate proof collection for one query (§3.3 steps 5-7)."""
        address_msg = query.address
        if _logger.isEnabledFor(logging.DEBUG):
            _logger.debug(
                "driver executing query",
                extra={
                    "network_id": self.network_id,
                    "contract": address_msg.contract if address_msg else "",
                    "function": address_msg.function if address_msg else "",
                    "nonce": query.nonce,
                },
            )
        try:
            ledger = address_msg.ledger if address_msg else ""
            if self._ledger is not None and ledger != self._ledger:
                raise _Refusal(f"network {self.network_id!r} has no ledger {ledger!r}")
            address = self._address(query, "query")
            attestations: list[Attestation] = []
            envelope = b""
            for _org, attester_id in self._admit(query, address, "query"):
                sealed, attestation = self._peer_reply(
                    attester_id, address, query, not attestations
                )
                attestations.append(attestation)
                envelope = envelope or sealed
        except _Refusal as refusal:
            return self._error(query, str(refusal), refusal.status)
        return self._attested(query, attestations, envelope)

    def execute_transaction(self, query: NetworkQuery) -> QueryResponse:
        """Run one request through the network's commit pipeline (§5).

        The attesters are chosen first, so a policy no attester can satisfy
        is refused before anything commits. The request passes the same
        gate as a query, then the platform submits it; each attester
        confirms the transaction is in *its* own history before signing
        over the committed outcome (result, tx id, block number,
        validation code). The first attester seals the outcome; the rest
        attest the same envelope.
        """
        try:
            if not self.supports_transactions:
                raise _Refusal(self._no_transactions.format(self.network_id))
            address = self._address(query, "transaction request")
            selection = self._admit(query, address, "transaction")
            try:
                result, tx_id, block_number, validation_code = self._submit(address, query)
            except ReproError as exc:
                raise _Refusal(f"source transaction failed: {exc}") from exc
            outcome = canonical_json(
                {
                    "result": result.hex(),
                    "tx_id": tx_id,
                    "block_number": block_number,
                    "validation_code": validation_code,
                }
            )
            attestations: list[Attestation] = []
            envelope = b""
            for _org, attester_id in selection:
                identity = self._committed_at(attester_id, tx_id)
                envelope, attestation = attest_reply(
                    self._scheme,
                    identity,
                    self.network_id,
                    address,
                    query,
                    outcome,
                    self._clock.now(),
                    envelope,
                )
                attestations.append(attestation)
        except _Refusal as refusal:
            return self._error(query, str(refusal), refusal.status)
        return self._attested(query, attestations, envelope)

    def _address(self, query: NetworkQuery, noun: str) -> CrossNetworkAddress:
        if query.address is None:
            raise _Refusal(f"{noun} has no address")
        try:
            return CrossNetworkAddress.from_msg(query.address)
        except AddressError as exc:
            raise _Refusal(f"{noun} has an invalid address: {exc}") from exc

    def _admit(
        self, query: NetworkQuery, address: CrossNetworkAddress, verb: str
    ) -> list[Attester]:
        """Lookup, then the policy's attesters, then the gate."""
        self._lookup(address, verb)
        try:
            selection = attesters_for(query.policy, self._attester_pool(), self.network_id)
        except PolicyError as exc:
            raise _Refusal(str(exc)) from exc
        try:
            self._gate(query.auth, address, verb)
        except AccessDeniedError as exc:
            raise _Refusal(str(exc), STATUS_ACCESS_DENIED) from exc
        except ReproError as exc:
            raise _Refusal(str(exc)) from exc
        return selection

    def _peer_reply(
        self, attester_id: str, address: CrossNetworkAddress, query: NetworkQuery, first: bool
    ) -> tuple[bytes, Attestation]:
        """One attester's reply: read, check the first read, seal and attest."""
        try:
            identity, plaintext, evidence = self._read(attester_id, address, query)
        except ReproError as exc:
            raise _Refusal(f"{self._noun} {attester_id!r} query failed: {exc}") from exc
        if first:
            self._check_read(address, evidence)
        return attest_reply(
            self._scheme,
            identity,
            self.network_id,
            address,
            query,
            plaintext,
            self._clock.now(),
        )

    # -- platform hooks -----------------------------------------------------------

    def _attester_pool(self) -> list[Attester]:
        """Every ``(org, id)`` that may attest on this network."""
        raise NotImplementedError

    def _lookup(self, address: CrossNetworkAddress, verb: str) -> None:
        """Refuse an address this network serves nothing at."""

    def _gate(self, auth: AuthInfo | None, address: CrossNetworkAddress, verb: str) -> None:
        """Raise :class:`AccessDeniedError` unless ``auth`` may run ``address``."""
        if self._port is None:
            raise AccessDeniedError(f"driver for network {self.network_id!r} has no access gate")
        self._port.check_access(auth, address.contract, address.function)

    def _read(
        self, attester_id: str, address: CrossNetworkAddress, query: NetworkQuery
    ) -> tuple[Identity, bytes, Any]:
        """The attester's identity, the plaintext it reads, and what the read depended on."""
        raise NotImplementedError

    def _check_read(self, address: CrossNetworkAddress, evidence: Any) -> None:
        """Refuse a first read the platform does not stand behind."""

    def _submit(
        self, address: CrossNetworkAddress, query: NetworkQuery
    ) -> tuple[bytes, str, int, str]:
        """Commit one request: ``(result, tx id, block number, validation code)``."""
        raise NotImplementedError

    def _committed_at(self, attester_id: str, tx_id: str) -> Identity:
        """The attester's identity, once its own history holds ``tx_id``."""
        raise NotImplementedError

    # -- transaction capability ---------------------------------------------------

    def execute_transaction_batch(
        self, queries: Sequence[NetworkQuery]
    ) -> list[QueryResponse]:
        """Serve a batch of transactions with partial-failure semantics.

        Unlike :meth:`execute_batch`, members run *sequentially*: commit
        ordering within one envelope is part of the contract (a batch of
        transactions replays deterministically), and concurrent submission
        would race MVCC validation for overlapping keys.
        """
        return [self._execute_transaction_guarded(query) for query in queries]

    def _execute_transaction_guarded(self, query: NetworkQuery) -> QueryResponse:
        if _logger.isEnabledFor(logging.DEBUG):
            _logger.debug(
                "driver executing transaction",
                extra={"network_id": self.network_id, "nonce": query.nonce},
            )
        try:
            return self.execute_transaction(query)
        except Exception as exc:  # noqa: BLE001 - a batch member must not escape
            return self._error(query, f"driver failed to execute the transaction: {exc}")

    # -- event capability ---------------------------------------------------------

    def open_event_tap(
        self,
        request: EventSubscribeRequest,
        listener: Callable[..., None],
    ) -> object:
        """Tap the network's event hub for one remote subscription.

        ``listener`` is called with a
        :class:`repro.interop.events.RemoteEventNotification` for each
        matching committed event. Returns an opaque tap handle for
        :meth:`close_event_tap`. Raises :class:`AccessDeniedError` when the
        source network's exposure control denies the subscription, and
        :class:`UnsupportedCapabilityError` when the driver has no event
        capability.
        """
        raise UnsupportedCapabilityError(
            f"driver for network {self.network_id!r} does not support "
            f"event subscriptions"
        )

    def close_event_tap(self, tap: object) -> None:
        """Deactivate a tap returned by :meth:`open_event_tap`."""

    # -- asset capability ---------------------------------------------------------

    def attach_asset_port(self, port) -> None:
        """Grant the asset capability by attaching an
        :class:`repro.assets.ports.AssetLedgerPort` for this driver's
        network; the relay then routes ``MSG_KIND_ASSET_*`` envelopes here.
        """
        self._asset_port = port
        self.supports_assets = True

    @property
    def asset_port(self):
        port = self._asset_port
        if port is None:
            raise UnsupportedCapabilityError(
                f"driver for network {self.network_id!r} does not support "
                f"asset operations (no asset ledger port attached)"
            )
        return port

    def lock_asset(self, command):
        """Escrow an asset under a hashlock + timelock (HTLC lock)."""
        return self.asset_port.lock_asset(command)

    def claim_asset(self, command):
        """Transfer a locked asset by revealing the preimage."""
        return self.asset_port.claim_asset(command)

    def unlock_asset(self, command):
        """Refund an expired lock back to the asset's owner."""
        return self.asset_port.unlock_asset(command)

    def asset_status(self, command):
        """Read an asset's current (unproven) lock record."""
        return self.asset_port.asset_status(command)

    def execute_batch(self, queries: Sequence[NetworkQuery]) -> list[QueryResponse]:
        """Serve every query of a batch, fanning across the driver.

        Partial-failure semantics: a member that raises is answered with a
        ``STATUS_ERROR`` response in its slot; the remaining members are
        unaffected. Responses are positional (``result[i]`` answers
        ``queries[i]``).
        """
        queries = list(queries)
        if not queries:
            return []
        workers = min(self.batch_concurrency, len(queries))
        if workers <= 1:
            return [self._execute_guarded(query) for query in queries]
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"driver-{self.network_id}"
        ) as executor:
            return list(executor.map(self._execute_guarded, queries))

    def _execute_guarded(self, query: NetworkQuery) -> QueryResponse:
        try:
            return self.execute_query(query)
        except Exception as exc:  # noqa: BLE001 - a batch member must not escape
            return self._error(query, f"driver failed to execute the query: {exc}")

    # -- shared reply helpers ---------------------------------------------------

    def _attested(
        self, query: NetworkQuery, attestations: list[Attestation], envelope: bytes
    ) -> QueryResponse:
        """The OK reply: the attestations and the one result envelope."""
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

    def _error(
        self, query: NetworkQuery, message: str, status: int = STATUS_ERROR
    ) -> QueryResponse:
        """A non-OK reply: ``STATUS_ERROR`` unless ``status`` says otherwise."""
        return QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=status,
            error=message,
        )

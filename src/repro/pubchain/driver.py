"""Public-chain driver: proof generation gated by a finality policy.

Query orchestration mirrors :class:`repro.interop.drivers.QuorumDriver` —
policy-selected observers evaluate the view, seal the result, and sign
attestations — with one addition unique to probabilistic chains: before a
single attestation is produced, the driver assesses the finality of every
ledger key the view read.

- A read key whose latest write was **orphaned by a reorg** answers
  ``STATUS_REORG`` (typed client-side as
  :class:`repro.errors.ReorgDetectedError`): the observed state is gone
  from the canonical chain and must be re-verified from scratch.
- A canonical write below the policy's confirmation depth K answers
  ``STATUS_PENDING_FINALITY`` (:class:`repro.errors.FinalityPendingError`):
  the record is *pending*, not verified — retry after more blocks.

Either way the chain never attests state it would not stand behind;
"pending" and "reorged" are first-class protocol outcomes, not errors
hidden in free text.

Capability surface: query/batch (always) and the HTLC asset verbs (after
:meth:`PubChainDriver.enable_assets`). Cross-network transactions and
event subscriptions fail closed with
:class:`repro.errors.UnsupportedCapabilityError` — a public chain does not
give a foreign relay a commit pipeline or an ordered event hub for free.
"""

from __future__ import annotations

from repro.errors import AccessDeniedError, PolicyError, ReproError
from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.base import NetworkDriver
from repro.interop.policy import attesters_for
from repro.interop.proofs import AttestationProofScheme, attest_reply
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import (
    PROTOCOL_VERSION,
    STATUS_PENDING_FINALITY,
    STATUS_REORG,
    Attestation,
    NetworkQuery,
    QueryResponse,
)
from repro.pubchain.chain import SimulatedPublicChain
from repro.pubchain.finality import VERB_ASSETS, VERB_QUERY, FinalityPolicy


class PubChainDriver(NetworkDriver):
    """Drives queries against an in-process :class:`SimulatedPublicChain`."""

    platform = "pubchain"

    def __init__(
        self,
        chain: SimulatedPublicChain,
        port: InteropPort,
        finality: FinalityPolicy | None = None,
    ) -> None:
        super().__init__(chain.name)
        self._chain = chain
        self._port = port
        self._finality = finality or FinalityPolicy()
        self._scheme = AttestationProofScheme()
        self._asset_contract = ""

    @property
    def finality(self) -> FinalityPolicy:
        return self._finality

    def enable_assets(self, invoker, contract: str | None = None) -> None:
        """Grant the asset capability: HTLC commands submit under ``invoker``.

        The vault contract is the shared
        :class:`repro.assets.contracts.QuorumAssetContract` (the chain
        reuses Quorum's contract machinery); the attached port enforces
        the same finality policy on its side-effecting verbs, so a claim
        can never ride on a pending or reorged-out lock.
        """
        from repro.assets.contracts import QUORUM_ASSET_CONTRACT
        from repro.assets.ports import PubChainAssetLedgerPort

        contract = contract or QUORUM_ASSET_CONTRACT
        self._asset_contract = contract
        self.attach_asset_port(
            PubChainAssetLedgerPort(
                self._chain, self._port, invoker, contract, self._finality
            )
        )

    def _verb_class(self, address: CrossNetworkAddress) -> str:
        if self._asset_contract and address.contract == self._asset_contract:
            return VERB_ASSETS
        return VERB_QUERY

    def _finality_problem(
        self, query: NetworkQuery, address: CrossNetworkAddress, read_keys
    ) -> QueryResponse | None:
        """The typed non-OK response finality demands, or ``None`` if final."""
        reorged = self._chain.reorged_keys(address.contract, read_keys)
        if reorged:
            culprits = ", ".join(
                f"{key!r} (tx {tx_id})" for key, tx_id in sorted(reorged.items())
            )
            return QueryResponse(
                version=PROTOCOL_VERSION,
                nonce=query.nonce,
                status=STATUS_REORG,
                error=(
                    f"chain reorg on {self.network_id!r} orphaned the latest "
                    f"write of {culprits}; re-verify before acting"
                ),
            )
        depth = self._chain.confirmation_depth(address.contract, read_keys)
        required = self._finality.required(self._verb_class(address))
        if depth is not None and depth < required:
            return QueryResponse(
                version=PROTOCOL_VERSION,
                nonce=query.nonce,
                status=STATUS_PENDING_FINALITY,
                error=(
                    f"record on {self.network_id!r} has {depth} of {required} "
                    f"required confirmation(s); pending, not verified"
                ),
            )
        return None

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        address_msg = query.address
        if address_msg is None:
            return self._error(query, "query has no address")
        address = CrossNetworkAddress(
            network=address_msg.network,
            ledger=address_msg.ledger,
            contract=address_msg.contract,
            function=address_msg.function,
        )
        available = [(identity.org, identity.id) for identity in self._chain.observers]
        try:
            selection = attesters_for(query.policy, available, self.network_id)
        except PolicyError as exc:
            return self._error(query, str(exc))

        try:
            self._port.check_access(query.auth, address.contract, address.function)
        except AccessDeniedError as exc:
            return self._denied(query, str(exc))

        attestations: list[Attestation] = []
        result_envelope = b""
        finality_checked = False
        for _org, observer_id in selection:
            observer = self._chain.observer(observer_id)
            try:
                plaintext, read_keys = self._chain.view(
                    observer, address.contract, address.function, list(query.args)
                )
            except ReproError as exc:
                return self._error(
                    query, f"observer {observer_id!r} query failed: {exc}"
                )
            if not finality_checked:
                # One assessment covers the whole selection: every observer
                # serves the same canonical state under the chain lock.
                problem = self._finality_problem(query, address, read_keys)
                if problem is not None:
                    return problem
                finality_checked = True
            envelope, attestation = attest_reply(
                self._scheme,
                observer,
                self.network_id,
                address,
                query,
                plaintext,
                self._chain.clock.now(),
            )
            attestations.append(attestation)
            result_envelope = result_envelope or envelope

        return self._attested(query, attestations, result_envelope)

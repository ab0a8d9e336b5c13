"""Public-chain driver: proof generation gated by a finality policy.

Queries run :class:`repro.interop.drivers.NetworkDriver`'s one query
procedure — policy-selected observers evaluate the view, seal the result,
and sign attestations — with one addition unique to probabilistic chains:
before a single attestation is produced, the driver assesses the finality
of every ledger key the first view read.

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

from repro.interop.contracts.ports import InteropPort
from repro.interop.drivers.base import NetworkDriver, _Refusal
from repro.interop.policy import Attester
from repro.proto.address import CrossNetworkAddress
from repro.proto.messages import STATUS_PENDING_FINALITY, STATUS_REORG, NetworkQuery
from repro.pubchain.chain import SimulatedPublicChain
from repro.pubchain.finality import VERB_ASSETS, VERB_QUERY, FinalityPolicy


class PubChainDriver(NetworkDriver):
    """Drives queries against an in-process :class:`SimulatedPublicChain`."""

    platform = "pubchain"
    _noun = "observer"

    def __init__(
        self,
        chain: SimulatedPublicChain,
        port: InteropPort,
        finality: FinalityPolicy | None = None,
    ) -> None:
        super().__init__(chain.name, chain.clock)
        self._chain = chain
        self._port = port
        self._finality = finality or FinalityPolicy()
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

    def _attester_pool(self) -> list[Attester]:
        return [(identity.org, identity.id) for identity in self._chain.observers]

    def _read(self, observer_id: str, address: CrossNetworkAddress, query: NetworkQuery):
        observer = self._chain.observer(observer_id)
        plaintext, read_keys = self._chain.view(
            observer, address.contract, address.function, list(query.args)
        )
        return observer, plaintext, read_keys

    def _check_read(self, address: CrossNetworkAddress, read_keys) -> None:
        """Refuse a read that is not final.

        One assessment covers the whole selection: every observer serves
        the same canonical state under the chain lock.
        """
        reorged = self._chain.reorged_keys(address.contract, read_keys)
        if reorged:
            culprits = ", ".join(
                f"{key!r} (tx {tx_id})" for key, tx_id in sorted(reorged.items())
            )
            raise _Refusal(
                f"chain reorg on {self.network_id!r} orphaned the latest "
                f"write of {culprits}; re-verify before acting",
                STATUS_REORG,
            )
        depth = self._chain.confirmation_depth(address.contract, read_keys)
        required = self._finality.required(self._verb_class(address))
        if depth is not None and depth < required:
            raise _Refusal(
                f"record on {self.network_id!r} has {depth} of {required} "
                f"required confirmation(s); pending, not verified",
                STATUS_PENDING_FINALITY,
            )

"""repro.assets: cross-network atomic asset exchange (HTLC subsystem).

The paper's relay architecture deliberately stops at trusted *data*
transfer and names asset transfer as the next step (§6). This package is
that step: atomic exchange between heterogeneous networks — two parties
or an N-party ring — via hash-time-locked contracts, riding the existing
relay envelope protocol: discovery, failover, interceptors, and the proof
plane all unchanged.

- :mod:`repro.assets.htlc` — the platform-neutral vault state machine
  (lock/claim/refund with strictly disjoint claim and refund windows).
- :mod:`repro.assets.contracts` — the vault hosted as Fabric chaincode
  and as a Quorum contract, exposing one function surface.
- :mod:`repro.assets.ports` — :class:`AssetLedgerPort`, the driver
  capability behind ``supports_assets``; commands are ECC-gated and
  submitted under a designated local invoker, like §5 transactions.
- :mod:`repro.assets.cycles` — :class:`CycleCoordinator`, the one HTLC
  state machine: an A→B→C→…→A ring of escrows under one hashlock, with
  per-hop decremented timelocks, proof-verification before every
  irreversible step, and journaled crash recovery.
- :mod:`repro.assets.coordinator` — :class:`AssetExchangeCoordinator`,
  the two-party view of that engine: an exchange is the N=2 ring, and
  the view names its steps lock → proof-verify → counter-lock →
  proof-verify → claim → claim and derives :class:`ExchangeState` from
  the ring's state.
- :mod:`repro.assets.metrics` — :class:`ExchangeMetrics`, the shared
  lock-guarded counters the engine reports into under ``kind="cycle"``
  or ``kind="exchange"`` (exported as the ``repro_assets_*`` Prometheus
  families by ``repro.ops``).

Applications reach it through ``gateway.exchange()`` and
``gateway.exchange_cycle()`` (see :class:`repro.api.ExchangeBuilder` /
:class:`repro.api.CycleBuilder`).
"""

from repro.assets.contracts import (
    CORDA_ASSET_CONTRACT,
    FABRIC_ASSET_CHAINCODE,
    QUORUM_ASSET_CONTRACT,
    FabricAssetChaincode,
    QuorumAssetContract,
    issue_corda_asset,
    register_corda_asset_contract,
)
from repro.assets.coordinator import (
    AssetExchangeCoordinator,
    AssetSpec,
    ExchangeResult,
    ExchangeState,
)
from repro.assets.cycles import CycleCoordinator, CycleResult, CycleState
from repro.assets.htlc import (
    STATE_AVAILABLE,
    STATE_CLAIMED,
    STATE_LOCKED,
    STATE_REFUNDED,
    HtlcVault,
    make_hashlock,
    new_preimage,
)
from repro.assets.metrics import ExchangeMetrics
from repro.assets.ports import (
    AssetLedgerPort,
    CordaAssetLedgerPort,
    FabricAssetLedgerPort,
    PubChainAssetLedgerPort,
    QuorumAssetLedgerPort,
)

__all__ = [
    "AssetExchangeCoordinator",
    "AssetLedgerPort",
    "AssetSpec",
    "CordaAssetLedgerPort",
    "CORDA_ASSET_CONTRACT",
    "CycleCoordinator",
    "CycleResult",
    "CycleState",
    "ExchangeMetrics",
    "ExchangeResult",
    "ExchangeState",
    "FabricAssetChaincode",
    "FabricAssetLedgerPort",
    "FABRIC_ASSET_CHAINCODE",
    "HtlcVault",
    "PubChainAssetLedgerPort",
    "QuorumAssetContract",
    "QuorumAssetLedgerPort",
    "QUORUM_ASSET_CONTRACT",
    "STATE_AVAILABLE",
    "STATE_CLAIMED",
    "STATE_LOCKED",
    "STATE_REFUNDED",
    "issue_corda_asset",
    "make_hashlock",
    "new_preimage",
    "register_corda_asset_contract",
]

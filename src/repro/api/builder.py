"""The fluent request builders.

One builder describes one cross-network request, a query or a
transaction::

    gateway.query("stl/trade-logistics/TradeLensCC/GetBillOfLading") \\
        .with_args("PO-1") \\
        .with_policy("AND(org:seller-org, org:carrier-org)") \\
        .confidential() \\
        .submit()            # -> QueryHandle, pipelined with its QuerySet

    gateway.transact("stl/trade-logistics/TradeLensCC/CreateShipment") \\
        .with_args("PO-2", "goods") \\
        .submit()            # -> QueryHandle, same set, same pipeline

``submit()`` enqueues the request into the builder's set (the session's
ambient set, unless the builder came from an explicit ``batch()`` set)
and returns a future-style handle; ``execute()`` bypasses batching and
runs the request immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.batch import QueryHandle, QuerySpec
from repro.interop.client import (
    InteropClient,
    RemoteQueryResult,
    RemoteTransactionResult,
)
from repro.proto.messages import INVOCATION_QUERY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.batch import QuerySet


class QueryBuilder:
    """Accumulates one request's parameters; immutable-feeling fluent API.

    ``invocation`` is the wire's verb, fixed when the builder is made
    (``gateway.query`` or ``gateway.transact``). Every mutator returns
    ``self``, so calls chain; a builder can be submitted or executed once
    per configuration (re-submitting enqueues a fresh copy of the current
    spec).
    """

    def __init__(
        self,
        client: InteropClient,
        address: str,
        queryset: "QuerySet | None" = None,
        invocation: str = INVOCATION_QUERY,
    ) -> None:
        self._client = client
        self._queryset = queryset
        self._address = address
        self._invocation = invocation
        self._args: list[str] = []
        self._policy: str | None = None
        self._confidential = True

    # -- fluent mutators ----------------------------------------------------------

    def with_args(self, *args: str) -> "QueryBuilder":
        """Set the remote function's arguments (replaces prior args)."""
        self._args = [str(arg) for arg in args]
        return self

    def with_policy(self, expression: str) -> "QueryBuilder":
        """Pin an explicit verification policy instead of the CMDAC's."""
        self._policy = expression
        return self

    def confidential(self, flag: bool = True) -> "QueryBuilder":
        """Request end-to-end encryption of result and proof (default)."""
        self._confidential = flag
        return self

    def plain(self) -> "QueryBuilder":
        """Disable confidentiality (results travel unencrypted)."""
        return self.confidential(False)

    # -- terminal operations ------------------------------------------------------

    def build(self) -> QuerySpec:
        """The spec this builder currently describes."""
        return QuerySpec(
            address=self._address,
            args=list(self._args),
            policy=self._policy,
            confidential=self._confidential,
            invocation=self._invocation,
        )

    def submit(self) -> QueryHandle:
        """Enqueue into the bound set; returns a pipelined handle."""
        if self._queryset is None:
            raise RuntimeError(
                "this builder is not bound to a QuerySet; create it via "
                "gateway.query(...) / gateway.transact(...) or "
                "queryset.query(...) / queryset.transact(...)"
            )
        return self._queryset.add(self.build())

    def execute(self) -> RemoteQueryResult | RemoteTransactionResult:
        """Run the request immediately (no batching), returning its result.

        A transaction travels alone in a ``MSG_KIND_TRANSACT_REQUEST``
        envelope; its result's attestations cover the committed
        transaction id and block.
        """
        spec = self.build()
        return self._client.remote_query(
            spec.address,
            spec.args,
            policy=spec.policy,
            confidential=spec.confidential,
            invocation=spec.invocation,
        )


#: The transaction builder is the one request builder, made with the
#: transaction invocation by ``transact(...)``.
TransactionBuilder = QueryBuilder


class ExchangeBuilder:
    """Fluent description of one cross-network atomic asset exchange.

    Assembles an :class:`repro.assets.AssetExchangeCoordinator`::

        exchange = (
            gateway.exchange()
            .offer("fabnet/trade/assetscc", "GOLD-1")       # my asset
            .ask("quornet/state/asset-vault", "OIL-9")      # their asset
            .with_counterparty(their_client)
            .with_timeouts(offer=600.0, counter=300.0)
            .with_policies(offer="AND(org:a, org:b)", ask="org:op-org-1")
            .build()
        )
        result = exchange.run()    # or drive step() by step

    Asset addresses are ``network/ledger/contract`` (three segments — the
    HTLC verbs travel as envelope kinds, not function names). The offer
    asset must live on this session's network; the counterparty is the
    other party's :class:`~repro.interop.client.InteropClient` (or any
    object exposing ``.client``, e.g. a :class:`GatewaySession`).
    """

    def __init__(self, client: InteropClient) -> None:
        self._initiator = client
        self._offer: "tuple[str, str] | None" = None
        self._ask: "tuple[str, str] | None" = None
        self._responder: InteropClient | None = None
        self._offer_timeout = 600.0
        self._counter_timeout = 300.0
        self._offer_policy: str | None = None
        self._ask_policy: str | None = None
        self._metrics = None

    # -- fluent mutators ----------------------------------------------------------

    def offer(self, address: str, asset_id: str) -> "ExchangeBuilder":
        """The asset this party escrows (on its own network)."""
        self._offer = (address, asset_id)
        return self

    def ask(self, address: str, asset_id: str) -> "ExchangeBuilder":
        """The counterparty asset received in return."""
        self._ask = (address, asset_id)
        return self

    def with_counterparty(self, party) -> "ExchangeBuilder":
        """The responder: an ``InteropClient`` or anything with ``.client``."""
        self._responder = getattr(party, "client", party)
        return self

    def with_timeouts(self, offer: float, counter: float) -> "ExchangeBuilder":
        """Lock lifetimes in seconds; ``counter`` must be < ``offer``."""
        self._offer_timeout = float(offer)
        self._counter_timeout = float(counter)
        return self

    def with_policies(
        self, offer: str | None = None, ask: str | None = None
    ) -> "ExchangeBuilder":
        """Verification policies for the proof-carrying lock confirmations
        (``offer`` verifies the offer-side lock, ``ask`` the counter lock;
        ``None`` falls back to the CMDAC-recorded policy)."""
        self._offer_policy = offer
        self._ask_policy = ask
        return self

    def with_metrics(self, metrics) -> "ExchangeBuilder":
        """Report into a shared :class:`repro.assets.ExchangeMetrics`."""
        self._metrics = metrics
        return self

    # -- terminal operations ------------------------------------------------------

    def build(self):
        """Assemble the coordinator (validates both legs and timeouts)."""
        from repro.assets.coordinator import AssetExchangeCoordinator, AssetSpec

        if self._offer is None or self._ask is None:
            raise RuntimeError("an exchange needs both offer(...) and ask(...)")
        if self._responder is None:
            raise RuntimeError("an exchange needs with_counterparty(...)")
        return AssetExchangeCoordinator(
            initiator=self._initiator,
            responder=self._responder,
            offer=AssetSpec.parse(*self._offer),
            ask=AssetSpec.parse(*self._ask),
            offer_timeout=self._offer_timeout,
            counter_timeout=self._counter_timeout,
            offer_policy=self._offer_policy,
            ask_policy=self._ask_policy,
            metrics=self._metrics,
        )

    def run(self):
        """Build and drive the full happy path; returns the result."""
        return self.build().run()


class CycleBuilder:
    """Fluent description of one N-party cyclic atomic swap.

    Assembles a :class:`repro.assets.CycleCoordinator`::

        cycle = (
            gateway.exchange_cycle()
            .leg("fabnet/trade/assetscc", "GOLD-1")          # my escrow
            .leg("quornet/state/asset-vault", "OIL-9", party=bob)
            .leg("cordanet/vault/asset-vault", "ART-7", party=carol)
            .with_window(timeout=900.0, hop_gap=150.0)
            .journal_to(store)
            .build()
        )
        result = cycle.run()     # or drive lock_next()/claim_next()

    Legs are declared in ring order; the first leg belongs to this
    session's identity (party 0, who holds the secret), every later leg
    names its escrowing party (an
    :class:`~repro.interop.client.InteropClient` or anything exposing
    ``.client``). Asset addresses are ``network/ledger/contract``, and
    each leg's asset must live on its party's own network.
    """

    def __init__(self, client: InteropClient) -> None:
        self._initiator = client
        self._legs: list[tuple[str, str, InteropClient, str | None]] = []
        self._timeout = 900.0
        self._hop_gap = 150.0
        self._store = None
        self._cycle_id: str | None = None
        self._metrics = None

    # -- fluent mutators ----------------------------------------------------------

    def leg(
        self,
        address: str,
        asset_id: str,
        party=None,
        policy: str | None = None,
    ) -> "CycleBuilder":
        """Append one leg of the ring: an asset escrowed by ``party``.

        ``party`` defaults to this session's client for the first leg
        (and is required afterwards); ``policy`` is the verification
        policy for proof-carrying readbacks of this leg's network
        (``None`` = the CMDAC-recorded policy).
        """
        if party is None:
            if self._legs:
                raise RuntimeError(
                    "every leg after the first must name its party"
                )
            client = self._initiator
        else:
            client = getattr(party, "client", party)
        self._legs.append((address, asset_id, client, policy))
        return self

    def with_window(self, timeout: float, hop_gap: float) -> "CycleBuilder":
        """Leg 0's lock lifetime and the per-hop timelock decrement."""
        self._timeout = float(timeout)
        self._hop_gap = float(hop_gap)
        return self

    def journal_to(self, store, cycle_id: str | None = None) -> "CycleBuilder":
        """Journal every transition to ``store`` (a
        :class:`repro.store.StateStore`) so the cycle survives a crash."""
        self._store = store
        if cycle_id is not None:
            self._cycle_id = cycle_id
        return self

    def with_metrics(self, metrics) -> "CycleBuilder":
        """Report into a shared :class:`repro.assets.ExchangeMetrics`."""
        self._metrics = metrics
        return self

    # -- terminal operations ------------------------------------------------------

    def build(self):
        """Assemble the coordinator (validates the ring and its windows)."""
        from repro.assets.coordinator import AssetSpec
        from repro.assets.cycles import CycleCoordinator

        if len(self._legs) < 2:
            raise RuntimeError(
                f"a cycle needs at least two leg(...) calls, got "
                f"{len(self._legs)}"
            )
        return CycleCoordinator(
            parties=[client for _, _, client, _ in self._legs],
            specs=[
                AssetSpec.parse(address, asset_id)
                for address, asset_id, _, _ in self._legs
            ],
            cycle_timeout=self._timeout,
            hop_gap=self._hop_gap,
            policies=[policy for _, _, _, policy in self._legs],
            store=self._store,
            cycle_id=self._cycle_id,
            metrics=self._metrics,
        )

    def run(self):
        """Build and drive the full happy path; returns the result."""
        return self.build().run()

"""The two-party atomic exchange: a view of the N=2 HTLC ring.

An *initiator* (offering an asset on its own network) and a *responder*
(offering one on theirs) swap through six steps:

.. code-block:: text

    CREATED -> OFFER_LOCKED -> OFFER_VERIFIED -> COUNTER_LOCKED
            -> COUNTER_VERIFIED -> COUNTER_CLAIMED -> COMPLETED

    any pre-reveal state --abort()--> ABORTED --refund()--> REFUNDED
    OFFER_LOCKED.. states ----------- refund() (post-timeout) --> REFUNDED

That ladder is :class:`~repro.assets.cycles.CycleCoordinator` with two
legs — the offer is leg 0, the counter (ask) leg 1, ``hop_gap`` the
difference between the two timeouts — so there is one HTLC state machine
in this package and :class:`AssetExchangeCoordinator` holds none of its
own: every envelope is issued, journaled and recovered by the ring, and
:class:`ExchangeState` is *derived* from the ring's state. Each party
verifies the *other side's lock* through a proof-carrying ``GetLock``
query before taking its next irreversible step: the responder before
locking its own asset, the initiator before revealing the preimage.
Timeouts are staggered (``counter_timeout < offer_timeout``) so the
responder can always claim the offer with the revealed preimage before
the initiator's refund window opens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.assets.cycles import AssetSpec, CycleCoordinator, CycleState
from repro.assets.metrics import KIND_EXCHANGE, ExchangeMetrics
from repro.errors import ProtocolError
from repro.interop.client import InteropClient
from repro.proto.messages import AssetAckMsg
from repro.store import StateStore
from repro.utils.ids import random_id

#: :class:`~repro.store.StateStore` namespace for exchange journals.
NS_EXCHANGES = "assets/exchanges"


class ExchangeState(Enum):
    """Lifecycle of one two-party atomic exchange."""

    CREATED = "created"
    OFFER_LOCKED = "offer_locked"
    OFFER_VERIFIED = "offer_verified"
    COUNTER_LOCKED = "counter_locked"
    COUNTER_VERIFIED = "counter_verified"
    COUNTER_CLAIMED = "counter_claimed"  # preimage is now public
    COMPLETED = "completed"
    ABORTED = "aborted"
    REFUNDED = "refunded"
    FAILED = "failed"


@dataclass
class ExchangeResult:
    """What a finished (or unwound) exchange produced."""

    state: ExchangeState
    hashlock: bytes
    preimage: bytes | None
    offer_lock: AssetAckMsg | None = None
    counter_lock: AssetAckMsg | None = None
    counter_claim: AssetAckMsg | None = None
    offer_claim: AssetAckMsg | None = None
    refunds: list[AssetAckMsg] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.state is ExchangeState.COMPLETED


class _TwoPartyRing(CycleCoordinator):
    """The N=2 ring under the exchange's names: its own metrics label and
    journal namespace, legs called offer and counter. No behaviour."""

    _kind = KIND_EXCHANGE
    _namespace = NS_EXCHANGES
    _noun = "exchange"

    def _label(self, leg: int) -> str:
        return ("offer", "counter")[leg]


class AssetExchangeCoordinator:
    """Drives one Fabric↔Quorum(↔anything) atomic exchange end to end.

    ``initiator`` and ``responder`` are the two parties' interop clients;
    the offer asset must live on the initiator's network and the ask asset
    on the responder's (each party escrows locally, the counterparty
    claims across networks). ``offer_policy`` / ``ask_policy`` are the
    verification policies for the proof-carrying lock confirmations
    (``None`` = look up the CMDAC-recorded policy, as for queries).

    Crash recovery is the ring's: pass a :class:`~repro.store.StateStore`
    and every transition is journaled under ``exchange_id``; a restarted
    process calls :meth:`resume`, then :meth:`recover`, then :meth:`run`
    (or :meth:`refund`). ``OFFER_VERIFIED`` and ``COUNTER_VERIFIED`` hold
    only in the process that did the verifying — a resumed exchange comes
    back one step earlier and :meth:`run` re-verifies before it escrows
    or reveals.
    """

    def __init__(
        self,
        initiator: InteropClient,
        responder: InteropClient,
        offer: AssetSpec,
        ask: AssetSpec,
        offer_timeout: float = 600.0,
        counter_timeout: float = 300.0,
        offer_policy: str | None = None,
        ask_policy: str | None = None,
        verify_margin: float | None = None,
        store: StateStore | None = None,
        exchange_id: str | None = None,
        metrics: ExchangeMetrics | None = None,
    ) -> None:
        if offer.network != initiator.network_id:
            raise ProtocolError(
                f"offer asset lives on {offer.network!r} but the initiator "
                f"belongs to {initiator.network_id!r}"
            )
        if ask.network != responder.network_id:
            raise ProtocolError(
                f"ask asset lives on {ask.network!r} but the responder "
                f"belongs to {responder.network_id!r}"
            )
        if counter_timeout >= offer_timeout:
            raise ProtocolError(
                f"counter timeout ({counter_timeout}s) must be shorter than "
                f"the offer timeout ({offer_timeout}s): the responder needs "
                f"time to claim with the revealed preimage before the "
                f"initiator's refund window opens"
            )
        if verify_margin is None:
            verify_margin = counter_timeout / 2
        if offer_timeout < counter_timeout + verify_margin:
            # Checked HERE, before anything is escrowed: verify_offer()
            # will demand counter_timeout + verify_margin of remaining
            # offer-lock lifetime, so a tighter configuration could only
            # ever lock the offer asset and then fail.
            raise ProtocolError(
                f"offer timeout ({offer_timeout}s) must cover the counter "
                f"timeout plus the verification margin "
                f"({counter_timeout}s + {verify_margin}s); shorten the "
                f"margin or lengthen the offer timelock"
            )
        self._ring = _TwoPartyRing(
            [initiator, responder],
            [offer, ask],
            cycle_timeout=offer_timeout,
            hop_gap=offer_timeout - counter_timeout,
            policies=[offer_policy, ask_policy],
            verify_margin=verify_margin,
            store=store,
            cycle_id=exchange_id or random_id("exch-"),
            metrics=metrics,
        )

    @classmethod
    def resume(
        cls,
        initiator: InteropClient,
        responder: InteropClient,
        store: StateStore,
        exchange_id: str,
        offer_policy: str | None = None,
        ask_policy: str | None = None,
        metrics: ExchangeMetrics | None = None,
    ) -> "AssetExchangeCoordinator":
        """Rebuild a coordinator from its journal after a crash (see
        :meth:`CycleCoordinator.resume`); records journaled in the
        ``offer_*`` / ``counter_*`` format resume too."""
        exchange = cls.__new__(cls)
        exchange._ring = _TwoPartyRing.resume(
            [initiator, responder],
            store,
            exchange_id,
            policies=[offer_policy, ask_policy],
            metrics=metrics,
        )
        return exchange

    # -- the ring, in two-party words -----------------------------------------------

    @property
    def state(self) -> ExchangeState:
        ring = self._ring
        if ring.state is CycleState.LOCKING:
            return (
                ExchangeState.OFFER_VERIFIED
                if ring.verified_leg == 0
                else ExchangeState.OFFER_LOCKED
            )
        if ring.state is CycleState.LOCKED:
            return (
                ExchangeState.COUNTER_VERIFIED
                if ring.verified_leg == 1
                else ExchangeState.COUNTER_LOCKED
            )
        if ring.state is CycleState.CLAIMING:
            return ExchangeState.COUNTER_CLAIMED
        return ExchangeState(ring.state.value)

    @property
    def result(self) -> ExchangeResult:
        ring = self._ring.result
        return ExchangeResult(
            state=self.state,
            hashlock=ring.hashlock,
            preimage=ring.preimage,
            offer_lock=ring.locks[0],
            counter_lock=ring.locks[1],
            counter_claim=ring.claims[1],
            offer_claim=ring.claims[0],
            refunds=ring.refunds,
        )

    @property
    def exchange_id(self) -> str:
        return self._ring.cycle_id

    @property
    def offer(self) -> AssetSpec:
        return self._ring.specs[0]

    @property
    def ask(self) -> AssetSpec:
        return self._ring.specs[1]

    @property
    def verify_margin(self) -> float:
        """Minimum remaining lock lifetime a party requires before acting."""
        return self._ring.verify_margin

    @property
    def preimage(self) -> bytes:
        """The initiator's secret; its hash is the exchange's hashlock."""
        return self._ring.preimage

    @property
    def hashlock(self) -> bytes:
        return self._ring.hashlock

    @property
    def offer_deadline(self) -> float | None:
        return self._ring.deadlines[0]

    @property
    def counter_deadline(self) -> float | None:
        return self._ring.deadlines[1]

    @property
    def initiator_party(self) -> str:
        return self._ring.party_name(0)

    @property
    def responder_party(self) -> str:
        return self._ring.party_name(1)

    # -- protocol steps -----------------------------------------------------------

    def lock_offer(self) -> AssetAckMsg:
        """Initiator escrows the offer asset for the responder (step 1)."""
        return self._ring.lock_leg(0)

    def verify_offer(self) -> dict:
        """Responder proof-verifies the offer lock before escrowing, and
        takes the hashlock *from the verified record* (step 2)."""
        return self._ring.verify_leg(0)

    def lock_counter(self) -> AssetAckMsg:
        """Responder escrows the ask asset under the hashlock it verified
        on the offer ledger (step 3)."""
        return self._ring.lock_leg(1)

    def verify_counter(self) -> dict:
        """Initiator proof-verifies the counter lock before revealing (step 4)."""
        return self._ring.verify_leg(1)

    def claim_counter(self) -> AssetAckMsg:
        """Initiator claims the ask asset, revealing the preimage (step 5)."""
        return self._ring.claim_leg(1)

    def claim_offer(self) -> AssetAckMsg:
        """Responder claims the offer with the now-public preimage, read
        from its *own* ledger's lock record (step 6)."""
        return self._ring.claim_leg(0)

    def run(self) -> ExchangeResult:
        """Drive the exchange to completion from the *current* state."""
        self._ring.run()
        return self.result

    def recover(self) -> ExchangeState:
        """Re-derive the next safe step after :meth:`resume` (see
        :meth:`CycleCoordinator.recover`)."""
        self._ring.recover()
        return self.state

    def abort(self) -> None:
        """Call the exchange off before the preimage is revealed."""
        self._ring.abort()

    def refund(self) -> list[AssetAckMsg]:
        """Unwind every standing escrow after its timelock expired —
        counter leg first, its (shorter) timelock expires first."""
        return self._ring.refund()

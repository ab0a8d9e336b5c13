"""N-party cyclic atomic swaps (the generalized HTLC choreography).

:class:`CycleCoordinator` drives an A→B→C→…→A ring of escrows: *leg i* is
party *i* locking its asset — on its own network — for party ``(i+1) % N``.
One secret, held by party 0, arms every leg:

.. code-block:: text

    lock phase (forward)          claim phase (backward)
    ────────────────────          ──────────────────────
    leg 0:  P0 locks for P1       P0 claims leg N-1  (reveals preimage)
    leg 1:  P1 locks for P2       P(N-1) claims leg N-2
    ...                           ...
    leg N-1: P(N-1) locks for P0  P1 claims leg 0

Timelocks partition time at every hop: ``deadline_i = deadline_0 −
i·hop_gap`` strictly decreases along the ring, so the leg claimed first
(leg N−1) expires first, and every claimant still has ``hop_gap`` of
runway on its upstream leg after its own leg's window closes. Before
locking, party *i* proof-verifies leg *i−1* and takes the hashlock *from
the verified record* — the relay plane never carries a bare hashlock —
and before revealing, party 0 proof-verifies that the hashlock survived
the whole ring unchanged. During the claim walk each party reads the
revealed preimage from its *own* network's lock record, never from a
counterparty.

Abort (pre-reveal) or any mid-cycle failure leaves only refundable
escrows: :meth:`CycleCoordinator.refund` unwinds every standing leg in
increasing-deadline order once the windows close. With a
:class:`~repro.store.StateStore` every transition and per-leg flag is
journaled; :meth:`CycleCoordinator.resume` + :meth:`CycleCoordinator.recover`
re-derive the one possibly-unjournaled in-flight command through
proof-carrying ``GetLock`` readbacks against the ledgers themselves.

This is the only HTLC state machine in the package: a two-party exchange
is the N=2 ring (``hop_gap`` = offer − counter timeout), and
:class:`~repro.assets.coordinator.AssetExchangeCoordinator` is a view
naming its steps (``lock_leg`` / ``verify_leg`` / ``claim_leg`` on legs
0 and 1) the two-party way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from repro.assets.htlc import (
    STATE_CLAIMED,
    STATE_LOCKED,
    make_hashlock,
    new_preimage,
)
from repro.assets.metrics import KIND_CYCLE, ExchangeMetrics
from repro.errors import (
    AssetError,
    DiscoveryError,
    ExchangeStateError,
    ProtocolError,
    RelayError,
)
from repro.interop.client import InteropClient
from repro.store import StateStore
from repro.proto.messages import (
    MSG_KIND_ASSET_CLAIM,
    MSG_KIND_ASSET_LOCK,
    MSG_KIND_ASSET_STATUS,
    MSG_KIND_ASSET_UNLOCK,
    PROTOCOL_VERSION,
    STATUS_OK,
    AssetAckMsg,
    AssetCommandMsg,
    NetworkAddressMsg,
)
from repro.utils.ids import random_id

#: :class:`~repro.store.StateStore` namespace for cycle journals.
NS_CYCLES = "assets/cycles"


class CycleState(Enum):
    """Lifecycle of one N-party cyclic swap."""

    CREATED = "created"
    LOCKING = "locking"  # some legs escrowed, ring not yet closed
    LOCKED = "locked"  # every leg escrowed; preimage still secret
    CLAIMING = "claiming"  # preimage is now public, claims walking back
    COMPLETED = "completed"
    ABORTED = "aborted"
    REFUNDED = "refunded"
    FAILED = "failed"


#: Legal transitions; anything else raises :class:`ExchangeStateError`.
#: Per-leg progress inside LOCKING / CLAIMING is flag-journaled, not a
#: state change.
_TRANSITIONS: dict[CycleState, frozenset[CycleState]] = {
    CycleState.CREATED: frozenset(
        {CycleState.LOCKING, CycleState.ABORTED, CycleState.FAILED}
    ),
    CycleState.LOCKING: frozenset(
        {
            CycleState.LOCKED,
            CycleState.ABORTED,
            CycleState.REFUNDED,
            CycleState.FAILED,
        }
    ),
    CycleState.LOCKED: frozenset(
        {
            CycleState.CLAIMING,
            CycleState.ABORTED,
            CycleState.REFUNDED,
            CycleState.FAILED,
        }
    ),
    CycleState.CLAIMING: frozenset({CycleState.COMPLETED, CycleState.FAILED}),
    CycleState.COMPLETED: frozenset(),
    CycleState.ABORTED: frozenset({CycleState.REFUNDED, CycleState.FAILED}),
    CycleState.REFUNDED: frozenset(),
    # Unclaimed escrows of a failed cycle stay refundable after their
    # windows close, whatever went wrong elsewhere.
    CycleState.FAILED: frozenset({CycleState.REFUNDED}),
}

#: States in which the secret has not been revealed — the whole ring can
#: still unwind without loss.
_PRE_REVEAL_STATES = frozenset(
    {CycleState.CREATED, CycleState.LOCKING, CycleState.LOCKED}
)


@dataclass(frozen=True)
class AssetSpec:
    """One leg of a swap: an asset on a network/ledger/contract.

    No function segment — the HTLC verb travels as the envelope *kind*,
    not as an addressed function.
    """

    network: str
    ledger: str
    contract: str
    asset_id: str

    @classmethod
    def parse(cls, address_text: str, asset_id: str) -> "AssetSpec":
        segments = address_text.split("/")
        if len(segments) != 3 or not all(segments):
            raise ProtocolError(
                f"asset address {address_text!r} must be network/ledger/contract"
            )
        network, ledger, contract = segments
        return cls(network=network, ledger=ledger, contract=contract, asset_id=asset_id)

    def query_address(self, function: str) -> str:
        return f"{self.network}/{self.ledger}/{self.contract}/{function}"


@dataclass
class CycleResult:
    """What a finished (or unwound) cycle produced, leg by leg."""

    state: CycleState
    hashlock: bytes
    preimage: bytes | None
    locks: list[AssetAckMsg | None] = field(default_factory=list)
    claims: list[AssetAckMsg | None] = field(default_factory=list)
    refunds: list[AssetAckMsg] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.state is CycleState.COMPLETED


#: Ring state for each two-party step name found in an ``offer_*`` /
#: ``counter_*`` journal (names absent here are spelled the same).
_TWO_PARTY_STATES = {
    "offer_locked": "locking",
    "offer_verified": "locking",
    "counter_locked": "locked",
    "counter_verified": "locked",
    "counter_claimed": "claiming",
}


def _ring_record(record: dict) -> dict:
    """``record`` in ring format, whichever format it was journaled in.

    A release with a separate two-party state machine journaled
    ``offer_*`` / ``counter_*`` keys and no ``specs``; such a record maps
    onto legs 0 and 1 of an N=2 ring, so an exchange in flight across the
    upgrade still resumes. Its journaled "verified" steps fall back to
    the lock they followed: a resumed ring re-verifies (``verified_leg``).
    :meth:`CycleCoordinator.resume` journals what it read, which rewrites
    the record in ring format.
    """
    if "specs" in record:
        return record
    return {
        "state": _TWO_PARTY_STATES.get(record["state"], record["state"]),
        "specs": [record["offer"], record["ask"]],
        "cycle_timeout": record["offer_timeout"],
        "hop_gap": record["offer_timeout"] - record["counter_timeout"],
        "verify_margin": record["verify_margin"],
        "preimage": record["preimage"],
        "hashlock": record["hashlock"],
        "leg_hashlocks": [record["hashlock"], record["verified_hashlock"]],
        "deadlines": [record["offer_deadline"], record["counter_deadline"]],
        "locked": [record["offer_locked"], record["counter_locked"]],
        "claimed": [record["offer_claimed"], record["counter_claimed"]],
        "refunded": [record["offer_refunded"], record["counter_refunded"]],
        "preimage_revealed": record["preimage_revealed"],
        "started_at": record.get("started_at"),
    }


class CycleCoordinator:
    """Drives one N-party cyclic atomic swap end to end.

    ``parties[i]`` is the interop client of the party escrowing
    ``specs[i]`` (which must live on that party's network) for
    ``parties[(i+1) % N]``. ``policies[i]`` is the verification policy
    used for proof-carrying readbacks against network *i* (``None`` =
    the CMDAC-recorded policy, as for queries).

    ``cycle_timeout`` is leg 0's lock lifetime; every later leg's window
    is ``hop_gap`` shorter than its predecessor's, so the claim walk —
    which runs *backward* — always moves onto a leg with a longer
    remaining window.

    Crash recovery: pass a :class:`~repro.store.StateStore` and every
    transition and per-leg flag is journaled under ``cycle_id``. A
    restarted process rebuilds the coordinator with :meth:`resume`, then
    calls :meth:`recover` to resolve the one step the journal cannot —
    "did the command I issued right before the crash land?" — through
    proof-carrying ``GetLock`` readbacks against the ledgers themselves
    (the relay that just crashed is exactly the party not trusted for
    that answer), and :meth:`run` (or :meth:`refund`) continues from
    wherever the machine stopped.
    """

    #: Metrics ``kind`` label, journal namespace and the noun in error
    #: messages: per class, not per caller (the two-party view's ring in
    #: ``repro.assets.coordinator`` holds the one other set of values).
    _kind = KIND_CYCLE
    _namespace = NS_CYCLES
    _noun = "cycle"

    def __init__(
        self,
        parties: list[InteropClient],
        specs: list[AssetSpec],
        cycle_timeout: float = 900.0,
        hop_gap: float = 150.0,
        policies: list[str | None] | None = None,
        verify_margin: float | None = None,
        store: StateStore | None = None,
        cycle_id: str | None = None,
        metrics: ExchangeMetrics | None = None,
    ) -> None:
        if len(parties) < 2:
            raise ProtocolError(
                f"a cycle needs at least two parties, got {len(parties)}"
            )
        if len(specs) != len(parties):
            raise ProtocolError(
                f"{len(parties)} parties but {len(specs)} asset legs; "
                f"every party escrows exactly one asset"
            )
        for index, (party, spec) in enumerate(zip(parties, specs)):
            if spec.network != party.network_id:
                raise ProtocolError(
                    f"leg {index} asset lives on {spec.network!r} but its "
                    f"party belongs to {party.network_id!r}; each party "
                    f"escrows on its own network"
                )
        if policies is not None and len(policies) != len(parties):
            raise ProtocolError(
                f"{len(parties)} legs but {len(policies)} policies"
            )
        if hop_gap <= 0:
            raise ProtocolError(f"hop gap must be positive, got {hop_gap}s")
        self._parties = list(parties)
        self.specs = list(specs)
        self.size = len(parties)
        self.cycle_timeout = cycle_timeout
        self.hop_gap = hop_gap
        self._policies = list(policies) if policies is not None else [
            None
        ] * self.size
        #: Minimum remaining lock lifetime a party requires before acting.
        self.verify_margin = (
            verify_margin if verify_margin is not None else hop_gap / 2
        )
        if self.verify_margin > hop_gap:
            raise ProtocolError(
                f"verification margin ({self.verify_margin}s) cannot exceed "
                f"the hop gap ({hop_gap}s): consecutive deadlines are only "
                f"{hop_gap}s apart"
            )
        # Checked HERE, before anything is escrowed: the last leg's window
        # is cycle_timeout − (N−1)·hop_gap, and party 0 will demand
        # verify_margin of it when it verifies before revealing.
        shortest = cycle_timeout - (self.size - 1) * hop_gap
        if shortest < self.verify_margin:
            raise ProtocolError(
                f"cycle timeout ({cycle_timeout}s) is too short for "
                f"{self.size} legs {hop_gap}s apart: the final leg's window "
                f"would be {shortest:.1f}s, below the verification margin "
                f"({self.verify_margin}s)"
            )
        self._clock = parties[0].relay.clock
        #: Party 0's secret; its hash is the whole ring's hashlock.
        self.preimage = new_preimage()
        self.hashlock = make_hashlock(self.preimage)
        #: Per-leg hashlock as proof-verified from the upstream record
        #: (leg 0 escrows under party 0's own hashlock).
        self._leg_hashlocks: list[bytes] = [b""] * self.size
        self._leg_hashlocks[0] = self.hashlock
        self._locked = [False] * self.size
        self._claimed = [False] * self.size
        self._refunded = [False] * self.size
        self.deadlines: list[float | None] = [None] * self.size
        #: The leg :meth:`verify_leg` last accepted. In memory only, never
        #: journaled: a proof-verification is good for the process that
        #: made it, so a resumed ring re-verifies before it escrows the
        #: next leg or reveals the preimage.
        self.verified_leg: int | None = None
        self.state = CycleState.CREATED
        self.result = CycleResult(
            state=self.state,
            hashlock=self.hashlock,
            preimage=None,
            locks=[None] * self.size,
            claims=[None] * self.size,
        )
        self.cycle_id = cycle_id or random_id("cycle-")
        self._store = store
        self._metrics = metrics
        self._started_at: float | None = None
        if metrics is not None:
            metrics.exchange_started(self._kind)
        self._journal()

    # -- durability ---------------------------------------------------------------

    def _journal(self) -> None:
        """Persist everything a resumed coordinator needs (no-op without
        a store). Written after every transition and flag change."""
        if self._store is None:
            return
        record = {
            "state": self.state.value,
            "specs": [
                [spec.network, spec.ledger, spec.contract, spec.asset_id]
                for spec in self.specs
            ],
            "cycle_timeout": self.cycle_timeout,
            "hop_gap": self.hop_gap,
            "verify_margin": self.verify_margin,
            "preimage": self.preimage.hex(),
            "hashlock": self.hashlock.hex(),
            "leg_hashlocks": [value.hex() for value in self._leg_hashlocks],
            "deadlines": list(self.deadlines),
            "locked": list(self._locked),
            "claimed": list(self._claimed),
            "refunded": list(self._refunded),
            "preimage_revealed": self.result.preimage is not None,
            "started_at": self._started_at,
        }
        self._store.put(
            self._namespace, self.cycle_id, json.dumps(record).encode("utf-8")
        )

    @staticmethod
    def _journaled_ack(asset_id: str) -> AssetAckMsg:
        """Stand-in ack for a leg the journal records as landed: the
        original wire ack died with the crashed process, but the flags
        (and :meth:`refund`'s decisions) only need *that* it landed."""
        return AssetAckMsg(
            version=PROTOCOL_VERSION,
            nonce="journaled",
            status=STATUS_OK,
            asset_id=asset_id,
        )

    @classmethod
    def resume(
        cls,
        parties: list[InteropClient],
        store: StateStore,
        cycle_id: str,
        policies: list[str | None] | None = None,
        metrics: ExchangeMetrics | None = None,
    ) -> "CycleCoordinator":
        """Rebuild a coordinator from its journal after a crash.

        The journal restores the secret, the per-leg hashlocks, flags and
        deadlines, and the state machine position; call :meth:`recover`
        next to resolve whether the command in flight at the crash
        landed, then :meth:`run` (or :meth:`refund`) to continue.
        """
        raw = store.get(cls._namespace, cycle_id)
        if raw is None:
            raise ExchangeStateError(
                f"no journaled {cls._noun} {cycle_id!r} in the store"
            )
        record = _ring_record(json.loads(raw.decode("utf-8")))
        coordinator = cls(
            parties,
            [AssetSpec(*leg) for leg in record["specs"]],
            cycle_timeout=record["cycle_timeout"],
            hop_gap=record["hop_gap"],
            policies=policies,
            verify_margin=record["verify_margin"],
            cycle_id=cycle_id,
        )
        coordinator.preimage = bytes.fromhex(record["preimage"])
        coordinator.hashlock = bytes.fromhex(record["hashlock"])
        coordinator._leg_hashlocks = [
            bytes.fromhex(value) for value in record["leg_hashlocks"]
        ]
        coordinator.state = CycleState(record["state"])
        coordinator.deadlines = list(record["deadlines"])
        coordinator._locked = list(record["locked"])
        coordinator._claimed = list(record["claimed"])
        coordinator._refunded = list(record["refunded"])
        coordinator._started_at = record["started_at"]
        result = coordinator.result
        result.state = coordinator.state
        result.hashlock = coordinator.hashlock
        for index, spec in enumerate(coordinator.specs):
            if coordinator._locked[index]:
                result.locks[index] = cls._journaled_ack(spec.asset_id)
            if coordinator._claimed[index]:
                result.claims[index] = cls._journaled_ack(spec.asset_id)
        if record["preimage_revealed"]:
            result.preimage = coordinator.preimage
        # Attach the store (and metrics) only now: a crash inside resume()
        # itself must never regress the journal to the constructor's
        # CREATED image, and the resumed coordinator is the same logical
        # exchange, not a second started one.
        coordinator._store = store
        coordinator._metrics = metrics
        coordinator._journal()
        return coordinator

    def _peek_lock(self, leg: int) -> dict:
        """Proof-verified ``GetLock`` readback of leg ``leg`` by its
        recipient, returned raw: the caller decides what the record
        means, and the readback itself raising changes no state, so the
        step stays retriable."""
        viewer = self._parties[(leg + 1) % self.size]
        spec = self.specs[leg]
        fetched = viewer.remote_query(
            spec.query_address("GetLock"),
            [spec.asset_id],
            policy=self._policies[leg],
        )
        return json.loads(fetched.data)

    def recover(self) -> CycleState:
        """Re-derive the next safe step after :meth:`resume`.

        The journal is written *after* each command's ack, so a crash
        leaves exactly one ambiguity: the command issued right before it
        may have committed without being journaled. The relevant leg's
        recipient reads the escrow through a proof-carrying ``GetLock``
        query — never the relay's word — and fast-forwards the machine
        if the ledger shows the step landed with *this* cycle's terms.
        States with no in-flight command return unchanged; a readback
        failure raises without a state change, so recovery is retriable.
        """
        if self.state in (CycleState.CREATED, CycleState.LOCKING):
            leg = self._next_unlocked()
            # The lock command for ``leg`` is only ever issued after its
            # hashlock (proof-verified upstream) is journaled; an empty
            # hashlock means the crash happened before the verify step,
            # so there is nothing in flight.
            if leg is not None and self._leg_hashlocks[leg]:
                record = self._peek_lock(leg)
                if (
                    record.get("state") == STATE_LOCKED
                    and record.get("hashlock")
                    == self._leg_hashlocks[leg].hex()
                    and record.get("recipient") == self.party_name(leg + 1)
                ):
                    self.deadlines[leg] = float(record.get("timeout", 0.0))
                    self._mark_locked(leg)
        if self.state is CycleState.LOCKED:
            # Party 0's claim of the final leg may have landed — and if
            # it did, the preimage is PUBLIC: the machine must move past
            # the reveal, not retry into a refund window.
            self._recover_claim(self.size - 1)
        if self.state is CycleState.CLAIMING:
            leg = self._next_unclaimed()
            if leg is not None:
                self._recover_claim(leg)
        return self.state

    def _recover_claim(self, leg: int) -> None:
        record = self._peek_lock(leg)
        if record.get("state") != STATE_CLAIMED:
            return
        if record.get("preimage") != self.preimage.hex():
            self._advance(CycleState.FAILED)
            raise AssetError(
                f"{self._label(leg)} escrow was claimed with a foreign "
                f"preimage; the {self._noun} cannot proceed"
            )
        self.result.preimage = self.preimage
        self._mark_claimed(leg)

    # -- identity helpers ---------------------------------------------------------

    def party_name(self, index: int) -> str:
        """``name@network`` of party ``index`` (modulo the ring size)."""
        client = self._parties[index % self.size]
        return f"{client.identity.name}@{client.network_id}"

    def _label(self, leg: int) -> str:
        """How messages name leg ``leg``."""
        return f"leg {leg}"

    @staticmethod
    def _command(
        client: InteropClient,
        spec: AssetSpec,
        recipient: str = "",
        hashlock: bytes = b"",
        timeout: float = 0.0,
        preimage: bytes = b"",
    ) -> AssetCommandMsg:
        return AssetCommandMsg(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network=spec.network,
                ledger=spec.ledger,
                contract=spec.contract,
                function="",
            ),
            asset_id=spec.asset_id,
            recipient=recipient,
            hashlock=hashlock,
            timeout=timeout,
            preimage=preimage,
            auth=client.auth_info(),
            nonce=random_id("asset-"),
        )

    # -- state machine core -------------------------------------------------------

    def _advance(self, new_state: CycleState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise ExchangeStateError(
                f"cannot move {self._noun} from {self.state.value!r} to "
                f"{new_state.value!r}"
            )
        previous, self.state = self.state, new_state
        self.result.state = new_state
        if self._metrics is not None:
            self._metrics.state_entered(self._kind, new_state.value, previous.value)
        self._journal()

    def _require(self, *states: CycleState) -> None:
        if self.state not in states:
            expected = ", ".join(state.value for state in states)
            raise ExchangeStateError(
                f"step requires state {expected}; {self._noun} is "
                f"{self.state.value!r}"
            )

    def _require_turn(self, leg: int, due: int) -> None:
        if leg != due:
            raise ExchangeStateError(
                f"{self._label(leg)} is out of turn; {self._label(due)} is due"
            )

    def _checked(self, ack: AssetAckMsg, step: str) -> AssetAckMsg:
        if ack.status != STATUS_OK:
            self._advance(CycleState.FAILED)
            raise AssetError(f"{step} failed: {ack.error}")
        return ack

    def _next_unlocked(self) -> int | None:
        for index, locked in enumerate(self._locked):
            if not locked:
                return index
        return None

    def _next_unclaimed(self) -> int | None:
        """Claims walk backward; the next leg due is the highest index
        not yet claimed."""
        for index in range(self.size - 1, -1, -1):
            if not self._claimed[index]:
                return index
        return None

    def _mark_locked(self, leg: int) -> None:
        self._locked[leg] = True
        if self.result.locks[leg] is None:
            self.result.locks[leg] = self._journaled_ack(
                self.specs[leg].asset_id
            )
        if all(self._locked):
            if self.state is CycleState.CREATED:
                # Single-step fast-forward through LOCKING (recovery of a
                # two-party ring whose first lock closed it cannot skip
                # the intermediate state).
                self._advance(CycleState.LOCKING)
            self._advance(CycleState.LOCKED)
        elif self.state is CycleState.CREATED:
            self._advance(CycleState.LOCKING)
        else:
            self._journal()

    def _mark_claimed(self, leg: int) -> None:
        self._claimed[leg] = True
        if self.result.claims[leg] is None:
            self.result.claims[leg] = self._journaled_ack(
                self.specs[leg].asset_id
            )
        if all(self._claimed):
            if self.state is CycleState.LOCKED:
                self._advance(CycleState.CLAIMING)
            self._advance(CycleState.COMPLETED)
            if self._metrics is not None and self._started_at is not None:
                self._metrics.latency_recorded(
                    self._kind, self._clock.now() - self._started_at
                )
        elif self.state is CycleState.LOCKED:
            self._advance(CycleState.CLAIMING)
        else:
            self._journal()

    # -- protocol steps -----------------------------------------------------------
    # One envelope each (claim_leg's preimage readback aside), named by
    # leg so the ring — not the caller — enforces their order. lock_next /
    # claim_next compose them; the two-party view calls them directly.

    def verify_leg(self, leg: int) -> dict:
        """Leg ``leg``'s recipient proof-verifies it before the
        irreversible step it gates.

        The lock record comes back as trusted data — attested by the
        leg's network under the verification policy — so a lying relay
        cannot make a party act against a phantom escrow. Mid-ring the
        gated step is escrowing leg ``leg+1``: state, recipient and
        remaining lifetime are checked and the next leg's hashlock is
        taken *from the verified record*, never from out-of-band
        coordination. On the final leg it is party 0 revealing the
        preimage: the leg must carry party 0's *own* hashlock, i.e. the
        value survived every hop of the ring unchanged.
        """
        if leg == self.size - 1:
            self._require(CycleState.LOCKED)
            record = self._verify_lock(
                leg, self.verify_margin, expected_hashlock=self.hashlock
            )
        else:
            self._require(CycleState.LOCKING)
            self._require_turn(leg, self._next_unlocked() - 1)
            record = self._verify_lock(
                leg,
                # The leg must outlive the next party's own planned window
                # by the margin, or the preimage could go public with no
                # time left to claim — and it must still leave the final
                # leg, (N−1−leg) hops further on, its margin, or the next
                # party would escrow into a ring party 0 can only refuse.
                max(
                    self._planned_deadline(leg + 1) - self._clock.now(),
                    (self.size - 1 - leg) * self.hop_gap,
                )
                + self.verify_margin,
            )
            self._leg_hashlocks[leg + 1] = bytes.fromhex(record["hashlock"])
            self._journal()  # the lock command must postdate this
        self.verified_leg = leg
        return record

    def _planned_deadline(self, leg: int) -> float:
        upstream_deadline = self.deadlines[leg - 1]
        assert upstream_deadline is not None
        return upstream_deadline - self.hop_gap

    def lock_leg(self, leg: int) -> AssetAckMsg:
        """Party ``leg`` escrows its asset for party ``leg+1``, under the
        hashlock :meth:`verify_leg` took from the upstream record (party
        0 under its own)."""
        self._require(CycleState.CREATED, CycleState.LOCKING)
        self._require_turn(leg, self._next_unlocked())
        if leg == 0:
            self._started_at = self._clock.now()
            deadline = self._started_at + self.cycle_timeout
        elif self.verified_leg != leg - 1:
            raise ExchangeStateError(
                f"{self._label(leg)} cannot be escrowed before this process "
                f"has proof-verified {self._label(leg - 1)}"
            )
        else:
            deadline = self._planned_deadline(leg)
        if deadline <= self._clock.now():
            self._advance(CycleState.FAILED)
            raise AssetError(
                f"{self._label(leg)} deadline would already have passed; "
                f"the {self._noun} spent too long locking earlier legs"
            )
        ack = self._checked(
            self._parties[leg].relay.remote_asset(
                MSG_KIND_ASSET_LOCK,
                self._command(
                    self._parties[leg],
                    self.specs[leg],
                    recipient=self.party_name(leg + 1),
                    hashlock=self._leg_hashlocks[leg],
                    timeout=deadline,
                ),
            ),
            f"{self._label(leg)} lock",
        )
        self.deadlines[leg] = deadline
        self.result.locks[leg] = ack
        self._mark_locked(leg)
        return ack

    def claim_leg(self, leg: int) -> AssetAckMsg:
        """Party ``leg+1`` claims leg ``leg``.

        Party 0 opens the walk on the final leg with its own secret —
        only after this process's :meth:`verify_leg` accepted that leg —
        and thereby publishes the preimage. Every later claimant reads
        the now-public preimage from its *own* network's just-claimed
        leg (it never needs to trust a counterparty or any relay for the
        secret) and spends it one hop further back.
        """
        self._require(CycleState.LOCKED, CycleState.CLAIMING)
        self._require_turn(leg, self._next_unclaimed())
        claimant = self._parties[(leg + 1) % self.size]
        if leg == self.size - 1:
            if self.verified_leg != leg:
                raise ExchangeStateError(
                    f"the preimage cannot be revealed before this process "
                    f"has proof-verified {self._label(leg)}"
                )
            preimage = self.preimage
        else:
            status = self._checked(
                claimant.relay.remote_asset(
                    MSG_KIND_ASSET_STATUS,
                    self._command(claimant, self.specs[leg + 1]),
                ),
                f"{self._label(leg + 1)} preimage readback",
            )
            if not status.preimage:
                self._advance(CycleState.FAILED)
                raise AssetError(
                    f"{self._label(leg + 1)} lock on "
                    f"{self.specs[leg + 1].network!r} carries no revealed "
                    f"preimage (state {status.state!r})"
                )
            preimage = status.preimage
        ack = self._checked(
            self._claim_with_recovery(claimant, leg, preimage),
            f"{self._label(leg)} claim",
        )
        self.result.claims[leg] = ack
        self.result.preimage = self.preimage
        self._mark_claimed(leg)
        return ack

    def lock_next(self) -> AssetAckMsg:
        """Escrow the next leg of the ring (forward walk), proof-verifying
        its upstream leg first unless this process just did."""
        self._require(CycleState.CREATED, CycleState.LOCKING)
        leg = self._next_unlocked()
        assert leg is not None  # some leg is unlocked in these states
        if leg > 0 and self.verified_leg != leg - 1:
            self.verify_leg(leg - 1)
        return self.lock_leg(leg)

    def claim_next(self) -> AssetAckMsg:
        """Claim the next leg due (backward walk); party 0 proof-verifies
        the final leg before opening it unless this process just did."""
        self._require(CycleState.LOCKED, CycleState.CLAIMING)
        leg = self._next_unclaimed()
        assert leg is not None  # some leg is unclaimed in these states
        if leg == self.size - 1 and self.verified_leg != leg:
            self.verify_leg(leg)
        return self.claim_leg(leg)

    def run(self) -> CycleResult:
        """Drive the cycle to completion from the *current* state.

        On a fresh coordinator this is the full happy path; on a
        journal-resumed one (see :meth:`resume` / :meth:`recover`) it
        continues from wherever the state machine stopped.
        """
        while self.state in (CycleState.CREATED, CycleState.LOCKING):
            self.lock_next()
        while self.state in (CycleState.LOCKED, CycleState.CLAIMING):
            self.claim_next()
        if self.state is not CycleState.COMPLETED:
            raise ExchangeStateError(
                f"{self._noun} cannot proceed from state {self.state.value!r}"
            )
        return self.result

    # -- unhappy paths ------------------------------------------------------------

    def abort(self) -> None:
        """Call the cycle off before the preimage is revealed.

        Safe by construction: the secret never left party 0, so no leg is
        claimable by anyone — every standing escrow unwinds through
        :meth:`refund` once its timelock expires.
        """
        self._require(*_PRE_REVEAL_STATES)
        self._advance(CycleState.ABORTED)
        if self._metrics is not None:
            self._metrics.abort_recorded(self._kind)

    def refund(self) -> list[AssetAckMsg]:
        """Unwind every standing (locked, unclaimed) escrow after its
        timelock expired.

        Valid from any pre-reveal state, after :meth:`abort`, and from
        ``FAILED`` — whatever broke the swap, an unclaimed lock must
        still be recoverable. Legs unwind in increasing-deadline order —
        the last leg locked expires first — and each refund is journaled
        the moment it lands, so a crash mid-unwind never re-refunds a
        leg. A leg whose claim window is still open is refused on-ledger
        (the contracts enforce the disjointness); that raises *without* a
        terminal state change, so the refund can be retried once the
        window closes.
        """
        refundable_from = _PRE_REVEAL_STATES | {
            CycleState.ABORTED,
            CycleState.FAILED,
        }
        if self.state not in refundable_from:
            raise ExchangeStateError(
                f"nothing to refund from state {self.state.value!r}"
            )
        if not any(self._locked):
            raise ExchangeStateError("no escrow is standing; nothing to refund")
        acks: list[AssetAckMsg] = []
        for leg in range(self.size - 1, -1, -1):
            if (
                not self._locked[leg]
                or self._claimed[leg]
                or self._refunded[leg]
            ):
                continue
            ack = self._parties[leg].relay.remote_asset(
                MSG_KIND_ASSET_UNLOCK,
                self._command(self._parties[leg], self.specs[leg]),
            )
            if ack.status != STATUS_OK:
                raise AssetError(
                    f"{self._label(leg)} refund refused: {ack.error}"
                )
            self._refunded[leg] = True
            self._journal()  # a crash here must not re-refund this leg
            self.result.refunds.append(ack)
            acks.append(ack)
            if self._metrics is not None:
                self._metrics.refund_recorded(self._kind)
        self._advance(CycleState.REFUNDED)
        return acks

    # -- the proof plane ----------------------------------------------------------

    def _verify_lock(
        self,
        leg: int,
        minimum_lifetime: float,
        expected_hashlock: bytes | None = None,
    ) -> dict:
        """Leg ``leg``'s recipient fetches + proof-verifies its lock
        record and checks its terms.

        Runs the ordinary trusted-data-transfer query (attestations under
        the verification policy, end-to-end sealed), then validates the
        HTLC terms the verifying party depends on. Failure marks the
        cycle FAILED and raises.
        """
        spec = self.specs[leg]
        try:
            record = self._peek_lock(leg)
        except Exception:
            self._advance(CycleState.FAILED)
            raise
        problems: list[str] = []
        if record.get("state") != STATE_LOCKED:
            problems.append(f"state is {record.get('state')!r}, not locked")
        if record.get("asset_id") != spec.asset_id:
            problems.append(
                f"record covers asset {record.get('asset_id')!r}, expected "
                f"{spec.asset_id!r}"
            )
        if record.get("recipient") != self.party_name(leg + 1):
            problems.append(
                f"locked for {record.get('recipient')!r}, expected "
                f"{self.party_name(leg + 1)!r}"
            )
        if (
            expected_hashlock is not None
            and record.get("hashlock") != expected_hashlock.hex()
        ):
            problems.append(f"hashlock does not match the {self._noun} secret")
        remaining = float(record.get("timeout", 0.0)) - self._clock.now()
        if remaining < minimum_lifetime:
            problems.append(
                f"lock expires in {remaining:.1f}s, need at least "
                f"{minimum_lifetime:.1f}s"
            )
        if problems:
            self._advance(CycleState.FAILED)
            raise AssetError(
                f"verified {self._label(leg)} lock on {spec.network!r} is "
                f"unacceptable: " + "; ".join(problems)
            )
        return record

    def _claim_with_recovery(
        self, client: InteropClient, leg: int, preimage: bytes
    ) -> AssetAckMsg:
        """Issue a claim, surviving a lost ack without double-claiming.

        A transport failure on the claim round-trip (the relay crashed or
        dropped the *reply*) does not mean the claim was lost: the command
        may have committed before the path failed. Rather than blindly
        re-claiming — which against an already-claimed lock reads as a
        contract refusal and would wrongly fail the swap — learn the
        escrow's true state and decide: claimed with *this* preimage means
        the claim landed (exactly once; the vault rejects a second claim),
        still locked means the request itself was lost and is safe to
        re-issue. Anything else is unrecoverable.

        The readback is a *proof-carrying* ``GetLock`` query, not a status
        ack: the relay that just failed is exactly the party the protocol
        refuses to trust, and an unverified "claimed" answer from it could
        trick this party into proceeding against a still-locked escrow.
        Only attestation proofs are believed — here as everywhere.
        """
        spec = self.specs[leg]
        command = self._command(client, spec, preimage=preimage)
        try:
            return client.relay.remote_asset(MSG_KIND_ASSET_CLAIM, command)
        except (RelayError, DiscoveryError):
            # May itself raise on an unreachable/tampering path; that
            # propagates without a state change, so the step is retriable.
            record = self._peek_lock(leg)
            if (
                record.get("state") == STATE_CLAIMED
                and record.get("preimage") == preimage.hex()
            ):
                # The lost ack's claim committed: answer with the
                # proof-verified post-claim record.
                return AssetAckMsg(
                    version=PROTOCOL_VERSION,
                    nonce=command.nonce,
                    status=STATUS_OK,
                    asset_id=record.get("asset_id", spec.asset_id),
                    state=record.get("state", ""),
                    owner=record.get("owner", ""),
                    recipient=record.get("recipient", ""),
                    hashlock=(
                        bytes.fromhex(record["hashlock"])
                        if record.get("hashlock")
                        else b""
                    ),
                    timeout=float(record.get("timeout", 0.0)),
                    preimage=preimage,
                )
            if record.get("state") == STATE_LOCKED:
                return client.relay.remote_asset(MSG_KIND_ASSET_CLAIM, command)
            self._advance(CycleState.FAILED)
            raise AssetError(
                f"{self._label(leg)} claim ack lost and the escrow is "
                f"unrecoverable (verified state {record.get('state')!r})"
            )

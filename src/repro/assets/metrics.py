"""Shared instrumentation the HTLC ring engine reports into.

One process-wide :class:`ExchangeMetrics` can be handed to any number of
:class:`~repro.assets.cycles.CycleCoordinator` instances and
:class:`~repro.assets.coordinator.AssetExchangeCoordinator` views of it.
Its counts are the ``repro_assets_*`` instruments on its own registry
(:attr:`ExchangeMetrics.instruments`), each guarded by the instrument's
lock, so concurrent exchanges on different threads aggregate safely;
``repro.ops.exporters.register_assets`` attaches that registry to a
shared one. Both kinds report the ring's state names (``locking``,
``locked``, ``claiming`` and the terminal ones) in the ``state`` label.
"""

from __future__ import annotations

from repro.ops.metrics import MetricsRegistry

#: Coordinator kinds reported in every sample's labels.
KIND_EXCHANGE = "exchange"
KIND_CYCLE = "cycle"

#: States after which an exchange stops counting as active. ``FAILED`` is
#: included even though it can still move to ``REFUNDED``: the protocol is
#: over, only the unwind remains.
_SETTLED_STATES = frozenset({"completed", "refunded", "failed"})

#: Lock→final-claim latency bounds (seconds). Exchanges settle on ledger
#: round-trips, not in-process calls, so the grid runs from sub-second
#: single-hop swaps out to ten-minute N-party cycles near their timelock.
ASSET_LATENCY_BUCKETS = (
    0.1,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
    600.0,
)


class ExchangeMetrics:
    """Asset-exchange activity, counted in registry instruments.

    All methods are safe to call from any thread; ``snapshot`` returns
    plain data read from the instruments.
    """

    def __init__(self) -> None:
        self.instruments = MetricsRegistry()
        self._active = self.instruments.gauge(
            "repro_assets_active",
            "Exchanges/cycles started but not yet settled "
            "(completed, refunded, or failed).",
            ("kind",),
        )
        self._started = self.instruments.counter(
            "repro_assets_started_total", "Exchanges/cycles ever started.", ("kind",)
        )
        self._transitions = self.instruments.counter(
            "repro_assets_transitions_total",
            "Coordinator state-machine transitions, by state entered.",
            ("kind", "state"),
        )
        self._refund_legs = self.instruments.counter(
            "repro_assets_refund_legs_total",
            "Individual locked legs refunded during unwinds.",
            ("kind",),
        )
        self._aborts = self.instruments.counter(
            "repro_assets_aborts_total",
            "Exchanges/cycles aborted by a coordinator decision "
            "(timeout, tampered proof, stalled party).",
            ("kind",),
        )
        self._latency = self.instruments.histogram(
            "repro_assets_lock_to_claim_seconds",
            "First lock to final claim, per completed exchange/cycle.",
            ("kind",),
            buckets=ASSET_LATENCY_BUCKETS,
        )

    # -- recording ---------------------------------------------------------------

    def exchange_started(self, kind: str) -> None:
        self._started.inc(kind=kind)
        self._active.inc(kind=kind)

    def state_entered(self, kind: str, state: str, previous: str | None = None) -> None:
        """One coordinator moved from ``previous`` into ``state``.

        It settles on its first settled state only: a ``failed`` ring
        that is then ``refunded`` leaves the active count once.
        """
        self._transitions.inc(kind=kind, state=state)
        if state in _SETTLED_STATES and previous not in _SETTLED_STATES:
            self._active.dec(kind=kind)

    def refund_recorded(self, kind: str, legs: int = 1) -> None:
        self._refund_legs.inc(legs, kind=kind)

    def abort_recorded(self, kind: str) -> None:
        self._aborts.inc(kind=kind)

    def latency_recorded(self, kind: str, seconds: float) -> None:
        """First lock to final claim, for one completed exchange."""
        self._latency.observe(seconds, kind=kind)

    # -- reading -----------------------------------------------------------------

    def active(self, kind: str) -> int:
        return int(self._active.value(kind=kind))

    def snapshot(self) -> dict:
        """Plain-data view for tests and printouts.

        ``latency`` maps each kind to its non-cumulative ``counts`` (one
        per :data:`ASSET_LATENCY_BUCKETS` bound, then the overflow) and
        ``sum``; its size does not grow with the exchanges recorded.
        """
        started = _by_kind(self._started)
        active = _by_kind(self._active)
        latency = {}
        for pairs, cumulative, total in self._latency.family().samples:
            counts = [cumulative[0]] + [
                high - low for low, high in zip(cumulative, cumulative[1:])
            ]
            latency[dict(pairs)["kind"]] = {"counts": counts, "sum": total}
        return {
            "started": started,
            "settled": {
                kind: started.get(kind, 0) - active.get(kind, 0)
                for kind in set(started) | set(active)
            },
            "active": active,
            "transitions": {
                f"{dict(pairs)['kind']}:{dict(pairs)['state']}": int(value)
                for pairs, value in self._transitions.family().samples
            },
            "refund_legs": _by_kind(self._refund_legs),
            "aborts": _by_kind(self._aborts),
            "latency": latency,
        }


def _by_kind(instrument) -> dict[str, int]:
    return {kind: int(value) for kind, value in instrument.family().sum_by("kind").items()}

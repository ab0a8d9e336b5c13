"""Shared instrumentation the HTLC ring engine reports into.

One process-wide :class:`ExchangeMetrics` can be handed to any number of
:class:`~repro.assets.cycles.CycleCoordinator` instances and
:class:`~repro.assets.coordinator.AssetExchangeCoordinator` views of it;
every counter mutation happens under one lock so concurrent exchanges on
different threads aggregate safely. ``repro.ops.exporters.register_assets``
turns a snapshot of this object into the ``repro_assets_*`` Prometheus
families. Both kinds report the ring's state names (``locking``,
``locked``, ``claiming`` and the terminal ones) in the ``state`` label.
"""

from __future__ import annotations

import threading

#: Coordinator kinds reported in every sample's labels.
KIND_EXCHANGE = "exchange"
KIND_CYCLE = "cycle"

#: States after which an exchange stops counting as active. ``FAILED`` is
#: included even though it can still move to ``REFUNDED``: the protocol is
#: over, only the unwind remains.
_SETTLED_STATES = frozenset({"completed", "refunded", "failed"})


class ExchangeMetrics:
    """Lock-guarded counters for asset-exchange activity.

    All methods are safe to call from any thread; ``snapshot`` returns
    plain data so exporters never touch live state.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started: dict[str, int] = {}
        self._settled: dict[str, int] = {}
        self._transitions: dict[tuple[str, str], int] = {}
        self._refund_legs: dict[str, int] = {}
        self._aborts: dict[str, int] = {}
        self._latencies: dict[str, list[float]] = {}

    # -- recording ---------------------------------------------------------------

    def exchange_started(self, kind: str) -> None:
        with self._lock:
            self._started[kind] = self._started.get(kind, 0) + 1

    def state_entered(self, kind: str, state: str) -> None:
        """One coordinator entered ``state`` (called on every transition)."""
        with self._lock:
            key = (kind, state)
            self._transitions[key] = self._transitions.get(key, 0) + 1
            if state in _SETTLED_STATES:
                self._settled[kind] = self._settled.get(kind, 0) + 1

    def refund_recorded(self, kind: str, legs: int = 1) -> None:
        with self._lock:
            self._refund_legs[kind] = self._refund_legs.get(kind, 0) + legs

    def abort_recorded(self, kind: str) -> None:
        with self._lock:
            self._aborts[kind] = self._aborts.get(kind, 0) + 1

    def latency_recorded(self, kind: str, seconds: float) -> None:
        """First lock to final claim, for one completed exchange."""
        with self._lock:
            self._latencies.setdefault(kind, []).append(float(seconds))

    # -- reading -----------------------------------------------------------------

    def active(self, kind: str) -> int:
        with self._lock:
            return self._started.get(kind, 0) - self._settled.get(kind, 0)

    def snapshot(self) -> dict:
        """Plain-data view for exporters and tests."""
        with self._lock:
            return {
                "started": dict(self._started),
                "settled": dict(self._settled),
                "active": {
                    kind: self._started.get(kind, 0) - self._settled.get(kind, 0)
                    for kind in set(self._started) | set(self._settled)
                },
                "transitions": {
                    f"{kind}:{state}": count
                    for (kind, state), count in self._transitions.items()
                },
                "refund_legs": dict(self._refund_legs),
                "aborts": dict(self._aborts),
                "latencies": {
                    kind: list(values)
                    for kind, values in self._latencies.items()
                },
            }

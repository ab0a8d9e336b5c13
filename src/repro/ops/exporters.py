"""Bridges from the existing stats objects into the metrics registry.

The relay grew its counters long before the ops plane existed —
:class:`~repro.interop.relay.RelayStats`,
:class:`~repro.net.server.RelayServerStats`, the
:class:`~repro.interop.relay.RateLimiter`, the store backends'
:meth:`~repro.store.StateStore.counters`. Rather than rewriting them all
as registry instruments, this module registers *collectors* that read
each object's atomic ``snapshot()`` at scrape time and present the
values as Prometheus families. Hot paths keep their one-lock bump;
only a scrape pays the snapshot cost.

Kept out of ``repro.ops.__init__`` on purpose: importing this module
pulls in :mod:`repro.api.middleware` and :mod:`repro.interop.relay`,
which themselves import :mod:`repro.ops.trace` — callers import
``repro.ops.exporters`` explicitly (the :class:`~repro.net.RelayServer`
does so lazily at start).
"""

from __future__ import annotations

import itertools

from repro.api.middleware import MetricsInterceptor
from repro.assets.metrics import ASSET_LATENCY_BUCKETS
from repro.interop.relay import RateLimitInterceptor, RelayService
from repro.ops.metrics import MetricFamily, MetricsRegistry, counter_family, gauge_family


def register_relay(registry: MetricsRegistry, relay: RelayService) -> None:
    """Export one relay's operational state through ``registry``.

    Binds any installed :class:`MetricsInterceptor` to the registry's
    per-kind latency histograms, and registers a scrape-time collector
    over the relay's stats, rate limiter, store counters, and
    idempotency-record size. Every family is labelled ``relay_id`` so
    several relays can share one registry.

    When the relay's discovery service keeps fleet state
    (:class:`~repro.net.balancer.BalancedDiscovery` pools, the
    :class:`~repro.interop.discovery.FileRegistry` skipped-address
    counter), that state is exported too: per-replica in-flight gauges,
    eviction/restore counters, and balance-decision counters.
    """
    limiters = []
    for interceptor in relay.interceptors:
        if isinstance(interceptor, MetricsInterceptor):
            interceptor.bind_registry(registry)
        if isinstance(interceptor, RateLimitInterceptor):
            limiters.append(interceptor.limiter)
    relay_label = ("relay_id", relay.relay_id)

    def collect() -> "list[MetricFamily]":
        families = [
            counter_family(
                "repro_relay_stats_total",
                "Relay service operational counters (RelayStats).",
                tuple(
                    ((relay_label, ("counter", name)), value)
                    for name, value in relay.stats.snapshot().items()
                ),
            ),
            gauge_family(
                "repro_relay_idempotency_entries",
                "Entries in the relay's exactly-once idempotency record.",
                (((relay_label,), relay.idempotency_size),),
            ),
        ]
        if limiters:
            families.append(
                counter_family(
                    "repro_relay_rate_limited_total",
                    "Requests shed by the relay's rate limiter.",
                    (((relay_label,), sum(l.rejected for l in limiters)),),
                )
            )
        counters = relay.store.counters()
        if counters:
            families.append(
                counter_family(
                    "repro_store_ops_total",
                    "State-store operation counters (applied batches "
                    "and operations).",
                    tuple(
                        ((relay_label, ("op", name)), value)
                        for name, value in sorted(counters.items())
                    ),
                )
            )
        families.extend(_discovery_families(relay.discovery, relay_label))
        return families

    registry.register_collector(collect)


def _discovery_families(discovery, relay_label) -> "list[MetricFamily]":
    """Fleet/discovery families for services that keep such state.

    Duck-typed against the optional ``counters()`` / ``pools()``
    surfaces (:class:`~repro.interop.discovery.FileRegistry`,
    :class:`~repro.net.balancer.BalancedDiscovery`) so plain registries
    export nothing and cost nothing.
    """
    families: "list[MetricFamily]" = []
    counters = getattr(discovery, "counters", None)
    if callable(counters):
        values = counters()
        if values:
            families.append(
                counter_family(
                    "repro_discovery_total",
                    "Discovery-layer counters (e.g. unresolvable "
                    "addresses skipped during lookup).",
                    tuple(
                        ((relay_label, ("counter", name)), value)
                        for name, value in sorted(values.items())
                    ),
                )
            )
    pools = getattr(discovery, "pools", None)
    if not callable(pools):
        return families
    in_flight = []
    evicted = []
    decisions = []
    churn = []
    for snapshot in pools():
        network_label = ("network", snapshot["network"])
        for key, member in sorted(snapshot["members"].items()):
            labels = (relay_label, network_label, ("replica", key))
            in_flight.append((labels, member["in_flight"]))
            evicted.append((labels, 1 if member["evicted"] else 0))
        decisions.extend(
            ((relay_label, network_label, ("strategy", strategy)), snapshot[field])
            for strategy, field in (
                ("p2c", "p2c_decisions"),
                ("sticky", "sticky_decisions"),
            )
        )
        churn.extend(
            ((relay_label, network_label, ("event", event)), snapshot[event])
            for event in ("evictions", "restores")
        )
    if in_flight:
        families.append(
            gauge_family(
                "repro_fleet_in_flight",
                "Requests currently in flight per replica endpoint.",
                tuple(in_flight),
            )
        )
        families.append(
            gauge_family(
                "repro_fleet_evicted",
                "1 when the replica is evicted from rotation "
                "(failed /readyz), else 0.",
                tuple(evicted),
            )
        )
    if decisions:
        families.append(
            counter_family(
                "repro_fleet_balance_total",
                "Balancing decisions per strategy (p2c = "
                "power-of-two-choices reads, sticky = consistent-hash "
                "side effects).",
                tuple(decisions),
            )
        )
    if churn:
        families.append(
            counter_family(
                "repro_fleet_churn_total",
                "Health-driven pool membership events "
                "(evictions and restores).",
                tuple(churn),
            )
        )
    return families


def register_assets(registry: MetricsRegistry, metrics) -> None:
    """Export exchange/cycle activity as the ``repro_assets_*`` families.

    ``metrics`` is a shared :class:`~repro.assets.metrics.ExchangeMetrics`
    (duck-typed: anything with its ``snapshot()``). Like the other
    exporters this registers a scrape-time collector over the snapshot —
    the coordinators keep their one-lock bump on the hot path, and the
    lock→claim histogram is read from the snapshot's per-bucket counts.
    Every family is labelled ``kind`` (``exchange`` for two-party swaps,
    ``cycle`` for N-party rings); transition counters add the ``state``
    entered.
    """

    def collect() -> "list[MetricFamily]":
        snapshot = metrics.snapshot()

        def kind_samples(table: dict) -> tuple:
            return tuple(
                ((("kind", kind),), value) for kind, value in sorted(table.items())
            )

        families = [
            gauge_family(
                "repro_assets_active",
                "Exchanges/cycles started but not yet settled "
                "(completed, refunded, or failed).",
                kind_samples(snapshot["active"]),
            ),
            counter_family(
                "repro_assets_started_total",
                "Exchanges/cycles ever started.",
                kind_samples(snapshot["started"]),
            ),
            counter_family(
                "repro_assets_transitions_total",
                "Coordinator state-machine transitions, by state entered.",
                tuple(
                    ((("kind", key.split(":", 1)[0]), ("state", key.split(":", 1)[1])), value)
                    for key, value in sorted(snapshot["transitions"].items())
                ),
            ),
            counter_family(
                "repro_assets_refund_legs_total",
                "Individual locked legs refunded during unwinds.",
                kind_samples(snapshot["refund_legs"]),
            ),
            counter_family(
                "repro_assets_aborts_total",
                "Exchanges/cycles aborted by a coordinator decision "
                "(timeout, tampered proof, stalled party).",
                kind_samples(snapshot["aborts"]),
            ),
        ]
        histogram_samples = []
        for kind, latency in sorted(snapshot["latency"].items()):
            histogram_samples.append(
                (
                    (("kind", kind),),
                    tuple(itertools.accumulate(latency["counts"])),
                    latency["sum"],
                )
            )
        if histogram_samples:
            families.append(
                MetricFamily(
                    name="repro_assets_lock_to_claim_seconds",
                    kind="histogram",
                    help="First lock to final claim, per completed "
                    "exchange/cycle.",
                    samples=tuple(histogram_samples),
                    buckets=ASSET_LATENCY_BUCKETS,
                )
            )
        return families

    registry.register_collector(collect)


def register_server(registry: MetricsRegistry, server) -> None:
    """Export one :class:`~repro.net.RelayServer`'s frame-level stats."""
    relay_label = ("relay_id", server.service.relay_id)
    monotonic = (
        "connections_accepted",
        "connections_closed",
        "frames_served",
        "frames_rejected",
    )

    def collect() -> "list[MetricFamily]":
        snapshot = server.stats.snapshot()
        return [
            counter_family(
                "repro_relay_server_total",
                "TCP frame-server counters (RelayServerStats).",
                tuple(
                    ((relay_label, ("counter", name)), snapshot[name])
                    for name in monotonic
                ),
            ),
            gauge_family(
                "repro_relay_server_in_flight",
                "Frames currently being served.",
                (((relay_label,), snapshot["in_flight"]),),
            ),
            gauge_family(
                "repro_relay_server_in_flight_peak",
                "Peak concurrently-served frames since start.",
                (((relay_label,), snapshot["in_flight_peak"]),),
            ),
        ]

    registry.register_collector(collect)


__all__ = ["ASSET_LATENCY_BUCKETS", "register_assets", "register_relay", "register_server"]

"""Composition of the owners' instruments into one shared registry.

Every count an owner keeps — :class:`~repro.interop.relay.RelayService`,
:class:`~repro.net.RelayServer`, :class:`~repro.api.MetricsInterceptor`,
:class:`~repro.assets.metrics.ExchangeMetrics` — already lives in
instruments on the owner's own :class:`~repro.ops.MetricsRegistry`
(``owner.instruments``). The ``register_*`` functions here attach each
owner's :meth:`~repro.ops.MetricsRegistry.collect` to a shared registry,
so one scrape renders them all. Only counts other objects keep as plain
ints are read here at scrape time: the store counters, the idempotency
record's size, the rate limiter's sheds, and discovery/fleet state.

Kept out of ``repro.ops.__init__`` on purpose: importing this module
pulls in :mod:`repro.api.middleware` and :mod:`repro.interop.relay`,
which themselves import :mod:`repro.ops` — callers import
``repro.ops.exporters`` explicitly (the :class:`~repro.net.RelayServer`
does so lazily at start).
"""

from __future__ import annotations

from repro.api.middleware import MetricsInterceptor
from repro.assets.metrics import ASSET_LATENCY_BUCKETS
from repro.interop.relay import RateLimitInterceptor, RelayService
from repro.ops.metrics import MetricFamily, MetricsRegistry, counter_family, gauge_family


def register_relay(registry: MetricsRegistry, relay: RelayService) -> None:
    """Export one relay's operational state through ``registry``.

    Attaches the relay's instruments (``repro_relay_stats_total``) and
    those of every installed :class:`MetricsInterceptor`, and registers
    a scrape-time collector over the rate limiter, store counters, and
    idempotency-record size. Every family is labelled ``relay_id`` so
    several relays can share one registry.

    When the relay's discovery service keeps fleet state
    (:class:`~repro.net.balancer.BalancedDiscovery` pools, the
    :class:`~repro.interop.discovery.FileRegistry` skipped-address
    counter), that state is exported too: per-replica in-flight gauges,
    eviction/restore counters, and balance-decision counters.
    """
    registry.register_collector(relay.instruments.collect)
    limiters = []
    for interceptor in relay.interceptors:
        if isinstance(interceptor, MetricsInterceptor):
            registry.register_collector(interceptor.instruments.collect)
        if isinstance(interceptor, RateLimitInterceptor):
            limiters.append(interceptor.limiter)
    relay_label = ("relay_id", relay.relay_id)

    def collect() -> "list[MetricFamily]":
        families = [
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
    (duck-typed: anything with its ``instruments``); its registry is
    attached to ``registry``. Every family is labelled ``kind``
    (``exchange`` for two-party swaps, ``cycle`` for N-party rings);
    transition counters add the ``state`` entered.
    """
    registry.register_collector(metrics.instruments.collect)


def register_server(registry: MetricsRegistry, server) -> None:
    """Export one :class:`~repro.net.RelayServer`'s frame-level counts."""
    registry.register_collector(server.instruments.collect)


__all__ = ["ASSET_LATENCY_BUCKETS", "register_assets", "register_relay", "register_server"]

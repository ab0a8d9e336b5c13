"""ExchangeMetrics keeps bounded state however many exchanges complete."""

from __future__ import annotations

import pytest

from repro.assets.metrics import ASSET_LATENCY_BUCKETS, KIND_CYCLE, ExchangeMetrics


def leaf_count(value) -> int:
    """Scalars reachable from a plain-data snapshot."""
    if isinstance(value, dict):
        return sum(leaf_count(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(leaf_count(item) for item in value)
    return 1


def record(metrics: ExchangeMetrics, count: int) -> None:
    for index in range(count):
        metrics.latency_recorded(KIND_CYCLE, (index % 700) * 1.0)


def test_snapshot_size_does_not_grow_with_recorded_latencies():
    few, many = ExchangeMetrics(), ExchangeMetrics()
    record(few, 10)
    record(many, 10_000)
    assert leaf_count(few.snapshot()) == leaf_count(many.snapshot())

    latency = many.snapshot()["latency"][KIND_CYCLE]
    assert len(latency["counts"]) == len(ASSET_LATENCY_BUCKETS) + 1
    assert sum(latency["counts"]) == 10_000
    assert latency["counts"][-1] == sum(1 for i in range(10_000) if i % 700 > 600)
    assert latency["sum"] == pytest.approx(sum((i % 700) * 1.0 for i in range(10_000)))

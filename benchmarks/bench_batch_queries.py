"""E-batch — batched pipelined queries vs N sequential ``remote_query`` calls.

The ``repro.api`` acceptance experiment: N queries to one target network
issued (a) sequentially through the legacy ``InteropClient.remote_query``
(each call pays its own CMDAC policy lookup, discovery lookup, envelope
round-trip, and failover loop) and (b) as one pipelined batch through
:class:`repro.api.InteropGateway` (one of each, shared across members,
with the serving driver fanning the members concurrently).

Both paths run the full trusted-transfer protocol — proof collection,
end-to-end encryption, and client-side proof verification per member — so
the delta isolates the gateway's amortization.
"""

from __future__ import annotations

import time

import pytest

from repro.api import InteropGateway, MetricsInterceptor
from repro.sim import format_table

BL_ADDRESS = "stl/trade-logistics/TradeLensCC/GetBillOfLading"
N_QUERIES = 8
ROUNDS = 3


@pytest.fixture(scope="module")
def source_metrics(scenario) -> MetricsInterceptor:
    """Per-kind metrics on the source relay, shared by every run here."""
    metrics = MetricsInterceptor()
    scenario.stl_relay.use(metrics)
    return metrics


def print_kind_breakdown(metrics: MetricsInterceptor, title: str) -> None:
    """Render snapshot()'s per-message-kind breakdown as a table."""
    snapshot = metrics.snapshot()
    rows = [
        (
            name,
            str(detail["requests"]),
            str(detail["errors"]),
            f"{detail['seconds_mean'] * 1e3:8.3f} ms",
            f"{detail['seconds_p50'] * 1e3:8.3f} ms",
            f"{detail['seconds_p95'] * 1e3:8.3f} ms",
        )
        for name, detail in snapshot["kinds"].items()
    ]
    print(f"\n{title} — source relay per-kind metrics "
          f"({snapshot['requests_total']} requests total; p50/p95 "
          f"estimated from the latency histogram's buckets)")
    print(format_table(
        rows, headers=["kind", "requests", "errors", "mean", "p50", "p95"]
    ))


def _run_sequential(client, po_ref: str):
    return [client.remote_query(BL_ADDRESS, [po_ref]) for _ in range(N_QUERIES)]


def _run_batched(gateway: InteropGateway, po_ref: str):
    handles = [
        gateway.query(BL_ADDRESS).with_args(po_ref).submit()
        for _ in range(N_QUERIES)
    ]
    return [handle.result() for handle in handles]


def _best_of(rounds: int, fn) -> tuple[float, object]:
    best = float("inf")
    last = None
    for _ in range(rounds):
        started = time.perf_counter()
        last = fn()
        best = min(best, time.perf_counter() - started)
    return best, last


def test_batched_beats_sequential(scenario, source_metrics, bench_report):
    """Acceptance: batched N-query latency < N sequential queries."""
    client = scenario.swt_seller_client.interop_client
    gateway = InteropGateway.from_client(client)
    po_ref = scenario.po_ref

    sequential_s, sequential_results = _best_of(
        ROUNDS, lambda: _run_sequential(client, po_ref)
    )
    batched_s, batched_results = _best_of(
        ROUNDS, lambda: _run_batched(gateway, po_ref)
    )

    # Both paths return identical, fully-verified documents.
    assert len(sequential_results) == len(batched_results) == N_QUERIES
    assert all(b"BL-" in result.data for result in sequential_results)
    assert all(b"BL-" in result.data for result in batched_results)

    rows = [
        (f"{N_QUERIES} x sequential remote_query", f"{sequential_s * 1e3:9.2f} ms", ""),
        (
            f"1 x batched gateway flush ({N_QUERIES} members)",
            f"{batched_s * 1e3:9.2f} ms",
            f"{sequential_s / batched_s:5.2f}x",
        ),
    ]
    print(f"\nE-batch — pipelined batch vs sequential ({N_QUERIES} queries, best of {ROUNDS})")
    print(format_table(rows, headers=["path", "latency", "speedup"]))

    bench_report.record(
        "batch",
        "batched-vs-sequential",
        queries=N_QUERIES,
        sequential_s=sequential_s,
        batched_s=batched_s,
        speedup=sequential_s / batched_s,
    )
    assert batched_s < sequential_s, (
        f"batched path ({batched_s:.4f}s) must beat {N_QUERIES} sequential "
        f"queries ({sequential_s:.4f}s)"
    )
    print_kind_breakdown(source_metrics, "E-batch acceptance")


def test_bench_batched_query_flush(benchmark, scenario, source_metrics):
    """Wall-clock of one batched flush of N member queries."""
    gateway = InteropGateway.from_client(scenario.swt_seller_client.interop_client)
    results = benchmark.pedantic(
        lambda: _run_batched(gateway, scenario.po_ref), rounds=3, iterations=1
    )
    assert all(b"BL-" in result.data for result in results)
    print_kind_breakdown(source_metrics, "batched flush")


def test_bench_sequential_query_baseline(benchmark, scenario, source_metrics):
    """Wall-clock of the same N queries through the legacy client."""
    client = scenario.swt_seller_client.interop_client
    results = benchmark.pedantic(
        lambda: _run_sequential(client, scenario.po_ref), rounds=3, iterations=1
    )
    assert all(b"BL-" in result.data for result in results)
    print_kind_breakdown(source_metrics, "sequential baseline")

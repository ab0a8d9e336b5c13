"""E-store — the durability tax: MemoryStore vs SqliteStore.

Two layers of the state subsystem are measured:

- **raw store ops** — single puts, batched puts, random gets, and a
  namespace scan against each backend (``memory``, ``sqlite-fsync-off``,
  ``sqlite-fsync-on``). Every SqliteStore put is one sqlite transaction
  (fsync'd when enabled); the batched path amortizes one commit over
  many ops. Gets and scans read the sqlite table.
- **relay serving** — a relay serving distinct transact envelopes, each
  of which installs one durable idempotency record. This is the number
  an operator trades against: what turning on ``--state-dir`` (and
  fsync) costs per exactly-once request.

The MemoryStore relay path is the baseline — it is the default backend
and must keep ``BENCH_transport.json`` throughput intact (within 5%),
which ``bench_transport_throughput`` itself asserts against a live
MemoryStore-backed relay. Results land in ``BENCH_store.json`` (and
``--json PATH`` adds them to the combined session report).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.interop.discovery import InMemoryRegistry
from repro.interop.drivers.base import NetworkDriver
from repro.interop.relay import RelayService
from repro.proto.messages import (
    MSG_KIND_TRANSACT_REQUEST,
    PROTOCOL_VERSION,
    STATUS_OK,
    NetworkAddressMsg,
    NetworkQuery,
    QueryResponse,
    RelayEnvelope,
)
from repro.sim import format_table
from repro.store import MemoryStore, SqliteStore

SOURCE = "bench-src"
N_OPS = 400
BATCH_SIZE = 32
N_REQUESTS = 150
ROUNDS = 3
VALUE = b"x" * 64
BACKENDS = ("memory", "sqlite-fsync-off", "sqlite-fsync-on")
SUITE = "store"
DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def open_backend(name: str, root: Path):
    if name == "memory":
        return MemoryStore()
    return SqliteStore(root / name, fsync=name.endswith("-on"))


class BenchTransactDriver(NetworkDriver):
    """Commits instantly; what's under test is the durable record write."""

    platform = "bench"
    supports_transactions = True

    def execute_query(self, query: NetworkQuery) -> QueryResponse:
        raise AssertionError("only transactions are served in this bench")

    def execute_transaction(self, query: NetworkQuery) -> QueryResponse:
        return QueryResponse(
            version=PROTOCOL_VERSION,
            nonce=query.nonce,
            status=STATUS_OK,
            result_plain=b"committed:" + query.nonce.encode(),
        )


def transact_envelope(tag: str) -> bytes:
    return RelayEnvelope(
        version=PROTOCOL_VERSION,
        kind=MSG_KIND_TRANSACT_REQUEST,
        request_id=f"req-{tag}",
        source_network="bench-dst",
        destination_network=SOURCE,
        payload=NetworkQuery(
            version=PROTOCOL_VERSION,
            address=NetworkAddressMsg(
                network=SOURCE, ledger="ledger", contract="docs", function="Put"
            ),
            args=[tag],
            nonce=f"n-{tag}",
        ).encode(),
    ).encode()


def best_of(rounds: int, run) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def measure_store_ops(backend: str, root: Path) -> dict:
    """Each round writes into a fresh namespace so puts are inserts."""
    store = open_backend(backend, root)
    generation = iter(range(1_000_000))

    def put_round() -> str:
        namespace = f"bench/g{next(generation)}"
        for index in range(N_OPS):
            store.put(namespace, f"k-{index:05d}", VALUE)
        return namespace

    def batch_round() -> None:
        namespace = f"bench/g{next(generation)}"
        for start in range(0, N_OPS, BATCH_SIZE):
            with store.batch() as batch:
                for index in range(start, start + BATCH_SIZE):
                    batch.put(namespace, f"k-{index:05d}", VALUE)

    try:
        put_s = best_of(ROUNDS, put_round)
        batch_s = best_of(ROUNDS, batch_round)
        namespace = put_round()  # a warm namespace for the read side
        get_s = best_of(
            ROUNDS,
            lambda: [
                store.get(namespace, f"k-{index:05d}") for index in range(N_OPS)
            ],
        )
        scan_s = best_of(ROUNDS, lambda: store.scan(namespace))
        return {
            "ops": N_OPS,
            "value_bytes": len(VALUE),
            "put_ops_per_s": N_OPS / put_s,
            "batched_put_ops_per_s": N_OPS / batch_s,
            "batch_size": BATCH_SIZE,
            "get_ops_per_s": N_OPS / get_s,
            "scan_ms": scan_s * 1e3,
        }
    finally:
        store.close()


def measure_relay(backend: str, root: Path) -> dict:
    """Requests/sec serving N distinct exactly-once transact requests."""
    store = open_backend(backend, root)
    registry = InMemoryRegistry()
    relay = RelayService(
        SOURCE, registry, store=store, idempotency_capacity=4 * N_REQUESTS * ROUNDS
    )
    relay.register_driver(BenchTransactDriver(SOURCE))
    registry.register(SOURCE, relay)
    generation = iter(range(1_000_000))

    def serve_round() -> None:
        marker = next(generation)
        for index in range(N_REQUESTS):
            relay.handle_request(transact_envelope(f"{marker}-{index}"))

    try:
        wall = best_of(ROUNDS, serve_round)
        return {
            "requests": N_REQUESTS,
            "requests_per_s": N_REQUESTS / wall,
            "per_request_us": wall / N_REQUESTS * 1e6,
        }
    finally:
        store.close()


def test_durability_tax_is_measured_and_bounded(tmp_path, bench_report):
    """Acceptance: the sqlite overhead is recorded to BENCH_store.json,
    and the batched path amortizes the per-commit cost."""
    store_results = {
        backend: measure_store_ops(backend, tmp_path / "ops") for backend in BACKENDS
    }
    relay_results = {
        backend: measure_relay(backend, tmp_path / "relay") for backend in BACKENDS
    }

    rows = [
        (
            backend,
            f"{store_results[backend]['put_ops_per_s']:10.0f}/s",
            f"{store_results[backend]['batched_put_ops_per_s']:10.0f}/s",
            f"{store_results[backend]['get_ops_per_s']:10.0f}/s",
            f"{relay_results[backend]['requests_per_s']:8.1f} req/s",
        )
        for backend in BACKENDS
    ]
    print(
        f"\nE-store — durability tax ({N_OPS} puts, batches of {BATCH_SIZE}, "
        f"{N_REQUESTS} relay requests; best of {ROUNDS})"
    )
    print(
        format_table(
            rows, headers=["backend", "put", "batched put", "get", "relay"]
        )
    )

    baseline = relay_results["memory"]["requests_per_s"]
    for backend in BACKENDS:
        bench_report.record(SUITE, f"ops-{backend}", **store_results[backend])
        bench_report.record(
            SUITE,
            f"relay-{backend}",
            relay_overhead_pct=(
                (baseline / relay_results[backend]["requests_per_s"] - 1.0) * 100.0
            ),
            **relay_results[backend],
        )
    target = bench_report.write_suite(SUITE, DEFAULT_JSON)
    print(f"store trajectory written to {target}")

    for backend in ("sqlite-fsync-off", "sqlite-fsync-on"):
        amortized = store_results[backend]["batched_put_ops_per_s"]
        single = store_results[backend]["put_ops_per_s"]
        assert amortized > single, (
            f"{backend}: batched commits must amortize the per-commit "
            f"cost ({amortized:.0f}/s vs {single:.0f}/s single puts)"
        )
    # The volatile default must not be paying a visible durability tax.
    assert relay_results["memory"]["requests_per_s"] > 0

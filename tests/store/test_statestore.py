"""Backend conformance for the :class:`repro.store.StateStore` seam.

Both backends must agree on the read/write/batch semantics; only
durability across process boundaries (modeled as close + reopen of the
same directory) separates them.
"""

from __future__ import annotations

import shutil
import sqlite3
import zlib

import pytest

from repro.errors import StoreCorruptionError, StoreError
from repro.store import (
    MemoryStore,
    SqliteStore,
    StateStore,
    StoreOp,
    open_store,
)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        backend: StateStore = MemoryStore()
    else:
        backend = SqliteStore(tmp_path / "state", fsync=False)
    yield backend
    backend.close()


class TestCommonSemantics:
    def test_closed_store_refuses_every_call_but_counters(self, store):
        """Either backend, once closed, answers nothing: reads and writes
        raise StoreError, close() is idempotent, counters() still
        renders, and a relay on it reports not-ready."""
        from repro.interop.discovery import InMemoryRegistry
        from repro.interop.relay import RelayService
        from repro.ops.health import relay_checks

        store.put("ns", "k", b"v")
        relay = RelayService("opsnet", InMemoryRegistry(), store=store)
        store.close()
        for call in (
            lambda: store.get("ns", "k"),
            lambda: store.scan("ns"),
            lambda: store.put("ns", "k", b"w"),
            lambda: store.delete("ns", "k"),
            lambda: store.apply([StoreOp.put("ns", "k", b"w")]),
        ):
            with pytest.raises(StoreError, match="closed"):
                call()
        store.close()
        assert store.counters() == {"batches_applied": 1, "ops_applied": 1}
        ready, results = relay_checks(relay).ready()
        assert ready is False
        assert {r.name: r.ok for r in results}["store_open"] is False

    def test_put_get_delete_roundtrip(self, store):
        assert store.get("ns", "k") is None
        store.put("ns", "k", b"v1")
        assert store.get("ns", "k") == b"v1"
        store.put("ns", "k", b"v2")  # overwrite
        assert store.get("ns", "k") == b"v2"
        store.delete("ns", "k")
        assert store.get("ns", "k") is None
        store.delete("ns", "k")  # idempotent

    def test_namespaces_are_disjoint(self, store):
        store.put("a", "k", b"in-a")
        store.put("b", "k", b"in-b")
        assert store.get("a", "k") == b"in-a"
        assert store.get("b", "k") == b"in-b"
        store.delete("a", "k")
        assert store.get("b", "k") == b"in-b"

    def test_scan_is_sorted_and_prefix_filtered(self, store):
        store.put("ns", "b", b"2")
        store.put("ns", "a", b"1")
        store.put("ns", "ab", b"3")
        store.put("other", "a", b"x")
        assert store.scan("ns") == [("a", b"1"), ("ab", b"3"), ("b", b"2")]
        assert store.scan("ns", prefix="a") == [("a", b"1"), ("ab", b"3")]
        assert store.scan("missing") == []

    def test_batch_commits_atomically_on_clean_exit(self, store):
        with store.batch() as batch:
            batch.put("ns", "x", b"1").put("ns", "y", b"2").delete("ns", "x")
        assert store.get("ns", "x") is None
        assert store.get("ns", "y") == b"2"

    def test_batch_discarded_on_exception(self, store):
        store.put("ns", "kept", b"original")
        with pytest.raises(RuntimeError):
            with store.batch() as batch:
                batch.put("ns", "kept", b"clobbered")
                batch.put("ns", "new", b"never")
                raise RuntimeError("crash mid-batch")
        assert store.get("ns", "kept") == b"original"
        assert store.get("ns", "new") is None

    def test_malformed_ops_rejected(self, store):
        with pytest.raises(StoreError):
            StoreOp.put("", "k", b"v")
        with pytest.raises(StoreError):
            StoreOp.put("ns", "", b"v")
        with pytest.raises(StoreError):
            StoreOp.put("ns", "k", "not-bytes")
        with pytest.raises(StoreError):
            StoreOp(op=7, namespace="ns", key="k")


class TestDurabilityBoundary:
    def test_memory_store_state_dies_with_the_object(self, tmp_path):
        first = MemoryStore()
        first.put("ns", "k", b"v")
        first.close()
        assert MemoryStore().get("ns", "k") is None
        assert first.persistent is False

    def test_sqlite_store_survives_reopen(self, tmp_path):
        directory = tmp_path / "state"
        store = SqliteStore(directory, fsync=False)
        store.put("ns", "k", b"v")
        store.put("ns", "gone", b"x")
        store.delete("ns", "gone")
        store.close()
        reopened = SqliteStore(directory, fsync=False)
        try:
            assert reopened.persistent is True
            assert reopened.get("ns", "k") == b"v"
            assert reopened.get("ns", "gone") is None
        finally:
            reopened.close()

    def test_sqlite_recovers_wal_tail_without_close(self, tmp_path):
        """No close(), no checkpoint: the committed batches sit only in
        sqlite's ``state.db-wal``, and that tail alone carries them across
        the 'crash' (a copy of the files taken while the store is open)."""
        directory = tmp_path / "state"
        store = SqliteStore(directory, fsync=True)
        store.put("ns", "a", b"1")
        store.put("ns", "b", b"2")
        image = tmp_path / "image"
        image.mkdir()
        for name in ("state.db", "state.db-wal"):
            shutil.copyfile(directory / name, image / name)
        store.close()

        without_tail = tmp_path / "db-only"
        without_tail.mkdir()
        shutil.copyfile(image / "state.db", without_tail / "state.db")
        for copy, rows in (
            (without_tail, []),
            (image, [("a", b"1"), ("b", b"2")]),
        ):
            reopened = SqliteStore(copy, fsync=False)
            try:
                assert reopened.scan("ns") == rows
            finally:
                reopened.close()

    def test_unreadable_state_db_is_corruption(self, tmp_path):
        directory = tmp_path / "state"
        directory.mkdir()
        (directory / "state.db").write_bytes(b"not a database " * 64)
        with pytest.raises(StoreCorruptionError, match="state.db"):
            SqliteStore(directory, fsync=False)

    def test_closed_sqlite_store_refuses_every_call(self, tmp_path):
        """A closed store answers nothing from memory: reads and writes
        raise StoreError, and a relay on it reports not-ready."""
        from repro.interop.discovery import InMemoryRegistry
        from repro.interop.relay import RelayService
        from repro.ops.health import relay_checks

        store = SqliteStore(tmp_path / "state", fsync=False)
        store.put("ns", "k", b"v")
        relay = RelayService("opsnet", InMemoryRegistry(), store=store)
        store.close()
        for call in (
            lambda: store.get("ns", "k"),
            lambda: store.scan("ns"),
            lambda: store.put("ns", "k", b"w"),
            lambda: store.delete("ns", "k"),
            lambda: store.apply([StoreOp.put("ns", "k", b"w")]),
        ):
            with pytest.raises(StoreError, match="closed"):
                call()
        store.close()  # idempotent
        ready, results = relay_checks(relay).ready()
        assert ready is False
        assert {r.name: r.ok for r in results}["store_open"] is False


class TestOldLayout:
    """Directories written by the earlier layout: ``state.db`` holding the
    checkpointed ``kv`` rows plus a ``state.wal`` log beside it."""

    WAL_HEADER = b"RPROWAL1" + bytes([1])

    def write_old_layout(self, directory, wal_bytes: bytes) -> None:
        directory.mkdir()
        conn = sqlite3.connect(str(directory / "state.db"))
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        conn.execute(
            "CREATE TABLE kv (namespace TEXT NOT NULL, key TEXT NOT NULL,"
            " value BLOB NOT NULL, PRIMARY KEY (namespace, key))"
        )
        conn.execute("INSERT INTO kv VALUES ('ns', 'k', ?)", (b"checkpointed",))
        conn.commit()
        conn.close()
        (directory / "state.wal").write_bytes(wal_bytes)

    def test_cleanly_closed_directory_opens_with_its_data(self, tmp_path):
        directory = tmp_path / "state"
        self.write_old_layout(directory, self.WAL_HEADER)
        store = SqliteStore(directory, fsync=False)
        try:
            assert store.scan("ns") == [("k", b"checkpointed")]
            store.put("ns", "k2", b"new")
        finally:
            store.close()
        reopened = SqliteStore(directory, fsync=False)
        try:
            assert reopened.get("ns", "k2") == b"new"
        finally:
            reopened.close()

    def test_directory_with_logged_records_is_refused(self, tmp_path):
        directory = tmp_path / "state"
        # One framed put: length u32 | crc32 u32 | payload.
        payload = bytes([1, 0, 2]) + b"ns" + bytes([1]) + b"k" + bytes([1]) + b"v"
        record = (
            len(payload).to_bytes(4, "little")
            + zlib.crc32(payload).to_bytes(4, "little")
            + payload
        )
        self.write_old_layout(directory, self.WAL_HEADER + record)
        with pytest.raises(StoreCorruptionError, match="state.wal"):
            SqliteStore(directory, fsync=False)


class TestOpenStore:
    def test_none_means_volatile_memory(self):
        store = open_store(None)
        assert isinstance(store, MemoryStore)

    def test_path_means_durable_sqlite(self, tmp_path):
        store = open_store(tmp_path / "state", fsync=False)
        try:
            assert isinstance(store, SqliteStore)
            assert store.persistent is True
        finally:
            store.close()

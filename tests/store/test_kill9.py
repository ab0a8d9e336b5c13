"""SqliteStore survives ``kill -9`` mid-stream.

A child process commits numbered two-key batches with ``fsync=True`` and
prints each index once ``apply`` has returned. The parent kills it
(SIGKILL, no cleanup runs) after some acknowledgements, reopens the
directory, and checks the store's durability contract:

1. every batch whose ``apply`` returned is present;
2. no batch is partly applied (both keys or neither);
3. the surviving batches are a prefix of those sent.

Three children run one after another on the same directory, each
resuming from what the previous crash left, so recovery is also tested
on a directory that has already been recovered.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.store import SqliteStore

NAMESPACE = "crash"
#: Acknowledged batches to wait for before each kill.
KILL_AFTER = (5, 40, 120)

CHILD = """
import sys
from repro.store import SqliteStore, StoreOp

store = SqliteStore(sys.argv[1], fsync=True)
start = len(store.scan("crash")) // 2
for index in range(start, start + 1_000_000):
    value = index.to_bytes(8, "big") * 512  # ~4 KiB, an idempotency record's size
    store.apply(
        [
            StoreOp.put("crash", f"{index:08d}-a", value),
            StoreOp.put("crash", f"{index:08d}-b", value),
        ]
    )
    print(index, flush=True)
"""


def surviving_indices(directory: Path) -> list[int]:
    """Indices present after reopen; fails on a half-applied batch."""
    store = SqliteStore(directory, fsync=True)
    try:
        rows = store.scan(NAMESPACE)
    finally:
        store.close()
    halves: dict[int, set[str]] = {}
    for key, value in rows:
        index, half = key.split("-")
        assert value == int(index).to_bytes(8, "big") * 512
        halves.setdefault(int(index), set()).add(half)
    torn = sorted(index for index, seen in halves.items() if seen != {"a", "b"})
    assert not torn, f"batches applied partly: {torn}"
    return sorted(halves)


def run_child_until_killed(directory: Path, kill_after: int) -> list[int]:
    """Start a writer, SIGKILL it after ``kill_after`` acks; return every
    index it acknowledged."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(directory)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    # A writer that hangs before printing would block readline forever.
    watchdog = threading.Timer(60.0, child.kill)
    watchdog.start()
    acked: list[int] = []
    try:
        assert child.stdout is not None
        while len(acked) < kill_after:
            line = child.stdout.readline()
            assert line, f"writer exited early with {child.wait(timeout=10)}"
            acked.append(int(line))
        child.kill()
        # Lines printed before the kill landed are acknowledgements too.
        acked.extend(int(line) for line in child.stdout.read().split())
    finally:
        watchdog.cancel()
        child.kill()
        child.wait(timeout=30)
        if child.stdout is not None:
            child.stdout.close()
    assert child.returncode == -9
    return acked


def test_kill9_keeps_every_acknowledged_batch_whole(tmp_path):
    directory = tmp_path / "state"
    sent = 0
    for kill_after in KILL_AFTER:
        acked = run_child_until_killed(directory, kill_after)
        assert acked == list(range(sent, sent + len(acked)))
        survived = surviving_indices(directory)
        assert survived == list(range(len(survived))), "not a prefix"
        # Every acknowledged batch is there; at most the one in flight
        # when the kill landed may be there beyond them.
        assert sent + len(acked) <= len(survived) <= sent + len(acked) + 1
        sent = len(survived)

"""Property tests for SqliteStore's recovery from its write-ahead log (hypothesis).

Under ``journal_mode=WAL`` a committed batch sits in ``state.db-wal``
until sqlite checkpoints it into ``state.db``. A *crash image* is a copy
of those two files taken while the store is still open: exactly what a
``kill -9`` leaves on disk, with no close and no checkpoint. The
durability contract the rest of the repo leans on:

1. reopening a crash image replays every committed batch, giving the
   same state as the same batches applied to a :class:`MemoryStore`;
2. a torn final batch (the process died mid-``write``) is dropped on
   reopen and NEVER corrupts earlier batches;
3. arbitrary junk appended after the last good frame is likewise
   confined to the tail;
4. a store reopened after a tear accepts new batches, and a further
   reopen replays the repaired history plus the new batches.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import MemoryStore, SqliteStore, StoreOp

NAMESPACE_NAMES = ["relay/idempotency", "assets/exchanges", "n"]
NAMESPACES = st.sampled_from(NAMESPACE_NAMES)
KEYS = st.text(alphabet="abcdef-", min_size=1, max_size=8)
VALUES = st.binary(max_size=24)

OPS = st.one_of(
    st.builds(StoreOp.put, NAMESPACES, KEYS, VALUES),
    st.builds(StoreOp.delete, NAMESPACES, KEYS),
)

BATCHES = st.lists(st.lists(OPS, min_size=1, max_size=4), max_size=8)
TAIL = st.lists(st.lists(OPS, min_size=1, max_size=3), min_size=1, max_size=3)

#: Every torn batch ends with this put, so it always writes wal frames.
LAST_OP = StoreOp.put("n", "last-batch", b"torn")

WAL = "state.db-wal"


def write_crash_image(directory: Path, batches) -> tuple[Path, list[int]]:
    """Apply ``batches`` and copy the files out without closing.

    Returns the copy and the size of ``state.db-wal`` after each batch.
    """
    live = directory / "live"
    store = SqliteStore(live, fsync=False)
    sizes = []
    try:
        for batch in batches:
            store.apply(batch)
            sizes.append((live / WAL).stat().st_size)
        image = directory / "image"
        image.mkdir()
        for name in ("state.db", WAL):
            shutil.copyfile(live / name, image / name)
    finally:
        store.close()
    return image, sizes


def expected_state(batches) -> dict[str, list[tuple[str, bytes]]]:
    model = MemoryStore()
    for batch in batches:
        model.apply(batch)
    return {namespace: model.scan(namespace) for namespace in NAMESPACE_NAMES}


def reopened_state(image: Path) -> dict[str, list[tuple[str, bytes]]]:
    store = SqliteStore(image, fsync=False)
    try:
        return {namespace: store.scan(namespace) for namespace in NAMESPACE_NAMES}
    finally:
        store.close()


def tear_last_batch(image: Path, sizes: list[int], cut: int) -> None:
    """Truncate ``state.db-wal`` somewhere inside the last batch's frames.

    ``sizes`` starts with an empty batch, so ``sizes[-2]`` is where the
    last batch's frames begin even when it is the only real one.
    """
    last_start = sizes[-2]
    assert sizes[-1] > last_start, "the last batch wrote no wal frames"
    with open(image / WAL, "r+b") as handle:
        handle.truncate(last_start + cut % (sizes[-1] - last_start))


@settings(max_examples=40, deadline=None)
@given(batches=BATCHES)
def test_replay_reconstructs_final_state(batches):
    """Crash image → reopen replays every committed batch; the state is
    the one the same batches give a MemoryStore."""
    with tempfile.TemporaryDirectory() as directory:
        image, _ = write_crash_image(Path(directory), batches)
        assert reopened_state(image) == expected_state(batches)


@settings(max_examples=40, deadline=None)
@given(batches=BATCHES, last=st.lists(OPS, max_size=3), cut=st.integers(min_value=0))
def test_torn_final_record_dropped_earlier_records_intact(batches, last, cut):
    """Truncate anywhere inside the last batch's frames: the final batch
    vanishes whole, every earlier batch replays untouched."""
    history = batches + [last + [LAST_OP]]
    with tempfile.TemporaryDirectory() as directory:
        image, sizes = write_crash_image(Path(directory), [[]] + history)
        tear_last_batch(image, sizes, cut)
        assert reopened_state(image) == expected_state(batches)


@settings(max_examples=40, deadline=None)
@given(batches=BATCHES, junk=st.binary(min_size=1, max_size=64))
def test_junk_tail_never_corrupts_committed_batches(batches, junk):
    """Garbage after the last good frame (a torn write of any shape) is
    dropped — committed batches always replay."""
    with tempfile.TemporaryDirectory() as directory:
        image, _ = write_crash_image(Path(directory), batches)
        with open(image / WAL, "ab") as handle:
            handle.write(junk)
        assert reopened_state(image) == expected_state(batches)


@settings(max_examples=30, deadline=None)
@given(batches=BATCHES, last=st.lists(OPS, max_size=3), tail=TAIL)
def test_reopen_after_tear_accepts_appends(batches, last, tail):
    """A torn image opens as a working store: new batches commit, and a
    further reopen replays the repaired history plus the new batches."""
    history = batches + [last + [LAST_OP]]
    with tempfile.TemporaryDirectory() as directory:
        image, sizes = write_crash_image(Path(directory), [[]] + history)
        tear_last_batch(image, sizes, 3)  # mid frame-header tear
        repaired = SqliteStore(image, fsync=False)
        try:
            for batch in tail:
                repaired.apply(batch)
        finally:
            repaired.close()
        assert reopened_state(image) == expected_state(batches + tail)

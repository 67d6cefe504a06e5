"""The one persistent result store (repro.serving.fabric.FabricCache).

The load-bearing guarantees:

* **a plain key/payload store**: round trip, first write wins, rotation,
  entries survive a reopen — also under the *same* writer id;
* **torn writes are survivable**: corrupt lines are skipped and counted,
  a torn tail never swallows the next record, and truncating a segment at
  every byte of its last record never serves the torn record nor loses an
  earlier one — to the same writer, to a sibling, or through compaction;
* **concurrent writers never corrupt**: two real processes appending to
  one directory — including writing the *same* key — leave every record
  readable, zero corrupt lines, and compaction leaves exactly one valid
  entry per key;
* **cross-writer reads**: an entry flushed by writer A is a (remote)
  hit for writer B without re-encoding, after at most one refresh;
* **lock-aware compaction**: keeps every live record, drops corrupt ones
  and (with ``max_bytes``) the oldest; a live writer's segments are
  skipped, not merged; a second concurrent compactor is refused
  (``CacheLockedError``); ``dry_run=True`` projects the real run byte for
  byte and mutates nothing; files that merely match the glob survive;
* **migration**: plain ``segment-NNNNNN.jsonl`` files in the record
  grammar of the releases that had a separate single-writer store are
  served warm and fold into the next generation;
* readers recover when a compaction deletes segment files out from
  under their in-memory index, and degradations are logged, not silent;
* ``peek`` — the event loop's probe — is an index lookup plus one read:
  it never scans the directory, counts hits only, and leaves what it
  cannot answer (a sibling's fresh entry, a vanished file) to ``get``;
* compaction reaps the lock files of writers that are gone, never a held
  one, and a writer racing the unlink ends up holding the path's new file.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import shutil

import pytest

from repro.encoding.cache import content_digest
from repro.serving import (
    CacheLockedError,
    DiskCache,
    FabricCache,
    FileLock,
    is_cache_directory,
)
from repro.serving.fabric import INDEX_NAME, split_segment_name, writer_lock_path


def _payload(tag, i):
    return {"tag": tag, "i": i, "text": f"payload-{tag}-{i}" * 3}


def _line(key, payload) -> bytes:
    """One record in the on-disk grammar (unchanged since the first store)."""
    return (
        json.dumps({"key": key, "payload": payload}, ensure_ascii=False) + "\n"
    ).encode("utf-8")


def _jsonl_files(directory):
    return sorted(
        (p.name, p.stat().st_size) for p in directory.iterdir()
        if p.suffix == ".jsonl"
    )


def _assert_generation_checksums(directory) -> dict:
    """The published generation matches the index that names it."""
    meta = json.loads((directory / INDEX_NAME).read_text())
    data = (directory / meta["file"]).read_bytes()
    assert len(data) == meta["bytes"]
    assert content_digest((data,)) == meta["checksum"]
    for key, (offset, length) in meta["entries"].items():
        assert json.loads(data[offset:offset + length])["key"] == key
    return meta


def test_one_class_two_names():
    from repro.serving import diskcache, fabric

    assert DiskCache is FabricCache
    assert diskcache.DiskCache is fabric.FabricCache


@pytest.mark.smoke
class TestStore:
    """FabricCache as a plain key/payload store."""

    def test_put_get_roundtrip_and_hot_hits(self, tmp_path):
        with FabricCache(tmp_path, writer="w0") as cache:
            for i in range(5):
                cache.put(f"k{i}", _payload("a", i))
            assert len(cache) == 5 and "k1" in cache
            for i in range(5):
                assert cache.get(f"k{i}") == _payload("a", i)
            assert cache.stats.writes == 5
            assert cache.stats.hits == 5
            assert cache.stats.misses == 0
            assert cache.get("absent") is None
            assert cache.stats.misses == 1

    def test_first_write_wins(self, tmp_path):
        with FabricCache(tmp_path, writer="w0") as cache:
            cache.put("k", {"v": 1})
            cache.put("k", {"v": 2})  # ignored: entries are immutable
            assert cache.get("k") == {"v": 1}
            assert cache.stats.writes == 1

    def test_segment_rotation_names_carry_writer(self, tmp_path):
        with FabricCache(tmp_path, writer="w7", max_segment_records=3) as cache:
            for i in range(8):
                cache.put(f"k{i}", _payload("r", i))
        segments = sorted(tmp_path.glob("segment-*.jsonl"))
        assert len(segments) == 3  # 3 + 3 + 2
        for path in segments:
            writer, _number = split_segment_name(path)
            assert writer == "w7"
        with FabricCache(tmp_path, writer="reader") as reopened:
            assert {reopened.get(f"k{i}")["i"] for i in range(8)} == set(range(8))

    def test_default_writer_survives_reopen(self, tmp_path):
        """Single-process serving: the default ``pid<PID>`` writer id is
        the same before and after the reopen."""
        with FabricCache(tmp_path) as cache:
            cache.put("k", {"n": 7})
        reopened = FabricCache(tmp_path)
        assert reopened.get("k") == {"n": 7}
        assert len(reopened) == 1

    def test_same_writer_reopen_indexes_own_segments(self, tmp_path):
        """Regression: a handle reopened under the *same* writer id used
        to skip its own earlier segments on every scan."""
        payloads = {f"k{i}": _payload("w", i) for i in range(5)}
        with FabricCache(tmp_path, writer="w", max_segment_records=2) as cache:
            for key, payload in payloads.items():
                cache.put(key, payload)
        with FabricCache(tmp_path, writer="w", hot_entries=0) as reopened:
            for key, payload in payloads.items():
                assert reopened.get(key) == payload
            assert reopened.stats.hits == 5
            assert reopened.stats.remote_hits == 0  # own records are local
            highest = max(
                split_segment_name(p)[1] for p in tmp_path.glob("segment-*.jsonl")
            )
            reopened.put("later", {"v": 1})
        # A reopened writer never appends to a file it did not open.
        newest = max(
            tmp_path.glob("segment-*.jsonl"),
            key=lambda p: split_segment_name(p)[1],
        )
        assert split_segment_name(newest) == ("w", highest + 1)
        assert newest.read_bytes() == _line("later", {"v": 1})

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        with FabricCache(tmp_path, writer="w") as cache:
            cache.put("good", {"ok": True})
            cache.put("also-good", {"ok": True})
        segment = next(tmp_path.glob("segment-*.jsonl"))
        lines = segment.read_bytes().splitlines(keepends=True)
        # Torn write in the middle: truncated JSON plus garbage bytes.
        segment.write_bytes(
            lines[0] + b'{"key": "torn", "payl\n' + b"\xff\xfe garbage\n" + lines[1]
        )
        recovered = FabricCache(tmp_path, writer="w")
        assert recovered.stats.corrupt_records == 2
        assert recovered.get("good") == {"ok": True}
        assert recovered.get("also-good") == {"ok": True}
        assert len(recovered) == 2
        # Recovery keeps the store writable.
        recovered.put("new", {"ok": 1})
        recovered.close()
        assert FabricCache(tmp_path, writer="w").get("new") == {"ok": 1}

    def test_torn_tail_does_not_swallow_next_record(self, tmp_path):
        """A crash can leave the newest segment without a trailing newline;
        the next append must not merge into the torn bytes."""
        with FabricCache(tmp_path, writer="w") as cache:
            cache.put("survivor", {"ok": True})
        segment = next(tmp_path.glob("segment-*.jsonl"))
        with open(segment, "ab") as handle:
            handle.write(b'{"key": "torn", "payload"')  # no newline
        reopened = FabricCache(tmp_path, writer="w")
        assert reopened.get("torn") is None
        reopened.put("after-crash", {"n": 1})
        assert reopened.get("after-crash") == {"n": 1}
        reopened.close()
        # The record written after recovery survives the *next* restart.
        final = FabricCache(tmp_path, writer="w")
        assert final.get("after-crash") == {"n": 1}
        assert final.get("survivor") == {"ok": True}
        # The torn line is dead space compaction drops and counts.
        result = final.compact()
        assert (result.records, result.corrupt_records) == (2, 1)
        assert final.stats.corrupt_records == 1

    def test_invalid_segment_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_segment_records"):
            FabricCache(tmp_path, max_segment_records=0)

    def test_is_cache_directory(self, tmp_path):
        assert not is_cache_directory(tmp_path)
        assert not is_cache_directory(tmp_path / "never-created")
        with FabricCache(tmp_path / "cache", writer="w0") as cache:
            cache.put("k", {"v": 1})
            assert is_cache_directory(tmp_path / "cache")
            cache.compact()
        # Fully compacted: no segment files at all, still a cache.
        assert not list((tmp_path / "cache").glob("segment-*.jsonl"))
        assert is_cache_directory(tmp_path / "cache")


@pytest.mark.smoke
class TestCrossWriterReads:
    def test_sibling_entry_is_a_remote_hit(self, tmp_path):
        a = FabricCache(tmp_path, writer="wa", refresh_interval=0.0)
        b = FabricCache(tmp_path, writer="wb", refresh_interval=0.0)
        try:
            a.put("shared", _payload("a", 0))
            # b never wrote this key: the miss triggers a refresh that
            # tails a's segment, then the retry hits.
            assert b.get("shared") == _payload("a", 0)
            assert b.stats.remote_hits == 1
            assert b.stats.misses == 0
            assert b.stats.corrupt_records == 0
        finally:
            a.close()
            b.close()

    def test_reads_see_only_complete_lines(self, tmp_path):
        a = FabricCache(tmp_path, writer="wa", refresh_interval=0.0)
        b = FabricCache(tmp_path, writer="wb", refresh_interval=0.0)
        try:
            a.put("k0", _payload("a", 0))
            assert b.get("k0") is not None
            # Simulate a writer mid-append: a torn (unterminated) tail
            # line must be invisible, not corrupt.
            segment = next(tmp_path.glob("segment-wa-*.jsonl"))
            with open(segment, "ab") as handle:
                handle.write(b'{"key": "torn", "payload": {"v"')
            assert b.get("torn") is None
            assert b.stats.corrupt_records == 0
            # The writer finishing the line makes it readable.
            with open(segment, "ab") as handle:
                handle.write(b': 1}}\n')
            assert b.get("torn") == {"v": 1}
        finally:
            a.close()
            b.close()

    def test_compacted_generation_readable_by_late_joiner(self, tmp_path):
        with FabricCache(tmp_path, writer="wa") as a:
            for i in range(10):
                a.put(f"k{i}", _payload("a", i))
            a.compact()
        assert (tmp_path / INDEX_NAME).exists()
        with FabricCache(tmp_path, writer="wb") as b:
            for i in range(10):
                assert b.get(f"k{i}") == _payload("a", i)

    def test_reader_recovers_from_concurrent_compaction(self, tmp_path):
        a = FabricCache(tmp_path, writer="wa", refresh_interval=0.0)
        b = FabricCache(tmp_path, writer="wb", refresh_interval=0.0)
        try:
            a.put("k", _payload("a", 0))
            assert b.get("k") is not None  # b's index points at a's segment
            a.close()  # quiescent: compaction may merge a's segments
            with FabricCache(tmp_path, writer="wc") as c:
                c.compact()
            # a's segment file is gone; b recovers via a forced refresh
            # onto the compacted generation.
            assert b.get("k") == _payload("a", 0)
        finally:
            b.close()

    def test_peek_never_scans_and_leaves_the_rest_to_get(
        self, tmp_path, monkeypatch
    ):
        a = FabricCache(tmp_path, writer="wa", refresh_interval=0.0)
        b = FabricCache(tmp_path, writer="wb", refresh_interval=0.0, hot_entries=0)
        try:
            a.put("own", _payload("a", 0))
            a.put("fresh", _payload("a", 1))  # b has not refreshed since
            scans = []
            monkeypatch.setattr(
                FabricCache, "refresh",
                lambda self, force=False: scans.append("refresh"),
            )
            monkeypatch.setattr(
                FabricCache, "_segments_by_writer",
                lambda self: scans.append("glob") or {},
            )
            assert a.peek("own") == _payload("a", 0)  # own write: index hit
            assert b.peek("fresh") is None  # a sibling's entry needs a scan
            assert b.peek("never-written") is None
            assert scans == []
            assert (a.stats.hits, a.stats.misses) == (1, 0)
            assert (b.stats.hits, b.stats.misses) == (0, 0)  # nothing counted
            monkeypatch.undo()
            assert b.get("fresh") == _payload("a", 1)  # get's refresh finds it
            assert b.peek("fresh") == _payload("a", 1)  # ...and now so does peek
            assert (b.stats.hits, b.stats.remote_hits, b.stats.misses) == (2, 2, 0)
        finally:
            a.close()
            b.close()

    def test_peek_leaves_a_vanished_file_for_get_to_recover(self, tmp_path):
        a = FabricCache(tmp_path, writer="wa", refresh_interval=0.0)
        b = FabricCache(tmp_path, writer="wb", refresh_interval=0.0, hot_entries=0)
        try:
            a.put("k", _payload("a", 0))
            assert b.get("k") is not None  # b's index points at a's segment
            a.close()
            with FabricCache(tmp_path, writer="wc") as c:
                c.compact()  # a's segment file is gone
            refreshes = b.stats.refreshes
            assert b.peek("k") is None
            assert b.stats.refreshes == refreshes  # no recovery rescan
            assert "k" in b  # the stale location stays for get to repair
            assert b.get("k") == _payload("a", 0)
            assert b.peek("k") == _payload("a", 0)  # from the generation now
        finally:
            b.close()

    def test_reader_follows_a_generation_whose_offsets_moved(self, tmp_path):
        """Eviction shifts the survivors' offsets in the next generation;
        a reader holding the previous one must re-index, not read the
        old offsets out of the new mapping."""
        with FabricCache(tmp_path, writer="wa") as a:
            for i in range(6):
                a.put(f"k{i}", _payload("a", i))
            first = a.compact()
        reader = FabricCache(
            tmp_path, writer="rd", refresh_interval=0.0, hot_entries=0
        )
        try:
            assert reader.get("k5") == _payload("a", 5)
            with FabricCache(tmp_path, writer="wc") as c:
                second = c.compact(max_bytes=first.bytes_after // 2)
            assert second.evicted_records >= 3
            assert reader.get("absent") is None  # the miss refreshes
            assert reader.get("k0") is None  # oldest went first
            assert reader.get("k5") == _payload("a", 5)
        finally:
            reader.close()


def _fabric_writer_process(directory, writer, count, barrier):
    cache = FabricCache(directory, writer=writer, max_segment_records=16)
    try:
        barrier.wait(timeout=30)  # maximize interleaving
        for i in range(count):
            cache.put(f"{writer}-k{i}", _payload(writer, i))
        cache.put("shared", {"winner": "first-write-wins"})
    finally:
        cache.close()


@pytest.mark.smoke
class TestConcurrentProcesses:
    def test_two_process_writers_never_corrupt(self, tmp_path):
        """Two real processes, same directory, one deliberately
        duplicated key — every record readable, zero corrupt, and exactly
        one valid entry for the duplicate after compaction."""
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        barrier = ctx.Barrier(2)
        workers = [
            ctx.Process(
                target=_fabric_writer_process,
                args=(str(tmp_path), writer, 50, barrier),
            )
            for writer in ("wa", "wb")
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert process.exitcode == 0
        with FabricCache(tmp_path, writer="reader") as reader:
            for writer in ("wa", "wb"):
                for i in range(50):
                    assert reader.get(f"{writer}-k{i}") == _payload(writer, i)
            assert reader.get("shared") == {"winner": "first-write-wins"}
            assert reader.stats.corrupt_records == 0
            result = reader.compact()
        assert result.records == 101  # 2 x 50 + exactly ONE "shared"
        assert result.skipped_segments == 0
        # The compacted file holds the key exactly once.
        compacted = next(tmp_path.glob("compact-*.jsonl"))
        with open(compacted, "r", encoding="utf-8") as handle:
            keys = [json.loads(line)["key"] for line in handle]
        assert keys.count("shared") == 1
        assert len(keys) == len(set(keys)) == 101
        # And everything is still readable post-compaction.
        with FabricCache(tmp_path, writer="reader2") as reader:
            assert reader.get("wa-k0") == _payload("wa", 0)
            assert reader.get("shared") == {"winner": "first-write-wins"}


@pytest.mark.smoke
class TestCompaction:
    def test_compact_preserves_every_live_record(self, tmp_path):
        with FabricCache(tmp_path, writer="w", max_segment_records=3) as cache:
            for i in range(10):
                cache.put(f"k{i}", {"i": i})
            result = cache.compact()
            assert result.records == 10
            assert result.bytes_after <= result.bytes_before
            assert not list(tmp_path.glob("segment-*.jsonl"))
            for i in range(10):
                assert cache.get(f"k{i}") == {"i": i}
            # Still writable after the swap, and everything survives reopen.
            cache.put("post", {"ok": True})
        _assert_generation_checksums(tmp_path)
        reopened = FabricCache(tmp_path, writer="w", max_segment_records=3)
        assert len(reopened) == 11
        assert reopened.get("post") == {"ok": True}

    def test_compact_drops_corrupt_lines(self, tmp_path):
        with FabricCache(tmp_path, writer="w") as cache:
            cache.put("a", {"v": 1})
            cache.put("b", {"v": 2})
        segment = next(tmp_path.glob("segment-*.jsonl"))
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(lines[0] + b"{torn garbage\n" + lines[1])
        cache = FabricCache(tmp_path, writer="w")
        assert cache.stats.corrupt_records == 1
        bytes_with_garbage = cache.total_bytes
        result = cache.compact()
        assert (result.records, result.corrupt_records) == (2, 1)
        assert result.bytes_after < bytes_with_garbage
        assert cache.get("a") == {"v": 1}
        assert cache.get("b") == {"v": 2}
        # The rewritten store scans clean.
        assert FabricCache(tmp_path, writer="w").stats.corrupt_records == 0

    def test_compact_empty_cache(self, tmp_path):
        cache = FabricCache(tmp_path)
        result = cache.compact()
        assert result.records == 0
        assert result.reclaimed_bytes == 0
        cache.put("k", {})  # usable afterwards
        assert cache.get("k") == {}

    def test_foreign_glob_matches_never_deleted(self, tmp_path):
        """A foreign file matching the segment glob is skipped by the scan;
        compaction (eviction included) must leave it alone too."""
        foreign = tmp_path / "segment-old.jsonl"
        foreign.write_text("user data, not ours\n")
        cache = FabricCache(tmp_path, writer="w", max_segment_records=2)
        for i in range(6):
            cache.put(f"k{i}", {"i": i})
        cache.compact(max_bytes=0)
        assert cache.stats.corrupt_records == 0  # never scanned
        assert foreign.read_text() == "user data, not ours\n"
        assert cache.total_bytes == 0  # foreign bytes never entered accounting

    def test_live_writer_segments_are_skipped(self, tmp_path):
        live = FabricCache(tmp_path, writer="live")
        try:
            live.put("live-k", _payload("live", 0))
            with FabricCache(tmp_path, writer="done") as done:
                done.put("done-k", _payload("done", 0))
            with FabricCache(tmp_path, writer="compactor") as compactor:
                # A dry run needs no one's lock and reports the same skip.
                dry = compactor.compact(dry_run=True)
                assert (dry.records, dry.skipped_segments) == (1, 1)
                result = compactor.compact()
            # The quiescent writer's segment merged; the live writer's
            # survived untouched and stayed readable.
            assert result.skipped_segments == 1
            assert [
                split_segment_name(p) for p in tmp_path.glob("segment-*.jsonl")
            ] == [("live", 0)]
            with FabricCache(tmp_path, writer="reader") as reader:
                assert reader.get("live-k") == _payload("live", 0)
                assert reader.get("done-k") == _payload("done", 0)
        finally:
            live.close()

    def test_dead_writer_locks_are_reaped_never_a_held_one(self, tmp_path):
        def locks():
            return sorted(p.name for p in tmp_path.glob("writer-*.lock"))

        live = FabricCache(tmp_path, writer="live")
        idle = FileLock(writer_lock_path(tmp_path, "idle"))  # held, no segment
        try:
            live.put("live-k", _payload("live", 0))
            assert idle.acquire()
            with FabricCache(tmp_path, writer="done") as done:
                done.put("done-k", _payload("done", 0))
            with FabricCache(tmp_path, writer="gone") as gone:
                gone.put("gone-k", _payload("gone", 0))
            before = locks()
            assert before == [
                "writer-done.lock", "writer-gone.lock",
                "writer-idle.lock", "writer-live.lock",
            ]
            with FabricCache(tmp_path, writer="compactor") as compactor:
                # Dry: the two finished writers' segments would merge, so
                # their locks would go; nothing is deleted.
                assert compactor.compact(dry_run=True).reaped_locks == 2
                assert locks() == before
                assert compactor.compact().reaped_locks == 2
                assert locks() == ["writer-idle.lock", "writer-live.lock"]
                # Nothing left to reap; held locks survive every run.
                assert compactor.compact().reaped_locks == 0
            assert locks() == ["writer-idle.lock", "writer-live.lock"]
            assert idle.held and FileLock.is_locked(idle.path)
            with FabricCache(tmp_path, writer="reader") as reader:
                for tag in ("live", "done", "gone"):
                    assert reader.get(f"{tag}-k") == _payload(tag, 0)
        finally:
            idle.release()
            live.close()

    def test_a_free_lock_with_unmerged_segments_is_kept(self, tmp_path):
        """A writer that was live when the merge set was chosen and let go
        before the reap still has its segments: its lock stays with them."""
        with FabricCache(tmp_path, writer="late") as late:
            late.put("k", _payload("late", 0))
        with FabricCache(tmp_path, writer="compactor") as compactor:
            assert compactor._reap_writer_locks({"late"}, dry_run=False) == 0
        assert writer_lock_path(tmp_path, "late").exists()

    def test_acquire_racing_a_reap_locks_the_new_file(self, tmp_path, monkeypatch):
        """The compactor unlinks a lock file between a writer's open and its
        flock: the writer must not settle for a lock on the dead inode."""
        import os

        from repro.serving import diskcache

        path = writer_lock_path(tmp_path, "racer")
        path.write_bytes(b"")
        real_flock = diskcache._fcntl.flock
        calls = []

        def flock(fd, operation):
            calls.append(operation)
            if len(calls) == 1:
                os.remove(path)  # the reaper wins the race, once
            return real_flock(fd, operation)

        monkeypatch.setattr(diskcache._fcntl, "flock", flock)
        lock = FileLock(path)
        assert lock.acquire()
        monkeypatch.undo()
        try:
            assert len(calls) == 2  # went round once
            assert path.exists()
            assert FileLock.is_locked(path)  # the path's file is the held one
        finally:
            lock.release()

    def test_concurrent_compactors_mutually_exclude(self, tmp_path):
        with FabricCache(tmp_path, writer="wa") as a:
            a.put("k", {"v": 1})
        # Hold the compaction lock the way a concurrent compactor would.
        with FileLock(tmp_path / "compact.lock") as held:
            assert held.held
            with FabricCache(tmp_path, writer="wb") as b:
                with pytest.raises(CacheLockedError):
                    b.compact()

    def test_dry_run_projection_matches_real_compaction(self, tmp_path):
        with FabricCache(tmp_path, writer="wa", max_segment_records=2) as a:
            for i in range(7):
                a.put(f"k{i}", _payload("a", i))
        # Add dead weight: a corrupt line a real compaction would drop.
        segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
        with open(segment, "ab") as handle:
            handle.write(b"{torn garbage\n")
        with FabricCache(tmp_path, writer="wb") as cache:
            before = _jsonl_files(tmp_path)
            dry = cache.compact(dry_run=True)
            assert dry.dry_run
            assert _jsonl_files(tmp_path) == before  # nothing rewritten
            assert not (tmp_path / INDEX_NAME).exists()
            assert dry.reclaimed_bytes > 0  # the garbage line is dead space
            real = cache.compact()
        # The dry run's projection matches the real outcome byte-for-byte.
        assert not real.dry_run
        assert dry.records == real.records == 7
        assert dry.corrupt_records == real.corrupt_records == 1
        assert dry.bytes_after == real.bytes_after
        assert dry.reclaimed_bytes == real.reclaimed_bytes
        assert _jsonl_files(tmp_path) == [("compact-000000.jsonl", real.bytes_after)]

    def test_writer_lock_released_on_close(self, tmp_path):
        cache = FabricCache(tmp_path, writer="wa")
        cache.put("k", {"v": 1})
        lock_path = writer_lock_path(tmp_path, "wa")
        assert FileLock.is_locked(lock_path)
        cache.close()
        assert not FileLock.is_locked(lock_path)

    def test_max_bytes_drops_oldest_records_first(self, tmp_path):
        with FabricCache(tmp_path, writer="old") as old:
            for i in range(4):
                old.put(f"gen-k{i}", _payload("g", i))
            old.compact()  # the previous generation: oldest of all
        for writer in ("wb", "wa"):  # merge order is (writer, number)
            with FabricCache(tmp_path, writer=writer, max_segment_records=2) as w:
                for i in range(4):
                    w.put(f"{writer}-k{i}", _payload(writer, i))
        with FabricCache(tmp_path, writer="cli", hot_entries=0) as cache:
            full = cache.compact(dry_run=True)
            assert (full.records, full.evicted_records) == (12, 0)
            bound = full.bytes_after // 2
            dry = cache.compact(dry_run=True, max_bytes=bound)
            real = cache.compact(max_bytes=bound)
            assert (dry.records, dry.evicted_records, dry.bytes_after) == (
                real.records, real.evicted_records, real.bytes_after
            )
            assert 0 < real.bytes_after <= bound
            assert real.records + real.evicted_records == 12
            # Previous generation first, then "wa" before "wb".
            order = [f"gen-k{i}" for i in range(4)] + [
                f"{writer}-k{i}" for writer in ("wa", "wb") for i in range(4)
            ]
            survivors = [key for key in order if cache.get(key) is not None]
            assert survivors == order[real.evicted_records:]
            assert cache.get("wb-k3") == _payload("wb", 3)  # newest served
        meta = _assert_generation_checksums(tmp_path)
        assert list(meta["entries"]) == survivors

    def test_max_bytes_never_touches_live_writers(self, tmp_path):
        live = FabricCache(tmp_path, writer="live")
        try:
            live.put("live-k", _payload("live", 0))
            with FabricCache(tmp_path, writer="done") as done:
                done.put("done-k", _payload("done", 0))
            with FabricCache(tmp_path, writer="cli") as cache:
                result = cache.compact(max_bytes=0)
            assert (result.records, result.evicted_records) == (0, 1)
            assert result.skipped_segments == 1
            assert live.get("live-k") == _payload("live", 0)
            with FabricCache(tmp_path, writer="reader") as reader:
                assert reader.get("live-k") == _payload("live", 0)
                assert reader.get("done-k") is None
        finally:
            live.close()

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            FabricCache(tmp_path).compact(max_bytes=-1)


class TestPlainSegmentMigration:
    """Directories written before there was one store."""

    def test_plain_segments_serve_warm_and_fold_into_next_generation(
        self, tmp_path
    ):
        # Hand-written in the earlier single-writer store's grammar: plain
        # numbering, a directory-level writer.lock left behind.
        payloads = {f"k{i}": _payload("legacy", i) for i in range(5)}
        (tmp_path / "segment-000000.jsonl").write_bytes(
            b"".join(_line(key, payload) for key, payload in payloads.items())
        )
        (tmp_path / "writer.lock").write_bytes(b"")
        assert is_cache_directory(tmp_path)
        with FabricCache(tmp_path, writer="w0") as store:
            for key, payload in payloads.items():
                assert store.get(key) == payload
            assert (store.stats.hits, store.stats.misses) == (5, 0)
            assert store.stats.corrupt_records == 0
            # Nobody can hold a lock for the empty writer id, so the next
            # compaction merges the plain segment away.
            result = store.compact()
        assert (result.records, result.skipped_segments) == (5, 0)
        assert not list(tmp_path.glob("segment-*.jsonl"))
        with FabricCache(tmp_path, writer="w1") as store:
            for key, payload in payloads.items():
                assert store.get(key) == payload


# -- crash points -----------------------------------------------------------
_CRASH_RECORDS = [(f"k{i}", _payload("crash", i)) for i in range(3)]
_CRASH_LINES = [_line(key, payload) for key, payload in _CRASH_RECORDS]


@pytest.mark.parametrize("kept", range(len(_CRASH_LINES[-1])))
def test_truncation_at_every_byte_of_the_last_record(tmp_path, kept):
    """Kill the writer after ``kept`` bytes of its last record reached the
    file.  The torn record is never served, every earlier record is served
    byte-identically, a put after the reopen survives the next reopen, and
    the compacted generation passes its own checksum — for the same writer
    reopening, for a sibling writer, and through a third handle's
    compaction."""
    origin = tmp_path / "origin"
    with FabricCache(origin, writer="w") as cache:
        for key, payload in _CRASH_RECORDS:
            cache.put(key, payload)
    segment = origin / "segment-w-000000.jsonl"
    assert segment.read_bytes() == b"".join(_CRASH_LINES)
    with open(segment, "r+b") as handle:
        handle.truncate(len(b"".join(_CRASH_LINES[:-1])) + kept)
    (torn_key, torn_payload), earlier = _CRASH_RECORDS[-1], _CRASH_RECORDS[:-1]

    for writer in ("w", "sibling"):  # (a) the same writer, (b) a sibling
        directory = tmp_path / writer
        shutil.copytree(origin, directory)
        with FabricCache(directory, writer=writer, hot_entries=0) as store:
            assert store.get(torn_key) is None
            for key, payload in earlier:
                assert store.get(key) == payload
            store.put("after", {"n": 1})
        with FabricCache(directory, writer=writer, hot_entries=0) as store:
            assert store.get("after") == {"n": 1}
            assert store.get(torn_key) is None
            for key, payload in earlier:
                assert store.get(key) == payload

    directory = tmp_path / "compacted"  # (c) a third handle compacts
    shutil.copytree(origin, directory)
    with FabricCache(directory, writer="third", hot_entries=0) as store:
        result = store.compact()
        meta = _assert_generation_checksums(directory)
        generation = (directory / meta["file"]).read_bytes()
        # All but the newline on disk IS the whole record (a JSON object
        # ends at its closing brace); anything shorter is dropped.
        whole = kept == len(_CRASH_LINES[-1]) - 1
        if whole:
            assert generation == b"".join(_CRASH_LINES)
            assert store.get(torn_key) == torn_payload
        else:
            assert generation == b"".join(_CRASH_LINES[:-1])
            assert store.get(torn_key) is None
            assert result.corrupt_records == (1 if kept else 0)
        for key, payload in earlier:
            assert store.get(key) == payload
        store.put("after", {"n": 1})
    with FabricCache(directory, writer="third", hot_entries=0) as store:
        assert store.get("after") == {"n": 1}


class TestVisibleDegradation:
    """Skipped records and rejected generations are logged, not silent."""

    LOGGER = "repro.serving.fabric"

    def test_corrupt_scan_warns_once_per_scan(self, tmp_path, caplog):
        (tmp_path / "segment-wa-000000.jsonl").write_bytes(
            _line("good", {"v": 1}) + b"{torn garbage\n" + b"\xff\xfe\n"
        )
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            store = FabricCache(tmp_path, writer="wb", refresh_interval=0.0)
            assert store.get("absent") is None  # rescans: nothing new to skip
        warnings = [r for r in caplog.records if r.name == self.LOGGER]
        assert len(warnings) == 1
        assert str(tmp_path) in warnings[0].getMessage()
        assert "2 corrupt records" in warnings[0].getMessage()
        assert store.stats.corrupt_records == 2
        assert store.get("good") == {"v": 1}

    def test_rejected_generation_warns_once_and_is_counted(self, tmp_path, caplog):
        with FabricCache(tmp_path, writer="wa") as a:
            a.put("k", _payload("a", 0))
            a.compact()
        compacted = next(tmp_path.glob("compact-*.jsonl"))
        data = bytearray(compacted.read_bytes())
        data[-3] ^= 0x01  # same size, different bytes: checksum mismatch
        compacted.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            store = FabricCache(tmp_path, writer="wb", refresh_interval=0.0)
            # Served without the generation: colder, never wrong.
            assert store.get("k") is None
            assert store.get("k") is None
        warnings = [r for r in caplog.records if r.name == self.LOGGER]
        assert len(warnings) == 1
        assert "rejected compacted generation 0" in warnings[0].getMessage()
        assert str(tmp_path) in warnings[0].getMessage()
        assert store.stats.corrupt_records == 1
        assert store.stats.refreshes >= 3  # rescanned, not re-warned

    def test_clean_directory_logs_nothing(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            with FabricCache(tmp_path, writer="wa") as a:
                a.put("k", {"v": 1})
                a.compact()
            with FabricCache(tmp_path, writer="wb") as b:
                assert b.get("k") == {"v": 1}
        assert not [r for r in caplog.records if r.name == self.LOGGER]

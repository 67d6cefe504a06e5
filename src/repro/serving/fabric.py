"""The persistent result store: many writers, one shared read layer.

Finished annotations (the payloads of
:func:`~repro.serving.diskcache.encode_annotation`, keyed by
:func:`~repro.serving.diskcache.result_cache_key`) persist through one
class, :class:`FabricCache`, whether one process serves a model or a
multi-process pool (:mod:`repro.serving.pool`) does — single-process
serving is simply the one-writer case.  A directory splits three ways:

* **Per-writer segments** — ``segment-<writer>-NNNNNN.jsonl``, one
  ``{"key": ..., "payload": ...}`` object per line, appended with
  per-record flush by exactly one handle (the writer id embeds the PID,
  and the pool's adds the worker slot, so two writers can never collide on
  a filename, let alone a file).  Each live writer holds an advisory
  :class:`~repro.serving.diskcache.FileLock` on ``writer-<writer>.lock``
  for the lifetime of its handle.
* **A shared compacted layer** — ``compact-NNNNNN.jsonl``, one immutable
  generation at a time, described by an atomically-replaced
  ``fabric-index.json`` (generation, byte size, content checksum, and the
  key → (offset, length) table).  Readers ``mmap`` the generation and
  serve hits straight from the mapping — the pool's workers share one
  page-cache copy of the warm corpus instead of N private indexes.  This
  is the serve-from-one-compressed-representation discipline the
  enumeration literature uses for shared immutable structures: writers
  stay private, readers consume a single compacted artifact.
* **Cross-writer reads** — opening a handle, and every miss after it
  (throttled), runs a :meth:`~FabricCache.refresh` that tails every
  segment from its last scanned offset (consuming only newline-terminated
  lines, so a torn tail is re-read later, never mis-indexed) and picks up
  any newer compacted generation.  A warm entry written by worker A is
  therefore a hit in worker B without re-encoding — counted in
  ``stats.remote_hits`` — and a writer id reopened after a restart serves
  everything its earlier incarnation flushed.

Durability: entries are immutable (a key is a content hash of everything
that determines the value, so there is nothing to update).  Lines that
fail to parse — a torn write from a crash, manual truncation — are
counted in ``stats.corrupt_records``, logged, and skipped, never fatal.
Values stay on disk and are read back on demand, so resident memory is
one index entry per cached table plus a small hot-payload LRU.

Compaction is lock-aware: only segments whose writer is *not* live (its
``writer-*.lock`` unheld) are merged into the next generation and deleted;
live writers' segments are skipped and reported, and the lock files of
writers that are gone (lock free, no segment left) are removed with them.
Compactors exclude each other via ``compact.lock``.  Readers whose segment
files vanish under them (deleted by a compactor in another process) recover
by refreshing: the key reappears in the new compacted generation, and the
payload bytes are identical — keys are content hashes of everything that
determines the value.

Migration: plain ``segment-NNNNNN.jsonl`` files written by releases that
had a separate single-writer store parse as the segments of the empty
writer id — one nobody can take or hold a lock for — so they are served as
they are and the next ``repro cache compact`` folds them into a generation.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import re
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..encoding.cache import LRUCache, content_digest, publish
from ..telemetry import declare
from .diskcache import CacheLockedError, CompactionResult, FileLock

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"
_COMPACT_PREFIX = "compact-"
_COMPACT_SUFFIX = ".jsonl"
SEGMENT_GLOB = f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"
COMPACT_GLOB = f"{_COMPACT_PREFIX}*{_COMPACT_SUFFIX}"
INDEX_NAME = "fabric-index.json"
COMPACT_LOCK_NAME = "compact.lock"

_WRITER_RE = re.compile(r"[^A-Za-z0-9_.]+")


def sanitize_writer(writer: str) -> str:
    """Writer ids become filename fragments; keep them boring."""
    cleaned = _WRITER_RE.sub("_", writer).strip("_")
    if not cleaned:
        raise ValueError(f"writer id must be non-empty: {writer!r}")
    return cleaned


def split_segment_name(path: Path) -> Optional[Tuple[str, int]]:
    """``(writer, number)`` for a segment filename, or ``None`` for a file
    that merely matches the segment glob.  A plain ``segment-NNNNNN.jsonl``
    parses as the empty writer id (see the module docstring)."""
    stem = path.name
    if not (
        stem.startswith(_SEGMENT_PREFIX) and stem.endswith(_SEGMENT_SUFFIX)
    ):
        return None
    body = stem[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    writer, _, number = body.rpartition("-")
    if not number.isdigit():
        return None
    return writer, int(number)


def is_cache_directory(directory: PathLike) -> bool:
    """Does ``directory`` hold store state — segments, or (fully
    compacted) only a generation index?  The one test for "is there a
    cache here already" (see :func:`store_directory`)."""
    directory = Path(directory)
    return (directory / INDEX_NAME).exists() or any(
        directory.glob(SEGMENT_GLOB)
    )


def store_directory(
    cache_dir: PathLike, fingerprint: Optional[str] = None
) -> Optional[Path]:
    """Which directory under ``cache_dir`` already holds the result store
    of the model ``fingerprint`` — the one lookup `repro annotate` and
    `repro serve` share, so one ``--cache-dir`` never grows two copies of
    an answer.

    ``cache_dir`` itself when it holds store state: the *flat* layout —
    what ``annotate``, which serves one model without a registry, writes
    into a new directory, and what a pre-gateway ``serve`` wrote.  It wins,
    so a warm flat cache stays warm under both commands.  Else
    ``cache_dir/<fingerprint>`` when that holds state: the registry's
    layout, a sub-directory named by the model, so weights that change
    never share segment files with the old ones.  Else ``None``: nothing is stored yet and the caller's own
    layout applies.  Without a ``fingerprint`` only the flat layout is
    looked for (``serve`` decides before it loads a model).
    """
    cache_dir = Path(cache_dir)
    if is_cache_directory(cache_dir):
        return cache_dir
    if fingerprint is not None and is_cache_directory(cache_dir / fingerprint):
        return cache_dir / fingerprint
    return None


def writer_lock_path(directory: Path, writer: str) -> Path:
    """The liveness lock guarding ``writer``'s segments."""
    return directory / f"writer-{writer}.lock"


def _record_key(line: bytes) -> Optional[str]:
    """The key of one well-formed record line, or ``None`` if corrupt."""
    try:
        record = json.loads(line.decode("utf-8"))
        record["payload"]  # presence check
        return str(record["key"])
    except (ValueError, KeyError, TypeError):
        return None


FabricStats = declare(
    "FabricStats",
    "Counters for one :class:`FabricCache` handle's lifetime.",
    {
        "hits": "lookups answered from the store",
        "misses": "lookups the store could not answer",
        "writes": "entries appended by this handle",
        "remote_hits": "hits served from another writer's segments or from "
        "the shared compacted layer — the cross-process reuse the fabric "
        "exists for",
        "refreshes": "directory rescans (throttled by ``refresh_interval``)",
        "corrupt_records": "unparseable lines skipped while scanning or "
        "compacting, plus compacted generations rejected for a size/checksum "
        "mismatch (torn tails re-read later are not counted)",
    },
)


# Index-entry location tags.
_OWN = "own"        # (tag, path, offset)   — this writer id's segment
_SEGMENT = "seg"    # (tag, path, offset)   — another writer's segment
_COMPACT = "cmp"    # (tag, offset, length) — the mmap'd compacted layer


class FabricCache:
    """The concurrently-writable, cross-process result store.

    ``get``/``put``/``compact``/``close`` over first-write-wins immutable
    entries.  Any number of processes, each with its own ``writer`` id,
    may hold a handle on one directory at once; reads see every writer's
    flushed entries (after at most one ``refresh_interval``), plus the
    shared compacted layer, served via ``mmap``.  Keys are opaque strings
    (the engine uses :func:`~repro.serving.diskcache.result_cache_key`);
    payloads are any JSON-serializable value.  The handle is safe to share
    across threads: every public operation runs under an internal lock.

    ``writer`` defaults to ``pid<PID>`` — unique per process; a serving
    pool passes ``w<slot>-pid<PID>`` so segment files read as operational
    telemetry.  A new segment starts every ``max_segment_records`` lines,
    so a long-lived service produces bounded, individually-scannable files.
    ``hot_entries`` bounds a small in-memory LRU of decoded payloads (0
    disables) that short-circuits file reads for keys this handle serves
    repeatedly.
    """

    def __init__(
        self,
        directory: PathLike,
        writer: Optional[str] = None,
        max_segment_records: int = 1024,
        refresh_interval: float = 0.05,
        hot_entries: int = 256,
    ) -> None:
        if max_segment_records < 1:
            raise ValueError(
                f"max_segment_records must be >= 1: {max_segment_records}"
            )
        if refresh_interval < 0:
            raise ValueError(
                f"refresh_interval must be >= 0: {refresh_interval}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.writer = sanitize_writer(
            writer if writer is not None else f"pid{os.getpid()}"
        )
        self.max_segment_records = max_segment_records
        self.refresh_interval = refresh_interval
        self.stats = FabricStats()
        self._lock = threading.RLock()
        self._index: Dict[str, Tuple] = {}
        self._hot: Optional[LRUCache] = (
            LRUCache(hot_entries) if hot_entries else None
        )
        # Own append state.
        self._writer_lock = FileLock(writer_lock_path(self.directory, self.writer))
        self._handle = None
        self._segment_path: Optional[Path] = None
        self._segment_index = -1
        self._segment_records = 0
        # Read state: how far each segment has been scanned (only whole,
        # newline-terminated lines are consumed).  put() advances the own
        # active segment's mark, so a refresh never re-reads own writes.
        self._scanned: Dict[Path, int] = {}
        self._last_refresh = float("-inf")
        # Compacted read layer.
        self._generation = -1
        self._mmap: Optional[mmap.mmap] = None
        self._mmap_handle = None
        self.refresh(force=True)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def get(self, key: str) -> Optional[Dict]:
        """The payload stored for ``key`` by *any* writer, or ``None``.

        A miss in the in-memory index triggers a (throttled) refresh —
        tailing the other writers' segments and picking up a newer
        compacted generation — then retries, so a warm entry written by a
        sibling worker is a hit here without re-encoding.
        """
        return self._lookup(key, scan=True)

    def peek(self, key: str) -> Optional[Dict]:
        """:meth:`get` for a caller that must not scan the directory.

        A hot-LRU or index lookup plus at most one positioned read: never a
        :meth:`refresh`, never a recovery rescan.  A hit counts like any
        other; ``None`` counts nothing and only means *not answerable from
        here* — an entry a sibling writer flushed since the last refresh, or
        one whose file a compactor just deleted, is still found by
        :meth:`get`, which the caller falls back to.  The socket server
        probes with this from its event loop, so directory scans stay on the
        engine's worker thread.
        """
        return self._lookup(key, scan=False)

    def _lookup(self, key: str, scan: bool) -> Optional[Dict]:
        with self._lock:
            payload = self._hot.get(key) if self._hot is not None else None
            if payload is None:
                payload = self._read(key, recover=scan)
                if payload is None and scan and self.refresh():
                    payload = self._read(key)
                if payload is None:
                    if scan:
                        self.stats.misses += 1
                    return None
                if self._hot is not None:
                    self._hot.put(key, payload)
            self.stats.hits += 1
            return payload

    def _read(
        self, key: str, retried: bool = False, recover: bool = True
    ) -> Optional[Dict]:
        """Resolve ``key`` through the index (caller holds the lock).

        A location whose backing file vanished (a compactor in another
        process merged and deleted it) is dropped and the lookup retried
        once after a forced refresh — the entry reappears in the compacted
        layer with identical payload bytes.  With ``recover=False`` such a
        location just reads as ``None`` and stays for :meth:`get` to repair.
        """
        location = self._index.get(key)
        if location is None:
            return None
        if location[0] == _COMPACT:
            _, offset, length = location
            try:
                line = self._mmap[offset:offset + length]
                payload = json.loads(line)["payload"]
            except (TypeError, ValueError, KeyError, IndexError):
                return self._recover(key, retried) if recover else None
            self.stats.remote_hits += 1
            return payload
        _, path, offset = location
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                record = json.loads(handle.readline().decode("utf-8"))
        except (OSError, ValueError, KeyError):
            return self._recover(key, retried) if recover else None
        if location[0] != _OWN:
            self.stats.remote_hits += 1
        return record["payload"]

    def _recover(self, key: str, retried: bool) -> Optional[Dict]:
        """One dead location: drop it, refresh, retry the lookup once."""
        del self._index[key]
        if retried:
            return None
        self.refresh(force=True)
        return self._read(key, retried=True)

    # ------------------------------------------------------------------
    # Refresh: see the other writers (and, at open, our earlier self)
    # ------------------------------------------------------------------
    def _segments_by_writer(self) -> Dict[str, List[Tuple[int, Path]]]:
        """Every segment in the directory as ``writer -> [(number, path)]``,
        both levels sorted; files that merely match the glob are left out
        (never scanned, counted, merged or deleted)."""
        by_writer: Dict[str, List[Tuple[int, Path]]] = {}
        for path in self.directory.glob(SEGMENT_GLOB):
            parsed = split_segment_name(path)
            if parsed is not None:
                by_writer.setdefault(parsed[0], []).append((parsed[1], path))
        return {writer: sorted(by_writer[writer]) for writer in sorted(by_writer)}

    def refresh(self, force: bool = False) -> bool:
        """Rescan the directory for records this handle has not indexed.

        Tails every segment from its last scanned offset and loads a
        newer compacted generation if one appeared.  Throttled to once per
        ``refresh_interval`` unless ``force``; returns whether a scan
        actually ran.  Cheap when nothing changed: one ``glob`` plus one
        ``stat`` per segment.
        """
        with self._lock:
            now = time.monotonic()
            if not force and now - self._last_refresh < self.refresh_interval:
                return False
            self._last_refresh = now
            self.stats.refreshes += 1
            self._load_compacted()
            corrupt_before = self.stats.corrupt_records
            for writer, numbered in self._segments_by_writer().items():
                tag = _OWN if writer == self.writer else _SEGMENT
                for _, path in numbered:
                    self._tail_segment(path, tag)
            corrupt = self.stats.corrupt_records - corrupt_before
            if corrupt:
                logger.warning(
                    "%s: skipped %d corrupt records while scanning segments",
                    self.directory, corrupt,
                )
            return True

    def _tail_segment(self, path: Path, tag: str) -> None:
        """Index any new complete lines of one segment."""
        offset = self._scanned.get(path, 0)
        try:
            if path.stat().st_size <= offset:
                return
            with open(path, "rb") as handle:
                handle.seek(offset)
                for line in handle:
                    if not line.endswith(b"\n"):
                        break  # torn tail: re-read from here next refresh
                    key = _record_key(line)
                    if key is None:
                        self.stats.corrupt_records += 1
                    else:
                        # First write wins: same-key records are identical
                        # by construction (content-addressed keys).
                        self._index.setdefault(key, (tag, path, offset))
                    offset += len(line)
        except OSError:
            # Deleted by a compactor mid-scan: forget it; its records are
            # (or will be) in the compacted layer.
            self._scanned.pop(path, None)
            return
        self._scanned[path] = offset

    def _load_compacted(self) -> None:
        """Map the newest compacted generation, if it moved on."""
        meta = self._read_index_file()
        if meta is None or meta["generation"] <= self._generation:
            return
        if meta["bytes"] == 0:
            # An empty generation (everything was dead space): nothing to
            # map, but remember it so refreshes stop re-trying.
            self._close_mmap()
            self._generation = meta["generation"]
            return
        path = self.directory / meta["file"]
        try:
            handle = open(path, "rb")
        except OSError:
            return  # racing the next compaction; pick it up next refresh
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # ValueError: empty file
            handle.close()
            return
        if len(mapped) != meta["bytes"] or content_digest(
            (mapped[:],)
        ) != meta["checksum"]:
            # A torn or tampered generation: serve without it (the keys
            # that only lived there will miss and recompute — correct,
            # just colder), and remember it so it is rejected once.
            mapped.close()
            handle.close()
            self._generation = meta["generation"]
            self.stats.corrupt_records += 1
            logger.warning(
                "%s: rejected compacted generation %d (%s): size or "
                "checksum does not match the index",
                self.directory, meta["generation"], meta["file"],
            )
            return
        self._close_mmap()
        self._mmap, self._mmap_handle = mapped, handle
        self._generation = meta["generation"]
        # Offsets are per generation, so the previous generation's
        # locations go first.  Locations into segments the compactor
        # merged move here; any left stale fix themselves lazily in
        # _read().
        self._index = {
            key: location
            for key, location in self._index.items()
            if location[0] != _COMPACT
        }
        for key, (offset, length) in meta["entries"].items():
            self._index[key] = (_COMPACT, offset, length)

    def _read_index_file(self) -> Optional[Dict]:
        try:
            with open(self.directory / INDEX_NAME, "rb") as handle:
                meta = json.loads(handle.read().decode("utf-8"))
            assert isinstance(meta["generation"], int)
            assert isinstance(meta["entries"], dict)
            meta["bytes"], meta["checksum"], meta["file"]
            return meta
        except (OSError, ValueError, KeyError, AssertionError, TypeError):
            return None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: str, payload: Dict) -> None:
        """Append ``payload`` under ``key`` to this writer's own segment
        (first write wins; flushed per record, so sibling workers see it
        after their next refresh)."""
        with self._lock:
            if key in self._index:
                return
            self._ensure_segment()
            line = (
                json.dumps({"key": key, "payload": payload}, ensure_ascii=False)
                + "\n"
            ).encode("utf-8")
            offset = self._handle.tell()
            self._handle.write(line)
            self._handle.flush()
            self._index[key] = (_OWN, self._segment_path, offset)
            self._scanned[self._segment_path] = offset + len(line)
            self._segment_records += 1
            self.stats.writes += 1
            if self._hot is not None:
                self._hot.put(key, payload)

    def _ensure_segment(self) -> None:
        if not self._writer_lock.held:
            self._writer_lock.acquire()  # cannot contend: the id is ours
        if (
            self._handle is not None
            and self._segment_records < self.max_segment_records
        ):
            return
        if self._handle is not None:
            self._handle.close()
        if self._segment_index < 0:
            # One past the highest existing own segment: a reopened writer
            # id never appends to a file whose tail may be torn, or that a
            # compactor may have already decided about.
            own = self._segments_by_writer().get(self.writer)
            self._segment_index = own[-1][0] + 1 if own else 0
        else:
            self._segment_index += 1
        self._segment_path = self.directory / (
            f"{_SEGMENT_PREFIX}{self.writer}-{self._segment_index:06d}"
            f"{_SEGMENT_SUFFIX}"
        )
        self._handle = open(self._segment_path, "ab")
        self._segment_records = 0

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(
        self, dry_run: bool = False, max_bytes: Optional[int] = None
    ) -> CompactionResult:
        """Merge every *quiescent* writer's segments (and the previous
        generation) into one fresh immutable generation.

        Lock-aware: a writer whose ``writer-*.lock`` is held is live — all
        its segments are skipped (counted in ``skipped_segments``) and
        survive untouched; everyone else's are merged, deduplicated
        (first occurrence wins; duplicate keys carry identical payloads by
        construction, so "exactly one valid entry" is also "the entry"),
        stripped of corrupt lines, and deleted.  This handle's own
        segments are sealed first and merged too.  ``max_bytes`` bounds
        the new generation: the oldest records (previous generation
        first, then segments in ``(writer, number)`` order) are dropped
        until it fits.  Concurrent compactors exclude each other via
        ``compact.lock`` (:class:`CacheLockedError` if contended).
        ``dry_run=True`` projects the same numbers without writing,
        deleting, or locking out other compactors for longer than the
        measurement.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0: {max_bytes}")
        with self._lock:
            compact_lock = FileLock(self.directory / COMPACT_LOCK_NAME)
            if not compact_lock.acquire():
                raise CacheLockedError(
                    f"cannot compact {self.directory}: another compaction "
                    "is running"
                )
            try:
                return self._compact_locked(dry_run, max_bytes)
            finally:
                compact_lock.release()

    def _mergeable_sources(self, seal: bool) -> Tuple[List[Path], int, Set[str]]:
        """``(paths safe to merge, skipped segment count, live writers)``.

        Own segments are sealed (handle closed; the next put starts a new
        file) and always mergeable.  Other writers' segments are mergeable
        only while their writer's lock is free.  A dry run measures
        without sealing.
        """
        if seal and self._handle is not None:
            self._handle.close()
            self._handle = None
            # Leave _segment_index as-is: _ensure_segment advances past it.
        sources: List[Path] = []
        skipped = 0
        live: Set[str] = set()
        for writer, numbered in self._segments_by_writer().items():
            if writer != self.writer and FileLock.is_locked(
                writer_lock_path(self.directory, writer)
            ):
                skipped += len(numbered)
                live.add(writer)
                continue
            sources.extend(path for _, path in numbered)
        return sources, skipped, live

    def _reap_writer_locks(self, keep: Set[str], dry_run: bool) -> int:
        """Remove the lock files of writers that are gone; returns how many.

        A ``writer-<id>.lock`` goes when its writer has no segment (``keep``
        names the writers that still do) and nobody holds it — every handle
        ever opened leaves one behind, so a long-lived directory otherwise
        collects one per process that ever served it.  The file is unlinked
        *while this compactor holds its lock*: a writer racing us either
        finds it held, or notices the unlink and locks a new file
        (:meth:`FileLock.acquire <repro.serving.diskcache.FileLock.acquire>`).
        A held lock is never touched, segments or not.
        """
        prefix, suffix = "writer-", ".lock"
        reaped = 0
        for path in sorted(self.directory.glob(f"{prefix}*{suffix}")):
            writer = path.name[len(prefix):-len(suffix)]
            if writer == self.writer or writer in keep:
                continue
            lock = FileLock(path)
            if not lock.acquire():
                continue  # held: a writer that has not opened a segment yet
            try:
                if not dry_run:
                    os.remove(path)
                reaped += 1
            except OSError:
                pass
            finally:
                lock.release()
        return reaped

    def _compact_locked(
        self, dry_run: bool, max_bytes: Optional[int]
    ) -> CompactionResult:
        sources, skipped, live = self._mergeable_sources(seal=not dry_run)
        meta = self._read_index_file()
        old_compact: Optional[Path] = None
        generation = 0
        if meta is not None:
            old_compact = self.directory / meta["file"]
            generation = meta["generation"] + 1
        # Oldest first: the previous generation (it is already
        # deduplicated), then segments in deterministic (writer, number)
        # order.
        streams = ([old_compact] if old_compact is not None else []) + sources
        live: Dict[str, bytes] = {}
        corrupt = 0
        for path in streams:
            try:
                handle = open(path, "rb")
            except OSError:
                continue
            with handle:
                for line in handle:
                    if not line.endswith(b"\n"):
                        line += b"\n"
                    key = _record_key(line)
                    if key is None:
                        corrupt += 1
                    else:
                        # Duplicate: identical payload, keep the first.
                        live.setdefault(key, line)
        evicted = 0
        if max_bytes is not None:
            size = sum(map(len, live.values()))
            for key in list(live):
                if size <= max_bytes:
                    break
                size -= len(live.pop(key))
                evicted += 1
        entries: Dict[str, List[int]] = {}
        offset = 0
        for key, line in live.items():
            entries[key] = [offset, len(line)]
            offset += len(line)
        result = CompactionResult(
            records=len(live),
            bytes_before=sum(_safe_size(path) for path in streams),
            bytes_after=offset,
            dry_run=dry_run,
            skipped_segments=skipped,
            corrupt_records=corrupt,
            evicted_records=evicted,
        )
        if dry_run:
            # Every writer whose lock is free had its segments projected
            # merged: only the live ones would keep any.
            return replace(
                result, reaped_locks=self._reap_writer_locks(live, dry_run=True)
            )

        # Publish: data file, then the index that names it — both atomic.
        out_path = self.directory / (
            f"{_COMPACT_PREFIX}{generation:06d}{_COMPACT_SUFFIX}"
        )
        publish(out_path, live.values())
        publish(
            self.directory / INDEX_NAME,
            [
                json.dumps(
                    {
                        "generation": generation,
                        "file": out_path.name,
                        "bytes": offset,
                        "checksum": content_digest(live.values()),
                        "entries": entries,
                    }
                ).encode("utf-8")
            ],
        )

        # Retire the merged inputs.
        for path in streams:
            if path != out_path:
                try:
                    os.remove(path)
                except OSError:
                    pass
            self._scanned.pop(path, None)

        # Swap our own view to the new generation.  Locations into deleted
        # files must go now — _read would recover them, but an up-to-date
        # index costs nothing here.
        deleted = set(sources)
        for key, location in list(self._index.items()):
            if location[0] != _COMPACT and location[1] in deleted:
                del self._index[key]
        self._generation = -1  # force the reload below to remap
        self._close_mmap()
        self._load_compacted()
        self.stats.corrupt_records += corrupt
        return replace(
            result,
            reaped_locks=self._reap_writer_locks(
                set(self._segments_by_writer()), dry_run=False
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes currently held by the directory's segments and compacted
        layer (a directory scan; informational)."""
        return sum(
            _safe_size(path)
            for numbered in self._segments_by_writer().values()
            for _, path in numbered
        ) + sum(_safe_size(path) for path in self.directory.glob(COMPACT_GLOB))

    def _close_mmap(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._mmap_handle is not None:
            self._mmap_handle.close()
            self._mmap_handle = None

    def close(self) -> None:
        """Flush and close the append handle, release the writer lock (so
        compactors may merge our segments), and unmap the read layer.  The
        next :meth:`put` reopens; the next :meth:`get` remaps."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._writer_lock.release()
            self._close_mmap()
            self._generation = -1

    def __enter__(self) -> "FabricCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _safe_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0

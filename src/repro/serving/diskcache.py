"""Persistent on-disk result cache for the annotation serving stack.

The in-memory LRU in :mod:`repro.encoding.cache` saves re-*serializing* a
table within one process; this module saves re-*annotating* it across
processes.  Finished annotation products (types, scores, relations,
embeddings) are appended to JSONL segment files keyed by a composite hash of

* the table's content fingerprint (:func:`~repro.encoding.cache.table_fingerprint`),
* the model's annotation fingerprint
  (:meth:`~repro.core.trainer.DoduoTrainer.annotation_fingerprint` —
  weights, serializer recipe, vocabularies), and
* the request options (embeddings/relations switches, top-k, threshold,
  explicit pairs).

so a repeated corpus served after a process restart performs **zero**
encoder passes, while any change to the model, its serialization recipe, or
the request options misses cleanly and re-computes.

Equivalence contract
--------------------
A cache hit reproduces the producing pass **byte-identically**: floats
survive the JSON round trip exactly (``json`` emits shortest round-trip
``repr`` strings, exact for float64 and for float64-widened float32), and
embedding arrays record their dtype/shape so they are rebuilt bit-for-bit.
What is stored is the output of whichever pass first answered the request —
for single-table passes (``engine.annotate``, the queue's exact mode) that
is also byte-identical to a fresh direct ``engine.annotate`` call.

Durability
----------
Entries are immutable (a key is a content hash of everything that determines
the value, so there is nothing to update) and appended with per-record
flush.  On open, every ``segment-*.jsonl`` is scanned to rebuild the key →
(segment, offset) index; lines that fail to parse — a torn write from a
crash, manual truncation — are counted in ``stats.corrupt_records`` and
skipped, never fatal.  Values stay on disk and are read back on demand, so
resident memory is one index entry per cached table, not the payloads.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..core.annotator import AnnotatedTable
from ..encoding.cache import content_digest, table_fingerprint
from .request import AnnotationRequest, AnnotationResult

try:  # pragma: no cover - import guard exercised only off-Linux
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - Windows
    _fcntl = None

PathLike = Union[str, Path]

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"

#: Glob matching a cache directory's segment files — the single source of
#: truth for the layout, reused by the CLI (warm flat-layout detection,
#: `repro cache compact` directory discovery).
SEGMENT_GLOB = f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"

#: The advisory writer-lock file a live :class:`DiskCache` handle holds on
#: its directory; `repro cache compact` probes it to skip live caches.
WRITER_LOCK_NAME = "writer.lock"


class CacheLockedError(RuntimeError):
    """Raised when a mutating cache operation needs the directory's writer
    lock but another live handle (possibly in another process) holds it."""


class FileLock:
    """Advisory exclusive lock on one path (``flock``-based).

    The concurrency primitive under both cache tiers: a :class:`DiskCache`
    holds one on its directory for the lifetime of its append handle, and
    the fabric's compactor probes those of other writers to decide which
    segments are safe to merge.  ``acquire`` is always non-blocking — the
    serving stack never *waits* for a lock, it observes who holds one and
    routes around them.

    Where ``fcntl`` is unavailable the lock degrades to a no-op that always
    acquires and never observes a holder — exactly the historical
    one-writer-by-convention behaviour, no worse.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle = None

    @property
    def held(self) -> bool:
        return self._handle is not None

    def acquire(self) -> bool:
        """Try to take the lock; ``True`` on success (idempotent)."""
        if self._handle is not None:
            return True
        handle = open(self.path, "ab")
        if _fcntl is not None:
            try:
                _fcntl.flock(handle.fileno(), _fcntl.LOCK_EX | _fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
        self._handle = handle
        return True

    def release(self) -> None:
        """Drop the lock (idempotent).  The lock file stays on disk — it
        is an inode to flock, not a pidfile; a stale one is harmless."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        if _fcntl is not None:
            try:
                _fcntl.flock(handle.fileno(), _fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - unlock cannot really fail
                pass
        handle.close()

    @classmethod
    def is_locked(cls, path: PathLike) -> bool:
        """Probe: is some *other* handle holding the lock at ``path``?

        False where ``fcntl`` is unavailable or the file does not exist.
        The probe briefly takes and releases the lock, so only call it on
        locks the caller does not hold.
        """
        if _fcntl is None or not Path(path).exists():
            return False
        probe = cls(path)
        if probe.acquire():
            probe.release()
            return False
        return True

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class RequestIdentity(NamedTuple):
    """What one request hashes to, computed once and carried with it.

    ``table_digest`` is the table's content fingerprint and ``cache_key``
    the composite key of :func:`result_cache_key`, valid while the serving
    model's fingerprint is still ``model_fingerprint``.  The queue computes
    it at submit and hands it to the engine, which hands the digest on to
    the encoding pipeline and the probe planner — one walk over the cells
    per request instead of one per tier.
    """

    model_fingerprint: str
    table_digest: str
    cache_key: str


def request_identity(
    model_fingerprint: str,
    request: AnnotationRequest,
    table_digest: Optional[str] = None,
) -> RequestIdentity:
    """Hash one request (reusing ``table_digest`` when the caller holds it)."""
    if table_digest is None:
        table_digest = table_fingerprint(request.table)
    options = request.options
    cache_key = content_digest(
        (
            model_fingerprint.encode("utf-8"),
            table_digest.encode("utf-8"),
            repr(
                (
                    options.with_embeddings,
                    options.with_relations,
                    options.top_k,
                    options.score_threshold,
                    request.pairs,
                )
            ).encode("utf-8"),
        )
    )
    return RequestIdentity(model_fingerprint, table_digest, cache_key)


def result_cache_key(model_fingerprint: str, request: AnnotationRequest) -> str:
    """The composite disk-cache key for one annotation request.

    Hashes the model fingerprint, the table's content fingerprint, and every
    option that changes the annotation output.  Requests that differ in any
    of those never share an entry (the invalidation guarantee); requests
    that differ only in ``table_id``/metadata or object identity do (the
    dedup guarantee).
    """
    return request_identity(model_fingerprint, request).cache_key


def encode_annotation(result: AnnotationResult) -> Dict:
    """Serialize one result's annotation products to a JSON-safe dict.

    Captures everything :func:`decode_annotation` needs to rebuild the
    :class:`~repro.core.annotator.AnnotatedTable` byte-identically; serving
    metadata (``from_cache``, ``batch_index``) is deliberately excluded —
    it describes the producing pass, not the annotation.
    """
    annotated = result.annotated
    payload: Dict = {
        "coltypes": annotated.coltypes,
        "type_scores": annotated.type_scores,
        "colrels": [
            [i, j, labels] for (i, j), labels in sorted(annotated.colrels.items())
        ],
        "requested_pairs": [list(pair) for pair in annotated.requested_pairs],
        "colemb": None,
    }
    if annotated.colemb is not None:
        emb = np.asarray(annotated.colemb)
        payload["colemb"] = {
            "dtype": str(emb.dtype),
            "shape": list(emb.shape),
            "data": emb.ravel().tolist(),
        }
    return payload


def decode_annotation(request: AnnotationRequest, payload: Dict) -> AnnotatedTable:
    """Rebuild the :class:`AnnotatedTable` stored by :func:`encode_annotation`.

    The table object comes from ``request`` (only content-equal tables can
    reach the same key, and the caller wants *their* table back, preserving
    its ``table_id``/metadata).
    """
    colemb = None
    if payload["colemb"] is not None:
        emb = payload["colemb"]
        colemb = np.asarray(emb["data"], dtype=emb["dtype"]).reshape(emb["shape"])
    return AnnotatedTable(
        table=request.table,
        coltypes=[list(names) for names in payload["coltypes"]],
        colrels={
            (int(i), int(j)): list(labels) for i, j, labels in payload["colrels"]
        },
        colemb=colemb,
        type_scores=[dict(scores) for scores in payload["type_scores"]],
        requested_pairs=[(int(i), int(j)) for i, j in payload["requested_pairs"]],
    )


@dataclass
class DiskCacheStats:
    """Counters for one :class:`DiskCache` handle's lifetime.

    ``corrupt_records`` counts unparseable lines skipped while scanning
    existing segments at open — evidence of a torn write, not an error.
    ``evicted_records`` counts index entries dropped by ``max_bytes``
    segment eviction (their values are deleted with the segment).
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_records: int = 0
    evicted_records: int = 0


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one :meth:`DiskCache.compact` run.

    With ``dry_run=True`` nothing was rewritten: ``bytes_after`` is the
    *projected* post-compaction size and ``reclaimed_bytes`` the dead
    space a real run would drop.  ``skipped_segments`` counts segments a
    lock-aware (fabric) compaction left alone because a live writer owns
    them.
    """

    records: int
    bytes_before: int
    bytes_after: int
    dry_run: bool = False
    skipped_segments: int = 0

    @property
    def reclaimed_bytes(self) -> int:
        return self.bytes_before - self.bytes_after


class DiskCache:
    """Append-only JSONL-segment store with an in-memory key index.

    Layout: ``directory/segment-NNNNNN.jsonl``, one ``{"key": ...,
    "payload": ...}`` object per line.  A new segment starts whenever the
    current one reaches ``max_segment_records`` lines, so a long-lived
    service produces bounded, individually-scannable files instead of one
    unbounded log.  Keys are opaque strings (the engine uses
    :func:`result_cache_key`); payloads are any JSON-serializable value.

    Concurrency: one writing *handle* per directory is assumed — never
    open two DiskCache objects on one live directory (the serving registry
    shares a single handle per model fingerprint for exactly this reason).
    The handle itself is safe to share across threads: every public
    operation runs under an internal lock, so e.g. two worker threads
    serving two registered names of the same model may interleave
    ``get``/``put`` calls freely.  Multiple read-only openers of a
    quiescent directory are safe.

    Growth control: ``max_bytes`` bounds the directory — when total segment
    bytes exceed it, whole oldest segments are deleted (log-structured
    eviction: the entries lost are the oldest ever written, never the ones
    being served right now).  The active segment is never evicted, so the
    bound can be overshot by at most one segment.  :meth:`compact` rewrites
    the directory keeping only live records, dropping corrupt lines,
    shadowed duplicates, and dead space.
    """

    def __init__(
        self,
        directory: PathLike,
        max_segment_records: int = 1024,
        max_bytes: Optional[int] = None,
        lock: bool = True,
    ) -> None:
        if max_segment_records < 1:
            raise ValueError(
                f"max_segment_records must be >= 1: {max_segment_records}"
            )
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0: {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_records = max_segment_records
        self.max_bytes = max_bytes
        # Advisory writer lock on the directory: held while this handle is
        # open, so `repro cache compact` (and the fabric's compactor) can
        # tell a live cache from a quiescent one.  Acquisition is soft —
        # a second handle on a live directory still opens (the historical
        # contract tolerated it), it just cannot compact or evict.
        self._lock_enabled = lock
        self._writer_lock = FileLock(self.directory / WRITER_LOCK_NAME)
        if lock:
            self._writer_lock.acquire()
        self.stats = DiskCacheStats()
        # Serializes every public operation: the handle may be shared by
        # several threads (e.g. two serving workers over one fingerprint),
        # and close() must never land in the middle of a put().  Reentrant
        # because compact() closes the write handle itself.
        self._io_lock = threading.RLock()
        # key -> (segment path, byte offset of its record line)
        self._index: Dict[str, Tuple[Path, int]] = {}
        self._segment_records = 0
        self._segment_index = -1
        self._segment_path: Optional[Path] = None
        self._tail_needs_newline = False
        self._total_bytes = 0
        self._handle = None
        self._scan_segments()
        self._enforce_max_bytes()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _segments(self) -> Iterator[Path]:
        return iter(sorted(self.directory.glob(SEGMENT_GLOB)))

    @staticmethod
    def _segment_number(path: Path) -> Optional[int]:
        """The segment's index, or ``None`` for a foreign file that merely
        matches the glob (those are never touched — not scanned, not
        counted, not evicted, not compacted away)."""
        try:
            return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
        except ValueError:
            return None

    def _owned_segments(self) -> List[Path]:
        return [
            path for path in self._segments()
            if self._segment_number(path) is not None
        ]

    def _scan_segments(self) -> None:
        """Rebuild the index from disk, skipping corrupt lines."""
        for path in self._segments():
            number = self._segment_number(path)
            if number is None:
                continue  # foreign file matching the glob; leave it alone
            self._segment_index = max(self._segment_index, number)
            offset = 0
            records = 0
            line = b"\n"
            with open(path, "rb") as handle:
                for line in handle:
                    records += 1
                    try:
                        record = json.loads(line.decode("utf-8"))
                        key = record["key"]
                        record["payload"]  # presence check
                    except (ValueError, KeyError, TypeError):
                        self.stats.corrupt_records += 1
                    else:
                        # Later segments win, though duplicates only arise
                        # from two writers racing (unsupported but benign).
                        self._index[str(key)] = (path, offset)
                    offset += len(line)
            self._total_bytes += offset
            self._segment_records = records
            self._segment_path = path
            # A crash can tear the final record mid-line with no trailing
            # newline; appending straight after it would merge the next
            # record into the torn bytes and lose it at the following scan.
            self._tail_needs_newline = not line.endswith(b"\n")
        if self._segment_index < 0:
            self._segment_records = 0

    # ------------------------------------------------------------------
    # Read/write
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> Optional[Dict]:
        """Return the payload stored for ``key``, or ``None`` (a miss).

        Reads the record back from its segment on every call — the index
        keeps only (path, offset) — so cached corpora far larger than RAM
        stay serveable.
        """
        with self._io_lock:
            location = self._index.get(key)
            if location is None:
                self.stats.misses += 1
                return None
            path, offset = location
            if self._handle is not None:
                self._handle.flush()
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    record = json.loads(handle.readline().decode("utf-8"))
            except (OSError, ValueError):
                # The segment vanished or rotted after indexing: treat as a
                # miss and drop the entry so the next put can re-fill it.
                del self._index[key]
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return record["payload"]

    def put(self, key: str, payload: Dict) -> None:
        """Persist ``payload`` under ``key`` (first write wins).

        Entries are immutable: the key hashes everything that determines
        the payload, so a repeat put stores nothing and keeps the original
        record authoritative.
        """
        with self._io_lock:
            if key in self._index:
                return
            self._ensure_segment()
            line = (
                json.dumps({"key": key, "payload": payload}, ensure_ascii=False) + "\n"
            ).encode("utf-8")
            offset = self._handle.tell()
            self._handle.write(line)
            self._handle.flush()
            self._index[key] = (self._segment_path, offset)
            self._segment_records += 1
            self._total_bytes += len(line)
            self.stats.writes += 1
            self._enforce_max_bytes()

    def _ensure_segment(self) -> None:
        """Make ``_handle`` point at a segment with room for one record."""
        if self._lock_enabled and not self._writer_lock.held:
            # A handle reopening after close() (registry evict/reload
            # reuses one handle per fingerprint) takes the lock back.
            self._writer_lock.acquire()
        if self._handle is None and (
            self._segment_index >= 0
            and self._segment_records < self.max_segment_records
        ):
            # Re-opening a directory whose newest segment still has room:
            # continue it instead of starting a new file.
            self._handle = open(self._segment_path, "ab")
            self._handle.seek(0, os.SEEK_END)
            if self._tail_needs_newline:
                # Terminate a torn final record so the next append starts
                # on its own line (the torn line stays counted as corrupt).
                self._handle.write(b"\n")
                self._tail_needs_newline = False
            return
        if (
            self._handle is not None
            and self._segment_records < self.max_segment_records
        ):
            return
        if self._handle is not None:
            self._handle.close()
        self._segment_index += 1
        self._segment_path = self.directory / (
            f"{_SEGMENT_PREFIX}{self._segment_index:06d}{_SEGMENT_SUFFIX}"
        )
        self._handle = open(self._segment_path, "ab")
        self._handle.seek(0, os.SEEK_END)
        self._segment_records = 0
        self._tail_needs_newline = False

    # ------------------------------------------------------------------
    # Growth control
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes currently held by the directory's segments."""
        return self._total_bytes

    def _enforce_max_bytes(self) -> None:
        """Drop whole oldest segments until the directory fits ``max_bytes``.

        The active (newest) segment is never dropped — the bound may be
        overshot by at most one segment, and a cache smaller than one
        segment's worth of records keeps serving its freshest entries.
        Never deletes anything while another handle holds the directory's
        writer lock: evicting a live writer's files from a second opener
        would corrupt its index.
        """
        if self.max_bytes is None:
            return
        if self._lock_enabled and not self._writer_lock.held:
            return
        while self._total_bytes > self.max_bytes:
            victims = [
                path for path in self._owned_segments()
                if path != self._segment_path
            ]
            if not victims:
                return
            oldest = victims[0]
            evicted = [
                key for key, (path, _) in self._index.items() if path == oldest
            ]
            for key in evicted:
                del self._index[key]
            try:
                size = oldest.stat().st_size
                os.remove(oldest)
            except OSError:
                return  # cannot measure/remove: stop rather than loop
            self._total_bytes -= size
            self.stats.evicted_records += len(evicted)

    def compact(self, dry_run: bool = False) -> CompactionResult:
        """Rewrite the directory keeping only live records.

        An append-only log accumulates dead space: lines corrupted by torn
        writes, duplicates shadowed by a later segment, and records whose
        index entries were dropped by eviction or read-time rot.  Compaction
        streams every *live* record (in index order: oldest segment first)
        into freshly numbered segments, swaps them in, and rebuilds the
        in-memory index.  Keys, payload bytes, and lookup results are
        unchanged — only dead space disappears.  The write handle is
        reopened lazily by the next :meth:`put`.

        Lock discipline: a real compaction needs the directory's writer
        lock — running one under a live writer in another process would
        delete segments out from under its index.  When another handle
        holds the lock, :class:`CacheLockedError` is raised (the CLI turns
        it into a "skipped" report).  ``dry_run=True`` mutates nothing and
        needs no lock: it measures the live records and reports the bytes
        a real run would reclaim.
        """
        with self._io_lock:
            if dry_run:
                return self._dry_run_locked()
            if self._lock_enabled and not self._writer_lock.held:
                if not self._writer_lock.acquire():
                    raise CacheLockedError(
                        f"cannot compact {self.directory}: another live "
                        "writer holds its lock"
                    )
            return self._compact_locked()

    def _dry_run_locked(self) -> CompactionResult:
        """Measure what :meth:`compact` would do, touching nothing."""
        if self._handle is not None:
            self._handle.flush()
        by_path: Dict[Path, List[int]] = {}
        for path, offset in self._index.values():
            by_path.setdefault(path, []).append(offset)
        live_bytes = 0
        records = 0
        for path, offsets in by_path.items():
            try:
                with open(path, "rb") as handle:
                    for offset in sorted(offsets):
                        handle.seek(offset)
                        line = handle.readline()
                        if not line.endswith(b"\n"):
                            line += b"\n"  # compaction would terminate it
                        live_bytes += len(line)
                        records += 1
            except OSError:
                continue  # segment vanished mid-measure: not live anymore
        return CompactionResult(
            records=records,
            bytes_before=self._total_bytes,
            bytes_after=live_bytes,
            dry_run=True,
        )

    def _compact_locked(self) -> CompactionResult:
        self._close_handle()
        bytes_before = self._total_bytes
        live = sorted(self._index.items(), key=lambda item: (item[1][0].name, item[1][1]))
        tmp_paths: list = []
        new_index: Dict[str, Tuple[Path, int]] = {}
        handle = None
        reader = None
        reader_path: Optional[Path] = None
        records_in_segment = 0
        segment_index = -1
        segment_path: Optional[Path] = None
        offset = 0
        total = 0
        try:
            for key, (path, old_offset) in live:
                # live is sorted oldest-segment-first by ascending offset,
                # so one read handle per source segment suffices.
                if reader_path != path:
                    if reader is not None:
                        reader.close()
                    reader = open(path, "rb")
                    reader_path = path
                reader.seek(old_offset)
                line = reader.readline()
                if not line.endswith(b"\n"):
                    # A valid final record can lack its newline (torn write
                    # that still parsed); terminate it or it would merge
                    # with the record written after it.
                    line += b"\n"
                if handle is None or records_in_segment >= self.max_segment_records:
                    if handle is not None:
                        handle.close()
                    segment_index += 1
                    segment_path = self.directory / (
                        f"{_SEGMENT_PREFIX}{segment_index:06d}{_SEGMENT_SUFFIX}.tmp"
                    )
                    tmp_paths.append(segment_path)
                    handle = open(segment_path, "wb")
                    records_in_segment = 0
                    offset = 0
                handle.write(line)
                new_index[key] = (segment_path, offset)
                offset += len(line)
                total += len(line)
                records_in_segment += 1
        finally:
            if reader is not None:
                reader.close()
            if handle is not None:
                handle.close()
        # Swap: delete the old log, promote the temporaries.  Foreign files
        # that merely match the segment glob are left untouched.
        for path in self._owned_segments():
            try:
                os.remove(path)
            except OSError:
                pass
        final_by_tmp: Dict[Path, Path] = {}
        for tmp in tmp_paths:
            final = tmp.with_suffix("")  # strip ".tmp" -> segment-N.jsonl
            os.replace(tmp, final)
            final_by_tmp[tmp] = final
        final_index: Dict[str, Tuple[Path, int]] = {
            key: (final_by_tmp[path], key_offset)
            for key, (path, key_offset) in new_index.items()
        }
        self._index = final_index
        self._segment_index = segment_index
        self._segment_path = (
            self.directory
            / f"{_SEGMENT_PREFIX}{segment_index:06d}{_SEGMENT_SUFFIX}"
            if segment_index >= 0
            else None
        )
        self._segment_records = records_in_segment if segment_index >= 0 else 0
        self._tail_needs_newline = False
        self._total_bytes = total
        return CompactionResult(
            records=len(final_index),
            bytes_before=bytes_before,
            bytes_after=total,
        )

    def clear(self) -> None:
        """Delete every owned segment and reset the index and counters."""
        with self._io_lock:
            self._close_handle()
            for path in self._owned_segments():
                try:
                    os.remove(path)
                except OSError:
                    pass
            self._index.clear()
            self._segment_records = 0
            self._segment_index = -1
            self._segment_path = None
            self._tail_needs_newline = False
            self._total_bytes = 0
            self.stats = DiskCacheStats()

    @property
    def holds_writer_lock(self) -> bool:
        """Whether this handle owns the directory's advisory writer lock
        (always ``False`` with ``lock=False``)."""
        return self._writer_lock.held

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        """Close the append handle and release the writer lock.  The next
        :meth:`put` transparently reopens (and re-locks) the directory."""
        with self._io_lock:
            self._close_handle()
            self._writer_lock.release()

    def __enter__(self) -> "DiskCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""What the persistent result store holds: keys, payloads, and its locks.

The in-memory LRU in :mod:`repro.encoding.cache` saves re-*serializing* a
table within one process; the store (:class:`~repro.serving.fabric.FabricCache`)
saves re-*annotating* it across processes.  This module describes *what is
stored*: finished annotation products (types, scores, relations,
embeddings) keyed by a composite hash of

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

*How* it is stored — per-writer JSONL segments, compacted generations,
torn-write recovery — is :mod:`repro.serving.fabric`.  ``DiskCache``, the
name single-process serving has always used for its store, is a plain
alias of :class:`~repro.serving.fabric.FabricCache`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Union

import numpy as np

from ..core.annotator import AnnotatedTable
from ..encoding.cache import content_digest, table_fingerprint
from .request import AnnotationRequest, AnnotationResult

try:  # pragma: no cover - import guard exercised only off-Linux
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - Windows
    _fcntl = None

PathLike = Union[str, Path]


class CacheLockedError(RuntimeError):
    """Raised when a compaction finds another one already running on the
    directory (possibly in another process)."""


class FileLock:
    """Advisory exclusive lock on one path (``flock``-based).

    The store's concurrency primitive: every writer holds one on its own
    ``writer-<id>.lock`` for the lifetime of its append handle, the
    compactor probes those of other writers to decide which segments are
    safe to merge, and compactors exclude each other with one.  ``acquire``
    is always non-blocking — the serving stack never *waits* for a lock,
    it observes who holds one and routes around them.

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
        while True:
            handle = open(self.path, "ab")
            if _fcntl is None:
                break
            try:
                _fcntl.flock(handle.fileno(), _fcntl.LOCK_EX | _fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
            # A compactor reaping dead writers' lock files may have unlinked
            # this one between the open and the flock; a lock on an unlinked
            # inode excludes nobody, so go round and lock the path's new file.
            try:
                if os.fstat(handle.fileno()).st_ino == os.stat(self.path).st_ino:
                    break
            except OSError:
                pass
            handle.close()
        self._handle = handle
        return True

    def release(self) -> None:
        """Drop the lock (idempotent).  The lock file stays on disk — it
        is an inode to flock, not a pidfile; a stale one is harmless, and
        the store's compaction reaps those of writers that are gone."""
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


def encode_array(array: np.ndarray) -> Dict:
    """One array as dtype + shape + a flat value list: every array the store
    holds (embeddings, the column tier's ``[CLS]`` states).  JSON floats
    round-trip via shortest repr, so :func:`decode_array` is byte-exact."""
    array = np.asarray(array)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": array.ravel().tolist(),
    }


def decode_array(payload: Dict) -> np.ndarray:
    """Rebuild the array stored by :func:`encode_array`."""
    return np.asarray(payload["data"], payload["dtype"]).reshape(payload["shape"])


def encode_annotation(result: AnnotationResult) -> Dict:
    """Serialize one result's annotation products to a JSON-safe dict.

    Captures everything :func:`decode_annotation` needs to rebuild the
    :class:`~repro.core.annotator.AnnotatedTable` byte-identically; serving
    metadata (``from_cache``, ``batch_index``) is deliberately excluded —
    it describes the producing pass, not the annotation.
    """
    annotated = result.annotated
    return {
        "coltypes": annotated.coltypes,
        "type_scores": annotated.type_scores,
        "colrels": [
            [i, j, labels] for (i, j), labels in sorted(annotated.colrels.items())
        ],
        "requested_pairs": [list(pair) for pair in annotated.requested_pairs],
        "colemb": None if annotated.colemb is None else encode_array(annotated.colemb),
    }


def decode_annotation(request: AnnotationRequest, payload: Dict) -> AnnotatedTable:
    """Rebuild the :class:`AnnotatedTable` stored by :func:`encode_annotation`.

    The table object comes from ``request`` (only content-equal tables can
    reach the same key, and the caller wants *their* table back, preserving
    its ``table_id``/metadata).
    """
    colemb = payload["colemb"]
    return AnnotatedTable(
        table=request.table,
        coltypes=[list(names) for names in payload["coltypes"]],
        colrels={
            (int(i), int(j)): list(labels) for i, j, labels in payload["colrels"]
        },
        colemb=None if colemb is None else decode_array(colemb),
        type_scores=[dict(scores) for scores in payload["type_scores"]],
        requested_pairs=[(int(i), int(j)) for i, j in payload["requested_pairs"]],
    )


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one :meth:`~repro.serving.fabric.FabricCache.compact` run.

    With ``dry_run=True`` nothing was rewritten: ``bytes_after`` is the
    *projected* post-compaction size and ``reclaimed_bytes`` the dead
    space a real run would drop.  ``skipped_segments`` counts segments
    left alone because a live writer owns them; ``corrupt_records`` the
    unparseable lines dropped from the merged inputs; ``evicted_records``
    the oldest live records dropped to fit ``max_bytes``; ``reaped_locks``
    the ``writer-<id>.lock`` files of writers that are gone (lock free, no
    segment left) that were removed — or, dry, would be.
    """

    records: int
    bytes_before: int
    bytes_after: int
    dry_run: bool = False
    skipped_segments: int = 0
    corrupt_records: int = 0
    evicted_records: int = 0
    reaped_locks: int = 0

    @property
    def reclaimed_bytes(self) -> int:
        return self.bytes_before - self.bytes_after


def __getattr__(name: str):
    # The alias resolves lazily: fabric.py imports this module's locks.
    if name == "DiskCache":
        from .fabric import FabricCache

        return FabricCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

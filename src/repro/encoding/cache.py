"""Content-addressed serialization cache (promoted from ``repro.serving``).

Serializing a table (value ordering, tokenization, numeric binning) is pure
CPU work repeated verbatim whenever the same table is encoded twice.  That
used to be a serving-only concern; with the unified encoding layer the same
cache also serves training epochs (column-shuffle augmentation aside, every
epoch would re-serialize the validation set) and the analysis modules.  The
cache stores :class:`~repro.core.serialization.EncodedTable` artifacts keyed
by a stable content hash of the table, independent of ``table_id`` or object
identity.

``repro.serving`` re-exports these names for serving-side convenience.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Generic, Hashable, Iterable, Optional, TypeVar, Union

from ..datasets.tables import Table

V = TypeVar("V")

_MISSING = object()


def content_digest(chunks: Iterable[bytes]) -> str:
    """The toolbox's one content-hash recipe: blake2b-128 over ``chunks``.

    Every content-addressed identity in the stack — table fingerprints,
    composite result-cache keys, the fabric's shared-index checksums —
    feeds its bytes through this single function, so the digest width and
    algorithm can never drift apart between the tiers that must agree on
    a key.  Chunks are hashed in order with no implicit separators; the
    caller owns boundary bytes (see :func:`table_fingerprint`).
    """
    digest = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# ``mkstemp`` creates files 0600: publish with the mode ``open`` would give.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def publish(path: Union[str, Path], chunks: Iterable[bytes]) -> Path:
    """Replace ``path`` with ``chunks``, durably and atomically — the one
    write path of every file the stack replaces whole (weight arenas, the
    store's generation and index).  A unique temporary beside the target
    (concurrent writers never share one), fsync, ``os.replace``: readers
    see the old file or the whole new one, and a failed write leaves no
    temporary behind."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            os.chmod(tmp, 0o666 & ~_UMASK)
            handle.writelines(chunks)
            handle.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def table_fingerprint(table: Table) -> str:
    """Stable content hash of a table: headers + cell values.

    Deliberately excludes ``table_id`` and ``metadata`` so two requests for
    the same content share one cache entry, and uses explicit separators so
    value boundaries cannot collide (``["ab", "c"]`` vs ``["a", "bc"]``).
    """

    def chunks() -> Iterable[bytes]:
        yield str(table.num_columns).encode("utf-8")
        for column in table.columns:
            yield b"\x1d"  # group separator: next column
            yield (column.header or "").encode("utf-8")
            for value in column.values:
                yield b"\x1f"  # unit separator: next cell
                yield value.encode("utf-8")

    return content_digest(chunks())


def column_fingerprint(column) -> str:
    """Stable content hash of one column: header + cell values.

    The column-level sibling of :func:`table_fingerprint`, and the identity
    under which the serving tier content-addresses per-column work (cached
    serialized segments, cached ``[CLS]`` encoder states).  Uses the same
    separator discipline, and — like the table recipe — excludes labels and
    any notion of position, so the same column reappearing in a different
    table (or at a different index) shares one address.
    """

    def chunks() -> Iterable[bytes]:
        yield (column.header or "").encode("utf-8")
        for value in column.values:
            yield b"\x1f"  # unit separator: next cell
            yield value.encode("utf-8")

    return content_digest(chunks())


class LRUCache(Generic[V]):
    """A small ordered-dict LRU with hit/miss counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[V]:
        """Return the cached value or ``None``, updating recency and stats."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: Hashable, value: V) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class BoundedMemo(dict):
    """A memo that starts over once it holds ``capacity`` entries (no
    recency bookkeeping); ``evictions`` counts the entries it dropped.
    Threads may share one: a lookup racing a restart only recomputes."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity
        self.evictions = 0

    def make_room(self) -> None:
        if len(self) >= self.capacity:
            self.evictions += len(self)
            self.clear()

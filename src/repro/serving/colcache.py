"""Column-level content addressing for encoder states.

Web tables massively repeat identical columns — the same id/name/country
column reappears across thousands of tables.  PR 2 turned whole-table
repetition into dedup hits; this tier does the same one level down: a
:class:`ColumnCache` stores per-column ``[CLS]`` encoder states keyed by

* the **column content hash** (:func:`repro.encoding.cache.column_fingerprint`
  — header + cells, position-independent),
* the **model key** (the engine's annotation fingerprint, which
  already folds in the serialization options and tokenizer vocabulary, so
  any knob that changes bytes re-keys every entry), and
* the **padded width** of the encoder pass (BLAS results are
  width-sensitive; a state is only reusable at the exact width it was
  computed with).

Soundness: only the serving engine's *single-column* mode consults this
cache.  There each column is encoded as its own sequence attending to
itself alone, and the pinned batched==sequential contract means a state
computed in any prior pass at the same width is bitwise the state a fresh
pass would produce.  Table-wise mode has cross-column attention — a
column's state depends on its neighbours — so per-column states are never
cached there.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..encoding.cache import LRUCache

__all__ = ["ColumnCache"]


class ColumnCache:
    """LRU of per-column encoder states.

    Satisfies the trainer's ``ColumnStateStore`` duck type
    (``lookup(fingerprint, width)`` / ``store(fingerprint, width, state)``).
    ``model_key`` is folded into every key; the engine refreshes it from
    its model fingerprint before each chunk, so weight or serializer
    changes instantly orphan stale entries instead of serving them.
    """

    def __init__(self, capacity: int, model_key: str = "") -> None:
        self._lru: LRUCache = LRUCache(capacity)
        self.model_key = model_key
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def capacity(self) -> int:
        return self._lru.capacity

    def _key(self, fingerprint: str, width: int) -> Tuple[str, str, int]:
        return (self.model_key, fingerprint, int(width))

    def lookup(self, fingerprint: str, width: int) -> Optional[np.ndarray]:
        """The cached state for (column, width) under the current model key,
        or ``None``."""
        state = self._lru.get(self._key(fingerprint, width))
        if state is not None:
            self.hits += 1
            return state
        self.misses += 1
        return None

    def store(self, fingerprint: str, width: int, state: np.ndarray) -> None:
        self._lru.put(self._key(fingerprint, width), state)

    def clear(self) -> None:
        """Drop every entry and reset counters."""
        self._lru.clear()
        self.hits = 0
        self.misses = 0

"""The shared encoding pipeline: serialize → cache → width signatures.

Before this layer existed, the serialize→tokenize→pad→forward recipe was
re-implemented independently by the trainer (example preparation and
evaluation), the serving engine (``_encode_cached``), the
pre-trainer, and the analysis modules — with the serialization cache living
only in serving.  :class:`EncodingPipeline` is the single owner of that
recipe: one :class:`~repro.core.serialization.TableSerializer`, one
content-hash LRU shared by every consumer (training epochs and repeated
evaluations stop re-serializing the same tables), and the width bookkeeping
that says how wide each sequence must be encoded — what the ragged float
pass is told per item, and what :class:`~repro.encoding.planner.BatchPlanner`
keys its exact, zero-padding-waste buckets on.

Cache keys combine the table's content fingerprint with the encoding kind
(table-wise sequence / per-column sequences / a specific column pair), so
the three serializations of one table never collide.  The serializer recipe
itself is fixed per pipeline — consumers that need a different recipe (e.g.
:meth:`DoduoTrainer.column_embeddings` with a widened token budget) build a
throwaway serializer and bypass the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..datasets.tables import Table
from ..telemetry import declare
from .cache import LRUCache, column_fingerprint, table_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a core<->encoding
    # import cycle: repro.core.trainer imports this module at load time)
    from ..core.serialization import EncodedTable, TableSerializer

    # Table-wise mode encodes a table to one sequence; single-column mode to
    # one sequence per column.
    EncodedInput = Union[EncodedTable, List[EncodedTable]]

DEFAULT_CACHE_SIZE = 512


EncodingStats = declare(
    "EncodingStats",
    """Snapshot of one pipeline's counters: ``hits / (hits + misses)`` is
    the fraction of encode requests answered without re-tokenizing
    anything.""",
    {
        "serializations": "actual serializer invocations",
        "hits": "content-hash LRU hits",
        "misses": "content-hash LRU misses",
    },
)


class EncodingPipeline:
    """Serialization + caching + batch-width bookkeeping, shared by all layers.

    ``single_column`` mirrors the trainer's Dosolo-SCol flag and decides
    what :meth:`encode` produces: one table-wise sequence, or one sequence
    per column.  ``cache_size`` bounds the content-hash LRU in entries
    (0 disables caching entirely).
    """

    def __init__(
        self,
        serializer: TableSerializer,
        single_column: bool = False,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.serializer = serializer
        self.single_column = single_column
        self._cache: LRUCache = LRUCache(cache_size)
        # Column-level content addressing: serialized segments (tokens +
        # magnitude bins) keyed by column_fingerprint.  A column's segment
        # is context-independent — it does not depend on the carrying table
        # or its neighbours — so a column seen in *any* prior table skips
        # its tokenization work even when the table-level key misses.
        self._segments: LRUCache = LRUCache(cache_size)
        self._serializations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        """Number of entries currently cached."""
        return len(self._cache)

    @property
    def cache_capacity(self) -> int:
        return self._cache.capacity

    @property
    def cache_hits(self) -> int:
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        return self._cache.misses

    @property
    def segment_hits(self) -> int:
        """Cross-table column-segment cache hits (serialization tier)."""
        return self._segments.hits

    @property
    def segment_misses(self) -> int:
        return self._segments.misses

    @property
    def stats(self) -> EncodingStats:
        return EncodingStats(
            serializations=self._serializations,
            hits=self._cache.hits,
            misses=self._cache.misses,
        )

    def clear_cache(self) -> None:
        """Drop every cached serialization and reset the hit/miss counters."""
        self._cache.clear()
        self._segments.clear()

    # ------------------------------------------------------------------
    # Cached encodes
    # ------------------------------------------------------------------
    def _cached(self, key, build):
        if self._cache.capacity == 0:
            self._serializations += 1
            return build(), False
        cached = self._cache.get(key)
        if cached is not None:
            return cached, True
        self._serializations += 1
        value = build()
        self._cache.put(key, value)
        return value, False

    def _segment_for(
        self, column, fingerprint: Optional[str] = None
    ) -> Tuple[List[int], List[int]]:
        """One column's serialized segment, read through the segment cache
        (``fingerprint``: its ``column_fingerprint`` when already known)."""
        if self._segments.capacity == 0:
            return self.serializer.column_segments(column)
        key = fingerprint or column_fingerprint(column)
        segment = self._segments.get(key)
        if segment is None:
            segment = self.serializer.column_segments(column)
            self._segments.put(key, segment)
        return segment

    def _column_segments(
        self, table: Table, column_fingerprints: Optional[Sequence[str]] = None
    ) -> List[Tuple[List[int], List[int]]]:
        """Per-column serialized segments, read through the segment cache."""
        known = column_fingerprints or [None] * table.num_columns
        return [
            self._segment_for(column, fingerprint)
            for column, fingerprint in zip(table.columns, known)
        ]

    def _encode_table_cached(
        self,
        table: Table,
        fingerprint: Optional[str] = None,
        column_fingerprints: Optional[Sequence[str]] = None,
    ) -> Tuple[EncodedTable, bool]:
        return self._cached(
            ("table", fingerprint or table_fingerprint(table)),
            lambda: self.serializer.serialize_table(
                table, segments=self._column_segments(table, column_fingerprints)
            ),
        )

    def _encode_columns_cached(
        self,
        table: Table,
        fingerprint: Optional[str] = None,
        column_fingerprints: Optional[Sequence[str]] = None,
    ) -> Tuple[List[EncodedTable], bool]:
        def build() -> List[EncodedTable]:
            segments = self._column_segments(table, column_fingerprints)
            return [
                self.serializer.serialize_column(table, c, segment=segments[c])
                for c in range(table.num_columns)
            ]

        return self._cached(
            ("columns", fingerprint or table_fingerprint(table)), build
        )

    def encode_table(self, table: Table) -> EncodedTable:
        """Table-wise serialization ``[CLS] col1 [CLS] col2 ... [SEP]``."""
        return self._encode_table_cached(table)[0]

    def encode_columns(self, table: Table) -> List[EncodedTable]:
        """One single-column sequence per column of ``table``."""
        return self._encode_columns_cached(table)[0]

    def encode_column(self, table: Table, col_index: int) -> EncodedTable:
        """One column's sequence (reads through the per-table column cache)."""
        return self.encode_columns(table)[col_index]

    def encode_pair(
        self,
        table: Table,
        i: int,
        j: int,
        fingerprint: Optional[str] = None,
        column_fingerprints: Optional[Sequence[str]] = None,
    ) -> EncodedTable:
        """A column-pair sequence ``[CLS] vi [SEP] [CLS] vj [SEP]``.

        ``fingerprint`` is ``table_fingerprint(table)`` and
        ``column_fingerprints`` its columns' ``column_fingerprint``s when
        the caller already holds them (a planned-wide request probes a
        dozen pairs of one table; hashing its cells once per pair, and each
        column twice more for the segment cache, was most of this call).
        """
        i, j = int(i), int(j)

        def build() -> EncodedTable:
            columns = table.columns
            known = column_fingerprints or [None] * len(columns)
            return self.serializer.serialize_column_pair(
                table,
                i,
                j,
                segments=(
                    self._segment_for(columns[i], known[i]),
                    self._segment_for(columns[j], known[j]),
                ),
            )

        encoded, _ = self._cached(
            ("pair", fingerprint or table_fingerprint(table), i, j), build
        )
        return encoded

    def encode(self, table: Table) -> EncodedInput:
        """Serialize ``table`` the way annotation consumes it (mode-aware)."""
        if self.single_column:
            return self.encode_columns(table)
        return self.encode_table(table)

    def encode_cached(
        self,
        table: Table,
        fingerprint: Optional[str] = None,
        column_fingerprints: Optional[Sequence[str]] = None,
    ) -> Tuple[EncodedInput, bool]:
        """Like :meth:`encode` but also reports whether it was a cache hit.

        ``fingerprint`` is ``table_fingerprint(table)``, and
        ``column_fingerprints`` its columns' ``column_fingerprint``s (the
        segment cache's keys), when the caller already holds them.
        """
        if self.single_column:
            return self._encode_columns_cached(table, fingerprint, column_fingerprints)
        return self._encode_table_cached(table, fingerprint, column_fingerprints)

    # ------------------------------------------------------------------
    # Width signatures (per-item pass widths; exact-batching keys)
    # ------------------------------------------------------------------
    @staticmethod
    def annotation_width(encoded: EncodedInput) -> int:
        """The padded width one item dictates for its column forward pass."""
        if isinstance(encoded, list):
            return max((e.length for e in encoded), default=0)
        return encoded.length

    def annotation_signature(
        self,
        encoded: EncodedInput,
        pairs: Sequence[Tuple[int, int]] = (),
    ) -> Tuple[int, int]:
        """The padded widths one annotation item dictates: ``(column pass,
        pair pass)``.

        Every sequence of the item must be encoded at exactly these widths
        — the ones it would have used alone — which is what keeps batched
        annotation byte-identical to sequential annotation.
        :meth:`DoduoModel.encode_states
        <repro.core.model.DoduoModel.encode_states>` is handed them per
        sequence: a session mixes the widths inside one pass, the Tensor
        path buckets on them (:class:`~repro.encoding.planner.BatchPlanner`)
        — two sequences share a padded batch iff their widths are equal.

        * Table-wise items run one pass — the signature is the serialized
          length (pair logits are read from the same hidden states, so
          ``pairs`` cost nothing extra).
        * Single-column items run a column pass padded to the table's widest
          column, plus (when relations are probed) a pair pass padded to the
          widest pair sequence.  A pair sequence over columns ``i, j`` is
          exactly ``len_i + len_j`` tokens (each column keeps its ``[CLS]``
          and ``[SEP]``), so the pair width falls out of the column lengths
          without serializing anything.
        """
        if not isinstance(encoded, list):
            return (encoded.length, 0)
        column_width = max((e.length for e in encoded), default=0)
        pair_width = 0
        for i, j in pairs:
            pair_width = max(pair_width, encoded[i].length + encoded[j].length)
        return (column_width, pair_width)

"""Request/response types of the annotation serving API.

An :class:`AnnotationRequest` pairs one table with per-request options the
legacy ``Doduo.annotate`` signature could not express (score thresholds,
top-k score truncation, explicit relation pairs); an
:class:`AnnotationResult` wraps the :class:`~repro.core.annotator.AnnotatedTable`
produced for it plus serving metadata (cache hit, batch id).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.annotator import AnnotatedTable
from ..datasets.tables import Table


@dataclass(frozen=True)
class AnnotationOptions:
    """Per-request knobs.

    ``with_embeddings``/``with_relations`` switch whole products off;
    ``score_threshold`` overrides the multi-label decision threshold
    (default 0.5 — the paper's protocol); ``top_k`` truncates each column's
    ``type_scores`` dictionary to its ``k`` best entries so results stay
    small on wide label vocabularies.

    Cache contract: every field participates in the persistent result-cache
    key and the queue's dedup key (:func:`repro.serving.diskcache.result_cache_key`),
    so requests with different options never share a cached or deduped
    answer, and changing any option is an automatic cache invalidation.
    """

    with_embeddings: bool = True
    with_relations: bool = True
    top_k: Optional[int] = None
    score_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1: {self.top_k}")
        if self.score_threshold is not None and not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError(
                f"score_threshold must be in [0, 1]: {self.score_threshold}"
            )


@dataclass
class AnnotationRequest:
    """One table to annotate, plus options and optional explicit pairs.

    ``pairs`` fixes which column pairs the relation head probes; ``None``
    falls back to the default policy (gold pairs when the table carries
    relation labels, else subject-column pairs ``(0, j)``).

    ``model`` pins the weights that must answer: the registered model
    name (or fingerprint) of the
    :class:`~repro.serving.gateway.AnnotationGateway`'s model.  ``None``
    means "the served model".  The :class:`~repro.serving.AnnotationEngine`
    ignores it (an engine IS one model); the gateway, and therefore also
    the :class:`~repro.serving.AnnotationService` wrapper, raise
    ``KeyError`` when it names other weights.

    Identity for caching and dedup is the table's *content* fingerprint
    (headers + cell values — :func:`repro.encoding.cache.table_fingerprint`)
    plus the options and pairs: two requests for content-equal tables share
    work even when ``table_id``/metadata or object identity differ.
    ``model`` deliberately does **not** participate in the cache key — the
    serving model's own fingerprint already does, so two names routing to
    the same weights share cached work, and one name re-pointed at new
    weights misses cleanly.
    """

    table: Table
    options: AnnotationOptions = field(default_factory=AnnotationOptions)
    pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    model: Optional[str] = None

    def __post_init__(self) -> None:
        if self.table.num_columns == 0:
            raise ValueError(
                f"table {self.table.table_id!r} has no columns to annotate"
            )
        if self.pairs is not None:
            self.pairs = tuple((int(i), int(j)) for i, j in self.pairs)


@dataclass
class AnnotationResult:
    """The engine's answer for one request.

    ``annotated`` carries the toolbox-compatible payload (types, scores,
    relations, embeddings, probed pairs); ``from_cache`` records whether the
    table's serialization was an in-memory LRU hit; ``from_disk`` records
    whether the whole annotation was served from the persistent result cache
    (no encoder pass at all — see :mod:`repro.serving.diskcache`);
    ``batch_index`` says which forward batch produced it (``-1`` for disk
    hits, which never join a batch).

    Equivalence contract: regardless of which tier answered — fresh forward
    pass, LRU-cached serialization, or disk-cached annotation — the
    ``annotated`` payload for a given (table content, model fingerprint,
    options) triple is byte-identical to the pass that first produced it.
    """

    request: AnnotationRequest
    annotated: AnnotatedTable
    from_cache: bool = False
    batch_index: int = -1
    from_disk: bool = False

    # -- convenience passthroughs -------------------------------------------
    @property
    def table(self) -> Table:
        return self.annotated.table

    @property
    def coltypes(self) -> List[List[str]]:
        return self.annotated.coltypes

    @property
    def colrels(self) -> Dict[Tuple[int, int], List[str]]:
        return self.annotated.colrels

    @property
    def colemb(self):
        return self.annotated.colemb

    @property
    def type_scores(self) -> List[Dict[str, float]]:
        return self.annotated.type_scores

    def top_types(self, column: int, k: int = 3) -> List[Tuple[str, float]]:
        return self.annotated.top_types(column, k=k)

    def to_dict(
        self,
        with_scores: bool = True,
        with_embeddings: bool = False,
        record_id: Optional[object] = None,
    ) -> Dict:
        """JSON-serializable summary (the ``repro annotate`` JSONL record).

        ``record_id`` is the serving protocol's client correlation token
        (:mod:`repro.serving.protocol`): when the wire record carried an
        ``"id"`` field it is echoed here as the answer's last key, so
        clients can match out-of-order answers.  ``None`` (no token)
        leaves the record byte-identical to the historical shape.
        """
        return wire_record(
            self.table,
            self.coltypes,
            self.type_scores if with_scores else None,
            sorted(self.colrels.items()),
            colemb=self.colemb,
            with_embeddings=with_embeddings,
            record_id=record_id,
        )


def wire_record(
    table: Table,
    coltypes: Sequence[Sequence[str]],
    type_scores: Optional[Sequence[Mapping[str, float]]],
    relations: Iterable[Tuple[Sequence[int], Sequence[str]]],
    colemb=None,
    with_embeddings: bool = False,
    record_id: Optional[object] = None,
) -> Dict:
    """The one renderer of an annotation's wire record.

    Takes the annotation products as plain sequences, so the two sources
    of an answer share it and cannot drift: :meth:`AnnotationResult.to_dict`
    passes an :class:`~repro.core.annotator.AnnotatedTable`'s fields, and
    :func:`repro.serving.protocol.encode_stored` passes a result-store
    payload's lists as they were read — no object graph in between.
    ``table`` supplies ``table_id`` and the headers (the asker's own, which
    the store does not key on); ``relations`` are ``(pair, labels)`` in
    emission order; ``type_scores=None`` leaves scores out.
    """
    columns: List[Dict] = []
    for c, col in enumerate(table.columns):
        column_payload: Dict = {
            "header": col.header,
            "predicted_types": coltypes[c],
        }
        if type_scores is not None:
            ranked = sorted(
                type_scores[c].items(), key=lambda item: (-item[1], item[0])
            )
            column_payload["type_scores"] = {
                name: round(float(score), 6) for name, score in ranked
            }
        if colemb is not None and with_embeddings:
            column_payload["embedding"] = [round(float(v), 6) for v in colemb[c]]
        columns.append(column_payload)
    payload: Dict = {
        "table_id": table.table_id,
        "columns": columns,
        "relations": [
            {"columns": list(pair), "predicted_relations": labels}
            for pair, labels in relations
        ],
    }
    if colemb is not None:
        payload["embedding_dim"] = int(colemb.shape[1])
    if record_id is not None:
        payload["id"] = record_id
    return payload

"""Toolbox-style public API (mirrors the released DODUO toolbox).

The paper ships a toolbox usable "with just a few lines of Python code":

    >>> from repro import Doduo              # doctest: +SKIP
    >>> model = Doduo.train_on(dataset)      # doctest: +SKIP
    >>> annotated = model.annotate(table)    # doctest: +SKIP
    >>> annotated.coltypes, annotated.colrels, annotated.colemb  # doctest: +SKIP

This module provides that interface as a thin compatibility layer over a
:class:`~repro.serving.AnnotationGateway`: the annotator's model is the
gateway's model, and every ``annotate*``
call runs through its :class:`~repro.serving.AnnotationEngine` — **one**
encoder forward pass per table (the legacy implementation ran up to four:
types, scores, a relation probe, embeddings) with bitwise-identical
outputs.  For cross-table batching, streaming, and per-request options use
the engine directly; for queued, deduped, or asyncio serving
use the ``gateway`` property (or build your own registry + gateway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.tables import Column, Table, TableDataset
from ..nn import TransformerConfig
from ..text import WordPieceTokenizer
from .trainer import RELATION_TASK, TYPE_TASK, DoduoConfig, DoduoTrainer


@dataclass
class AnnotatedTable:
    """Result of annotating one table.

    Attributes
    ----------
    coltypes:
        Predicted type names per column (a list of names per column in
        multi-label mode, a single-element list otherwise).
    colrels:
        Predicted relation names per probed column pair.
    colemb:
        Contextualized column embeddings ``(num_cols, d)``.
    type_scores:
        Per-column ``{type_name: probability}`` over the label vocabulary —
        sigmoid scores in multi-label mode, a softmax distribution otherwise.
        Lets callers threshold or rank predictions instead of trusting the
        argmax.
    requested_pairs:
        The column pairs the relation head actually probed (gold pairs when
        the table carries relation annotations, else the subject-column
        fallback ``(0, j)``), so callers can tell probed-but-unlabeled pairs
        from annotated ones.
    """

    table: Table
    coltypes: List[List[str]]
    colrels: Dict[Tuple[int, int], List[str]] = field(default_factory=dict)
    colemb: Optional[np.ndarray] = None
    type_scores: List[Dict[str, float]] = field(default_factory=list)
    requested_pairs: List[Tuple[int, int]] = field(default_factory=list)

    def top_types(self, column: int, k: int = 3) -> List[Tuple[str, float]]:
        """The ``k`` highest-scoring type names for one column."""
        if not 0 <= column < len(self.type_scores):
            raise IndexError(
                f"column {column} out of range: table "
                f"{self.table.table_id!r} has scores for "
                f"{len(self.type_scores)} columns"
            )
        scores = self.type_scores[column]
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]


class Doduo:
    """High-level annotator wrapping a trained :class:`DoduoTrainer`."""

    def __init__(self, trainer: DoduoTrainer) -> None:
        self._trainer = trainer
        self._dataset = trainer.dataset
        self._gateway = None
        self._engine = None

    @classmethod
    def train_on(
        cls,
        dataset: TableDataset,
        tokenizer: WordPieceTokenizer,
        encoder_config: Optional[TransformerConfig] = None,
        config: Optional[DoduoConfig] = None,
        valid_dataset: Optional[TableDataset] = None,
        pretrained_encoder_state: Optional[Dict[str, np.ndarray]] = None,
    ) -> "Doduo":
        """Fine-tune a DODUO model on ``dataset`` and return the annotator."""
        if encoder_config is None:
            encoder_config = TransformerConfig(vocab_size=tokenizer.vocab_size)
        if config is None:
            tasks = (
                (TYPE_TASK, RELATION_TASK)
                if dataset.num_relations > 0
                else (TYPE_TASK,)
            )
            config = DoduoConfig(tasks=tasks, multi_label=dataset.num_relations > 0)
        trainer = DoduoTrainer(
            dataset,
            tokenizer,
            encoder_config,
            config,
            pretrained_encoder_state=pretrained_encoder_state,
        )
        trainer.train(valid_dataset=valid_dataset)
        return cls(trainer)

    @property
    def trainer(self) -> DoduoTrainer:
        return self._trainer

    @property
    def gateway(self):
        """The :class:`~repro.serving.AnnotationGateway` backing this
        annotator.

        Created lazily with default configuration, holding this trainer
        as its model.  Gives toolbox users the queued/asyncio serving APIs
        (``gateway.submit`` / ``await gateway.asubmit``) without further
        setup; callers who need custom batch sizes or cache tiers should
        build their own registry + gateway.
        """
        if self._gateway is None:
            # Deferred import: serving imports core.
            from ..serving import AnnotationEngine, AnnotationGateway

            self._gateway = AnnotationGateway.for_engine(
                AnnotationEngine(self._trainer)
            )
        return self._gateway

    @property
    def engine(self):
        """The :class:`~repro.serving.AnnotationEngine` the gateway routes
        this annotator's requests to.

        The synchronous ``annotate*`` wrappers below call it directly —
        same engine, same bytes, no worker thread in the way.  Memoized:
        the gateway's model is registered in-memory and never replaced, so
        one registry resolution suffices for the annotator's lifetime.
        """
        if self._engine is None:
            self._engine = self.gateway.registry.get()
        return self._engine

    def annotate(self, table: Table, with_embeddings: bool = True) -> AnnotatedTable:
        """Predict column types, relations, and embeddings for ``table``.

        Runs as a single-table engine batch, which is bitwise identical to
        the historical multi-pass implementation while encoding the table
        only once.
        """
        return self.engine.annotate(table, with_embeddings=with_embeddings).annotated

    def annotate_many(
        self, tables: Sequence[Table], with_embeddings: bool = True
    ) -> List[AnnotatedTable]:
        """Annotate several tables as one engine batch.

        Every sequence keeps the width it would have alone inside one
        padding-free pass per chunk (:mod:`repro.core.inference`), so
        batched outputs are bitwise identical to per-table :meth:`annotate`
        calls while tables of any widths share forward passes.
        """
        from ..serving import AnnotationOptions  # deferred: serving imports core

        results = self.engine.annotate_batch(
            tables, options=AnnotationOptions(with_embeddings=with_embeddings)
        )
        return [result.annotated for result in results]

    def annotate_dataframe(
        self, rows: Sequence[Sequence[str]], headers: Optional[Sequence[str]] = None
    ) -> AnnotatedTable:
        """Annotate raw row-major data (the dataframe-like entry point)."""
        if not rows:
            raise ValueError("rows must be non-empty")
        num_cols = len(rows[0])
        if any(len(row) != num_cols for row in rows):
            raise ValueError("all rows must have the same number of cells")
        columns = [
            Column(
                values=[str(row[c]) for row in rows],
                header=headers[c] if headers else None,
            )
            for c in range(num_cols)
        ]
        return self.annotate(Table(columns=columns, table_id="adhoc"))

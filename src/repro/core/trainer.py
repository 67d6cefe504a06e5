"""Multi-task training of DODUO (Algorithm 1 of the paper).

The trainer alternates between the column-type task and the column-relation
task every epoch, each with its own optimizer and linear-decay scheduler, and
keeps the checkpoint with the best validation F1 — exactly the procedure of
Sections 4.4 and 5.3.

Three model variants from the paper map onto configuration flags:

* **Doduo** — table-wise serialization, both tasks (``tasks=("type", "relation")``)
* **Dosolo** — table-wise serialization, a single task (no multi-task learning)
* **DosoloSCol** — ``single_column=True``: each column (or column pair) is
  serialized independently, discarding table context
* **TURL baseline** — ``use_visibility_matrix=True``: cross-column attention
  edges removed

Further configuration flags extend the paper's setup:
``use_numeric_embeddings`` (Section 3.1 future work),
``augment_column_shuffle`` (column-order-invariance training),
``use_column_segments=False`` (ablates this reproduction's segment prior),
and ``early_stopping_patience`` (stop when validation F1 plateaus).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.tables import Table, TableDataset
from ..encoding import EncodingPipeline
from ..encoding.cache import column_fingerprint, table_fingerprint
from ..evaluation.metrics import PRF, multiclass_micro_f1, multilabel_micro_prf
from ..nn import Adam, LinearDecayScheduler, TransformerConfig
from ..nn import functional as F
from ..text import WordPieceTokenizer
from .model import DoduoModel, activation_probs
from .serialization import EncodedTable, SerializerConfig, TableSerializer

TYPE_TASK = "type"
RELATION_TASK = "relation"

def default_relation_pairs(table: Table) -> List[Tuple[int, int]]:
    """Column pairs the relation head probes when none are requested.

    Annotated tables keep their gold pairs (sorted); unannotated tables fall
    back to TURL's subject-column convention and probe ``(0, j)`` for every
    non-subject column ``j``.  Single-column tables have nothing to probe.

    Gold pairs recorded both ways round — ``(i, j)`` and ``(j, i)``, which
    real annotation dumps do contain — ask the head the same gold question
    twice, so unordered duplicates collapse to their first (sorted)
    occurrence and no pair is ever encoded twice.
    """
    if table.num_columns < 2:
        return []
    gold = sorted(table.relation_labels)
    if not gold:
        return [(0, j) for j in range(1, table.num_columns)]
    seen = set()
    unique: List[Tuple[int, int]] = []
    for i, j in gold:
        key = (i, j) if i <= j else (j, i)
        if key in seen:
            continue
        seen.add(key)
        unique.append((i, j))
    return unique


def validate_relation_pairs(
    table: Table, pairs: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Check that every requested pair indexes real columns of ``table``.

    Exact repeats are dropped (probing a pair twice buys nothing), but a
    reversed request ``(j, i)`` is kept alongside ``(i, j)``: the relation
    head concatenates the two column states in order, so the two directions
    are genuinely different probes — unlike gold duplicates, where
    :func:`default_relation_pairs` collapses unordered repeats of the same
    annotation.
    """
    checked: List[Tuple[int, int]] = []
    seen = set()
    for pair in pairs:
        i, j = pair
        for index in (i, j):
            if not 0 <= index < table.num_columns:
                raise ValueError(
                    f"relation pair {pair!r} is out of range for table "
                    f"{table.table_id!r} with {table.num_columns} columns"
                )
        key = (int(i), int(j))
        if key in seen:
            continue
        seen.add(key)
        checked.append(key)
    return checked


def decide_labels(
    probs: np.ndarray, multi_label: bool, threshold: float = 0.5
) -> np.ndarray:
    """The decision rule over ``(rows, labels)`` probabilities.

    Multi-label: a boolean indicator matrix — every label at or above
    ``threshold``, and always the top-scoring one.  Single-label: the argmax
    label id per row.  Evaluation and serving both decide here.
    """
    top = probs.argmax(axis=-1)
    if not multi_label:
        return top
    predictions = probs >= threshold
    predictions[np.arange(len(probs)), top] = True
    return predictions


def _row_groups(counts: Iterable[int]) -> List[List[int]]:
    """Consecutive row-index lists of the given lengths, from row 0."""
    groups: List[List[int]] = []
    start = 0
    for count in counts:
        groups.append(list(range(start, start + count)))
        start += count
    return groups


@dataclass
class DoduoConfig:
    """Hyper-parameters for fine-tuning.

    ``multi_label`` selects BCE loss (WikiTable) vs CE loss (VizNet), per
    Section 5.3.
    """

    tasks: Tuple[str, ...] = (TYPE_TASK, RELATION_TASK)
    multi_label: bool = True
    single_column: bool = False
    use_visibility_matrix: bool = False
    use_column_segments: bool = True
    use_numeric_embeddings: bool = False
    augment_column_shuffle: bool = False
    max_tokens_per_column: int = 8
    include_headers: bool = False
    value_order: str = "head"
    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    keep_best_checkpoint: bool = True
    early_stopping_patience: int = 0  # 0 disables early stopping

    def __post_init__(self) -> None:
        for task in self.tasks:
            if task not in (TYPE_TASK, RELATION_TASK):
                raise ValueError(f"unknown task: {task}")
        if self.early_stopping_patience < 0:
            raise ValueError(
                f"early_stopping_patience must be >= 0: "
                f"{self.early_stopping_patience}"
            )


@dataclass
class _TypeExample:
    encoded: EncodedTable
    labels: np.ndarray  # multi-hot (num_cols, num_types) or int (num_cols,)


@dataclass
class _RelationExample:
    encoded: EncodedTable
    pairs: List[Tuple[int, int]]          # local column index pairs
    labels: np.ndarray                    # multi-hot (num_pairs, R) or int (num_pairs,)


@dataclass
class RawTableAnnotation:
    """Model outputs for one table from a single-pass annotation batch.

    ``type_probs`` is ``(num_cols, num_types)``; ``relation_probs`` maps each
    probed column pair to its ``(num_relations,)`` probability vector;
    ``embeddings`` is ``(num_cols, hidden_dim)`` or ``None`` when not
    requested.
    """

    type_probs: np.ndarray
    relation_probs: Dict[Tuple[int, int], np.ndarray]
    probed_pairs: List[Tuple[int, int]]
    embeddings: Optional[np.ndarray] = None


# Table-wise mode serializes a table to one sequence; single-column mode to
# one sequence per column.
EncodedAnnotationInput = Union[EncodedTable, List[EncodedTable]]


@dataclass
class TrainingHistory:
    """Loss / validation-F1 trajectory of a training run.

    ``real_tokens``/``padded_tokens`` total the encoder passes of the run
    (training batches plus per-epoch validation): how many sequence slots
    were allocated versus how many carried real tokens.  ``padding_waste``
    is the fraction of allocated slots that were padding — the quantity
    the benchmark harness reports per workload as
    ``encoding.padding_waste_ratio``.
    """

    task_losses: Dict[str, List[float]] = field(default_factory=dict)
    valid_f1: List[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    real_tokens: int = 0
    padded_tokens: int = 0

    @property
    def padding_waste(self) -> float:
        if self.padded_tokens == 0:
            return 0.0
        return (self.padded_tokens - self.real_tokens) / self.padded_tokens


class DoduoTrainer:
    """Fine-tunes a :class:`DoduoModel` on a :class:`TableDataset`."""

    def __init__(
        self,
        dataset: TableDataset,
        tokenizer: WordPieceTokenizer,
        encoder_config: TransformerConfig,
        config: DoduoConfig,
        pretrained_encoder_state: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.config = config
        self.dataset = dataset
        self.tokenizer = tokenizer
        # The unified encoding layer: one serializer + one content-hash
        # cache shared by example preparation, ``annotate_batch`` (so
        # evaluation and serving — the engine reuses this pipeline by
        # default) and the analysis modules.
        self.encoding = EncodingPipeline(
            TableSerializer(
                tokenizer,
                SerializerConfig(
                    max_tokens_per_column=config.max_tokens_per_column,
                    max_sequence_length=encoder_config.max_position,
                    include_headers=config.include_headers,
                    value_order=config.value_order,
                ),
            ),
            single_column=config.single_column,
        )
        rng = np.random.default_rng(config.seed)
        num_relations = dataset.num_relations if RELATION_TASK in config.tasks else 0
        self.model = DoduoModel(
            encoder_config,
            num_types=dataset.num_types,
            num_relations=num_relations,
            rng=rng,
            use_visibility_matrix=config.use_visibility_matrix,
            use_column_segments=config.use_column_segments,
            use_numeric_embeddings=config.use_numeric_embeddings,
        )
        if pretrained_encoder_state is not None:
            self.model.encoder.load_state_dict(pretrained_encoder_state)
        self._rng = rng
        self.history = TrainingHistory(
            task_losses={task: [] for task in config.tasks}
        )
        # Memoized annotation fingerprints, keyed by the configuration's
        # fold (its probe descriptor): hashing walks every weight, and the
        # serving worker keys routing and cache partitions on it, so it
        # must not cost a weight walk per lookup.  Invalidated by train() —
        # external weight mutation must call invalidate_fingerprint() (or
        # serve a fresh trainer).
        self._annotation_fingerprints: Dict[bytes, str] = {}

    @property
    def serializer(self) -> TableSerializer:
        """The pipeline's serializer (kept for API compatibility)."""
        return self.encoding.serializer

    # ------------------------------------------------------------------
    # Example preparation
    # ------------------------------------------------------------------
    def _type_label_array(self, table: Table) -> np.ndarray:
        if self.config.multi_label:
            labels = np.zeros((table.num_columns, self.dataset.num_types), dtype=np.float32)
            for c, column in enumerate(table.columns):
                for name in column.type_labels:
                    labels[c, self.dataset.type_id(name)] = 1.0
            return labels
        labels = np.zeros(table.num_columns, dtype=np.int64)
        for c, column in enumerate(table.columns):
            if not column.type_labels:
                raise ValueError(f"column {c} of {table.table_id} has no type label")
            labels[c] = self.dataset.type_id(column.type_labels[0])
        return labels

    def _relation_label_array(self, table: Table, pairs: List[Tuple[int, int]]) -> np.ndarray:
        if self.config.multi_label:
            labels = np.zeros((len(pairs), self.dataset.num_relations), dtype=np.float32)
            for row, pair in enumerate(pairs):
                for name in table.relation_labels[pair]:
                    labels[row, self.dataset.relation_id(name)] = 1.0
            return labels
        labels = np.zeros(len(pairs), dtype=np.int64)
        for row, pair in enumerate(pairs):
            labels[row] = self.dataset.relation_id(table.relation_labels[pair][0])
        return labels

    def _prepare_type_examples(self, tables: Sequence[Table]) -> List[_TypeExample]:
        examples: List[_TypeExample] = []
        for table in tables:
            label_array = self._type_label_array(table)
            if self.config.single_column:
                for c, encoded in enumerate(self.encoding.encode_columns(table)):
                    examples.append(_TypeExample(encoded, label_array[c:c + 1]))
            else:
                encoded = self.encoding.encode_table(table)
                examples.append(_TypeExample(encoded, label_array))
        return examples

    def _prepare_relation_examples(self, tables: Sequence[Table]) -> List[_RelationExample]:
        examples: List[_RelationExample] = []
        for table in tables:
            pairs = sorted(table.relation_labels)
            if not pairs:
                continue
            labels = self._relation_label_array(table, pairs)
            if self.config.single_column:
                for row, (i, j) in enumerate(pairs):
                    encoded = self.encoding.encode_pair(table, i, j)
                    examples.append(
                        _RelationExample(encoded, [(0, 1)], labels[row:row + 1])
                    )
            else:
                encoded = self.encoding.encode_table(table)
                examples.append(_RelationExample(encoded, pairs, labels))
        return examples

    # ------------------------------------------------------------------
    # Loss computation per batch
    # ------------------------------------------------------------------
    def _type_batch_loss(self, batch: Sequence[_TypeExample]):
        logits = self.model.type_logits([ex.encoded for ex in batch])
        if self.config.multi_label:
            targets = np.concatenate([ex.labels for ex in batch], axis=0)
            return F.binary_cross_entropy_logits(logits, targets)
        targets = np.concatenate([ex.labels for ex in batch], axis=0)
        return F.cross_entropy_logits(logits, targets)

    def _relation_batch_loss(self, batch: Sequence[_RelationExample]):
        encoded = [ex.encoded for ex in batch]
        pairs = [
            (b, i, j)
            for b, ex in enumerate(batch)
            for (i, j) in ex.pairs
        ]
        logits = self.model.relation_logits(encoded, pairs)
        targets = np.concatenate([ex.labels for ex in batch], axis=0)
        if self.config.multi_label:
            return F.binary_cross_entropy_logits(logits, targets)
        return F.cross_entropy_logits(logits, targets)

    # ------------------------------------------------------------------
    # Training loop (Algorithm 1)
    # ------------------------------------------------------------------
    def train(
        self,
        valid_dataset: Optional[TableDataset] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        config = self.config

        def prepare(tables):
            type_examples = (
                self._prepare_type_examples(tables)
                if TYPE_TASK in config.tasks
                else []
            )
            relation_examples = (
                self._prepare_relation_examples(tables)
                if RELATION_TASK in config.tasks
                else []
            )
            return type_examples, relation_examples

        real_tokens_before = self.model.real_tokens
        padded_tokens_before = self.model.padded_tokens
        type_examples, relation_examples = prepare(self.dataset.tables)

        # One optimizer + scheduler per task (hard parameter sharing: both
        # optimizers update the shared encoder).
        optimizers: Dict[str, Adam] = {}
        schedulers: Dict[str, LinearDecayScheduler] = {}
        counts = {TYPE_TASK: len(type_examples), RELATION_TASK: len(relation_examples)}
        for task in config.tasks:
            if counts[task] == 0:
                continue
            optimizers[task] = Adam(self.model.parameters(), lr=config.learning_rate)
            steps = config.epochs * max(1, int(np.ceil(counts[task] / config.batch_size)))
            schedulers[task] = LinearDecayScheduler(optimizers[task], total_steps=steps)

        best_f1 = -1.0
        best_state: Optional[Dict[str, np.ndarray]] = None
        epochs_without_improvement = 0

        self.model.train()
        for epoch in range(config.epochs):
            if config.augment_column_shuffle and epoch > 0:
                # Re-serialize with a fresh column permutation per table so
                # the model cannot tie a type to a column position — the
                # order-invariance property the Table 6 ablation measures.
                shuffled = [t.shuffled_columns(self._rng) for t in self.dataset.tables]
                type_examples, relation_examples = prepare(shuffled)
            for task in config.tasks:
                if task not in optimizers:
                    continue
                examples = type_examples if task == TYPE_TASK else relation_examples
                order = self._rng.permutation(len(examples))
                epoch_loss, num_batches = 0.0, 0
                for start in range(0, len(order), config.batch_size):
                    batch = [examples[i] for i in order[start:start + config.batch_size]]
                    if task == TYPE_TASK:
                        loss = self._type_batch_loss(batch)
                    else:
                        loss = self._relation_batch_loss(batch)
                    optimizers[task].zero_grad()
                    loss.backward()
                    optimizers[task].step()
                    schedulers[task].step()
                    epoch_loss += loss.item()
                    num_batches += 1
                self.history.task_losses[task].append(epoch_loss / max(num_batches, 1))

            if valid_dataset is not None and config.keep_best_checkpoint:
                scores = self.evaluate(valid_dataset)
                mean_f1 = float(np.mean([prf.f1 for prf in scores.values()]))
                self.history.valid_f1.append(mean_f1)
                if mean_f1 > best_f1:
                    best_f1 = mean_f1
                    best_state = self.model.state_dict()
                    self.history.best_epoch = epoch
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                self.model.train()
            if verbose:  # pragma: no cover - console output
                losses = {t: v[-1] for t, v in self.history.task_losses.items() if v}
                print(f"epoch {epoch}: losses={losses}")
            if (
                config.early_stopping_patience > 0
                and epochs_without_improvement >= config.early_stopping_patience
            ):
                self.history.stopped_early = True
                break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        self.invalidate_fingerprint()  # the weights just changed
        self.history.real_tokens = self.model.real_tokens - real_tokens_before
        self.history.padded_tokens = (
            self.model.padded_tokens - padded_tokens_before
        )
        return self.history

    # ------------------------------------------------------------------
    # Prediction and evaluation
    # ------------------------------------------------------------------
    def _annotate_gold(
        self, tables: Sequence[Table], with_relations: bool = True
    ) -> List[RawTableAnnotation]:
        """:meth:`annotate_batch` over chunks of ``config.batch_size``,
        probing exactly each table's gold pairs — never the
        :func:`default_relation_pairs` fallback, which would pay for pairs
        no metric reads.  Evaluation is this view of the serving pass, so
        the paper's numbers and a served answer come from the same lines.
        """
        size = max(1, self.config.batch_size)
        raw: List[RawTableAnnotation] = []
        for start in range(0, len(tables), size):
            chunk = tables[start:start + size]
            raw.extend(
                self.annotate_batch(
                    chunk,
                    pair_requests=[sorted(t.relation_labels) for t in chunk],
                    with_embeddings=False,
                    with_relations=with_relations,
                )
            )
        return raw

    def _decide_relations(
        self, raw: RawTableAnnotation
    ) -> Dict[Tuple[int, int], np.ndarray]:
        multi_label = self.config.multi_label
        return {
            pair: np.asarray(decide_labels(probs[None], multi_label)[0])
            for pair, probs in raw.relation_probs.items()
        }

    def predict_types(self, tables: Sequence[Table]) -> List[np.ndarray]:
        """Per-table type predictions.

        Multi-label mode returns boolean indicator matrices
        ``(num_cols, num_types)``; single-label mode returns int arrays.
        Batch predictions are byte-identical to per-table calls
        (:meth:`annotate_batch`'s contract).
        """
        return [
            decide_labels(raw.type_probs, self.config.multi_label)
            for raw in self._annotate_gold(tables, with_relations=False)
        ]

    def predict_relations(
        self, tables: Sequence[Table]
    ) -> List[Dict[Tuple[int, int], np.ndarray]]:
        """Per-table relation predictions for each annotated column pair
        (``{}`` for a table without gold pairs, which costs no encoding).

        To evaluate under a probe budget instead, hand
        :meth:`annotate_batch` ``pair_requests=[planner.plan_pairs(t)]``:
        the planner pins gold pairs, so labeled tables keep every annotated
        pair in the probe set.
        """
        raw = iter(self._annotate_gold([t for t in tables if t.relation_labels]))
        return [
            self._decide_relations(next(raw)) if t.relation_labels else {}
            for t in tables
        ]

    # ------------------------------------------------------------------
    # Single-pass batched annotation (the serving path)
    # ------------------------------------------------------------------
    def invalidate_fingerprint(self) -> None:
        """Drop the memoized annotation fingerprint.

        :meth:`train` calls this automatically; code that mutates model
        weights behind the trainer's back (manual ``load_state_dict``,
        parameter surgery) must call it too, or stale fingerprints would
        alias cached annotations across different weights.  Also drops the
        model's memoized inference sessions — they cache weight views under
        the same contract.
        """
        self._annotation_fingerprints.clear()
        self.model.invalidate_sessions()

    def annotation_fingerprint(self, fold: bytes = b"") -> str:
        """Stable hash of everything that determines an annotation output.

        Combines :meth:`DoduoModel.fingerprint` (architecture + weights) with
        the serialization recipe (token budget, value ordering, headers), the
        tokenizer vocabulary, the decision regime (``multi_label``,
        ``single_column``), and the label vocabularies.  Two trainers with
        equal fingerprints produce bitwise-identical annotations for the same
        request, so this is the model component of the persistent result
        cache key (:mod:`repro.serving.diskcache`) **and** a route the
        serving worker admits (:meth:`repro.serving.EngineWorker.admits`):
        changing any weight, serializer knob, or vocabulary invalidates
        every cached entry and re-keys the route.

        ``fold`` is what the serving configuration appends
        (:meth:`repro.serving.engine.EngineConfig.fold`: the markers of the
        knobs that change annotation bytes), opaque here; empty under the
        default configuration, so keys persisted before any such knob
        existed stay valid.

        Memoized (hashing walks every weight); :meth:`train` invalidates the
        memo, and :meth:`invalidate_fingerprint` does so for out-of-band
        weight mutation.
        """
        cached = self._annotation_fingerprints.get(fold)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.model.fingerprint().encode("utf-8"))
        digest.update(repr(self.serializer.config).encode("utf-8"))
        digest.update(
            repr(
                (
                    self.config.multi_label,
                    self.config.single_column,
                    tuple(self.config.tasks),
                )
            ).encode("utf-8")
        )
        for word in self.tokenizer.vocab.tokens():
            digest.update(b"\x1f")
            digest.update(word.encode("utf-8"))
        for vocab in (self.dataset.type_vocab, self.dataset.relation_vocab):
            digest.update(b"\x1d")
            for label in vocab:
                digest.update(b"\x1f")
                digest.update(label.encode("utf-8"))
        digest.update(fold)
        value = digest.hexdigest()
        self._annotation_fingerprints[fold] = value
        return value

    def annotate_batch(
        self,
        tables: Sequence[Table],
        encoded: Optional[Sequence[EncodedAnnotationInput]] = None,
        pair_requests: Optional[Sequence[Optional[Sequence[Tuple[int, int]]]]] = None,
        with_embeddings: bool = True,
        with_relations: bool = True,
        kernels: Optional[str] = None,
        column_cache: Optional["ColumnStateStore"] = None,
        fingerprints: Optional[Sequence[str]] = None,
        column_fingerprints: Optional[Sequence[Optional[Sequence[str]]]] = None,
    ) -> List[RawTableAnnotation]:
        """Annotate a batch of tables with one encoder pass.

        The only place tables become model outputs: serving (the engine,
        ``Doduo.annotate*``, ``annotate_wide``) and evaluation
        (:meth:`predict_types`, :meth:`predict_relations`,
        :meth:`evaluate`, and through it :meth:`train`'s checkpoint
        selection) all run these lines.  Types, per-type probabilities,
        relation probabilities, and column embeddings are all read from one
        matrix of ``[CLS]`` states (:meth:`DoduoModel.encode_states`).
        Single-column mode needs a second pass for column-pair sequences
        (they are serialized differently from single columns), but both
        passes remain batched across the tables.

        Every sequence is encoded at exactly the width its table dictates
        alone (:meth:`EncodingPipeline.annotation_signature
        <repro.encoding.pipeline.EncodingPipeline.annotation_signature>`),
        and every head GEMM chain runs over one table's rows, so every
        result is **byte-identical** to annotating its table alone —
        batching changes cost, never bytes.  On a session (the fast path)
        that costs nothing: it mixes widths inside one
        padding-free pass (:mod:`repro.core.inference`).  The Tensor path
        (``kernels="reference"``, the oracle) can only pad a batch to one
        width, so there ``encode_states`` runs one pass per distinct width.

        ``encoded`` lets callers (the serving engine's cache) supply
        pre-serialized inputs; ``pair_requests`` overrides the probed column
        pairs per table (``None`` entries fall back to
        :func:`default_relation_pairs`).  A probe planner plugs in here:
        ``pair_requests=[planner.plan_pairs(table)]`` — planning changes
        *which* pairs are paid for, never the bytes of a probed pair.

        ``kernels`` selects the forward implementation (see
        :meth:`DoduoModel.encode_states`).  ``column_cache``
        enables column-level content addressing in single-column mode: an
        object with ``lookup(fingerprint, width)`` / ``store(fingerprint,
        width, state)`` (the serving :class:`~repro.serving.ColumnCache`)
        supplying ``[CLS]`` encoder states for columns already seen — at the
        same padded width — in any prior table; it is ignored in table-wise
        mode, where cross-column attention makes per-column states
        context-dependent and therefore unsound to share.

        ``fingerprints`` are the tables' content fingerprints
        (:func:`~repro.encoding.cache.table_fingerprint`) when the caller
        already holds them — the serving engine hashes each request once
        and the pair-sequence cache is keyed by the same digest.
        ``column_fingerprints`` are, per table, its columns'
        (:func:`~repro.encoding.cache.column_fingerprint`) under the same
        arrangement: the column-state cache and every pair encode key on
        them, and re-hashing a column per use was most of their cost.
        """
        if encoded is not None and len(encoded) != len(tables):
            raise ValueError(
                f"encoded has {len(encoded)} entries for {len(tables)} tables"
            )
        if pair_requests is not None and len(pair_requests) != len(tables):
            raise ValueError(
                f"pair_requests has {len(pair_requests)} entries "
                f"for {len(tables)} tables"
            )
        if not tables:
            return []
        model = self.model
        model.eval()
        if encoded is None:
            encoded = [self.encoding.encode(t) for t in tables]
        can_relate = with_relations and model.relation_head is not None
        pairs_per_table: List[List[Tuple[int, int]]] = []
        for index, table in enumerate(tables):
            requested = pair_requests[index] if pair_requests else None
            if not can_relate:
                if with_relations and requested:
                    # An explicit relation question on a model that cannot
                    # answer it must fail loudly, not return an empty dict.
                    raise RuntimeError(
                        f"relation pairs {list(requested)!r} were requested for "
                        f"table {table.table_id!r} but the model was built "
                        "without a relation head"
                    )
                pairs_per_table.append([])
            elif requested is None:
                pairs_per_table.append(default_relation_pairs(table))
            else:
                pairs_per_table.append(validate_relation_pairs(table, requested))
        signatures = [
            self.encoding.annotation_signature(item, pairs)
            for item, pairs in zip(encoded, pairs_per_table)
        ]

        # Column states: one row per column, the tables end to end.  A
        # table-wise sequence yields all of its table's rows; a single-column
        # table's sequences (a row each) all pad to its widest column.
        single_column = self.config.single_column
        if single_column:
            sequences = [sequence for item in encoded for sequence in item]
            widths = [w for (w, _), item in zip(signatures, encoded) for _ in item]
        else:
            sequences = list(encoded)
            widths = [w for w, _ in signatures]
        if single_column and column_cache is not None and sequences:
            states, session = self._column_states(
                tables, sequences, widths, column_cache, column_fingerprints,
                kernels,
            )
        else:
            states, session = model.encode_states(sequences, widths, kernels)
        column_rows = _row_groups(table.num_columns for table in tables)

        # Relation inputs: per probed pair, the two state rows the head
        # concatenates.  Table-wise they are rows of the column states (pair
        # logits cost no encoding).  A single-column pair is its own
        # two-column sequence, padded to its table's widest pair and encoded
        # in a second pass: rows 2k and 2k + 1 of that pass's states.
        pair_rows = _row_groups(len(pairs) for pairs in pairs_per_table)
        pair_states = states
        if single_column:
            pair_sequences: List[EncodedTable] = []
            pair_widths: List[int] = []
            for index, (table, pairs) in enumerate(zip(tables, pairs_per_table)):
                if not pairs:
                    continue
                # One walk over the cells per table, not one per pair.
                fingerprint = (
                    fingerprints[index] if fingerprints else table_fingerprint(table)
                )
                columns = column_fingerprints[index] if column_fingerprints else None
                pair_sequences.extend(
                    self.encoding.encode_pair(table, i, j, fingerprint, columns)
                    for i, j in pairs
                )
                pair_widths.extend([signatures[index][1]] * len(pairs))
            if pair_sequences:
                pair_states, session = model.encode_states(
                    pair_sequences, pair_widths, kernels
                )
            left = np.arange(0, 2 * len(pair_sequences), 2)
            right = left + 1
        else:
            left, right = np.asarray(
                [
                    (rows[i], rows[j])
                    for rows, pairs in zip(column_rows, pairs_per_table)
                    for i, j in pairs
                ],
                dtype=np.int64,
            ).reshape(-1, 2).T

        # Heads run once per table, over its columns / its pairs: BLAS picks
        # differently blocked kernels by row count, so only a row count that
        # depends on that table alone gives it the bytes it gets alone — the
        # second half of the batched==sequential contract.
        def probabilities(apply, inputs, groups, out_features) -> np.ndarray:
            logits = np.empty(
                (sum(map(len, groups)), out_features), dtype=states.dtype
            )
            for rows in groups:
                if rows:
                    logits[rows] = apply(inputs(rows), session)
            return activation_probs(logits, self.config.multi_label)

        type_probs = probabilities(
            model.apply_type_head,
            lambda rows: states[rows],
            column_rows,
            model.type_head.out.out_features,
        )
        relation_probs = None
        if len(left):
            relation_probs = probabilities(
                model.apply_relation_head,
                lambda rows: np.concatenate(
                    [pair_states[left[rows]], pair_states[right[rows]]], axis=-1
                ),
                pair_rows,
                model.relation_head.out.out_features,
            )
        return [
            RawTableAnnotation(
                type_probs=type_probs[rows],
                relation_probs={
                    pair: relation_probs[row] for pair, row in zip(pairs, positions)
                },
                probed_pairs=list(pairs),
                embeddings=states[rows] if with_embeddings else None,
            )
            for rows, pairs, positions in zip(
                column_rows, pairs_per_table, pair_rows
            )
        ]

    def _column_states(
        self,
        tables: Sequence[Table],
        sequences: Sequence[EncodedTable],
        widths: Sequence[int],
        column_cache: "ColumnStateStore",
        column_fingerprints: Optional[Sequence[Optional[Sequence[str]]]],
        kernels: Optional[str],
    ) -> Tuple[np.ndarray, Optional["InferenceSession"]]:
        """:meth:`DoduoModel.encode_states` read through the column store.

        Sound only in single-column mode: each column's sequence attends to
        itself alone, and batch-composition independence (the pinned
        batched==sequential contract) means a ``[CLS]`` state computed in
        any prior pass *at the same padded width* is bitwise the state this
        pass would compute.  ``widths`` is that width per column (its
        table's widest column).  Misses are deduplicated by (content, width)
        and encoded in one pass at exactly those widths, so hits and misses
        share identical geometry, and the rows come back in the flattened
        column order of the uncached path.
        """
        digests: List[str] = []
        for index, table in enumerate(tables):
            known = column_fingerprints[index] if column_fingerprints else None
            digests.extend(known or map(column_fingerprint, table.columns))
        keys = list(zip(digests, widths))
        states: List[Optional[np.ndarray]] = [
            column_cache.lookup(*key) for key in keys
        ]
        missing: Dict[Tuple[str, int], List[int]] = {}
        for index, state in enumerate(states):
            if state is None:
                missing.setdefault(keys[index], []).append(index)
        firsts = [positions[0] for positions in missing.values()]
        fresh, session = self.model.encode_states(
            [sequences[i] for i in firsts],
            [widths[i] for i in firsts],
            kernels,
        )
        for (key, positions), state in zip(missing.items(), fresh):
            state = state.copy()
            column_cache.store(*key, state)
            for index in positions:
                states[index] = state
        return np.stack(states), session

    def evaluate(self, dataset: TableDataset) -> Dict[str, PRF]:
        """Micro PRF per task on ``dataset``, every task scored from one
        sweep of :meth:`annotate_batch` (a table is encoded once, not once
        per task)."""
        multi_label = self.config.multi_label
        score_types = TYPE_TASK in self.config.tasks
        score_relations = (
            RELATION_TASK in self.config.tasks and dataset.num_relations > 0
        )
        tables = [t for t in dataset.tables if score_types or t.relation_labels]
        annotations = self._annotate_gold(tables, with_relations=score_relations)
        scores: Dict[str, PRF] = {}
        if score_types:
            predictions = [
                decide_labels(raw.type_probs, multi_label) for raw in annotations
            ]
            if multi_label:
                y_true = np.concatenate(
                    [self._indicator_for(table, dataset) for table in tables], axis=0
                )
                y_pred = np.concatenate(predictions, axis=0)
                scores[TYPE_TASK] = multilabel_micro_prf(y_true, y_pred)
            else:
                y_true = np.concatenate(
                    [
                        [dataset.type_id(col.type_labels[0]) for col in table.columns]
                        for table in tables
                    ]
                )
                y_pred = np.concatenate(predictions)
                scores[TYPE_TASK] = multiclass_micro_f1(y_true, y_pred)
        if score_relations:
            true_rows, pred_rows = [], []
            for table, raw in zip(tables, annotations):
                table_pred = self._decide_relations(raw)
                for pair in sorted(table.relation_labels):
                    row = np.zeros(dataset.num_relations, dtype=bool)
                    for name in table.relation_labels[pair]:
                        row[dataset.relation_id(name)] = True
                    true_rows.append(row)
                    if multi_label:
                        pred_rows.append(table_pred[pair])
                    else:
                        one_hot = np.zeros(dataset.num_relations, dtype=bool)
                        one_hot[int(table_pred[pair])] = True
                        pred_rows.append(one_hot)
            if true_rows:
                scores[RELATION_TASK] = multilabel_micro_prf(
                    np.stack(true_rows), np.stack(pred_rows)
                )
        return scores

    def _indicator_for(self, table: Table, dataset: TableDataset) -> np.ndarray:
        indicator = np.zeros((table.num_columns, dataset.num_types), dtype=bool)
        for c, column in enumerate(table.columns):
            for name in column.type_labels:
                indicator[c, dataset.type_id(name)] = True
        return indicator

    # ------------------------------------------------------------------
    # Embeddings (case study / analysis)
    # ------------------------------------------------------------------
    def column_embeddings(
        self,
        table: Table,
        max_tokens_per_column: Optional[int] = None,
        layer: int = -1,
    ) -> np.ndarray:
        """Contextualized column embeddings ``(num_cols, d)`` for a table.

        ``max_tokens_per_column`` widens (or narrows) the serialization
        budget at inference time — embeddings used for clustering benefit
        from seeing more cell evidence than the training budget, and the
        position embeddings cover the longer sequence as long as it fits
        ``max_sequence_length``.  ``layer`` selects the encoder block to
        read (see :meth:`DoduoModel.column_embeddings`).
        """
        self.model.eval()
        if max_tokens_per_column is None:
            # The standard recipe reads through the shared encoding cache.
            if self.config.single_column:
                encoded = self.encoding.encode_columns(table)
            else:
                encoded = [self.encoding.encode_table(table)]
            return self.model.column_embeddings(encoded, layer=layer).data.copy()
        # A widened/narrowed budget is a different serialization recipe, so
        # it must bypass the cache (entries are keyed by content only).
        limits = self.serializer.config
        serializer = TableSerializer(
            self.tokenizer,
            SerializerConfig(
                max_tokens_per_column=max_tokens_per_column,
                max_sequence_length=limits.max_sequence_length,
                include_headers=limits.include_headers,
                value_order=limits.value_order,
                sample_seed=limits.sample_seed,
            ),
        )
        if self.config.single_column:
            encoded = [
                serializer.serialize_column(table, c)
                for c in range(table.num_columns)
            ]
        else:
            encoded = [serializer.serialize_table(table)]
        return self.model.column_embeddings(encoded, layer=layer).data.copy()

    def clone_state(self) -> Dict[str, np.ndarray]:
        return copy.deepcopy(self.model.state_dict())

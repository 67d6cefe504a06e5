"""The unified encoding layer: serialize → cache → plan → pad, once.

Everything this reproduction does — fine-tuning, single-pass serving,
masked-LM pre-training, attention analysis — flows through the same
serialize→tokenize→pad→forward recipe (the paper's central design: one
table serialization, one encoder).  This package owns that recipe so no
layer re-implements it:

* :class:`EncodingPipeline` — one :class:`~repro.core.serialization.TableSerializer`
  plus a shared content-hash LRU (:class:`LRUCache` keyed by
  :func:`table_fingerprint`), so training epochs, repeated evaluations, and
  serving requests all reuse each other's serializations.
* :class:`BatchPlanner` — exact length bucketing, for the Tensor path,
  which pads a batch to one width (the reference-kernel oracle): only
  inputs with equal width signatures share a forward batch,
  which eliminates cross-request padding (zero waste) and makes batched
  annotation **byte-identical** to sequential annotation — the
  jointly-padded ~1e-7 float drift is gone because no sequence is ever
  padded beyond the width it would use alone.  (Serving and evaluation
  keep that rule without bucketing:
  :mod:`repro.core.inference` mixes widths inside one pass.)
* :class:`PaddingReport` — token-level accounting (real vs allocated
  slots) surfaced in ``EngineStats`` and ``TrainingHistory``.
* :func:`pad_batch` / :func:`pad_token_lists` — the single padding
  implementation, with explicit width/dtype so planned buckets compose
  without re-measuring.

Consumers: :class:`repro.core.trainer.DoduoTrainer` (example preparation,
``annotate_batch``), :class:`repro.serving.AnnotationEngine`
(serialization cache), :mod:`repro.pretrain.mlm`, and
:mod:`repro.analysis`.
"""

from .cache import LRUCache, column_fingerprint, table_fingerprint
from .planner import BatchPlanner, PaddingReport
from .pipeline import EncodingPipeline, EncodingStats

# Serialization primitives re-exported for consumers of the unified layer.
# This import must come after the locals above: importing repro.core
# re-enters this package (repro.core.trainer imports EncodingPipeline), so
# the names it needs have to exist already.
from ..core.serialization import (  # noqa: E402
    EncodedTable,
    SerializerConfig,
    TableSerializer,
    column_visibility,
    pad_batch,
    pad_token_lists,
)

__all__ = [
    "BatchPlanner",
    "EncodedTable",
    "EncodingPipeline",
    "EncodingStats",
    "LRUCache",
    "PaddingReport",
    "SerializerConfig",
    "TableSerializer",
    "column_fingerprint",
    "column_visibility",
    "pad_batch",
    "pad_token_lists",
    "table_fingerprint",
]

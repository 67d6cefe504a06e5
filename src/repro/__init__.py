"""repro — a from-scratch reproduction of DODUO (SIGMOD 2022).

"Annotating Columns with Pre-trained Language Models" by Suhara et al.
introduces DODUO, a multi-task, table-wise column annotation framework on
top of pre-trained Transformer language models.  This package reproduces the
full system on a pure-numpy substrate:

* :mod:`repro.nn` — autograd engine, Transformer encoder, Adam + LR
  schedules, checkpointing
* :mod:`repro.text` — trainable WordPiece tokenizer (with save/load)
* :mod:`repro.pretrain` — masked-LM pre-training (the BERT substitute)
* :mod:`repro.datasets` — synthetic KB and WikiTable/VizNet-style benchmarks,
  the enterprise case-study DB, dirty-data corruption, corpus statistics
* :mod:`repro.core` — DODUO: serialization, model, multi-task trainer,
  toolbox API, wide-table splitting, numeric-magnitude embeddings, model
  bundles (save/load)
* :mod:`repro.encoding` — the unified encoding layer: one serialization
  pipeline (content-hash cache shared by training, serving, and analysis),
  the width signatures that keep every sequence at the width it would
  have alone, and the exact width-bucket batch planner for the Tensor
  path, which pads a batch to one width (zero padding waste, batched
  inference byte-identical to sequential)
* :mod:`repro.baselines` — Sherlock, Sato (LDA + CRF), TURL visibility model
* :mod:`repro.matching` — fastText-like embeddings, COMA, DistributionBased,
  k-means (case-study substrate)
* :mod:`repro.analysis` — attention dependency and LM probing analyses
* :mod:`repro.evaluation` — micro/macro F1, multi-label PRF, V-measure,
  text tables, ASCII figure rendering
* :mod:`repro.io` — CSV tables and JSONL dataset round-trips
* :mod:`repro.serving` — the serving stack: the batched ``AnnotationEngine``
  (single-pass inference, one padding-free pass per drain whatever the
  widths, streaming) and its one loader, ``load_engine``; the
  ``EngineWorker`` front door over one model (``default`` or fingerprint
  routes, a dedup queue, thread and asyncio-native client APIs); the
  transport-agnostic wire ``protocol`` and the asyncio TCP
  ``AnnotationServer`` (per-connection FIFO answers, admin plane,
  graceful drain), the supervised multi-process ``ServingPool``
  (``repro serve --workers N``: parent-placed connections, one shared
  weight arena, crash restart, merged stats, pool-wide drain), and the
  one persistent result store, ``FabricCache`` (concurrently writable
  across processes, compactable, rooted per model fingerprint;
  ``DiskCache`` is an alias)
* :mod:`repro.cli` — the ``repro`` command-line toolbox

Quickstart::

    from repro import AnnotationEngine, Doduo, DoduoConfig, PipelineConfig
    from repro.core import build_pretrained_lm
    from repro.datasets import generate_wikitable_dataset, split_dataset

    dataset = generate_wikitable_dataset(num_tables=200)
    splits = split_dataset(dataset)
    tokenizer, pretrained = build_pretrained_lm(PipelineConfig())
    model = Doduo.train_on(splits.train, tokenizer,
                           pretrained_encoder_state=pretrained.encoder.state_dict())

    # One table (types, relations, embeddings from one encoder pass):
    annotated = model.annotate(splits.test.tables[0])

    # Many tables: the engine batches whole tables into padding-free
    # forward passes and streams results for unbounded workloads.
    engine = AnnotationEngine(model)
    results = engine.annotate_batch(splits.test.tables)
    for result in engine.annotate_stream(table_generator()):
        print(result.coltypes, result.top_types(0))
"""

from .core import (
    AnnotatedTable,
    Doduo,
    DoduoConfig,
    DoduoModel,
    DoduoTrainer,
    PipelineConfig,
    TableSerializer,
    annotate_wide,
    load_annotator,
    save_annotator,
)
from .datasets import (
    Column,
    KnowledgeBase,
    Table,
    TableDataset,
    generate_enterprise_dataset,
    generate_viznet_dataset,
    generate_wikitable_dataset,
    split_dataset,
)
from .serving import (
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    AnnotationResult,
    AnnotationServer,
    DiskCache,
    EngineConfig,
    EngineWorker,
    FabricCache,
    PoolConfig,
    QueueConfig,
    ServingPool,
    load_engine,
)

__version__ = "1.8.0"

__all__ = [
    "AnnotatedTable",
    "AnnotationEngine",
    "AnnotationOptions",
    "AnnotationRequest",
    "AnnotationResult",
    "AnnotationServer",
    "Column",
    "DiskCache",
    "EngineConfig",
    "EngineWorker",
    "FabricCache",
    "PoolConfig",
    "QueueConfig",
    "ServingPool",
    "Doduo",
    "DoduoConfig",
    "DoduoModel",
    "DoduoTrainer",
    "KnowledgeBase",
    "PipelineConfig",
    "Table",
    "TableDataset",
    "TableSerializer",
    "__version__",
    "annotate_wide",
    "generate_enterprise_dataset",
    "generate_viznet_dataset",
    "generate_wikitable_dataset",
    "load_annotator",
    "load_engine",
    "save_annotator",
    "split_dataset",
]

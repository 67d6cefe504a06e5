"""DODUO core: serialization, model, multi-task trainer, toolbox API."""

from .annotator import AnnotatedTable, Doduo
from .calibration import (
    apply_temperature,
    calibrate_trainer,
    expected_calibration_error,
    fit_temperature,
)
from .model import ColumnRelationHead, ColumnTypeHead, DoduoModel
from .persistence import load_annotator, save_annotator
from .probe import (
    ProbeBudget,
    ProbePlan,
    ProbePlanner,
    relation_type_compatibility,
)
from .pipeline import (
    PipelineConfig,
    build_knowledge_base,
    build_pretrained_lm,
    clear_pretrain_cache,
    make_trainer,
)
from .serialization import (
    EncodedTable,
    SerializerConfig,
    TableSerializer,
    column_visibility,
    pad_batch,
    pad_token_lists,
)
from .trainer import (
    RELATION_TASK,
    TYPE_TASK,
    DoduoConfig,
    DoduoTrainer,
    TrainingHistory,
)
from .wide import (
    annotate_wide,
    column_profile,
    column_similarity,
    profile_similarity,
    split_columns_by_similarity,
    split_columns_contiguous,
    split_wide_table,
    subtable,
)

__all__ = [
    "AnnotatedTable",
    "ColumnRelationHead",
    "ColumnTypeHead",
    "Doduo",
    "DoduoConfig",
    "DoduoModel",
    "DoduoTrainer",
    "EncodedTable",
    "PipelineConfig",
    "ProbeBudget",
    "ProbePlan",
    "ProbePlanner",
    "RELATION_TASK",
    "SerializerConfig",
    "TYPE_TASK",
    "TableSerializer",
    "TrainingHistory",
    "annotate_wide",
    "apply_temperature",
    "calibrate_trainer",
    "build_knowledge_base",
    "build_pretrained_lm",
    "clear_pretrain_cache",
    "column_profile",
    "column_similarity",
    "column_visibility",
    "profile_similarity",
    "relation_type_compatibility",
    "expected_calibration_error",
    "fit_temperature",
    "load_annotator",
    "make_trainer",
    "pad_batch",
    "pad_token_lists",
    "save_annotator",
    "split_columns_by_similarity",
    "split_columns_contiguous",
    "split_wide_table",
    "subtable",
]

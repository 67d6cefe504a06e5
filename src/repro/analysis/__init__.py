"""Analyses: attention dependency, attention heads, LM probing.

:mod:`repro.analysis.contracts` (not imported here — it has no numpy
dependency and stays importable in stripped environments) is the static
contract checker behind ``repro check``.
"""

from .attention import (
    AttentionDependency,
    compute_attention_dependency,
    render_heatmap_ascii,
)
from .heads import (
    HeadSummary,
    head_agreement_matrix,
    head_attention_entropy,
    summarize_heads,
)
from .probing import (
    ProbeScore,
    ProbingReport,
    kb_relation_examples,
    kb_type_examples,
    probe_column_relations,
    probe_column_types,
)

__all__ = [
    "AttentionDependency",
    "HeadSummary",
    "head_agreement_matrix",
    "head_attention_entropy",
    "ProbeScore",
    "ProbingReport",
    "compute_attention_dependency",
    "kb_relation_examples",
    "kb_type_examples",
    "probe_column_relations",
    "probe_column_types",
    "render_heatmap_ascii",
    "summarize_heads",
]

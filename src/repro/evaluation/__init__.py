"""Evaluation metrics, significance tests, text tables and charts."""

from .ascii_plots import bar_chart, heatmap, line_chart
from .metrics import (
    PRF,
    homogeneity_completeness_v,
    multiclass_macro_f1,
    multiclass_micro_f1,
    multilabel_micro_prf,
    multilabel_per_label_f1,
    per_class_f1,
)
from .significance import (
    BootstrapInterval,
    PairedComparison,
    bootstrap_metric,
    paired_bootstrap,
)
from .reports import render_table

__all__ = [
    "BootstrapInterval",
    "PRF",
    "PairedComparison",
    "bootstrap_metric",
    "paired_bootstrap",
    "bar_chart",
    "heatmap",
    "line_chart",
    "homogeneity_completeness_v",
    "multiclass_macro_f1",
    "multiclass_micro_f1",
    "multilabel_micro_prf",
    "multilabel_per_label_f1",
    "per_class_f1",
    "render_table",
]

"""Result handling: tables and summary statistics."""

from repro.analysis.stats import improvement_percent, mean_improvement, summarize_series
from repro.analysis.tables import format_table, result_table, to_csv

__all__ = [
    "format_table",
    "result_table",
    "to_csv",
    "improvement_percent",
    "mean_improvement",
    "summarize_series",
]

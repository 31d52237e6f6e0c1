"""Experiment harness: lifecycle runner, figure helpers, tables and reports."""

from .figures import figure7b, speedup
from .report import (
    format_breakdown_table,
    format_fraction_table,
    format_memory_table,
    format_series_table,
)
from .runner import LifecycleResult, run_comparison, run_lifecycle
from .tables import format_table2, table2_rows

__all__ = [
    "figure7b",
    "speedup",
    "format_breakdown_table",
    "format_fraction_table",
    "format_memory_table",
    "format_series_table",
    "LifecycleResult",
    "run_comparison",
    "run_lifecycle",
    "format_table2",
    "table2_rows",
]

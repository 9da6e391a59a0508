"""Reporting and figure/table reconstruction helpers."""

from .report import (
    FigureReport,
    LOAD_REPORT_COLUMNS,
    format_table,
    load_test_report,
    normalise_series,
    pick_reference,
    to_csv,
    write_csv,
)

__all__ = [
    "FigureReport",
    "LOAD_REPORT_COLUMNS",
    "format_table",
    "load_test_report",
    "normalise_series",
    "pick_reference",
    "to_csv",
    "write_csv",
]

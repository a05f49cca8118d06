"""Workload and device analysis: update-size CDFs, amplification
formulas, and plain-text table/figure rendering."""

from .amplification import (
    db_write_amplification,
    gross_written_bytes,
    lifetime_host_writes,
    longevity_factor,
    relative_change,
    wa_reduction_factor,
)
from .cdf import (
    CDF,
    PerObjectCollector,
    UpdateSizeCollector,
    percentile_at_most,
    percentile_table,
    sample_percentile,
    value_at_percentile,
)
from .report import ascii_cdf, format_percent, format_table

__all__ = [
    "db_write_amplification",
    "gross_written_bytes",
    "lifetime_host_writes",
    "longevity_factor",
    "relative_change",
    "wa_reduction_factor",
    "CDF",
    "PerObjectCollector",
    "UpdateSizeCollector",
    "percentile_at_most",
    "percentile_table",
    "sample_percentile",
    "value_at_percentile",
    "ascii_cdf",
    "format_percent",
    "format_table",
]

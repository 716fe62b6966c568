"""Cluster-wide flight recorder: causal tracing, latency histograms,
critical-path analysis, the load report derived from spans, export.

See docs/OBSERVABILITY.md for the span model, the blame-table
decomposition, the ``top`` report and the export formats.
"""

from repro.obs.histogram import BUCKET_EDGES, Histogram, merge_windows
from repro.obs.registry import MetricsRegistry
from repro.obs.span import Span, SpanCtx
from repro.obs.tracer import Tracer, traced_syscall
from repro.obs.export import (causal_chains, export_chrome, export_jsonl,
                              trace_records, validate_trace_jsonl)
from repro.obs.critpath import (CritPathReport, analyze, analyze_spans,
                                format_blame)
from repro.obs.load import (cluster_load_report, convergence, format_top,
                            load_records)

__all__ = [
    "BUCKET_EDGES", "Histogram", "merge_windows", "MetricsRegistry", "Span",
    "SpanCtx", "Tracer", "traced_syscall", "causal_chains", "export_chrome",
    "export_jsonl", "trace_records", "validate_trace_jsonl",
    "CritPathReport", "analyze", "analyze_spans", "format_blame",
    "cluster_load_report", "convergence", "format_top", "load_records",
]

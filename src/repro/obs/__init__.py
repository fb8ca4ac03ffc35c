"""repro.obs — unified observability: metrics, spans, exporters.

One substrate for every layer of the repro to publish what it
measures — the Eq. (1) byte accounting of the GPU model, per-iteration
solver residuals, and the Fig. 4 per-rank/per-resource timelines of
the distributed runtime — plus exporters that turn the recorded state
into Chrome-trace JSON (Perfetto), Prometheus text, or JSONL.

Instrumentation is **off by default** and zero-cost while off: every
hook guards on :func:`enabled`, so `simulate_spmv`/`distributed_spmv`
results and timings are bit-identical to an uninstrumented build.

Typical use::

    from repro import obs

    obs.enable()
    ...  # run workloads; layers publish as a side effect
    with open("trace.json", "w") as fh:
        obs.write_chrome_trace(fh)
    print(obs.prometheus_text())
    obs.disable()
"""

from repro.obs import profile
from repro.obs.export import (
    chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    read_spans_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Summary,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    get_registry,
    histogram,
    inc,
    observe,
    observe_summary,
    reset,
    set_gauge,
    summary,
)
from repro.obs.spans import (
    Span,
    SpanContext,
    Tracer,
    adopt_spans,
    annotate_current,
    attach_context,
    capture_context,
    current_span,
    current_trace,
    get_tracer,
    new_trace_id,
    record_timeline,
    reset_spans,
    span,
    trace_root,
)
from repro.obs.trace import (
    build_trace,
    find_trace_id,
    list_traces,
    render_trace,
)

__all__ = [
    # state
    "enabled",
    "enable",
    "disable",
    "reset",
    "reset_all",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "summary",
    "inc",
    "set_gauge",
    "observe",
    "observe_summary",
    # spans / traces
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "span",
    "trace_root",
    "current_span",
    "current_trace",
    "new_trace_id",
    "capture_context",
    "attach_context",
    "adopt_spans",
    "annotate_current",
    "record_timeline",
    "reset_spans",
    "build_trace",
    "render_trace",
    "list_traces",
    "find_trace_id",
    # profiler submodule
    "profile",
    # export
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "parse_prometheus_text",
    "write_jsonl",
    "read_spans_jsonl",
]


def reset_all() -> None:
    """Drop all recorded metrics, spans and profiler samples
    (the enable flag is left untouched)."""
    reset()
    reset_spans()
    profile.reset_profile()

"""``repro.trace`` — zero-dependency structured tracing.

The observability layer under the serving stack: a thread-safe
:class:`Tracer` records nestable, monotonic-clock spans into a bounded
ring buffer; per-request trace ids propagate from
``serve.Server.submit`` through scheduler batches, replica dispatch
(process and remote replicas ship worker-side spans back with the
reply),
``InferenceSession.predict``, the ODE solver step loop and every
``repro.kernels`` dispatch.  Exporters turn the spans into Chrome
trace / Perfetto JSON, a text flame summary and per-stage latency
tables; :func:`tail_attribution` decomposes the latency tail by stage.

Everything is built so that **tracing off costs nothing**: each traced
seam guards on one thread-local read (:func:`current_tracer` is
``None``) and takes its original code path.

Quick start::

    from repro.trace import Tracer, write_chrome_trace

    tracer = Tracer(sample_every=1)
    with tracer.span("work", items=3):
        with tracer.span("inner"):
            pass
    write_chrome_trace(tracer.spans(), "trace.json")  # load in Perfetto

or end to end: ``python -m repro.serve --trace out.json``.
See ``docs/OBSERVABILITY.md``.
"""

from .analysis import (
    STAGES,
    percentile,
    render_tail_attribution,
    stage_latency,
    tail_attribution,
)
from .exporters import (
    chrome_trace,
    flame_summary,
    render_trace_report,
    write_chrome_trace,
)
from .tracer import (
    KernelSpanCollector,
    Span,
    Tracer,
    current_span_id,
    current_tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "KernelSpanCollector",
    "current_tracer",
    "current_span_id",
    "chrome_trace",
    "write_chrome_trace",
    "flame_summary",
    "render_trace_report",
    "stage_latency",
    "tail_attribution",
    "render_tail_attribution",
    "percentile",
    "STAGES",
]

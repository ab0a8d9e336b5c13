"""repro.ops — the unified observability plane.

One package every layer reports into (ROADMAP item 4):

- :mod:`repro.ops.trace` — a ``TraceContext`` that follows one request
  from the client session through the relay, the TCP framing, and the
  driver, riding envelope headers on the wire and a contextvar in
  process;
- :mod:`repro.ops.metrics` — :class:`MetricsRegistry` (counters,
  gauges, histograms with bounded label sets), where the relay, server,
  interceptor and exchange counts live, rendered as Prometheus text
  exposition;
- :mod:`repro.ops.logging` — structured JSON logging with the trace id
  stamped on every record;
- :mod:`repro.ops.health` — liveness/readiness checks;
- :mod:`repro.ops.probe` — the ``/metrics`` / ``/healthz`` / ``/readyz``
  HTTP listener :class:`~repro.net.RelayServer` embeds;
- :mod:`repro.ops.exporters` — attaches the relay's, server's,
  interceptor's and exchange metrics' own registries to a shared one
  (import it explicitly: it pulls in the api and relay layers, which
  themselves import this package).
"""

from repro.ops.health import CheckResult, HealthProbe, relay_checks
from repro.ops.logging import (
    JsonLogCapture,
    JsonLogFormatter,
    TraceContextFilter,
    capture_logs,
    configure_json_logging,
)
from repro.ops.metrics import (
    Counter,
    EXPOSITION_CONTENT_TYPE,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    counter_family,
    gauge_family,
)
from repro.ops.probe import OpsProbeServer
from repro.ops.trace import (
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    TraceContext,
    activate,
    current_trace,
    ensure_trace,
    from_headers,
    inject,
    new_trace,
    reply_headers,
)

__all__ = [
    "CheckResult",
    "Counter",
    "EXPOSITION_CONTENT_TYPE",
    "Gauge",
    "HealthProbe",
    "Histogram",
    "JsonLogCapture",
    "JsonLogFormatter",
    "MetricFamily",
    "MetricsRegistry",
    "OpsProbeServer",
    "SPAN_ID_HEADER",
    "TRACE_ID_HEADER",
    "TraceContext",
    "TraceContextFilter",
    "activate",
    "capture_logs",
    "configure_json_logging",
    "counter_family",
    "current_trace",
    "ensure_trace",
    "from_headers",
    "gauge_family",
    "inject",
    "new_trace",
    "relay_checks",
    "reply_headers",
]

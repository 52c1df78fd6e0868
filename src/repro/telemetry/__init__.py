"""Observability for the simulated cluster (ISSUE 3 tentpole).

Three pieces:

* **Spans** (:mod:`.spans`) — per-I/O stage boundaries threaded from
  block-layer submit through SQ/doorbell/fetch/media/CQE back to the
  completion poll; stage durations telescope to the end-to-end latency
  exactly.
* **Metrics** (:mod:`.metrics`) — a deterministic registry of counters,
  gauges and summaries scraped from component accounting by the
  :class:`~repro.telemetry.hub.Telemetry` hub.
* **Exporters** (:mod:`.perfetto`, :mod:`.prometheus`) — Chrome/Perfetto
  trace-event JSON and Prometheus text exposition, both byte-identical
  across identical runs.

The ISSUE-8 time-series layer builds on those:

* **Histograms** (:mod:`.hist`) — mergeable log-bucketed latency
  histograms per ``(tenant, op, device)``;
* **Time series** (:mod:`.timeseries`) — a sim-clock-driven windowed
  sampler snapshotting gauges, rates and windowed quantiles into
  ring-buffered series (JSONL / Perfetto counter-track exports);
* **SLOs** (:mod:`.slo`) — latency objectives with multi-window
  burn-rate alerting over the sampled windows.

Everything is off by default: a hub records by subscribing to the
simulator's probe (:mod:`repro.sim.probe`; the event table is in
docs/observability.md), so with no hub every emit site iterates an
empty tuple; histograms/sampler/SLO are further opt-ins on a live hub
(``enable_histograms`` / ``enable_sampler`` / ``enable_slo``).

Instrumented runs are built from :class:`repro.run.RunSpec`
(``observe={"spans", "slo"}``), not from this package.
"""

from .hist import (DEFAULT_SUB_BITS, QUANTILES, HistogramError,
                   LatencyHistograms, LogHistogram)
from .hub import Telemetry
from .metrics import (COUNTER, GAUGE, HISTOGRAM, SUMMARY, MetricFamily,
                      MetricsError, MetricsRegistry)
from .perfetto import COUNTER_PID, counter_events, span_events, \
    spans_to_perfetto
from .prometheus import registry_to_prometheus
from .slo import SloAlert, SloEngine, SloSpec
from .spans import BOUNDARIES, STAGES, IoSpan, SpanRecorder
from .timeseries import SeriesBank, TelemetrySampler, TimeSeries

__all__ = [
    "BOUNDARIES", "COUNTER", "COUNTER_PID", "DEFAULT_SUB_BITS", "GAUGE",
    "HISTOGRAM", "QUANTILES", "SUMMARY", "STAGES",
    "HistogramError", "IoSpan", "LatencyHistograms", "LogHistogram",
    "MetricFamily", "MetricsError", "MetricsRegistry",
    "SeriesBank", "SloAlert",
    "SloEngine", "SloSpec", "SpanRecorder", "Telemetry",
    "TelemetrySampler", "TimeSeries",
    "counter_events", "registry_to_prometheus", "span_events",
    "spans_to_perfetto",
]

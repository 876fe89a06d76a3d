"""Observability for the synopsis engine: metrics, tracing, exposition.

The paper's central quantities -- the concise-sample gain m'/m
(Theorems 3-4), the Section-3.1 threshold trajectory, the amortised
O(1) flip/lookup rates of Tables 1-2 -- become runtime-watchable here:

* :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket
  histograms, and the registry; the process default is a true no-op.
* :mod:`repro.obs.probe` -- lifecycle event hooks the core synopses
  emit into (admissions, threshold raises, eviction survivors, shard
  merges, snapshot/restore).
* :mod:`repro.obs.instruments` -- scrape-time collectors mirroring
  synopsis state and ``CostCounters`` ledgers into labelled series.
* :mod:`repro.obs.tracing` -- one span record and one tracer for
  every traced op: a root span per query (answering synopsis, latency,
  error bounds, exact-fallback decision), checkpoint or recovery
  (duration, replay length, torn-tail repair), with child spans for
  the queue-wait/cache/synopsis/exact/audit phases.  A served query
  is one trace: the server opens the root, the engine adds its phases.
* :mod:`repro.obs.audit` -- calibration auditing: a seeded fraction
  of approximate answers is shadowed with the exact path and scored
  against the claimed interval (``repro_audit_*`` series).
* :mod:`repro.obs.sink` -- bounded trace export: ring buffer plus
  JSONL writer, fed by the tracer's single-export ``drain()``.
* :mod:`repro.obs.report` -- the ``python -m repro.obs report``
  plain-text health report over snapshots and trace files.
* :mod:`repro.obs.load` -- warehouse load-stream throughput metering.
* :mod:`repro.obs.exposition` -- Prometheus text and JSON rendering.
* :mod:`repro.obs.clock` -- the repository's only direct wall-clock
  reads (reprolint RL009); everything else takes an injected clock.

Typical setup::

    from repro import obs

    registry = obs.enable()                    # metrics + probe on
    obs.watch_synopsis(registry, sample, "sales.item")
    tracer = obs.Tracer(registry)
    engine = ApproximateAnswerEngine(warehouse, tracer=tracer)
    ...
    print(obs.render_prometheus(registry))
    obs.disable()

``python -m repro.obs --selftest`` asserts the exposition round-trip
over an example workload; ``python -m repro.obs report`` renders the
health report from exported files.
"""

from __future__ import annotations

from repro.obs import probe
from repro.obs.clock import Clock, FakeClock, monotonic, perf_counter
from repro.obs.exposition import (
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.instruments import ObservedSynopsis, watch_synopsis
from repro.obs.load import MeteredLoadObserver
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
)
from repro.obs.audit import AuditObservation, CalibrationAuditor
from repro.obs.probe import MetricsProbe
from repro.obs.report import histogram_quantile, render_health_report
from repro.obs.sink import TraceSink, read_trace_file, span_tree
from repro.obs.tracing import ActiveTrace, Span, Tracer

__all__ = [
    "ActiveTrace",
    "AuditObservation",
    "CalibrationAuditor",
    "Clock",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MeteredLoadObserver",
    "MetricsProbe",
    "MetricsRegistry",
    "NullRegistry",
    "ObservedSynopsis",
    "Span",
    "TraceSink",
    "Tracer",
    "disable",
    "enable",
    "get_registry",
    "histogram_quantile",
    "monotonic",
    "parse_prometheus",
    "perf_counter",
    "read_trace_file",
    "render_health_report",
    "render_json",
    "render_prometheus",
    "set_registry",
    "span_tree",
    "watch_synopsis",
]


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn observability on: activate a registry and install the probe.

    Returns the now-active registry (a fresh one unless provided).
    """
    active = registry if registry is not None else MetricsRegistry()
    set_registry(active)
    probe.install(active)
    return active


def disable() -> None:
    """Return to the no-op default: null registry, no probe."""
    probe.uninstall()
    set_registry(None)

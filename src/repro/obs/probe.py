"""Synopsis lifecycle probe: the hook the core layers emit into.

The synopsis maintenance code (``repro.core``) calls the module-level
functions below at its *rare* lifecycle events -- admissions batches,
threshold raises, shard merges, snapshot/restore.  Each call site is
guarded by ``PROBE is None`` (the default), so with observability
disabled the cost is one module-attribute load and a pointer test at
events that already involve hashing or RNG work; the per-element
fast path between events carries no instrumentation at all.

Continuous state (footprint, sample-size, threshold, the
``CostCounters`` ledger) is deliberately *not* pushed through the
probe: :func:`repro.obs.instruments.watch_synopsis` pulls it at
scrape time instead.

This module must stay import-light: ``repro.core`` imports it, so it
may only depend on :mod:`repro.obs.metrics` (never on core/engine).
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_RATIO_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "MetricsProbe",
    "PROBE",
    "install",
    "uninstall",
]


class MetricsProbe:
    """Bridges synopsis lifecycle events into registry instruments.

    All event metrics are labelled by synopsis ``kind`` (the snapshot
    kind string, e.g. ``"concise-sample"``), the aggregation level at
    which fleet-wide dashboards read them; per-instance state comes
    from the scrape-time collectors instead.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._admissions: dict[str, Counter] = {}
        self._raises: dict[str, Counter] = {}
        self._evictions: dict[str, Counter] = {}
        self._survivors: dict[str, Counter] = {}
        self._survivor_ratio: dict[str, Histogram] = {}
        self._raise_factor: dict[str, Histogram] = {}
        self._merges: dict[str, Counter] = {}
        self._merged_shards: dict[str, Counter] = {}
        self._snapshot_ops: dict[tuple[str, str], Counter] = {}

    # -- events ---------------------------------------------------------

    def on_admission(self, kind: str, count: int) -> None:
        """``count`` sample points entered a synopsis of ``kind``."""
        counter = self._admissions.get(kind)
        if counter is None:
            counter = self._registry.counter(
                "repro_synopsis_admissions_total",
                "Sample points admitted into synopses",
                {"kind": kind},
            )
            self._admissions[kind] = counter
        counter.inc(count)

    def on_threshold_raise(
        self,
        kind: str,
        old_threshold: float,
        new_threshold: float,
        size_before: int,
        size_after: int,
    ) -> None:
        """One eviction round: tau -> tau' over ``size_before`` points."""
        if kind not in self._raises:
            labels = {"kind": kind}
            self._raises[kind] = self._registry.counter(
                "repro_synopsis_threshold_raises_total",
                "Threshold raises (eviction rounds)",
                labels,
            )
            self._evictions[kind] = self._registry.counter(
                "repro_synopsis_evictions_total",
                "Sample points evicted by threshold raises",
                labels,
            )
            self._survivors[kind] = self._registry.counter(
                "repro_synopsis_eviction_survivors_total",
                "Sample points surviving threshold raises",
                labels,
            )
            self._survivor_ratio[kind] = self._registry.histogram(
                "repro_synopsis_eviction_survivor_ratio",
                "Per-round fraction of sample points surviving a raise",
                labels,
                buckets=DEFAULT_RATIO_BUCKETS,
            )
            self._raise_factor[kind] = self._registry.histogram(
                "repro_synopsis_threshold_raise_factor",
                "Per-round threshold growth factor tau'/tau",
                labels,
                buckets=(1.01, 1.1, 1.25, 1.5, 2.0, 4.0, 16.0),
            )
        self._raises[kind].inc()
        self._evictions[kind].inc(max(0, size_before - size_after))
        self._survivors[kind].inc(size_after)
        if size_before > 0:
            self._survivor_ratio[kind].observe(size_after / size_before)
        if old_threshold > 0:
            self._raise_factor[kind].observe(new_threshold / old_threshold)

    def on_merge(self, kind: str, shards: int) -> None:
        """``shards`` shard synopses of ``kind`` were merged into one."""
        if kind not in self._merges:
            labels = {"kind": kind}
            self._merges[kind] = self._registry.counter(
                "repro_synopsis_merges_total",
                "Shard-merge operations",
                labels,
            )
            self._merged_shards[kind] = self._registry.counter(
                "repro_synopsis_merged_shards_total",
                "Shard synopses consumed by merges",
                labels,
            )
        self._merges[kind].inc()
        self._merged_shards[kind].inc(shards)

    def on_snapshot(self, kind: str, op: str) -> None:
        """A synopsis of ``kind`` was dumped/restored (``op``)."""
        counter = self._snapshot_ops.get((kind, op))
        if counter is None:
            counter = self._registry.counter(
                "repro_synopsis_snapshot_events_total",
                "Synopsis snapshot dumps and restores",
                {"kind": kind, "op": op},
            )
            self._snapshot_ops[(kind, op)] = counter
        counter.inc()


# The process-wide probe.  ``None`` (the default) means observability
# is off and every core call site short-circuits on the None test.
PROBE: MetricsProbe | None = None


def install(registry: MetricsRegistry) -> MetricsProbe:
    """Point the synopsis lifecycle hooks at ``registry``."""
    global PROBE
    PROBE = MetricsProbe(registry)
    return PROBE


def uninstall() -> None:
    """Return the lifecycle hooks to their no-op default."""
    global PROBE
    PROBE = None

"""Process-local metrics registry: counters, gauges, histograms.

Unlike span tracing (opt-in, wall-clock focused), metrics are always on:
they are plain Python int/float bumps on the *trial* control path — never
inside the per-GEMM dispatch chain — so their cost is unmeasurable against
a forward pass, and campaign progress snapshots (DESIGN.md section 10)
work without any telemetry flag.

Each pool worker owns its own registry; ``repro.campaigns.executor`` ships
worker snapshots back piggybacked on result payloads and the parent merges
them (counters and monotonic gauges sum, histograms merge) into the
``progress`` table that ``campaign watch`` reads.

Metric names in use: ``campaign.trials_executed`` / ``.trials_failed`` /
``.trial_retries`` / ``.trials_quarantined``,
``lanes.packs`` / ``.packed_trials`` / ``.pack_degradations``,
``supervise.worker_deaths`` / ``.lease_expiries`` / ``.requeues`` /
``.respawns_throttled``,
``store.corrupt_lines`` / ``.duplicate_ingests``,
``injector.corruptions``, ``protector.inspected`` / ``.detected`` /
``.recovered``, ``replay.trace_hits`` / ``.trace_misses`` (gauges mirroring
the trace store's counters), ``trial.elapsed_s`` (histogram, one
observation per trial: a lane pack's wall time split evenly across its
lanes) and ``pack.elapsed_s`` (histogram, one observation per lane pack).

The distributed control plane (DESIGN.md section 14) adds the ``fabric.*``
family — broker side: ``fabric.leases_granted`` / ``.lease_steals`` /
``.lease_expiries`` / ``.requeues`` / ``.requeues_carried`` /
``.packs_lost`` / ``.results_accepted`` / ``.late_results_accepted`` /
``.duplicate_results`` / ``.unknown_results`` / ``.local_fallbacks`` /
``.workers_registered`` / ``.quarantine_notices``; worker side:
``fabric.worker_reconnects`` / ``.worker_packs_run`` and one
``fabric.net_{drop,dup,delay,disconnect}`` counter per injected network
fault. Every lease requeue, steal, and dropped duplicate delivery is
visible here — silent recovery is a debugging dead end.
"""

from __future__ import annotations

import threading
from typing import Optional


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value (ages, cache sizes, occupancy)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming count/sum/min/max summary (no buckets — the consumers
    only render rates and means)."""

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}
        return {"count": self.count, "sum": self.sum, "min": self.min, "max": self.max}


class MetricsRegistry:
    """Name -> instrument registry with JSON-able snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    def snapshot(self) -> dict:
        """A plain-dict copy suitable for JSON (progress table, transport)."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {k: h.to_dict() for k, h in self._histograms.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Aggregate registry snapshots from several processes into one view.

    Counters sum across processes. Gauges sum too — every gauge in use is a
    monotonic per-process quantity (trace-store hits/misses/bytes), for
    which summing is the meaningful campaign-wide reading. Histograms merge
    count/sum/min/max.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, h in snap.get("histograms", {}).items():
            if not h.get("count"):
                continue
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = dict(h)
            else:
                merged["count"] += h["count"]
                merged["sum"] += h["sum"]
                merged["min"] = min(merged["min"], h["min"])
                merged["max"] = max(merged["max"], h["max"])
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: The process-wide registry (one per worker; the parent merges).
METRICS = MetricsRegistry()


def runtime_snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """Snapshot ``registry`` with the pull-style gauges refreshed first.

    The replay trace store keeps its own plain-int hit/miss counters (always
    on, no registry import on that path); this helper copies them into
    gauges at snapshot time so consumers see one coherent dict.
    """
    from repro.models.replay import TRACES

    registry = registry or METRICS
    registry.gauge("replay.trace_hits").set(TRACES.hits)
    registry.gauge("replay.trace_misses").set(TRACES.misses)
    registry.gauge("replay.trace_cached").set(len(TRACES))
    registry.gauge("replay.trace_bytes").set(TRACES.nbytes)
    return registry.snapshot()

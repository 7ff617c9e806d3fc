"""``repro.obs`` — unified telemetry: tracing, metrics, profiling.

The observability substrate shared by every layer of the toolkit:

* :class:`EventStream` (:mod:`repro.obs.events`) — ring-buffered
  structured event tracing (token fired, stall asserted, relay
  occupancy change, monitor violation, fixpoint ambiguity);
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — typed
  counters/gauges/histograms with deterministic snapshots, guaranteed
  identical across the scalar and bit-plane skeleton backends;
* :class:`Profiler` (:mod:`repro.obs.profiler`) — phase-level wall-time
  accounting (us/cycle, events/sec);
* :mod:`repro.obs.exporters` — JSONL and Chrome-trace (Perfetto)
  serialization.

:class:`Telemetry` bundles the three pillars into the single handle the
instrumented code paths accept.  Everything is **opt-in**: with no
telemetry attached (the default) the simulators run their original hot
loops with only a branch of overhead.

See ``docs/observability.md`` for the event taxonomy, the metric path
reference and usage examples.
"""

from __future__ import annotations

from typing import Optional

from .events import CATEGORIES, DEFAULT_CAPACITY, Event, EventStream
from .exporters import (
    export_stream,
    merged_chrome_trace,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_merged_chrome_trace,
)
from .ledger import (
    LEDGER_SCHEMA,
    append_record,
    canonical_payload_bytes,
    default_ledger_path,
    diff_records,
    make_record,
    read_ledger,
    resolve_record,
    span_id,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    flatten_snapshot,
    merge_snapshots,
)
from .profiler import Profiler
from .progress import ProgressReporter
from .regress import (
    Regression,
    TrendPoint,
    bench_trend,
    find_regressions,
    format_report,
    ledger_trend,
)


class Telemetry:
    """Bundle of the three observability pillars.

    Any pillar may be ``None``: instrumented code checks
    :attr:`events` / :attr:`metrics` / :attr:`profiler` individually,
    so a metrics-only or profile-only run pays only for what it uses.
    """

    __slots__ = ("events", "metrics", "profiler")

    def __init__(
        self,
        events: Optional[EventStream] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
    ):
        self.events = events
        self.metrics = metrics
        self.profiler = profiler

    @classmethod
    def full(cls, capacity: Optional[int] = DEFAULT_CAPACITY
             ) -> "Telemetry":
        """All three pillars enabled (the ``repro-lid trace`` default)."""
        return cls(events=EventStream(capacity=capacity),
                   metrics=MetricsRegistry(), profiler=Profiler())

    @classmethod
    def metrics_only(cls) -> "Telemetry":
        return cls(metrics=MetricsRegistry())

    @classmethod
    def profile_only(cls) -> "Telemetry":
        return cls(profiler=Profiler())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        on = [name for name in ("events", "metrics", "profiler")
              if getattr(self, name) is not None]
        return f"Telemetry({'+'.join(on) or 'disabled'})"


__all__ = [
    "CATEGORIES",
    "Counter",
    "DEFAULT_CAPACITY",
    "Event",
    "EventStream",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA",
    "MetricsRegistry",
    "Profiler",
    "ProgressReporter",
    "Regression",
    "Telemetry",
    "TrendPoint",
    "append_record",
    "bench_trend",
    "canonical_payload_bytes",
    "default_ledger_path",
    "diff_records",
    "export_stream",
    "find_regressions",
    "flatten_snapshot",
    "format_report",
    "ledger_trend",
    "make_record",
    "merge_snapshots",
    "merged_chrome_trace",
    "read_jsonl",
    "read_ledger",
    "resolve_record",
    "span_id",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_merged_chrome_trace",
]

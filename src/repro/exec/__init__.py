"""Parallel campaign execution: deterministic fan-out plus caching.

``repro.exec`` is the layer that lets campaigns, sweeps and liveness
probes use every core **without changing a single output byte**:

* :func:`map_deterministic` — chunked process-pool map whose result is
  exactly ``[fn(u) for u in units]`` for any ``jobs`` value;
* :class:`GraphRef` — a picklable recipe for rebuilding an (often
  unpicklable) :class:`~repro.graph.model.SystemGraph` inside workers;
* :class:`ResultCache` / :func:`graph_fingerprint` — content-addressed
  golden-run and periodicity cache (memory + optional disk layer under
  ``~/.cache/repro-lid/``, byte-budgeted by an mtime-ordered GC).

The determinism contract and the cache layout are documented in
``docs/parallelism.md``.
"""

from .cache import (
    CACHE_SCHEMA,
    DEFAULT_CACHE_MAX_BYTES,
    CacheStats,
    ResultCache,
    atomic_write_bytes,
    cache_max_bytes,
    default_cache_dir,
    graph_fingerprint,
)
from .graphs import GraphRef
from .pool import (
    TraceCollection,
    WorkerTrace,
    chunk_units,
    map_deterministic,
    resolve_callable,
    worker_telemetry,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "DEFAULT_CACHE_MAX_BYTES",
    "GraphRef",
    "ResultCache",
    "TraceCollection",
    "WorkerTrace",
    "atomic_write_bytes",
    "cache_max_bytes",
    "chunk_units",
    "default_cache_dir",
    "graph_fingerprint",
    "map_deterministic",
    "resolve_callable",
    "worker_telemetry",
]

"""Deterministic process-pool fan-out: ``map_deterministic``.

The contract that makes ``--jobs N`` safe for byte-reproducible
reports: the result of ``map_deterministic(fn, units, jobs)`` is the
exact list ``[fn(u) for u in units]`` for *every* value of ``jobs`` —
same elements, same order.  Parallelism changes only the wall clock.

How that is achieved:

* units are split into **contiguous chunks** in input order (no
  work-stealing, no as-completed reordering);
* every chunk is submitted up front and the futures are drained in
  **submission order**, so the merged list is the concatenation of the
  chunk results in their original positions;
* worker exceptions are pickled back by :mod:`concurrent.futures` and
  re-raised here with their original type — a campaign worker that
  raises :class:`repro.errors.InjectionError` surfaces as an
  ``InjectionError``, not as some pool wrapper;
* a worker process that *dies* (rather than raises) surfaces as
  :class:`repro.errors.WorkerCrashError`, keeping the
  :class:`repro.errors.ReproError` taxonomy closed.

``fn`` and every unit must be picklable (module-level functions,
``functools.partial`` of module-level functions, frozen dataclasses).

**Worker tracing** (``trace=``): a :class:`TraceCollection` threads a
run/span id through the fan-out; each chunk then runs with a fresh
worker-local :class:`~repro.obs.Telemetry` (events + profiler) that
unit functions can reach via :func:`worker_telemetry`, and the
recorded events/phases travel back as picklable :class:`WorkerTrace`
records — one per chunk, in deterministic chunk order — ready for
:func:`repro.obs.exporters.merged_chrome_trace`.  Tracing never
touches the unit *results*, so the byte-determinism contract is
unchanged.

**Live progress** (``progress=``): a
:class:`~repro.obs.progress.ProgressReporter` is advanced as units
complete — per unit on the serial path, per finished chunk (in
wall-clock completion order, via future callbacks) on the parallel
path.  Progress is pure driver-side side channel output; results and
their order are unaffected.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..errors import ExecutionError, WorkerCrashError

#: Worker-process-local telemetry installed by :func:`_run_chunk_traced`
#: for the duration of one chunk; ``None`` outside traced chunks.
_WORKER_TELEMETRY: Any = None


def worker_telemetry():
    """The chunk-local :class:`~repro.obs.Telemetry`, if tracing is on.

    Unit functions running under a traced ``map_deterministic`` call
    this to emit events / profile phases into the worker's lane of the
    merged trace.  Returns ``None`` on untraced runs (including every
    serial run — the caller's own telemetry covers those).
    """
    return _WORKER_TELEMETRY


def _run_chunk(fn: Callable[[Any], Any], chunk: Sequence[Any]) -> List[Any]:
    """Worker-side body: apply *fn* to one contiguous chunk, in order."""
    return [fn(unit) for unit in chunk]


@dataclasses.dataclass(frozen=True)
class WorkerTrace:
    """Picklable record of one traced chunk's telemetry.

    ``events`` holds the worker's retained events as plain dicts
    (:meth:`~repro.obs.events.Event.to_dict` renderings, emission
    order preserved); ``emitted`` / ``dropped`` carry the ring-buffer
    accounting so drops survive the merge; ``phases`` is the worker
    profiler's ``(name, calls, seconds)`` table.
    """

    chunk_index: int
    pid: int
    run_id: Optional[str]
    units: int
    events: Tuple[Dict[str, Any], ...]
    emitted: int
    dropped: int
    phases: Tuple[Tuple[str, int, float], ...]


@dataclasses.dataclass
class TraceCollection:
    """Parent-side accumulator for :class:`WorkerTrace` records.

    Created by the driver (one per traced run, carrying the run/span
    id), filled by ``map_deterministic`` in chunk-submission order.
    """

    run_id: Optional[str] = None
    traces: List[WorkerTrace] = dataclasses.field(default_factory=list)

    @property
    def dropped(self) -> int:
        return sum(trace.dropped for trace in self.traces)

    @property
    def emitted(self) -> int:
        return sum(trace.emitted for trace in self.traces)


def _run_chunk_traced(
    fn: Callable[[Any], Any],
    chunk: Sequence[Any],
    chunk_index: int,
    run_id: Optional[str],
    capacity: Optional[int],
) -> Tuple[List[Any], WorkerTrace]:
    """Worker-side body of a traced chunk.

    Installs a fresh chunk-local telemetry bundle (events + profiler)
    behind :func:`worker_telemetry`, runs the chunk, and ships the
    recorded telemetry home as a picklable :class:`WorkerTrace`.
    """
    global _WORKER_TELEMETRY
    from ..obs import EventStream, Profiler, Telemetry

    telemetry = Telemetry(events=EventStream(capacity=capacity),
                          profiler=Profiler())
    _WORKER_TELEMETRY = telemetry
    try:
        results = [fn(unit) for unit in chunk]
    finally:
        _WORKER_TELEMETRY = None
    stream = telemetry.events
    trace = WorkerTrace(
        chunk_index=chunk_index,
        pid=os.getpid(),
        run_id=run_id,
        units=len(chunk),
        events=tuple(event.to_dict() for event in stream.events()),
        emitted=stream.emitted,
        dropped=stream.dropped,
        phases=tuple(telemetry.profiler.phases()),
    )
    return results, trace


def chunk_units(units: Sequence[Any], jobs: int,
                chunk_size: Optional[int] = None) -> List[Sequence[Any]]:
    """Split *units* into contiguous chunks (deterministic in inputs).

    The default size aims at ~4 chunks per worker: big enough to
    amortize pickling, small enough that one slow chunk cannot idle the
    other workers for long.  The split depends only on ``(len(units),
    jobs, chunk_size)`` — never on timing.
    """
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(units) / (jobs * 4)))
    if chunk_size < 1:
        raise ExecutionError(f"chunk_size must be >= 1, got {chunk_size}")
    return [units[i:i + chunk_size]
            for i in range(0, len(units), chunk_size)]


def map_deterministic(
    fn: Callable[[Any], Any],
    units: Iterable[Any],
    jobs: int = 1,
    *,
    chunk_size: Optional[int] = None,
    trace: Optional[TraceCollection] = None,
    trace_capacity: Optional[int] = None,
    progress=None,
) -> List[Any]:
    """``[fn(u) for u in units]``, fanned across *jobs* processes.

    ``jobs <= 1`` (the default) runs serially in-process — no pool, no
    pickling, no spawn cost; this is also the reference semantics the
    parallel path must reproduce byte-for-byte.

    *trace* collects per-chunk worker telemetry (see module docstring);
    it is only populated on the parallel path — serial runs have no
    worker lanes, the caller's own telemetry already sees everything.
    *progress* is a :class:`~repro.obs.progress.ProgressReporter`
    advanced as units complete.  Neither affects results or ordering.
    """
    units = list(units)
    if jobs is None or jobs <= 1 or len(units) <= 1:
        results = []
        for unit in units:
            results.append(fn(unit))
            if progress is not None:
                progress.advance(1)
        return results

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    jobs = min(jobs, len(units))
    chunks = chunk_units(units, jobs, chunk_size)
    results: List[Any] = []
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            if trace is not None:
                futures = [
                    pool.submit(_run_chunk_traced, fn, chunk, index,
                                trace.run_id, trace_capacity)
                    for index, chunk in enumerate(chunks)
                ]
            else:
                futures = [pool.submit(_run_chunk, fn, chunk)
                           for chunk in chunks]
            if progress is not None:
                # Completion callbacks fire in wall-clock order — fine
                # for a stderr side channel; the *results* below are
                # still drained in submission order.
                for future, chunk in zip(futures, chunks):
                    future.add_done_callback(
                        lambda _f, n=len(chunk): progress.advance(n))
            for future in futures:
                outcome = future.result()
                if trace is not None:
                    chunk_results, worker_trace = outcome
                    results.extend(chunk_results)
                    trace.traces.append(worker_trace)
                else:
                    results.extend(outcome)
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            f"a worker process died while mapping {len(units)} units "
            f"across {jobs} jobs (chunk results already merged: "
            f"{len(results)})") from exc
    return results


def resolve_callable(ref: str) -> Callable[..., Any]:
    """``"module:qualname"`` -> the callable, or :class:`ExecutionError`."""
    module_name, sep, qualname = ref.partition(":")
    if not sep or not module_name or not qualname:
        raise ExecutionError(
            f"work-unit callable reference must be 'module:qualname', "
            f"got {ref!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ExecutionError(
            f"cannot import module {module_name!r} for work unit "
            f"{ref!r}: {exc}") from exc
    obj: Any = module
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ExecutionError(
                f"{module_name!r} has no attribute path {qualname!r} "
                f"(work unit {ref!r})") from None
    if not callable(obj):
        raise ExecutionError(f"work unit {ref!r} is not callable")
    return obj

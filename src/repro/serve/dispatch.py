"""Manifest execution: the one pipeline behind campaigns, deadlock
checks and data series.

:func:`execute_manifest` parses the topology, calls the engine, renders
the report and builds the ledger record.  Both front ends run it: the
``repro-lid inject``/``deadlock``/``series`` handlers turn their flags
into a :class:`~repro.serve.manifest.Manifest` and call it in-process,
and the campaign service ships it into a persistent worker (it is a
**module-level, picklable** function for that reason).  Served response
bodies are therefore byte-identical to the offline commands, and served
ledger records share the offline ``run_id``, by construction (run ids
are content-addressed over the payload only; the non-deterministic
``meta`` block never enters them).

Everything returned travels back to the caller as a
:class:`ServeOutcome`: the response body bytes, the ready-to-append
ledger record, and the golden-run cache counters (merged into the
server-wide stats).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Union

from .manifest import Manifest

#: Schema tag for response-cache entries (bump on any layout change).
SERVE_CACHE_SCHEMA = "repro-lid-serve/v1"

_CONTENT_TYPES = {
    "json": "application/json",
    "table": "text/plain; charset=utf-8",
    "detail": "text/plain; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
}


class DispatchError(Exception):
    """A manifest failed during execution for a client-side reason
    (bad topology parameters, unsatisfiable fault spec); maps to
    HTTP 400.  Carries only its message so it pickles across the
    worker boundary intact."""


@dataclasses.dataclass
class ServeOutcome:
    """Everything the parent needs to answer, cache and ledger a run."""

    body: bytes
    content_type: str
    exit_code: int
    span: str
    run_id: Optional[str] = None
    record: Optional[Dict[str, Any]] = None
    wall_seconds: float = 0.0
    cache: Optional[Dict[str, int]] = None

    def cache_payload(self) -> Dict[str, Any]:
        """The slice of the outcome worth replaying from the response
        cache (the deterministic part; wall time and cache counters
        describe *this* execution, not the content)."""
        return {
            "schema": SERVE_CACHE_SCHEMA,
            "body": self.body,
            "content_type": self.content_type,
            "exit_code": self.exit_code,
            "span": self.span,
            "run_id": self.run_id,
        }

    @classmethod
    def from_cache_payload(cls, payload: Dict[str, Any]) -> "ServeOutcome":
        return cls(body=payload["body"],
                   content_type=payload["content_type"],
                   exit_code=payload["exit_code"],
                   span=payload["span"],
                   run_id=payload.get("run_id"))


def manifest_fingerprint(manifest: Manifest) -> Optional[str]:
    """The design fingerprint the ledger records (``None`` for
    series work, which has no topology).  Raises :class:`DispatchError`
    for topology *parameter* errors — family names were already
    validated by the manifest."""
    if manifest.kind == "series":
        return None
    from ..exec import graph_fingerprint

    return graph_fingerprint(_parse(manifest))


def _parse(manifest: Manifest):
    from ..graph.specs import parse_topology

    try:
        return parse_topology(manifest.topology, seed=manifest.seed)
    except SystemExit as exc:  # parse_topology diagnoses via SystemExit
        raise DispatchError(str(exc)) from None
    except ValueError as exc:
        raise DispatchError(
            f"bad topology {manifest.topology!r}: {exc}") from None


def execute_manifest(
    manifest: Union[Manifest, Dict[str, Any]],
    *,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    progress: Optional[Any] = None,
    telemetry: Optional[Any] = None,
    trace: Optional[Any] = None,
) -> ServeOutcome:
    """Run one manifest to completion and package the result.

    *use_cache*/*cache_dir* control the golden-run
    :class:`~repro.exec.ResultCache` (the CLI's ``--no-cache``/
    ``--cache-dir``).  The remaining arguments are in-process side
    channels that cannot cross a worker boundary and never change the
    body bytes: *progress* (a :class:`repro.obs.ProgressReporter`),
    *telemetry* (a :class:`repro.obs.Telemetry` instrumenting the
    engines; the record carries the digest of its metrics snapshot) and
    *trace* (a campaign's :class:`repro.exec.TraceCollection`, tagged
    with the run's span).
    """
    if isinstance(manifest, dict):
        manifest = Manifest.from_dict(manifest)
    if manifest.kind == "series":
        return _execute_series(manifest)
    cache = None
    if use_cache:
        from ..exec import ResultCache

        cache = ResultCache.disk(cache_dir)
    if manifest.kind == "deadlock":
        return _execute_deadlock(manifest, cache=cache,
                                 telemetry=telemetry)
    return _execute_campaign(manifest, jobs=jobs, cache=cache,
                             progress=progress, telemetry=telemetry,
                             trace=trace)


def _outcome(record: Dict[str, Any], text: str, fmt: str, wall: float,
             cache=None, exit_code: int = 0) -> ServeOutcome:
    return ServeOutcome(
        body=text.encode(),
        content_type=_CONTENT_TYPES[fmt],
        exit_code=exit_code,
        span=record["payload"]["span"],
        run_id=record["run_id"],
        record=record,
        wall_seconds=wall,
        cache=cache.stats.to_dict() if cache is not None else None)


def _metrics(telemetry) -> Optional[Dict[str, Any]]:
    if telemetry is None or telemetry.metrics is None:
        return None
    return telemetry.metrics.snapshot()


def _execute_campaign(manifest: Manifest, *, jobs: int, cache, progress,
                      telemetry, trace) -> ServeOutcome:
    from time import perf_counter

    from ..errors import InjectionError
    from ..exec import GraphRef, graph_fingerprint
    from ..inject import run_campaign, skeleton_campaign
    from ..lid.variant import ProtocolVariant
    from ..obs import make_record

    graph = _parse(manifest)
    variant = ProtocolVariant(manifest.variant)
    fingerprint = graph_fingerprint(graph)
    if progress is not None and cache is not None:
        progress.cache = cache.stats
    if trace is not None:
        trace.run_id = manifest.span(fingerprint)

    common = dict(variant=variant, classes=manifest.faults,
                  cycles=manifest.cycles, window=manifest.window,
                  exhaustive=manifest.exhaustive,
                  samples=manifest.samples, seed=manifest.seed,
                  telemetry=telemetry, jobs=jobs, cache=cache,
                  progress=progress, trace=trace)
    started = perf_counter()
    try:
        if manifest.engine == "skeleton":
            report = skeleton_campaign(graph, backend=manifest.backend,
                                       strict=manifest.strict, **common)
        else:
            report = run_campaign(
                graph, strict=manifest.strict,
                graph_ref=GraphRef.from_spec(manifest.topology,
                                             seed=manifest.seed),
                **common)
    except InjectionError as exc:
        raise DispatchError(str(exc)) from None
    wall = perf_counter() - started

    if manifest.format == "json":
        text = report.to_json()
    else:
        text = report.format_table() + "\n"

    execution = report.execution or {}
    meta: Dict[str, Any] = {"wall_seconds": round(wall, 6), "jobs": jobs}
    if execution.get("cache") is not None:
        meta["cache"] = execution["cache"]
    record = make_record(
        manifest.record_kind,
        topology=manifest.topology,
        fingerprint=fingerprint,
        variant=str(variant),
        params=manifest.params(),
        verdict=dict(report.counts()),
        metrics=_metrics(telemetry),
        meta=meta)
    return _outcome(record, text, manifest.format, wall, cache)


def _execute_deadlock(manifest: Manifest, *, cache,
                      telemetry) -> ServeOutcome:
    from time import perf_counter

    from ..exec import graph_fingerprint
    from ..lid.variant import ProtocolVariant
    from ..obs import make_record
    from ..skeleton import check_deadlock

    graph = _parse(manifest)
    variant = ProtocolVariant(manifest.variant)
    started = perf_counter()
    verdict = check_deadlock(graph, variant=variant,
                             max_cycles=manifest.max_cycles,
                             cache=cache,
                             telemetry=telemetry)
    wall = perf_counter() - started
    record = make_record(
        manifest.record_kind,
        topology=manifest.topology,
        fingerprint=graph_fingerprint(graph),
        variant=str(variant),
        params=manifest.params(),
        verdict={
            "deadlocked": verdict.deadlocked,
            "potential": verdict.potential,
            "inconclusive": verdict.inconclusive,
            "transient": verdict.transient,
            "period": verdict.period,
        },
        metrics=_metrics(telemetry),
        meta={"wall_seconds": round(wall, 6)})
    exit_code = 2 if verdict.inconclusive else (0 if verdict.live else 1)
    return _outcome(record, verdict.detail + "\n", "detail", wall, cache,
                    exit_code)


def _execute_series(manifest: Manifest) -> ServeOutcome:
    from time import perf_counter

    from ..analysis.sweep import SERIES_GENERATORS
    from ..obs import make_record

    started = perf_counter()
    series = SERIES_GENERATORS[manifest.which]()
    text = series.to_csv()
    wall = perf_counter() - started
    record = make_record(
        manifest.record_kind,
        params=manifest.params(),
        verdict={"lines": len(text.splitlines())},
        meta={"wall_seconds": round(wall, 6)})
    return _outcome(record, text, "csv", wall)

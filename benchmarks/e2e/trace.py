"""Per-layer tracing from outside the program.

:func:`install` imports the manifest-path modules and replaces every
binding, in every loaded ``repro.*`` module, that is identical to one
of the public functions in :data:`TARGETS` (methods are replaced on
their class), so function-level ``from .x import f`` imports are
covered too.  Each wrapper records ``[name, start, end, parent,
request, key, counts]`` into an in-memory list; the parent is the enclosing
span on a thread-local stack, the request id comes from a context
variable the harness (or the wrapped ``CampaignScheduler.submit``) sets.

Only functions called O(faults) times per manifest or fewer are
wrapped, never per-cycle ones, so the overhead stays a few percent.
Targets a later refactor removes are skipped: their metrics read 0.

:func:`layer_metrics` turns spans into the per-layer metrics of
``BENCHMARK.json``: ``<span>.self_ms`` is the span's duration minus
the time its children cover, summed over every span of that name and
divided by the number of manifests traced (milliseconds per manifest).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_request", default=None)

_Count = Optional[Callable[[Dict[str, float], tuple, Any, Any], None]]


def _add(counts: Dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _count_steps(counts, args, _result, _before):
    _add(counts, "kernel.cycles", args[1] if len(args) > 1 else 1)


def _count_inst_cycles(counts, args, _result, _before):
    _add(counts, "skeleton.inst_cycles", args[0].batch * args[1])


def _count_faults(counts, _args, result, _before):
    _add(counts, "inject.faults_generated", len(result))


def _count_report(counts, _args, report, _before):
    _add(counts, "inject.results", len(report.results))
    _add(counts, "inject.skipped", len(report.skipped))


def _count_bytes(counts, _args, text, _before):
    _add(counts, "inject.report_bytes", len(text.encode()))


def _count_get(counts, _args, value, _before):
    _add(counts, "exec.cache.gets", 1)
    _add(counts, "exec.cache.hits", value is not None)


def _count_analyze(counts, _args, report, _before):
    _add(counts, "analysis.formula_disagree", not report.formulas_agree)


def _count_states(counts, _args, result, _before):
    _add(counts, "verify.states", result.reachable_states)


def _memo_hits(_args) -> Optional[int]:
    stats = getattr(sys.modules.get("repro.ir.lowering"), "STATS", None)
    return getattr(stats, "memo_hits", None)


def _count_lower(counts, _args, _result, before):
    _add(counts, "ir.lower.calls", 1)
    after = _memo_hits(())
    if before is not None and after is not None:
        _add(counts, "ir.lower.memo_hits", after - before)


def _count_calls(name: str):
    def count(counts, _args, _result, _before):
        _add(counts, name, 1)
    return count


#: (span name, module, attribute path, count hook[, pre-call hook]).
TARGETS: Tuple[tuple, ...] = (
    ("cli.main", "repro.cli", "main", None),
    ("bench.git_rev", "repro.bench.runner", "git_rev",
     _count_calls("bench.git_rev.calls")),
    ("graph.parse_topology", "repro.graph.specs", "parse_topology", None),
    ("ir.lower", "repro.ir.lowering", "lower", _count_lower, _memo_hits),
    ("lid.elaborate", "repro.graph.model", "SystemGraph.elaborate", None),
    ("kernel.step", "repro.kernel.scheduler", "Simulator.step",
     _count_steps),
    ("skeleton.select", "repro.skeleton.backend", "select", None),
    ("skeleton.run_cycles", "repro.skeleton.backend",
     "ScalarBackend.run_cycles", _count_inst_cycles),
    ("skeleton.run_cycles", "repro.skeleton.backend",
     "CodegenBackend.run_cycles", _count_inst_cycles),
    ("skeleton.run_cycles", "repro.skeleton.backend",
     "VectorizedBackend.run_cycles", _count_inst_cycles),
    ("skeleton.run_cycles", "repro.skeleton.backend",
     "BitplaneBackend.run_cycles", _count_inst_cycles),
    ("skeleton.check_deadlock", "repro.skeleton.deadlock",
     "check_deadlock", None),
    ("inject.generate_faults", "repro.inject.faults", "generate_faults",
     _count_faults),
    ("inject.golden", "repro.inject.campaign", "GoldenRun.capture", None),
    ("inject.run_experiment", "repro.inject.campaign", "run_experiment",
     None),
    ("inject.run_campaign", "repro.inject.campaign", "run_campaign",
     _count_report),
    ("inject.skeleton_campaign", "repro.inject.campaign",
     "skeleton_campaign", _count_report),
    ("inject.render", "repro.inject.campaign", "CampaignReport.to_json",
     _count_bytes),
    ("inject.render", "repro.inject.campaign",
     "CampaignReport.format_table", _count_bytes),
    ("exec.graph_fingerprint", "repro.exec.cache", "graph_fingerprint",
     None),
    ("exec.cache.get", "repro.exec.cache", "ResultCache.get", _count_get),
    ("exec.cache.put", "repro.exec.cache", "ResultCache.put", None),
    ("obs.make_record", "repro.obs.ledger", "make_record", None),
    ("obs.append_record", "repro.obs.ledger", "append_record", None),
    ("analysis.analyze", "repro.analysis.report", "analyze",
     _count_analyze),
    ("verify.system_liveness", "repro.verify.system_liveness",
     "verify_system_liveness", _count_states),
    ("serve.execute_manifest", "repro.serve.dispatch", "execute_manifest",
     None),
    ("serve.submit", "repro.serve.scheduler", "CampaignScheduler.submit",
     None),
)

def _manifest_key(manifest: Any) -> Optional[str]:
    """Canonical identity shared by ``submit`` and worker spans."""
    if hasattr(manifest, "to_dict"):
        manifest = manifest.to_dict()
    if isinstance(manifest, dict):
        return json.dumps(manifest, sort_keys=True)
    return None


class Tracer:
    """In-memory span store; one per process.

    A span is ``[name, start, end, parent, request, key, counts]``;
    *counts* holds what the target's count hook measured in that call,
    so dropping a span (a warm-up) drops its counts too.
    """

    def __init__(self, flush_dir: Optional[str] = None) -> None:
        self.flush_dir = flush_dir
        self.owner = os.getpid()
        self._requests = itertools.count()
        self.reset()

    def reset(self) -> None:
        """Forget every span (also run in forked children, where the
        parent's lock may have been held at fork time)."""
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        REQUEST.set(None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: Optional[int],
              key=None) -> Tuple[list, int]:
        span = [name, perf_counter(), None, parent, REQUEST.get(), key,
                None]
        with self._lock:
            self.spans.append(span)
            return span, len(self.spans) - 1

    def wrap(self, name: str, fn: Callable, count: _Count = None,
             pre: Optional[Callable] = None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on the loop thread, so they open a
            # new request instead of joining the thread-local stack.
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                token = REQUEST.set(next(tracer._requests))
                key = _manifest_key(args[1]) if len(args) > 1 else None
                span, _slot = tracer._open(name, None, key)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    REQUEST.reset(token)
            return traced_async

        keyed = name == "serve.execute_manifest"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            key = _manifest_key(args[0]) if keyed and args else None
            before = pre(args) if pre is not None else None
            span, slot = tracer._open(name, stack[-1] if stack else None,
                                      key)
            stack.append(slot)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if count is not None:
                span[6] = {}
                try:
                    count(span[6], args, result, before)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the count, not the run
            if keyed and not stack and tracer.flush_dir \
                    and os.getpid() != tracer.owner:
                tracer.flush()
            return result
        return traced

    def flush(self) -> None:
        """Append this process's spans to its per-pid file and reset."""
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.jsonl")
        with self._lock:
            spans, self.spans = self.spans, []
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(spans) + "\n")


def _resolve(module_name: str, path: str):
    """``(owner, attribute, raw object)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = (owner.__dict__.get(parts[-1]) if inspect.isclass(owner)
           else getattr(owner, parts[-1], None))
    return None if raw is None else (owner, parts[-1], raw)


def install(tracer: Tracer) -> List[str]:
    """Wrap every target; returns the targets that were not found."""
    missing: List[str] = []
    replacements: Dict[int, Tuple[Callable, Callable]] = {}
    for name, module_name, path, *hooks in TARGETS:
        found = _resolve(module_name, path)
        if found is None:
            missing.append(f"{module_name}.{path}")
            continue
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(tracer.wrap(name, raw.__func__, *hooks)))
        elif inspect.isclass(owner):
            setattr(owner, attr, tracer.wrap(name, raw, *hooks))
        else:
            replacements[id(raw)] = (raw, tracer.wrap(name, raw, *hooks))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing


def propagate_requests_to_threads() -> None:
    """Make ``loop.run_in_executor`` carry the request id into thread
    executors (process pools get none; their spans match by key)."""
    import asyncio.base_events
    from concurrent.futures import ProcessPoolExecutor

    original = asyncio.base_events.BaseEventLoop.run_in_executor

    def run_in_executor(self, executor, func, *args):
        if not isinstance(executor, ProcessPoolExecutor):
            func = functools.partial(contextvars.copy_context().run, func)
        return original(self, executor, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = run_in_executor


# -- aggregation --------------------------------------------------------

def load_batches(directory: str) -> List[List[list]]:
    """Every span batch the traced server and its workers wrote."""
    batches = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                batches.extend(json.loads(line) for line in fh if line.strip())
    return batches


def _covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _merge(batches: List[List[list]], since: float) -> List[list]:
    """Concatenate batches, rebasing parent indices.

    Spans that started before *since* (warm-ups) are dropped with
    their descendants; spans still open at dump time end at their
    start.
    """
    spans: List[list] = []
    for batch in batches:
        index: Dict[int, int] = {}
        for slot, (name, start, end, parent, rid, key, counts) in \
                enumerate(batch):
            if start < since or (parent is not None
                                 and parent not in index):
                continue
            index[slot] = len(spans)
            spans.append([name, start, start if end is None else end,
                          None if parent is None else index[parent],
                          rid, key, counts])
    return spans


def span_seconds(batches: List[List[list]], name: str,
                 since: float = float("-inf")) -> float:
    """Total duration of the spans called *name*."""
    return sum(s[2] - s[1] for s in _merge(batches, since) if s[0] == name)


def layer_metrics(batches: List[List[list]], manifests: int,
                  windows: Optional[List[Tuple[float, float]]] = None,
                  since: float = float("-inf"),
                  scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics from span batches.

    *windows* are the harness's per-manifest ``(start, end)`` times for
    offline runs (request id = manifest index); coverage is the share
    of each window covered by top-level spans.  Times are multiplied
    and rates divided by *scale* (the run's host-speed factor).
    """
    spans = _merge(batches, since)
    counts: Dict[str, float] = {}
    for span in spans:
        for name, value in (span[6] or {}).items():
            _add(counts, name, value)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))

    tops: Dict[Any, List[list]] = {}
    for span in spans:
        if span[3] is None:
            tops.setdefault(span[4], []).append(span)
    # A submit's children live on other threads and processes: the
    # request's top-level aux-thread spans, plus the worker execution
    # of the same manifest that started inside the submit.
    executions: Dict[str, List[list]] = {}
    for span in spans:
        if span[0] == "serve.execute_manifest" and span[3] is None:
            executions.setdefault(span[5], []).append(span)
    queue_waits: List[float] = []
    for index, span in enumerate(spans):
        if span[0] != "serve.submit":
            continue
        runs = [s for s in executions.get(span[5], ())
                if span[1] <= s[1] <= span[2]]
        if runs:
            queue_waits.append(min(s[1] for s in runs) - span[1])
        children[index] = [(s[1], s[2]) for s in tops.get(span[4], ())
                           + runs if s is not span]

    per = max(manifests, 1)
    metrics: Dict[str, float] = {}
    busy: Dict[str, float] = {}
    for index, (name, start, end, *_rest) in enumerate(spans):
        own = end - start - _covered(start, end, children.get(index, ()))
        metrics[name] = metrics.get(name, 0.0) + own
        busy[name] = busy.get(name, 0.0) + (end - start)
    out = {f"{target[0]}.self_ms": 1000.0 * scale
           * metrics.get(target[0], 0.0) / per for target in TARGETS}

    run_s = scale * busy.get("skeleton.run_cycles", 0.0)
    inst = counts.get("skeleton.inst_cycles", 0)
    live_s = scale * busy.get("verify.system_liveness", 0.0)
    states = counts.get("verify.states", 0)
    attempted = counts.get("inject.results", 0) + counts.get(
        "inject.skipped", 0)
    gets = counts.get("exec.cache.gets", 0)
    lowers = counts.get("ir.lower.calls", 0)
    out.update({
        "skeleton.inst_cycles": inst,
        "skeleton.inst_cycles_per_s": inst / run_s if run_s else 0.0,
        "kernel.cycles": counts.get("kernel.cycles", 0),
        "inject.faults_generated": counts.get("inject.faults_generated", 0),
        "inject.classified_ratio": (counts.get("inject.results", 0)
                                    / attempted if attempted else 0.0),
        "inject.report_bytes": counts.get("inject.report_bytes", 0),
        "exec.cache.hit_ratio": (counts.get("exec.cache.hits", 0) / gets
                                 if gets else 0.0),
        "analysis.formula_disagree": counts.get(
            "analysis.formula_disagree", 0),
        "verify.states": states,
        "verify.states_per_s": states / live_s if live_s else 0.0,
        "bench.git_rev.calls": counts.get("bench.git_rev.calls", 0),
        "ir.lower.memo_hit_ratio": (counts.get("ir.lower.memo_hits", 0)
                                    / lowers if lowers else 0.0),
        "serve.queue_wait_ms": (1000.0 * scale
                                * statistics.median(queue_waits)
                                if queue_waits else 0.0),
    })
    if windows:
        shares = []
        for rid, (lo, hi) in enumerate(windows):
            covered = _covered(lo, hi, [(s[1], s[2])
                                        for s in tops.get(rid, ())])
            shares.append(covered / (hi - lo))
        out["trace.coverage"] = statistics.mean(shares)
    return out

"""Campaign runner: execute fault lists and classify the outcomes.

Each experiment arms one :class:`~repro.inject.injector.FaultInjector`
on an elaborated system, runs to a fixed cycle budget and compares the
result against a *golden* (fault-free) run of the same system.

Up to the first cycle at which a fault actually changes a wire or
register (its *first effective cycle*), a faulted run is the golden
run.  So :func:`run_campaign` simulates that shared prefix once: its
golden run is a monitored *trunk* (:meth:`GoldenRun.capture` with the
fault list) that checkpoints the whole system where each fault first
bites, every experiment resumes from its :class:`Checkpoint` and
simulates only the remaining cycles, and a fault that never bites
takes the trunk's outcome unsimulated.  A serial campaign elaborates
one system for all its forked experiments: each restores its
checkpoint into it, arms its injector and detaches it again.  Reports
are byte-identical to running every experiment from reset in a fresh
system, which :func:`run_experiment` still does without a checkpoint.

Outcomes fall into five verdict classes:

* ``detected`` — a runtime protocol monitor (or any other check) raised
  before the run finished; the fault was caught loudly;
* ``silent-corruption`` — the run finished but some sink consumed a
  payload stream that is *not* a prefix of the golden stream (wrong
  data, reordering, duplication): the failure mode latency-insensitive
  design must never exhibit;
* ``masked`` — every sink stream is exactly the golden stream; the
  protocol absorbed the fault completely;
* ``deadlock`` — the streams are a correct prefix but no shell fired at
  all during the tail window (while the golden run kept firing): the
  system wedged;
* ``timeout`` — a correct prefix and still-live shells: the run budget
  expired before latency equivalence was re-established (e.g. the fault
  cost a cycle of throughput).

Verdict priority is detected > silent-corruption > masked / deadlock /
timeout (the last three are mutually exclusive by construction).

Reports are **byte-reproducible**: no wall-clock times are recorded,
keys are sorted, and the experiment order is the deterministic order of
:func:`~repro.inject.faults.generate_faults` — running the same
campaign twice produces identical JSON.

For control-only faults at the system boundary (stop faults on a sink's
input channel, valid faults on a source's output channel) the campaign
can also run on the skeleton engine (:func:`skeleton_campaign`): every
experiment becomes one *column* of a batched
:func:`repro.skeleton.backend.select` run, with the fault expressed as
a per-cycle script pattern.  With sink-boundary payload faults
(classified from the golden column) and ``strict`` stop-shape
detection, the skeleton path witnesses all five verdict classes;
``backend="bitsim"`` additionally packs the columns into bit planes —
one word-level run per ~64 experiments.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import json
import operator
import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import InjectionError, ProtocolViolationError, ReproError
from ..exec import GraphRef, ResultCache, map_deterministic
from ..graph.model import SystemGraph
from ..kernel.scheduler import SimState
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .faults import FaultSpec, generate_faults
from .injector import UNCHANGED, FaultInjector

SCHEMA = "repro-inject-campaign/v2"

#: The five verdict classes, in report order.
VERDICTS = ("detected", "silent-corruption", "masked", "deadlock",
            "timeout")


def tail_window(cycles: int) -> int:
    """Liveness observation window at the end of a run."""
    return max(8, cycles // 8)


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """Where one experiment leaves the golden trunk.

    The trunk's state at the fault's first effective cycle: every
    block's registers (``sim``), every channel monitor's memory
    (``monitors``, empty when monitors are off) and, for
    ``delayed-stop``, the golden settled stop of the cycle before
    (``prev_stop``).  Faults that bite in the same cycle share ``sim``
    and ``monitors``.
    """

    sim: SimState
    monitors: Tuple[Any, ...] = ()
    prev_stop: bool = False

    @property
    def cycle(self) -> int:
        return self.sim.cycle


@dataclasses.dataclass
class GoldenRun:
    """Fault-free reference: sink streams and shell activity.

    Captured with a fault list it is also the campaign's *trunk*:
    ``forks[i]`` is the :class:`Checkpoint` at which ``faults[i]``
    first bites, or ``None`` when it never changes a wire or register;
    ``trunk_detail`` is the detection detail of the trunk itself when
    its monitors (or a crash) stopped it, else ``None``.
    """

    cycles: int
    sink_payloads: Dict[str, List[Any]]
    shell_fires: Dict[str, int]
    tail_fires: int  # total shell firings inside the tail window
    forks: Optional[Tuple[Optional[Checkpoint], ...]] = None
    trunk_detail: Optional[str] = None

    @classmethod
    def capture(cls, graph: SystemGraph, variant: ProtocolVariant,
                cycles: int, *,
                faults: Optional[Sequence[FaultSpec]] = None,
                strict: bool = False,
                monitors: bool = True) -> "GoldenRun":
        """Simulate the fault-free run of *graph*.

        Without *faults* this is a bare, unmonitored golden run.  With
        them it is the monitored *trunk* of a campaign: the run carries
        the experiments' ``watch_system(strict_stop_shape=strict)``
        monitors (when *monitors* is on), and a cycle hook ahead of the
        monitors asks every pending fault the injector's own fire
        predicate (:meth:`~repro.inject.injector.FaultInjector.effect`)
        on the settled wires.  At a fault's first effective cycle the
        hook checkpoints the whole system; state faults fork at their
        first active cycle.  Up to that cycle a faulted run *is* this
        run, so an experiment resumed there (:func:`run_experiment`
        with the checkpoint) returns exactly the from-reset result.

        If the trunk's monitors raise at cycle *g* (``strict`` on a
        graph whose sinks stop on voids), faults that bit by *g* keep
        their forks, every other fault takes the trunk's detection
        (``trunk_detail``), and the reference streams come from an
        unmonitored run.
        """
        system = graph.elaborate(variant=variant)
        if faults is None:
            system.run(cycles)
            return cls._of(system, cycles)
        from ..lid.monitor import watch_system

        trunk = _Trunk(system, faults)
        if monitors:
            trunk.monitors = watch_system(system, strict_stop_shape=strict)
        try:
            system.run(cycles)
        except Exception as exc:  # noqa: BLE001 - classified like a fault
            golden = cls.capture(graph, variant, cycles)
            golden.trunk_detail = _detection_detail(exc)
        else:
            golden = cls._of(system, cycles)
        golden.forks = None if trunk.forks is None else tuple(trunk.forks)
        return golden

    @classmethod
    def _of(cls, system, cycles: int) -> "GoldenRun":
        return cls(
            cycles=cycles,
            sink_payloads={name: list(sink.payloads)
                           for name, sink in system.sinks.items()},
            shell_fires={name: shell.fire_count
                         for name, shell in system.shells.items()},
            tail_fires=_tail_fires(system, cycles),
        )


def _tail_fires(system, cycles: int) -> int:
    """Shell firings inside the tail window of a finished run."""
    tail_start = cycles - tail_window(cycles)
    return sum(sum(1 for c in shell.fired_cycles if c >= tail_start)
               for shell in system.shells.values())


class _Trunk:
    """Golden-run cycle hook that forks each fault where it first bites.

    Registered before the monitors, it sees cycle *t* after settle and
    before any monitor samples it.  Publish and settle only drive
    signals, so the component state then is the boundary state of *t*.
    """

    def __init__(self, system, faults: Sequence[FaultSpec]):
        self.monitors: List[Any] = []
        #: ``None`` once a checkpoint could not be taken (a pearl that
        #: cannot be deep-copied): every experiment then runs from reset.
        self.forks: Optional[List[Optional[Checkpoint]]] = \
            [None] * len(faults)
        # Resolving every target up front raises the same
        # InjectionError a from-reset experiment would.
        self._injectors = [FaultInjector(spec, system) for spec in faults]
        # A fault is examined from its first active cycle; delayed-stop
        # one cycle earlier, to sample the stop it will present.
        self._waiting = sorted(
            ((max(spec.cycle - (spec.kind == "delayed-stop"), 0), index)
             for index, spec in enumerate(faults)), reverse=True)
        self._live: List[int] = []
        system.sim.add_cycle_hook(self._hook)

    def _hook(self, sim) -> None:
        if self.forks is None:
            return
        cycle = sim.cycle
        waiting = self._waiting
        while waiting and waiting[-1][0] <= cycle:
            self._live.append(waiting.pop()[1])
        if not self._live:
            return
        state = None
        live = []
        for index in self._live:
            injector = self._injectors[index]
            spec = injector.spec
            prev_stop = injector.prev_stop
            if spec.phase == "wire" \
                    and injector.sample(cycle) is UNCHANGED:
                if spec.active(cycle + 1):
                    live.append(index)
                continue
            if state is None:
                try:
                    state = sim.capture_state()
                except Exception:  # noqa: BLE001 - e.g. an uncopyable pearl
                    self.forks = None
                    return
                watched = tuple(m.capture_state() for m in self.monitors)
            self.forks[index] = Checkpoint(state, watched, prev_stop)
        self._live = live


def _detection_detail(exc: BaseException) -> str:
    """How a run that raised is reported (verdict ``detected``)."""
    if isinstance(exc, ProtocolViolationError):
        return (f"monitor {exc.invariant!r} tripped at cycle {exc.cycle} "
                f"on channel {exc.channel!r}")
    if isinstance(exc, ReproError):
        return f"{type(exc).__name__}: {exc}"
    return f"crash: {type(exc).__name__}: {exc}"


@dataclasses.dataclass
class ExperimentResult:
    """One fault, one verdict."""

    spec: FaultSpec
    verdict: str
    detail: str
    fired: bool
    fire_cycles: int  # number of cycles the injector perturbed state

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault": self.spec.to_dict(),
            "label": self.spec.label(),
            "verdict": self.verdict,
            "detail": self.detail,
            "fired": self.fired,
            "fire_cycles": self.fire_cycles,
        }


_IDENTICAL = "all sink streams identical to golden"


def _stream_verdict(
    golden: GoldenRun,
    sink_payloads: Dict[str, List[Any]],
    faulty_tail_fires: int,
) -> Tuple[str, str]:
    """Classify a finished run against the golden streams."""
    corrupt_detail = None
    short_detail = None
    for name in sorted(golden.sink_payloads):
        want = golden.sink_payloads[name]
        got = sink_payloads.get(name, [])
        common = min(len(got), len(want))
        if got[:common] != want[:common]:
            index = next(i for i in range(common)
                         if got[i] != want[i])
            corrupt_detail = (
                f"sink {name!r} diverges at token {index}: "
                f"got {got[index]!r}, expected {want[index]!r}")
            break
        if len(got) > len(want):
            corrupt_detail = (
                f"sink {name!r} received {len(got) - len(want)} extra "
                f"token(s) beyond the golden stream")
            break
        if len(got) < len(want) and short_detail is None:
            short_detail = (
                f"sink {name!r} delivered {len(got)}/{len(want)} "
                f"golden tokens")
    if corrupt_detail is not None:
        return "silent-corruption", corrupt_detail
    if short_detail is None:
        return "masked", _IDENTICAL
    if golden.tail_fires > 0 and faulty_tail_fires == 0:
        return "deadlock", (
            f"{short_detail}; no shell fired in the tail window "
            f"(golden fired {golden.tail_fires} times)")
    return "timeout", (
        f"{short_detail}; shells still live at end of budget")


def _elaborate(graph: SystemGraph, variant: ProtocolVariant,
               strict: bool, monitors: bool, telemetry) -> Tuple[Any, List]:
    """A system for experiments on *graph* and its channel monitors."""
    from ..lid.monitor import watch_system

    system = graph.elaborate(variant=variant)
    if telemetry is not None:
        system.attach_telemetry(telemetry)
    watchers = (watch_system(system, strict_stop_shape=strict)
                if monitors else [])
    return system, watchers


def run_experiment(
    graph: SystemGraph,
    spec: FaultSpec,
    golden: GoldenRun,
    *,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    strict: bool = False,
    monitors: bool = True,
    telemetry=None,
    checkpoint: Optional[Checkpoint] = None,
    elaborated: Optional[Tuple[Any, List]] = None,
) -> ExperimentResult:
    """Run one fault on the scalar LID engine and classify it.

    Without a *checkpoint* the run starts from reset.  With one — the
    fault's fork from a trunk captured by :meth:`GoldenRun.capture`
    with the same *variant*, *strict* and *monitors* — the system
    restores the trunk's state at the fault's first effective cycle,
    the injector is armed there and only the remaining cycles are
    simulated.  The result is the same either way.

    The system is a fresh elaboration of *graph*, or *elaborated*: a
    ``(system, monitors)`` pair that :func:`run_campaign` elaborated
    once with the same *variant*, *strict*, *monitors* and *telemetry*
    and that every experiment of the campaign reuses.  A reused system
    needs a *checkpoint*, which sets every block and monitor it has,
    and the injector is detached on return, whatever the verdict.
    """
    cycles = golden.cycles
    if elaborated is None:
        elaborated = _elaborate(graph, variant, strict, monitors, telemetry)
    elif checkpoint is None:
        raise InjectionError(
            "a reused system resumes from a checkpoint; run from reset "
            "in a fresh one")
    system, watchers = elaborated
    start, prev_stop = 0, False
    if checkpoint is not None:
        if len(checkpoint.monitors) != len(watchers):
            raise InjectionError(
                f"checkpoint holds {len(checkpoint.monitors)} monitor "
                f"states for {len(watchers)} monitors; fork with the "
                f"trunk's monitors setting")
        system.sim.restore_state(checkpoint.sim)
        for monitor, state in zip(watchers, checkpoint.monitors):
            monitor.restore_state(state)
        start, prev_stop = checkpoint.cycle, checkpoint.prev_stop
    injector = FaultInjector(spec, system, prev_stop=prev_stop).attach()

    try:
        system.run(cycles - start, reset=checkpoint is None)
    except Exception as exc:  # noqa: BLE001 - a crash is loud detection
        return ExperimentResult(spec, "detected", _detection_detail(exc),
                                injector.fired, len(injector.fired_cycles))
    finally:
        injector.detach()

    verdict, detail = _stream_verdict(
        golden,
        {name: list(sink.payloads)
         for name, sink in system.sinks.items()},
        _tail_fires(system, cycles),
    )
    return ExperimentResult(spec, verdict, detail, injector.fired,
                            len(injector.fired_cycles))


def _unbitten(spec: FaultSpec, golden: GoldenRun) -> ExperimentResult:
    """The result of a fault that never bites: its run is the trunk."""
    if golden.trunk_detail is not None:
        return ExperimentResult(spec, "detected", golden.trunk_detail,
                                False, 0)
    return ExperimentResult(spec, "masked", _IDENTICAL, False, 0)


@dataclasses.dataclass
class CampaignReport:
    """Aggregated campaign outcome; renders as JSON or a table."""

    topology: str
    variant: str
    engine: str
    backend: str
    cycles: int
    seed: int
    classes: Tuple[str, ...]
    exhaustive: bool
    samples: int
    window: Optional[Tuple[int, int]]
    strict: bool
    results: List[ExperimentResult]
    skipped: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: Audit header for parallel/cached runs: ``backend``, ``jobs``,
    #: ``workers`` and cache hit/miss counts (sorted keys, no wall
    #: times).  Excluded from the default payload so reports stay
    #: byte-identical across ``--jobs`` values **and across simulation
    #: backends** (schema v2 moved ``backend`` here from the payload
    #: body: the engines are bit-exact, so which one produced a report
    #: is provenance, not content) — the determinism contract of
    #: ``docs/parallelism.md``; pass ``execution=True`` to include it.
    execution: Optional[Dict[str, Any]] = None

    def counts(self) -> Dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for result in self.results:
            counts[result.verdict] += 1
        return counts

    def counts_by_kind(self) -> Dict[str, Dict[str, int]]:
        by_kind: Dict[str, Dict[str, int]] = {}
        for result in self.results:
            slot = by_kind.setdefault(
                result.spec.kind, {verdict: 0 for verdict in VERDICTS})
            slot[result.verdict] += 1
        return by_kind

    def to_payload(self, execution: bool = False) -> Dict[str, Any]:
        return self._payload(execution, [r.to_dict() for r in self.results],
                             self.skipped)

    def _payload(self, execution: bool, experiments: List,
                 skipped: List) -> Dict[str, Any]:
        payload = {
            "schema": SCHEMA,
            "topology": self.topology,
            "variant": self.variant,
            "engine": self.engine,
            "cycles": self.cycles,
            "tail_window": tail_window(self.cycles),
            "seed": self.seed,
            "classes": list(self.classes),
            "exhaustive": self.exhaustive,
            "samples": self.samples,
            "window": list(self.window) if self.window else None,
            "strict": self.strict,
            "experiments": experiments,
            "skipped": skipped,
            "summary": self.counts(),
            "summary_by_kind": self.counts_by_kind(),
        }
        if execution:
            payload["execution"] = self.execution
        return payload

    def to_json(self, execution: bool = False) -> str:
        """Deterministic rendering: byte-identical across reruns.

        The default payload omits the :attr:`execution` audit header
        so that the bytes are also identical across ``--jobs`` values
        and cache states; ``execution=True`` opts into the header for
        audit trails that do not need jobs-invariance.

        The text is exactly ``json.dumps(self.to_payload(execution),
        indent=2, sort_keys=True) + "\\n"``.  With ``indent`` that
        encoder runs in pure Python, one call per value, so only the
        header goes through it; each experiment and skipped entry is
        filled into a template whose keys are already sorted
        (``_render_experiment``, ``_render_skipped``).
        """
        header = json.dumps(self._payload(execution, [], []), indent=2,
                            sort_keys=True)
        # Only top-level keys sit at indent 2 and no JSON string holds a
        # raw newline, so each empty list below occurs exactly once.
        head, _, rest = header.partition('\n  "experiments": [],\n')
        middle, _, tail = rest.partition('\n  "skipped": [],\n')
        return "".join((
            head, '\n  "experiments": ',
            _render_list(map(_render_experiment, self.results)), ",\n",
            middle, '\n  "skipped": ',
            _render_list(map(_render_skipped, self.skipped)), ",\n",
            tail, "\n"))

    def format_table(self) -> str:
        counts = self.counts()
        header = (
            f"fault campaign: {self.topology} ({self.variant}, "
            f"engine={self.engine}/{self.backend}, cycles={self.cycles}, "
            f"seed={self.seed})")
        label_width = max([len("fault")]
                          + [len(r.spec.label()) for r in self.results])
        verdict_width = max(len(v) for v in VERDICTS)
        lines = [header, "-" * len(header),
                 f"{'fault':<{label_width}}  "
                 f"{'verdict':<{verdict_width}}  detail"]
        for result in self.results:
            lines.append(
                f"{result.spec.label():<{label_width}}  "
                f"{result.verdict:<{verdict_width}}  {result.detail}")
        lines.append("-" * len(header))
        lines.append("  ".join(
            f"{verdict}={counts[verdict]}" for verdict in VERDICTS))
        if self.skipped:
            lines.append(f"skipped={len(self.skipped)} "
                         f"(not expressible on this engine)")
        return "\n".join(lines)


# -- report rendering ------------------------------------------------------
#
# One experiment and one skipped entry as ``json.dumps(..., indent=2,
# sort_keys=True)`` writes them inside the report's top-level lists:
# keys in sorted order, the entry at indent 4, its keys at indent 6 and
# the fault's at indent 8.

_FAULT_TEMPLATE = (
    '      "fault": {\n'
    '        "cycle": %s,\n'
    '        "duration": %s,\n'
    '        "kind": %s,\n'
    '        "target": %s,\n'
    '        "value": %s\n'
    '      },\n')

_EXPERIMENT_TEMPLATE = (
    '    {\n'
    '      "detail": %s,\n'
    + _FAULT_TEMPLATE
    + '      "fire_cycles": %s,\n'
    '      "fired": %s,\n'
    '      "label": %s,\n'
    '      "verdict": %s\n'
    '    }')

_SKIPPED_TEMPLATE = (
    '    {\n'
    + _FAULT_TEMPLATE
    + '      "label": %s,\n'
    '      "reason": %s\n'
    '    }')

#: The indent of each template field, for values that span lines.
_EXPERIMENT_INDENTS = (6,) + (8,) * 5 + (6,) * 4
_SKIPPED_INDENTS = (8,) * 5 + (6,) * 2

_SKIPPED_KEYS = frozenset(("fault", "label", "reason"))
_FAULT_KEYS = frozenset(("kind", "target", "cycle", "duration", "value"))

#: What ``json.dumps`` uses under its default ``ensure_ascii=True``.
_encode_str = json.encoder.encode_basestring_ascii


def _render_value(value: Any, indent: int) -> str:
    """*value* as ``json.dumps`` writes it at *indent* in the report.

    Exact ``str`` and ``int`` values, ``None`` and the booleans are
    written directly; anything else (floats, containers, subclasses)
    goes through ``json.dumps`` and has its lines re-indented.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + " " * indent)


def _fill(template: str, fields: Tuple, indents: Tuple[int, ...]) -> str:
    return template % tuple(map(_render_value, fields, indents))


def _render_experiment(result: ExperimentResult) -> str:
    spec = result.spec
    detail, cycle, duration = result.detail, spec.cycle, spec.duration
    kind, target, value = spec.kind, spec.target, spec.value
    fire_cycles, fired = result.fire_cycles, result.fired
    label, verdict = spec.label(), result.verdict
    if type(detail) is str and type(cycle) is int \
            and type(duration) is int and type(kind) is str \
            and type(target) is str and value is None \
            and type(fire_cycles) is int and type(fired) is bool \
            and type(verdict) is str:
        return _EXPERIMENT_TEMPLATE % (
            _encode_str(detail), cycle, duration, _encode_str(kind),
            _encode_str(target), "null", fire_cycles,
            "true" if fired else "false", _encode_str(label),
            _encode_str(verdict))
    return _fill(_EXPERIMENT_TEMPLATE,
                 (detail, cycle, duration, kind, target, value,
                  fire_cycles, fired, label, verdict),
                 _EXPERIMENT_INDENTS)


def _render_skipped(entry: Dict[str, Any]) -> str:
    fault = entry.get("fault")
    if entry.keys() != _SKIPPED_KEYS or type(fault) is not dict \
            or fault.keys() != _FAULT_KEYS:
        return "    " + _render_value(entry, 4)
    cycle, duration = fault["cycle"], fault["duration"]
    kind, target, value = fault["kind"], fault["target"], fault["value"]
    label, reason = entry["label"], entry["reason"]
    if type(cycle) is int and type(duration) is int \
            and type(kind) is str and type(target) is str \
            and value is None and type(label) is str \
            and type(reason) is str:
        return _SKIPPED_TEMPLATE % (
            cycle, duration, _encode_str(kind), _encode_str(target),
            "null", _encode_str(label), _encode_str(reason))
    return _fill(_SKIPPED_TEMPLATE,
                 (cycle, duration, kind, target, value, label, reason),
                 _SKIPPED_INDENTS)


def _render_list(items) -> str:
    """A top-level report list from its rendered entries."""
    body = ",\n".join(items)
    return "[\n" + body + "\n  ]" if body else "[]"


def _record_verdicts(telemetry, report: CampaignReport) -> None:
    if telemetry is None or telemetry.metrics is None:
        return
    for verdict, count in report.counts().items():
        if count:
            telemetry.metrics.counter(
                f"inject/verdict/{verdict}").inc(count)


@dataclasses.dataclass(frozen=True)
class _WorkerContext:
    """Everything a campaign worker needs, in picklable form."""

    graph_ref: GraphRef
    golden: GoldenRun  # without its fork table: units carry their forks
    variant: ProtocolVariant
    strict: bool
    monitors: bool
    collect_metrics: bool


def _experiment_worker(
    ctx: _WorkerContext,
    unit: Tuple[FaultSpec, Optional[Checkpoint]],
) -> Tuple[ExperimentResult, Optional[Dict[str, Any]]]:
    """Run one experiment (a fault and its fork) in a worker process.

    Returns the result plus this experiment's metrics snapshot (when
    the parent carries a metrics registry) so the parent can merge the
    per-worker registries in canonical order — the serial-equivalence
    guarantee for ``--metrics-out``.

    Under a traced fan-out (``map_deterministic(trace=...)``) the
    chunk-local :func:`repro.exec.worker_telemetry` bundle supplies the
    event stream and profiler, so every experiment's simulation events
    land in this worker's lane of the merged Chrome trace.  Metrics
    stay per-experiment regardless: the parent merges the returned
    snapshots in submission order, which keeps ``--metrics-out`` equal
    to the serial run whether or not tracing is on.
    """
    from ..exec import worker_telemetry

    spec, checkpoint = unit
    chunk_telemetry = worker_telemetry()
    telemetry = None
    if ctx.collect_metrics or chunk_telemetry is not None:
        from ..obs import MetricsRegistry, Telemetry

        telemetry = Telemetry(
            events=(chunk_telemetry.events
                    if chunk_telemetry is not None else None),
            metrics=MetricsRegistry() if ctx.collect_metrics else None,
            profiler=(chunk_telemetry.profiler
                      if chunk_telemetry is not None else None))
        if telemetry.events is not None:
            telemetry.events.emit("run", "experiment", 0,
                                  label=spec.label())
    result = run_experiment(
        ctx.graph_ref.materialize(), spec, ctx.golden,
        variant=ctx.variant, strict=ctx.strict, monitors=ctx.monitors,
        telemetry=telemetry, checkpoint=checkpoint)
    snapshot = (telemetry.metrics.snapshot()
                if telemetry is not None and telemetry.metrics is not None
                else None)
    return result, snapshot


def _pickles(value: Any) -> bool:
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - any pickling failure
        return False
    return True


def _cached_trunk(
    graph: SystemGraph,
    variant: ProtocolVariant,
    cycles: int,
    seed: int,
    faults: Sequence[FaultSpec],
    strict: bool,
    monitors: bool,
    cache: Optional[ResultCache],
) -> GoldenRun:
    """The campaign trunk, via the content-addressed cache when given.

    The entry is the golden run plus its fork table, which depends on
    the fault list and on the monitors the trunk carries, so those
    join the key.
    """
    def capture() -> GoldenRun:
        return GoldenRun.capture(graph, variant, cycles, faults=faults,
                                 strict=strict, monitors=monitors)

    if cache is None:
        return capture()
    from ..exec import graph_fingerprint

    fault_digest = hashlib.sha256(
        "\n".join(repr(spec) for spec in faults).encode()).hexdigest()
    key = cache.key("trunk", graph_fingerprint(graph, cycles),
                    variant, cycles, seed, strict, monitors, fault_digest)
    golden = cache.get(key)
    if not isinstance(golden, GoldenRun) or golden.cycles != cycles \
            or golden.forks is None or len(golden.forks) != len(faults):
        golden = capture()
        cache.put(key, golden)
    return golden


def _execution_header(backend: str, jobs: int, workers: int,
                      cache: Optional[ResultCache]) -> Dict[str, Any]:
    return {
        "backend": backend,
        "jobs": jobs,
        "workers": workers,
        "cache": cache.stats.to_dict() if cache is not None else None,
    }


def run_campaign(
    graph: SystemGraph,
    *,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    classes: Sequence[str] = ("stop", "void"),
    cycles: int = 200,
    window: Optional[Tuple[int, int]] = None,
    exhaustive: bool = False,
    samples: int = 64,
    seed: int = 0,
    strict: bool = False,
    monitors: bool = True,
    telemetry=None,
    faults: Optional[Sequence[FaultSpec]] = None,
    jobs: int = 1,
    graph_ref: Optional[GraphRef] = None,
    cache: Optional[ResultCache] = None,
    progress=None,
    trace=None,
) -> CampaignReport:
    """Full campaign on the scalar LID engine (token-level, monitored).

    The golden run is a monitored *trunk* (:meth:`GoldenRun.capture`
    with the fault list) that checkpoints the system at each fault's
    first effective cycle.  Every experiment then forks from its
    checkpoint (:func:`run_experiment`), simulating only the cycles
    from there on, and a fault that never bites takes the trunk's
    outcome without being simulated.  Reports are byte-identical to
    running every experiment from reset.  With metrics or events
    attached (*telemetry* or *trace*), every experiment runs from
    reset instead, faults that never bite included, so snapshots and
    event streams observe every cycle.

    Serially, the forked experiments share one system elaborated (and
    watched) once per campaign: each restores its checkpoint into it,
    arms its injector, runs and detaches the injector again (see
    :func:`run_experiment`).  Experiments from reset, and every
    experiment in a ``jobs > 1`` worker, elaborate a fresh system.

    ``jobs`` fans the experiments across worker processes via
    :func:`repro.exec.map_deterministic`; each unit carries its
    checkpoint, and the report is byte-identical for every value (see
    ``docs/parallelism.md``).  With ``jobs > 1`` the graph must be
    reachable from workers: pass a *graph_ref* (any graph with lambdas
    is unpicklable), or rely on the automatic
    :meth:`GraphRef.from_graph` capture for plain graphs.  ``cache``
    stores the trunk (golden run and fork table), so a repeat run
    skips it.

    The whole campaign shares one lowered plan: fault generation, the
    trunk and every experiment elaborate from the memoized
    :func:`repro.ir.lower` tables instead of re-walking the graph per
    fault (workers re-lower once per process — the memo deliberately
    does not travel inside GraphRef pickles).

    *progress* (a :class:`repro.obs.ProgressReporter`) is advanced as
    experiments complete; *trace* (a :class:`repro.exec.TraceCollection`)
    collects per-worker event/profiler lanes on the parallel path.
    Both are side channels: the report bytes are identical with or
    without them.
    """
    from ..ir import lower

    low = lower(graph)  # prime the shared plan before any fan-out
    if not low.single_clock:
        raise InjectionError(
            f"{graph.name}: the token-level LID engine models "
            f"single-clock systems only (capability flags: "
            f"single_clock={low.single_clock}, "
            f"has_bridges={low.has_bridges}); run GALS campaigns on "
            "the skeleton engine (repro-lid inject --engine skeleton)")
    if faults is None:
        faults = generate_faults(
            graph, variant=variant, classes=classes, cycles=cycles,
            window=window, exhaustive=exhaustive, samples=samples,
            seed=seed)
    golden = _cached_trunk(graph, variant, cycles, seed, faults, strict,
                           monitors, cache)
    results: List[Optional[ExperimentResult]] = [None] * len(faults)
    from_reset = golden.forks is None or trace is not None or (
        telemetry is not None
        and (telemetry.metrics is not None
             or telemetry.events is not None))
    if from_reset:
        # Fork every experiment at cycle 0 (from reset), so metric
        # snapshots and event streams observe every cycle.
        runs = [(index, spec, None) for index, spec in enumerate(faults)]
    else:
        runs = []
        for index, (spec, fork) in enumerate(zip(faults, golden.forks)):
            if fork is None:
                results[index] = _unbitten(spec, golden)
            else:
                runs.append((index, spec, fork))
    units = [(spec, fork) for _index, spec, fork in runs]

    if progress is not None:
        progress.set_total(len(faults))
        if len(runs) < len(faults):
            progress.advance(len(faults) - len(runs))
    workers = 1
    if jobs > 1 and len(faults) > 1:
        ref = graph_ref if graph_ref is not None \
            else GraphRef.from_graph(graph)
        collect = telemetry is not None and telemetry.metrics is not None
        ctx = _WorkerContext(ref, dataclasses.replace(golden, forks=None),
                             variant, strict, monitors, collect)
        workers = min(jobs, len(faults))
        if not _pickles(units):
            # Pearls holding lambdas cannot travel: workers simulate
            # those experiments from reset instead.
            units = [(spec, None) for spec, _fork in units]
        pairs = map_deterministic(
            functools.partial(_experiment_worker, ctx), units, jobs,
            trace=trace, progress=progress)
        for (index, _spec, _fork), (result, _snapshot) in zip(runs, pairs):
            results[index] = result
        if collect:
            # Canonical-order merge: counters add, gauges last-write-
            # wins, histograms add — exactly the serial accumulation.
            for _result, snapshot in pairs:
                if snapshot:
                    telemetry.metrics.merge_snapshot(snapshot)
    else:
        # Forked experiments share one system (each restores its own
        # checkpoint into it); experiments from reset get a fresh one.
        elaborated = None if from_reset or not runs else _elaborate(
            graph, variant, strict, monitors, telemetry)
        for index, spec, fork in runs:
            results[index] = run_experiment(
                graph, spec, golden, variant=variant, strict=strict,
                monitors=monitors, telemetry=telemetry, checkpoint=fork,
                elaborated=elaborated)
            if progress is not None:
                progress.advance(1)
    if progress is not None:
        progress.finish()
    report = CampaignReport(
        topology=graph.name, variant=str(variant), engine="lid",
        backend="scalar", cycles=cycles, seed=seed,
        classes=tuple(classes), exhaustive=exhaustive, samples=samples,
        window=window, strict=strict, results=results,
        execution=_execution_header("scalar", jobs, workers, cache))
    _record_verdicts(telemetry, report)
    return report


# -- skeleton (batched) campaigns -----------------------------------------

def _columns(rows: List[List[int]], batch: int) -> List[Tuple[int, ...]]:
    """Per-block count rows (``rows[block][instance]``) as one tuple
    per instance, in one transpose."""
    return list(zip(*rows)) if rows else [()] * batch


def endpoint_scripts(
    graph: SystemGraph,
    variant: ProtocolVariant,
) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Map boundary channel names to their sink / source block names.

    A stop fault on the channel feeding a sink is exactly a perturbed
    sink back-pressure script; a valid fault on the channel leaving a
    source is a perturbed source availability script.  Faults anywhere
    else need wire-level access the skeleton does not expose.

    Multi-clock graphs resolve through the skeleton lowering's hop
    names instead of the (single-clock-only) LID elaboration — the same
    names :func:`repro.inject.faults.enumerate_targets` hands out for
    GALS graphs, so the generated fault lists resolve here exactly.
    """
    from ..ir import SINK, SRC, lower

    low = lower(graph)
    if not low.single_clock:
        sink_channels = {
            hop.name: low.edges[hop.edge].dst_name
            for hop in low.hops if hop.consumer_kind == SINK}
        source_channels = {
            hop.name: low.edges[hop.edge].src_name
            for hop in low.hops if hop.producer_kind == SRC}
        return sink_channels, source_channels

    system = graph.elaborate(variant=variant)
    sink_channels = {sink.input.name: name
                     for name, sink in system.sinks.items()}
    source_channels = {source.output.name: name
                       for name, source in system.sources.items()}
    return sink_channels, source_channels


def _pattern_for(spec: FaultSpec,
                 baseline: Sequence[bool]) -> Optional[Tuple[bool, ...]]:
    """Faulted per-cycle script, or None when the fault is a no-op
    against the unfaulted *baseline* script."""
    baseline = tuple(baseline)
    start = spec.cycle
    stop = len(baseline) if spec.stuck else min(
        len(baseline), start + spec.duration)
    if start >= stop:
        return None
    window = baseline[start:stop]
    if spec.kind == "stop-glitch":
        window = tuple(map(operator.not_, window))
    else:
        if spec.kind == "delayed-stop":
            # The delayed value propagates through the window: each
            # faulted cycle replays the (already faulted) previous
            # cycle, so the whole window holds the value entering it.
            held = bool(baseline[start - 1]) if start else False
        else:
            held = spec.kind in ("stop-stuck-1", "valid-stuck-1")
        if all(window) if held else not any(window):
            return None  # the window already holds that value
        window = (held,) * len(window)
    return baseline[:start] + window + baseline[stop:]


_SINK_KINDS = ("stop-stuck-1", "stop-stuck-0", "stop-glitch",
               "delayed-stop")
_SOURCE_KINDS = ("void-glitch", "valid-stuck-0", "valid-stuck-1")


def skeleton_campaign(
    graph: SystemGraph,
    *,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    classes: Sequence[str] = ("stop", "void"),
    cycles: int = 200,
    window: Optional[Tuple[int, int]] = None,
    exhaustive: bool = False,
    samples: int = 64,
    seed: int = 0,
    backend: str = "auto",
    strict: bool = False,
    telemetry=None,
    faults: Optional[Sequence[FaultSpec]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress=None,
    trace=None,
) -> CampaignReport:
    """Batched campaign on the skeleton engine.

    Every expressible fault becomes one column of a single
    :func:`repro.skeleton.backend.select` batch (plus a golden column
    0); the whole campaign is two ``run_cycles`` calls.  Faults that
    are not boundary control faults are reported as ``skipped``.

    The default backend packs the columns into bit planes of Python
    integers (one experiment per bit, any number of planes), so the
    golden run is simulated once for the whole fault list;
    ``backend="scalar"`` runs one reference simulator per column.
    Classification reads only per-column counters, so the report bytes
    are independent of the backend.

    ``strict`` arms the skeleton analogue of the LID strict stop-shape
    monitor: under a variant that discards void stops (the paper's
    refinement), a column whose cumulative stop-on-void count exceeds
    the golden column's saw a protocol-illegal stop land on a void
    token — the fault is classified ``detected`` (highest verdict
    priority) instead of masked/deadlock/timeout.  Validity-blind
    variants have no such invariant, so ``strict`` is a no-op there,
    exactly as the LID monitor never trips under ``CARLONI``.

    ``jobs`` is accepted for CLI symmetry and recorded in the
    execution header, but the engine itself is already data-parallel:
    the whole campaign is one batch, so there is nothing left to fan
    across processes.  ``cache`` is likewise recorded; the
    golden run here is column 0 of the same batch, not a separate
    simulation to skip.  ``trace`` is accepted for symmetry too — with
    no process fan-out there are no worker lanes to collect, and the
    *telemetry* passthrough already captures the batch's events.
    ``progress`` advances once for the batch (the engine's unit of
    forward progress) and per classified payload fault.

    Payload corruption on a *sink-boundary* channel rides the same
    batch instead of falling back to the scalar LID engine: a payload
    fault never perturbs the valid/stop dynamics, so its verdict is
    decided entirely by the golden column — the corrupted slot is
    consumed iff the sink accepts (valid and not stopped) during an
    active fault cycle, which classifies the fault as
    ``silent-corruption``; otherwise the producer re-presents the
    clean held value next cycle and the fault is ``masked``.  This
    mirrors the LID injector exactly (it corrupts the wire only while
    the presented token is valid, and the sink samples only on
    accept), and verdict parity with :func:`run_campaign` is pinned in
    the conformance suite.  Source-boundary payload faults stay
    ``skipped``: their corrupted token takes a topology-dependent path
    through the pearls that a data-free engine cannot follow.

    Skeleton sources advance a script *phase* only when unstopped, so a
    source-side fault at cycle ``c`` perturbs the c-th *presented* slot
    rather than wall-clock cycle ``c`` — same fault universe, slightly
    different alignment; verdicts are computed per column against the
    golden column, so the classification stays exact.

    The skeleton also models the fault at a different point than the
    LID engine: it rewrites the endpoint's *script*, so producer and
    consumer coherently see the faulted control value, whereas the LID
    injector forces the *wire* after settle and the endpoint's own
    behaviour is untouched.  A stuck stop on a sink channel therefore
    wedges the skeleton (the sink really stops consuming) but shows up
    as duplication on the LID engine (the sink re-reads the held
    token); both are faithful readings of the same physical fault.

    CDC faults (``bridge-overflow`` / ``bridge-underflow``) ride the
    same batch on GALS graphs: each becomes a column with the baseline
    scripts plus an armed occupancy poke
    (:meth:`~repro.skeleton.backend._Backend.poke_bridge`) on its
    bridge — a ±1 nudge per active cycle, clamped to ``[0, depth]``,
    modelling a synchronizer resolving a cycle early (phantom write)
    or late (lost token).  Verdicts come from the same
    golden-column comparison; a nudge absorbed by clamping (overflow
    on a full bridge, underflow on an empty one) classifies
    ``masked`` exactly like a no-op script fault.

    The fault batch consumes one lowered plan: every column of the
    :func:`~repro.skeleton.backend.select` batch reads the same
    memoized :func:`repro.ir.lower` tables.
    """
    from ..ir import lower
    from ..skeleton.backend import backend_class, select
    from .faults import BRIDGE_KINDS

    low = lower(graph)  # prime the shared plan for the whole batch
    bridge_names = set(low.bridge_names)
    if faults is None:
        faults = generate_faults(
            graph, variant=variant, classes=classes, cycles=cycles,
            window=window, exhaustive=exhaustive, samples=samples,
            seed=seed)
    sink_channels, source_channels = endpoint_scripts(graph, variant)

    baseline_sink = {}
    for node in graph.sinks():
        if node.stop_script is not None:
            baseline_sink[node.name] = tuple(
                bool(node.stop_script(c)) for c in range(cycles))
        else:
            baseline_sink[node.name] = (False,) * cycles
    baseline_source = {n.name: (True,) * cycles for n in graph.sources()}

    expressible: List[Tuple[FaultSpec, Dict, Dict]] = []
    payload_specs: List[Tuple[FaultSpec, str]] = []
    skipped: List[Dict[str, Any]] = []
    noop: List[FaultSpec] = []
    #: id(spec) -> (bridge, cycle, delta, active-cycle count) for the
    #: CDC columns; armed on the handle right after select().
    bridge_pokes: Dict[int, Tuple[str, int, int, int]] = {}
    for spec in faults:
        sink = sink_channels.get(spec.target)
        source = source_channels.get(spec.target)
        if spec.kind in BRIDGE_KINDS:
            if spec.target not in bridge_names:
                skipped.append({
                    "fault": spec.to_dict(),
                    "label": spec.label(),
                    "reason": f"no bridge named {spec.target!r} in "
                              f"{graph.name!r}",
                })
                continue
            delta = 1 if spec.kind == "bridge-overflow" else -1
            span = cycles - spec.cycle if spec.stuck else spec.duration
            bridge_pokes[id(spec)] = (
                spec.target, spec.cycle, delta, max(span, 0))
            expressible.append(
                (spec, dict(baseline_source), dict(baseline_sink)))
        elif spec.kind == "payload" and sink is not None:
            payload_specs.append((spec, sink))
        elif spec.kind in _SINK_KINDS and sink is not None:
            pattern = _pattern_for(spec, baseline_sink[sink])
            if pattern is None:
                noop.append(spec)
            else:
                sinks = dict(baseline_sink)
                sinks[sink] = pattern
                expressible.append((spec, dict(baseline_source), sinks))
        elif spec.kind in _SOURCE_KINDS and source is not None:
            pattern = _pattern_for(spec, baseline_source[source])
            if pattern is None:
                noop.append(spec)
            else:
                sources = dict(baseline_source)
                sources[source] = pattern
                expressible.append((spec, sources, dict(baseline_sink)))
        else:
            skipped.append({
                "fault": spec.to_dict(),
                "label": spec.label(),
                "reason": "not a boundary control fault "
                          "(skeleton engine has no wire-level access)",
            })

    results: List[ExperimentResult] = [
        ExperimentResult(spec, "masked",
                         "fault forces the script's existing value",
                         False, 0)
        for spec in noop
    ]

    # The golden column plus one column per expressible fault; when
    # every fault is skipped nothing runs, and the header still names
    # the engine the request resolves to.
    backend_name = backend_class(backend, len(expressible) + 1).name
    strict_detect = strict and variant.discards_void_stops
    if expressible or payload_specs:
        if progress is not None:
            progress.set_total(len(expressible) + len(payload_specs))
        tail = tail_window(cycles)
        source_patterns = [dict(baseline_source)] + [
            src for _spec, src, _snk in expressible]
        sink_patterns = [dict(baseline_sink)] + [
            snk for _spec, _src, snk in expressible]
        handle = select(
            graph, variant=variant, batch=len(expressible) + 1,
            source_patterns=source_patterns,
            sink_patterns=sink_patterns,
            detect_ambiguity=False, backend=backend,
            telemetry=telemetry)
        for column, (spec, _src, _snk) in enumerate(expressible, start=1):
            poke = bridge_pokes.get(id(spec))
            if poke is not None:
                bridge, at, delta, span = poke
                handle.poke_bridge(column, bridge, at, delta,
                                   duration=span)
        handle.run_cycles(cycles - tail)
        head_fires = _columns(handle.fire_counts(), handle.batch)
        handle.run_cycles(tail)
        fires = _columns(handle.fire_counts(), handle.batch)
        accepts = _columns(handle.accept_counts(), handle.batch)
        voids = handle.void_stop_counts()
        # Shell firings in the tail window, one total per instance.
        tail_fires = [sum(now) - sum(then)
                      for now, then in zip(fires, head_fires)]

        golden_fires = fires[0]
        golden_accepts = accepts[0]
        golden_tail = tail_fires[0]
        golden_voids = voids[0]
        for column, (spec, _src, _snk) in enumerate(expressible, start=1):
            col_fires = fires[column]
            col_accepts = accepts[column]
            col_tail = tail_fires[column]
            col_voids = voids[column]
            if strict_detect and col_voids > golden_voids:
                verdict, detail = "detected", (
                    f"strict stop-shape monitor: "
                    f"{col_voids - golden_voids} stop(s) landed on "
                    f"void tokens beyond the golden run")
            elif (col_fires == golden_fires
                    and col_accepts == golden_accepts):
                verdict, detail = "masked", (
                    "fire and accept counts match the golden column")
            elif col_tail == 0 and golden_tail > 0:
                verdict, detail = "deadlock", (
                    f"no shell fired in the tail window (golden "
                    f"fired {golden_tail} times)")
            else:
                verdict, detail = "timeout", (
                    f"activity diverged from golden "
                    f"(fires {sum(col_fires)} vs "
                    f"{sum(golden_fires)}, "
                    f"accepts {sum(col_accepts)} vs "
                    f"{sum(golden_accepts)}); shells still live")
            results.append(ExperimentResult(spec, verdict, detail,
                                            True, 0))
        if progress is not None:
            progress.advance(len(expressible))

        if payload_specs:
            # Payload corruption is control-transparent: classify it
            # from the golden column's per-cycle accepts (column 0),
            # read once per sink as the sorted cycles it accepted in.
            accept_hist = handle.accept_history(0)
            faulted = {sink_name for _spec, sink_name in payload_specs}
            accepted_at = {
                name: [c for c, row in enumerate(accept_hist) if row[i]]
                for i, name in enumerate(handle.sink_names)
                if name in faulted}
            for spec, sink_name in payload_specs:
                accepted = accepted_at[sink_name]
                stop_at = cycles if spec.stuck else min(
                    cycles, spec.cycle + spec.duration)
                first = bisect.bisect_left(accepted, spec.cycle)
                hits = max(bisect.bisect_left(accepted, stop_at) - first,
                           0)
                if hits:
                    verdict = "silent-corruption"
                    detail = (f"sink {sink_name!r} consumed a corrupted "
                              f"payload at cycle {accepted[first]}")
                else:
                    verdict = "masked"
                    detail = ("corrupted slot never consumed (void or "
                              "back-pressured throughout the fault "
                              "window)")
                results.append(ExperimentResult(spec, verdict, detail,
                                                bool(hits), hits))
                if progress is not None:
                    progress.advance(1)
    if progress is not None:
        progress.finish()

    # Restore the deterministic fault-list order for the report.
    order = {id(spec): i for i, spec in enumerate(faults)}
    results.sort(key=lambda r: order[id(r.spec)])

    report = CampaignReport(
        topology=graph.name, variant=str(variant), engine="skeleton",
        backend=backend_name, cycles=cycles, seed=seed,
        classes=tuple(classes), exhaustive=exhaustive, samples=samples,
        window=window, strict=strict, results=results, skipped=skipped,
        execution=_execution_header(backend_name, jobs, 1, cache))
    _record_verdicts(telemetry, report)
    return report

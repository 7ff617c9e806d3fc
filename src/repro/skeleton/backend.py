"""Unified backend selection for skeleton simulation.

Three engines implement the exact same valid/stop semantics:

* :class:`~repro.skeleton.sim.SkeletonSim` — the scalar reference,
  one Python object per instance;
* :class:`~repro.skeleton.bitsim.BitplaneSkeletonSim` — SBFI-style
  bit planes, one instance per bit of a Python integer (the batch
  engine: sweeps, fault campaigns and GALS graphs);
* :class:`~repro.skeleton.codegen.CodegenSkeletonSim` — per-topology
  compiled straight-line Python (one ``compile()`` per structural
  fingerprint, reused across every instance and run).

:func:`select` hides the choice: callers describe *what* to simulate
(a topology, a protocol variant, and one script set per instance) and
get back a handle with a backend-independent interface.  The
differential conformance suite (``tests/skeleton/
test_backend_conformance.py``) is the contract that keeps the
engines interchangeable — any future engine must join that suite
before :func:`select` may return it.

Selection policy: ``backend="auto"`` runs a batch wider than one
instance on the bit-plane engine and a single instance on the scalar
engine.  ``backend="scalar"``/``"bitsim"``/``"codegen"`` forces the
choice; codegen is opt-in (it wins when the same topology is stepped
for many cycles or many runs and the one-time compile amortizes) and
is the only engine that refuses GALS (multi-clock) graphs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..graph.model import SystemGraph
from ..ir import LoweredSystem, lower
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .sim import SkeletonResult, SkeletonSim

PatternMap = Mapping[str, Sequence[bool]]
Patterns = Union[None, PatternMap, Sequence[Optional[PatternMap]]]

#: Every name :func:`select` accepts for ``backend=``.
BACKEND_CHOICES = ("auto", "scalar", "bitsim", "codegen")


def codegen_supported(graph: SystemGraph,
                      variant: ProtocolVariant) -> Tuple[bool, str]:
    """Can the compiled-codegen engine run this (graph, variant)?

    Returns ``(supported, reason)``; *reason* explains a refusal by
    naming the capability flags of the lowered IR that failed (the
    GALS capability contract: ``single_clock`` / ``has_bridges``).
    """
    lowered = graph if isinstance(graph, LoweredSystem) else lower(graph)
    if not lowered.single_clock:
        return False, (
            f"graph {lowered.name!r} is multi-clock "
            f"(capability flags: single_clock={lowered.single_clock}, "
            f"has_bridges={lowered.has_bridges}) and the codegen "
            f"engine requires single_clock=True; use the scalar or "
            f"bitsim engine for GALS workloads")
    return True, ""


def available_backends(graph: SystemGraph,
                       variant: ProtocolVariant) -> Tuple[str, ...]:
    """The backend names able to run this (graph, variant) right now.

    The scalar and bit-plane engines support everything; codegen is
    probed through :func:`codegen_supported`.  Used by :func:`select`
    to make refusal messages actionable.
    """
    names = ("scalar", "bitsim")
    if codegen_supported(graph, variant)[0]:
        names += ("codegen",)
    return names


def _normalize(patterns: Patterns, batch: int) -> List[Dict]:
    """Broadcast a single mapping / fill None entries, one per column."""
    if patterns is None:
        return [{}] * batch
    if isinstance(patterns, Mapping):
        return [dict(patterns)] * batch
    if len(patterns) != batch:
        raise ValueError(
            f"{len(patterns)} script mappings for batch width {batch}")
    return [dict(m) if m else {} for m in patterns]


def _infer_batch(batch: Optional[int], *pattern_seqs: Patterns) -> int:
    widths = {batch} if batch is not None else set()
    for seq in pattern_seqs:
        if seq is not None and not isinstance(seq, Mapping):
            widths.add(len(seq))
    if len(widths) > 1:
        raise ValueError(f"inconsistent batch widths: {sorted(widths)}")
    return widths.pop() if widths else 1


class _Backend:
    """Backend-independent interface shared by all handles."""

    #: "scalar", "bitsim" or "codegen"
    name: str

    def run(self, max_cycles: int = 10_000) -> List[SkeletonResult]:
        """Run every instance to periodicity; one result per column."""
        raise NotImplementedError

    def run_cycles(self, cycles: int) -> None:
        """Step every instance a fixed number of cycles."""
        raise NotImplementedError

    def fire_counts(self) -> List[List[int]]:
        """Cumulative firing counts: one row per shell, one int per
        instance (``counts[shell][instance]``)."""
        raise NotImplementedError

    def accept_counts(self) -> List[List[int]]:
        """Cumulative sink acceptance counts: one row per sink, one int
        per instance (``counts[sink][instance]``)."""
        raise NotImplementedError

    def accept_history(self, instance: int) -> List[Tuple[bool, ...]]:
        """Per cycle, whether each sink accepted a token in *instance*.

        Cycle-resolved form of one column of :meth:`accept_counts`; the
        payload-fault classification of :func:`repro.inject.campaign.
        skeleton_campaign` reads the golden column (instance 0).
        """
        raise NotImplementedError

    def stop_assertion_counts(self) -> List[int]:
        """Cumulative asserted-stop-wire counts, one int per instance."""
        raise NotImplementedError

    def void_stop_counts(self) -> List[int]:
        """Cumulative stops asserted on **void** tokens, one int per
        instance.

        The paper-claim locality counter; strict fault campaigns use
        the per-column excess over the golden column as the "detected"
        signal (the refined protocol's stop-shape monitor raises on
        stop-on-void).
        """
        raise NotImplementedError

    def metrics_snapshots(self) -> List[Dict]:
        """One canonical metrics snapshot per instance.

        Snapshots are backend-independent: the conformance suite
        asserts scalar and bit-plane snapshots are equal dicts.
        """
        raise NotImplementedError

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        """Schedule a bridge occupancy perturbation for one instance.

        The CDC fault models of GALS campaigns: *delta* of ``+1`` is a
        bridge overflow (phantom write), ``-1`` an underflow (lost
        token); applied after the normal update on each cycle in
        ``[cycle, cycle + duration)``, clamped to ``[0, depth]``.
        """
        raise NotImplementedError


def _column_sums(histories: List[List[Sequence]],
                 width: int) -> List[List[int]]:
    """``counts[j][i]``: how many entries of history *i* have slot *j* set."""
    counts = [[0] * len(histories) for _ in range(width)]
    for i, history in enumerate(histories):
        for j, total in enumerate(map(sum, zip(*history))):
            counts[j][i] = total
    return counts


class ScalarBackend(_Backend):
    """One :class:`SkeletonSim` per instance, same interface."""

    name = "scalar"

    def _sim_class(self):
        """The per-instance simulator class (codegen overrides this)."""
        return SkeletonSim

    def __init__(self, graph: SystemGraph, variant: ProtocolVariant,
                 source_patterns: List[Dict], sink_patterns: List[Dict],
                 fixpoint: str, detect_ambiguity: bool,
                 telemetry=None):
        self.graph = graph
        self.batch = len(sink_patterns)
        sim_class = self._sim_class()
        self.sims = [
            sim_class(graph, variant=variant, fixpoint=fixpoint,
                      source_patterns=source_patterns[i],
                      sink_patterns=sink_patterns[i],
                      detect_ambiguity=detect_ambiguity,
                      telemetry=telemetry)
            for i in range(self.batch)
        ]
        first = self.sims[0]
        self.shell_names = first.shell_names
        self.source_names = first.source_names
        self.sink_names = first.sink_names
        # The scalar engine silently ignores unknown script names;
        # the bit-plane engine rejects them.  The unified API must
        # behave the same regardless of the engine picked.
        for mappings, known in ((sink_patterns, set(self.sink_names)),
                                (source_patterns,
                                 set(self.source_names))):
            for mapping in mappings:
                for name in mapping:
                    if name not in known:
                        raise ValueError(
                            f"unknown script target {name!r}")

    def run(self, max_cycles: int = 10_000) -> List[SkeletonResult]:
        return [sim.run(max_cycles=max_cycles) for sim in self.sims]

    def run_cycles(self, cycles: int) -> None:
        for sim in self.sims:
            for _ in range(cycles):
                sim.step()

    def fire_counts(self) -> List[List[int]]:
        return _column_sums([sim.fire_history for sim in self.sims],
                            len(self.shell_names))

    def accept_counts(self) -> List[List[int]]:
        return _column_sums([sim.accept_history for sim in self.sims],
                            len(self.sink_names))

    def accept_history(self, instance: int) -> List[Tuple[bool, ...]]:
        return [tuple(bool(a) for a in accepts)
                for accepts in self.sims[instance].accept_history]

    def stop_assertion_counts(self) -> List[int]:
        return [sim.stop_assertions_total for sim in self.sims]

    def void_stop_counts(self) -> List[int]:
        return [sim.stops_on_voids_total for sim in self.sims]

    def metrics_snapshots(self) -> List[Dict]:
        return [sim.metrics_snapshot() for sim in self.sims]

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        self.sims[instance].poke_bridge(bridge, cycle, delta,
                                        duration=duration)


class CodegenBackend(ScalarBackend):
    """One compiled :class:`CodegenSkeletonSim` per instance.

    Everything except simulator construction and the batched
    ``run_cycles`` fast path is inherited from the scalar handle — the
    codegen simulator subclasses the scalar one, so every accessor
    reads the same state layout.  All instances of a batch share one
    compiled plan (they share topology, variant and options).
    """

    name = "codegen"

    def _sim_class(self):
        from .codegen import CodegenSkeletonSim

        return CodegenSkeletonSim

    def run_cycles(self, cycles: int) -> None:
        for sim in self.sims:
            sim.run_cycles(cycles)


class BitplaneBackend(_Backend):
    """A :class:`BitplaneSkeletonSim` behind the shared interface.

    State lives in Python integers (bit *p* = instance *p*); the
    accessors below unpack the vertical counters into the same rows
    of ints the other backends return, so callers never see the plane
    layout.
    """

    name = "bitsim"

    def __init__(self, graph: SystemGraph, variant: ProtocolVariant,
                 source_patterns: List[Dict], sink_patterns: List[Dict],
                 fixpoint: str, detect_ambiguity: bool,
                 telemetry=None):
        from .bitsim import BitplaneSkeletonSim

        self.graph = graph
        self.batch = len(sink_patterns)
        self.sim = BitplaneSkeletonSim(
            graph, sink_patterns, source_patterns=source_patterns,
            variant=variant, fixpoint=fixpoint,
            detect_ambiguity=detect_ambiguity, telemetry=telemetry)
        self.shell_names = self.sim.shell_names
        self.source_names = self.sim.source_names
        self.sink_names = self.sim.sink_names

    def run(self, max_cycles: int = 10_000) -> List[SkeletonResult]:
        return self.sim.run_to_period(max_cycles=max_cycles)

    def run_cycles(self, cycles: int) -> None:
        self.sim.run(cycles)

    def fire_counts(self) -> List[List[int]]:
        return [ctr.values(self.batch) for ctr in self.sim.shell_fired]

    def accept_counts(self) -> List[List[int]]:
        return [ctr.values(self.batch) for ctr in self.sim.sink_accepted]

    def accept_history(self, instance: int) -> List[Tuple[bool, ...]]:
        return self.sim.accept_history(instance)

    def stop_assertion_counts(self) -> List[int]:
        return self.sim.stop_assertions.values(self.batch)

    def void_stop_counts(self) -> List[int]:
        return self.sim.stops_on_voids.values(self.batch)

    def metrics_snapshots(self) -> List[Dict]:
        return [self.sim.metrics_snapshot(i) for i in range(self.batch)]

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        self.sim.poke_bridge(instance, bridge, cycle, delta,
                             duration=duration)


def select(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    batch: Optional[int] = None,
    *,
    source_patterns: Patterns = None,
    sink_patterns: Patterns = None,
    fixpoint: str = "least",
    detect_ambiguity: bool = True,
    backend: str = "auto",
    telemetry=None,
) -> _Backend:
    """Pick the fastest exact engine for a skeleton workload.

    Parameters
    ----------
    graph, variant:
        What to simulate.
    batch:
        Number of instances; inferred from the pattern sequences when
        omitted (single mappings broadcast to every instance).
    source_patterns, sink_patterns:
        Either one mapping (applied to every instance) or one mapping
        per instance — the sweep dimensions.
    backend:
        ``"auto"`` (bit-plane engine for batches wider than one,
        scalar for a single instance), ``"scalar"``, ``"bitsim"`` or
        ``"codegen"`` (opt-in compiled engine; never auto-picked —
        the compile cost only pays off over many cycles or runs, a
        judgement left to the caller).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle.  Metric
        accumulation is per-instance on every engine; event streams
        are per-instance (scalar) or aggregate per cycle (bit-plane).

    Returns a handle with ``run()`` / ``run_cycles()`` / count accessors
    that behave identically regardless of the engine chosen.
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}; available backends for "
            f"this graph/variant: "
            + ", ".join(available_backends(graph, variant))
            + " (or 'auto')")
    width = _infer_batch(batch, source_patterns, sink_patterns)
    if width < 1:
        raise ValueError("need at least one instance")
    sources = _normalize(source_patterns, width)
    sinks = _normalize(sink_patterns, width)

    if backend == "codegen":
        supported, reason = codegen_supported(graph, variant)
        if not supported:
            raise ValueError(
                f"codegen backend unavailable: {reason}; available "
                f"backends: "
                + ", ".join(available_backends(graph, variant)))
        cls = CodegenBackend
    elif backend == "bitsim" or (backend == "auto" and width > 1):
        cls = BitplaneBackend
    else:
        cls = ScalarBackend
    return cls(graph, variant, sources, sinks, fixpoint, detect_ambiguity,
               telemetry=telemetry)

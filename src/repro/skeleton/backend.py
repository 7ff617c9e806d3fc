"""Unified backend selection for skeleton simulation.

Two engines implement the exact same valid/stop semantics:

* :class:`~repro.skeleton.sim.SkeletonSim` — the scalar reference,
  one Python object per instance;
* :class:`~repro.skeleton.bitsim.BitplaneSkeletonSim` — SBFI-style
  bit planes, one instance per bit of a Python integer, stepped by a
  per-topology plan that :mod:`repro.skeleton.codegen` compiles once
  and reuses across every instance and run (sweeps, fault campaigns
  and GALS graphs; a single instance gets a one-plane plan).

:func:`select` hides the choice: callers describe *what* to simulate
(a topology, a protocol variant, and one script set per instance) and
get back a handle with a backend-independent interface.  The
differential conformance suite (``tests/skeleton/
test_backend_conformance.py``) is the contract that keeps the
engines interchangeable — any future engine must join that suite
before :func:`select` may return it.

Selection policy: ``backend="auto"`` runs a batch wider than one
instance on the bit-plane engine and a single instance on the scalar
engine, which needs no compile.  ``backend="scalar"``/``"bitsim"``
forces the choice; ``select(graph, batch=1, backend="bitsim")`` runs
the compiled one-plane plan, which wins when the same topology is
stepped for many cycles or many runs and the one-time compile
amortizes.  Both engines run every graph, GALS included.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .bitsim import check_instance
from .sim import SkeletonResult, SkeletonSim

PatternMap = Mapping[str, Sequence[bool]]
Patterns = Union[None, PatternMap, Sequence[Optional[PatternMap]]]

#: Every name :func:`select` accepts for ``backend=``.
BACKEND_CHOICES = ("auto", "scalar", "bitsim")


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

    #: "scalar" or "bitsim"
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
        skeleton_campaign` reads the golden column (instance 0).  An
        *instance* outside ``[0, batch)`` raises ``IndexError``.
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
        ``[cycle, cycle + duration)``, clamped to ``[0, depth]``.  An
        *instance* outside ``[0, batch)`` raises ``IndexError``.
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

    def __init__(self, graph: SystemGraph, variant: ProtocolVariant,
                 source_patterns: List[Dict], sink_patterns: List[Dict],
                 fixpoint: str, detect_ambiguity: bool,
                 telemetry=None):
        self.graph = graph
        self.batch = len(sink_patterns)
        self.sims = [
            SkeletonSim(graph, variant=variant, fixpoint=fixpoint,
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
        check_instance(instance, self.batch)
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
        check_instance(instance, self.batch)
        self.sims[instance].poke_bridge(bridge, cycle, delta,
                                        duration=duration)


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
        scalar for a single instance), ``"scalar"`` or ``"bitsim"``
        (the compiled bit-plane plan at any width; for one instance
        the compile only pays off over many cycles or runs, a
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
            f"unknown backend {backend!r}; available backends: "
            f"scalar, bitsim (or 'auto')")
    width = _infer_batch(batch, source_patterns, sink_patterns)
    if width < 1:
        raise ValueError("need at least one instance")
    sources = _normalize(source_patterns, width)
    sinks = _normalize(sink_patterns, width)
    cls = backend_class(backend, width)
    return cls(graph, variant, sources, sinks, fixpoint, detect_ambiguity,
               telemetry=telemetry)


def backend_class(backend: str, width: int) -> type:
    """The engine :func:`select` runs *width* instances of *backend* on.

    ``"bitsim"``, and ``"auto"`` for a batch wider than one, get the
    bit-plane engine; everything else the scalar reference.
    """
    if backend == "bitsim" or (backend == "auto" and width > 1):
        return BitplaneBackend
    return ScalarBackend

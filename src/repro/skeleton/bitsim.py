"""Bit-parallel (SBFI-style) batch skeleton simulation.

The valid/stop skeleton is a pure boolean transition system, so a
whole fault campaign fits the classic single-bit-fault-injection trick:
pack one independent experiment per **bit plane** of a Python integer
and advance every plane with one bitwise AND/OR/NOT expression per
signal per cycle.  An EXP-R1-style campaign of N boundary faults turns
from N scalar simulations into one engine run: Python integers are
arbitrary-width, so the batch is never split into machine words.

Layout (see :mod:`repro.ir.planes` for the packing helpers):

* every hop valid, hop stop and protocol register is **one int** whose
  bit *p* is that signal's value in experiment plane *p*;
* plane 0 is conventionally the golden (fault-free) run of a campaign
  batch; verdicts are extracted per plane against it;
* per-plane counters (stop assertions, stops-on-voids, fires, accepts)
  are **vertical counters** — bit-sliced binary counters whose slice
  *i* holds bit *i* of every plane's count, so one ripple-carry ``add``
  per word keeps exact per-plane totals without a per-plane loop.

GALS (multi-clock) graphs need no per-plane masks: every plane shares
the topology, so a clock domain ticks for every plane or for none, and
each element checks its domain's schedule once per cycle through the
per-phase tables built at construction.  A bisynchronous-FIFO bridge's
occupancy is **thermometer-coded**: ``bridge_ge[b][k]`` has bit *p* set
iff plane *p* holds more than *k* tokens, so "non-empty" is
``ge[0]``, "full" is ``ge[depth - 1]`` and a ±1 step is a saturating
shift of the thermometer.

The step itself is compiled: :func:`repro.skeleton.codegen.plan_for`
emits straight-line code over plane words for each topology (see
:func:`~repro.skeleton.codegen.planes.generate_plane_source`), and
:meth:`BitplaneSkeletonSim.step`/:meth:`~BitplaneSkeletonSim.run` call
that plan.  This class owns the state layout and the runtime data the
plan reads on every call: batch width and mask, script tables, source
ticks and holds, bridge pokes, the per-phase enable table and the
cycle count.

Bit-exactness against :class:`~repro.skeleton.sim.SkeletonSim` is the
contract: per plane, the compiled step evaluates the same monotone
equations in the same order as the scalar engine (a bitwise
Gauss-Seidel pass is the scalar pass applied to all planes at once, and
chaotic iteration of a monotone system from the same start converges to
the same least/greatest fixpoint), so registers, wires and counters
match cycle by cycle.  The differential suite in
``tests/skeleton/test_backend_conformance.py`` enforces it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graph.model import SystemGraph
from ..ir import LoweredSystem, lower, pack_planes
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .codegen import plan_for
from .periodicity import SkeletonResult, run_to_period

PatternMap = Mapping[str, Sequence[bool]]

__all__ = ["BitplaneSkeletonSim", "_VerticalCounter", "check_instance"]


class _VerticalCounter:
    """Bit-sliced per-plane counter (SBFI "vertical counter").

    ``slices[i]`` holds bit *i* of every plane's count.  The compiled
    step adds a word (one increment for each plane whose bit is set)
    with an inlined ripple carry across the slices — amortized O(1)
    integer ops per add (the classic binary-counter argument), never a
    per-plane loop.  It keeps the two low slices in locals for a whole
    run, so a counter always has at least two.  A one-plane plan
    counts in a plain int instead and ripples the total into plane 0
    once per call.
    """

    __slots__ = ("slices",)

    def __init__(self):
        self.slices: List[int] = [0, 0]

    def value(self, plane: int) -> int:
        total = 0
        for i, word in enumerate(self.slices):
            if (word >> plane) & 1:
                total += 1 << i
        return total

    def values(self, planes: int) -> List[int]:
        """``[value(p) for p in range(planes)]``, walking each slice's
        bits once (lowest plane first) instead of shifting every slice
        once per plane."""
        totals = [0] * planes
        mask = (1 << planes) - 1
        for i, word in enumerate(self.slices):
            word &= mask
            if word:
                weight = 1 << i
                for plane, bit in enumerate(bin(word)[:1:-1]):
                    if bit == "1":
                        totals[plane] += weight
        return totals


#: Byte value -> 1 if truthy, else 0 (script images, see _image).
_TRUTHY = bytes([0] + [1] * 255)
#: A run of set cycles in a script image.
_RUNS = re.compile(rb"\x01+")


def _image(script: Tuple, span: int) -> int:
    """*script*'s truthiness repeated over *span* cycles, one byte per
    cycle (1 when the entry is truthy), read as a big-endian int."""
    try:
        image = bytes(script).translate(_TRUTHY)
    except (TypeError, ValueError):  # entries that are not small ints
        image = bytes(map(bool, script))
    return int.from_bytes(image * (span // len(script)), "big")


def _sink_schedule(groups: Sequence[Tuple[Tuple, int]], span: int,
                   mask: int) -> List[int]:
    """One stop word per cycle of *span* from (script, planes) groups.

    The most-shared script is expanded once, for every plane in
    *mask*.  Each other distinct script adds only the runs of cycles
    where it differs from that one, found at C speed: XOR the two
    images and match the runs of set bytes.  A run flips its group's
    planes at both ends of an XOR difference array, and one prefix XOR
    folds the array into the words, so a sink costs O(span + runs)
    Python steps, not one per cycle of every distinct script.
    """
    base = max(groups, key=lambda group: group[1].bit_count())[0]
    base_image = _image(base, span)
    flips = [0] * (span + 1)
    for script, planes in groups:
        if script is base:
            diff, planes = base_image, mask
        else:
            diff = _image(script, span) ^ base_image
        for run in _RUNS.finditer(diff.to_bytes(span, "big")):
            flips[run.start()] ^= planes
            flips[run.end()] ^= planes
    flips.pop()
    return list(itertools.accumulate(flips, operator.xor))


def check_instance(instance: int, batch: int) -> None:
    """Raise ``IndexError`` unless ``0 <= instance < batch``.

    Per-instance accessors never wrap a negative index around or read
    a plane past the batch: both would return another instance's data.
    """
    if not 0 <= instance < batch:
        raise IndexError(
            f"instance {instance} out of range for batch {batch}")


class BitplaneSkeletonSim:
    """Simulate *batch* skeleton instances packed into bit planes.

    One sink/source script mapping per plane, both protocol variants,
    every relay-station kind, GALS clock domains and bridges,
    least/greatest fixpoints and ambiguity detection.
    """

    def __init__(
        self,
        graph: "SystemGraph | LoweredSystem",
        sink_patterns: Optional[Sequence[PatternMap]] = None,
        *,
        source_patterns: Optional[Sequence[PatternMap]] = None,
        batch: Optional[int] = None,
        variant: ProtocolVariant = DEFAULT_VARIANT,
        fixpoint: str = "least",
        detect_ambiguity: bool = True,
        telemetry=None,
    ):
        if fixpoint not in ("least", "greatest"):
            raise ValueError("fixpoint must be 'least' or 'greatest'")
        widths = {len(seq) for seq in (sink_patterns, source_patterns)
                  if seq is not None}
        if batch is not None:
            widths.add(batch)
        if len(widths) > 1:
            raise ValueError(f"inconsistent batch widths: {sorted(widths)}")
        if not widths:
            raise ValueError("need sink_patterns, source_patterns or batch")
        self.batch = widths.pop()
        if self.batch == 0:
            raise ValueError("need at least one instance")

        self.variant = variant
        self.fixpoint = fixpoint
        self.detect_ambiguity = detect_ambiguity
        self.telemetry = telemetry
        self._metrics_on = (telemetry is not None
                            and telemetry.metrics is not None)
        self._events_on = (telemetry is not None
                           and telemetry.events is not None)

        lowered = graph if isinstance(graph, LoweredSystem) else lower(graph)
        self.lowered = lowered.skeleton_view()
        self.graph = self.lowered.graph
        self.shell_names = list(self.lowered.shell_names)
        self.source_names = list(self.lowered.source_names)
        self.sink_names = list(self.lowered.sink_names)
        self._build_tables()
        self._build_schedules()
        self._build_scripts(source_patterns, sink_patterns)
        # detect_ambiguity, the telemetry flags and the counter form
        # (plain ints for one plane) are baked into the plan here;
        # changing them afterwards has no effect on step().
        self._plan = plan_for(
            self.lowered, variant, one_plane=self.batch == 1,
            fixpoint=fixpoint, detect_ambiguity=detect_ambiguity,
            metrics_on=self._metrics_on, events_on=self._events_on)
        self.reset()

    # -- construction -------------------------------------------------------

    def _build_tables(self) -> None:
        low = self.lowered
        self._mask = (1 << self.batch) - 1
        self._n_regs = len(low.shell_regs)
        self._n_rs = len(low.relays)
        self._n_hops = len(low.hops)
        self.bridge_names = list(low.bridge_names)
        self.bridge_depths = [b.depth for b in low.bridges]

    def _build_schedules(self) -> None:
        """Per-phase enable table, indexed by ``cycle % hyperperiod``.

        One word per clock domain: all planes when the domain ticks on
        that base cycle, none otherwise.  The compiled step gates every
        element on its domain's word: an idle source presents void and
        freezes its phase, an idle sink asserts stop, an idle shell
        cannot fire and holds its registers, an idle relay holds its
        registers and each bridge port moves only on its own domain's
        ticks.  Single-clock systems never read it.
        """
        low = self.lowered
        mask = self._mask
        self._hyperperiod = low.hyperperiod
        self._phases = [
            tuple(mask if d.schedule[c] else 0 for d in low.domains)
            for c in range(self._hyperperiod)]

    def _build_scripts(self, source_patterns, sink_patterns) -> None:
        b = self.batch

        def _patterns(names, per_instance, default):
            """Per name: one script tuple per plane (validated)."""
            known = set(names)
            instances = ([(m or {}) for m in per_instance]
                         if per_instance is not None else [{}] * b)
            for mapping in instances:
                for name in mapping:
                    if name not in known:
                        raise ValueError(f"unknown script target {name!r}")
            table = []
            for name in names:
                planes = []
                for mapping in instances:
                    pattern = mapping.get(name)
                    if pattern is None:
                        planes.append(default)
                    else:
                        # Truthiness is all packing ever reads, so a
                        # plain tuple() keeps campaign-sized batches
                        # from paying a per-element bool() pass.
                        pattern = tuple(pattern)
                        if not pattern:
                            raise ValueError("empty script pattern")
                        planes.append(pattern)
                table.append(planes)
            return table

        self._src_pats = _patterns(self.source_names, source_patterns,
                                   (True,))
        self._sink_pats = _patterns(self.sink_names, sink_patterns,
                                    (False,))

        # Planes whose source script presents one value at every phase
        # contribute fixed bits to the presented word; only the others
        # are looked up per cycle.  When every plane's script has length
        # 1 the phases never move, so their advance is skipped too.
        self._src_words: List[Tuple[int, List[Tuple[int, Tuple]]]] = [
            (pack_planes([all(p) for p in planes]),
             [(p, pattern) for p, pattern in enumerate(planes)
              if any(pattern) and not all(pattern)])
            for planes in self._src_pats]
        self._src_static = [all(len(p) == 1 for p in planes)
                            for planes in self._src_pats]

        # Sink stops are cycle-indexed: expand each sink's per-plane
        # schedule to one plane word per cycle over the lcm span, once
        # (see _sink_schedule).  When the lcm is unreasonable the step
        # packs the word each cycle from the (script, planes) groups
        # instead.
        self._sink_sched: List[Optional[List[int]]] = []
        self._sink_groups: List[List[Tuple[Tuple, int]]] = []
        for planes in self._sink_pats:
            masks: Dict[Tuple, int] = {}
            for p, pattern in enumerate(planes):
                masks[pattern] = masks.get(pattern, 0) | (1 << p)
            groups = list(masks.items())
            self._sink_groups.append(groups)
            span = math.lcm(*(len(p) for p in masks))
            self._sink_sched.append(
                _sink_schedule(groups, span, self._mask)
                if span <= 4096 else None)

        # Per-plane state-key phase modulus: the plane's sink script
        # period folded with the clock-domain hyperperiod, exactly as
        # the scalar engine's state() does.
        self._key_mod = [
            math.lcm(math.lcm(*(len(planes[p])
                                for planes in self._sink_pats))
                     if self._sink_pats else 1,
                     self._hyperperiod)
            for p in range(b)]

    # -- state --------------------------------------------------------------

    def reset(self) -> None:
        b = self.batch
        self.cycle = 0
        # Shell out registers start VALID (paper footnote 1); relay
        # stations start VOID and bridges empty — identical to the
        # scalar engine.
        self.shell_reg = [self._mask] * self._n_regs
        self.rs_main = [0] * self._n_rs
        self.rs_aux = [0] * self._n_rs
        self.rs_stop_reg = [0] * self._n_rs
        self.bridge_ge = [[0] * depth for depth in self.bridge_depths]
        # Scheduled occupancy perturbations (see poke_bridge).
        self._bridge_pokes: List[Tuple[int, int, int, int, int]] = []
        # Script phase of plane p = (ticks - holds[p]) % len(pattern):
        # a source advances on every tick of its domain unless its
        # presented token is held, so only held planes cost work.
        self._src_ticks = [0] * len(self.source_names)
        self._src_holds = [[0] * b for _ in self.source_names]
        self.ambiguous_cycles: List[List[int]] = [[] for _ in range(b)]
        self._fire_history: List[List[int]] = []
        self._accept_history: List[List[int]] = []
        self.shell_fired = [_VerticalCounter() for _ in self.shell_names]
        self.sink_accepted = [_VerticalCounter() for _ in self.sink_names]
        self.stop_assertions = _VerticalCounter()
        self.stops_on_voids = _VerticalCounter()
        self.internal_stops_on_voids = _VerticalCounter()
        # Telemetry accumulators (updated only when metrics are on).
        self.hop_stall_cycles = [_VerticalCounter()
                                 for _ in range(self._n_hops)]
        self.rs_occupancy_counts = [
            [_VerticalCounter() for _level in range(3)]
            for _ in range(self._n_rs)]
        self.bridge_occupancy_counts = [
            [_VerticalCounter() for _level in range(depth + 1)]
            for depth in self.bridge_depths]

    @property
    def src_phase(self) -> List[List[int]]:
        """Per source, every plane's script phase (scalar layout)."""
        return [[(ticks - held) % len(pattern)
                 for held, pattern in zip(holds, planes)]
                for ticks, holds, planes in zip(
                    self._src_ticks, self._src_holds, self._src_pats)]

    def state_keys(self, planes: Optional[Sequence[int]] = None) \
            -> List[Tuple]:
        """One hashable snapshot per plane (mirrors scalar state()).

        *planes* restricts the extraction to those planes (in order);
        default every plane.  The W register and bridge words are
        joined once into one integer with stride B (the batch width):
        word *i* fills bits ``[i*B, (i+1)*B)`` (every state word stays
        within the batch mask, so no two overlap).  Plane *p*'s
        register key is then ``(joined >> p) & stride_mask``, whose bit
        ``i*B`` is bit *p* of word *i*: one shift and one mask per
        plane, and the key stays exact.  Source phases enter only for
        sources with a script longer than one step; the others never
        move.
        """
        width = self.batch
        joined = 0
        for words in (self.shell_reg, self.rs_main, self.rs_aux,
                      self.rs_stop_reg, *self.bridge_ge):
            for word in words:
                joined = (joined << width) | word
        stride_mask = self._stride_mask
        cycle = self.cycle
        key_mod = self._key_mod
        moving = [(self._src_ticks[s], self._src_holds[s],
                   self._src_pats[s])
                  for s, static in enumerate(self._src_static)
                  if not static]
        return [((joined >> p) & stride_mask,
                 tuple((ticks - holds[p]) % len(pats[p])
                       for ticks, holds, pats in moving),
                 cycle % key_mod[p])
                for p in (range(width) if planes is None else planes)]

    @functools.cached_property
    def _stride_mask(self) -> int:
        """One set bit per state word, B apart (see state_keys)."""
        words = self._n_regs + 3 * self._n_rs + sum(self.bridge_depths)
        return sum(1 << (i * self.batch) for i in range(words))

    @property
    def quiet_from(self) -> List[int]:
        """Per plane, the first cycle after its last scheduled bridge
        poke (0 when it has none)."""
        quiet = [0] * self.batch
        for _b, bit, _lo, hi, _d in self._bridge_pokes:
            plane = bit.bit_length() - 1
            quiet[plane] = max(quiet[plane], hi)
        return quiet

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        """Schedule a bridge occupancy perturbation for one plane.

        Mirrors :meth:`SkeletonSim.poke_bridge` with an explicit
        *instance* (plane): on each cycle in ``[cycle, cycle +
        duration)`` the bridge's occupancy in that plane is nudged by
        *delta* after the normal update, clamped to ``[0, depth]``.
        Pokes apply in registration order.
        """
        check_instance(instance, self.batch)
        if isinstance(bridge, str):
            try:
                b_id = self.bridge_names.index(bridge)
            except ValueError:
                raise KeyError(
                    f"no bridge named {bridge!r} "
                    f"(bridges: {self.bridge_names})") from None
        else:
            b_id = bridge
            if not 0 <= b_id < len(self.bridge_depths):
                raise KeyError(f"no bridge with index {b_id}")
        self._bridge_pokes.append(
            (b_id, 1 << instance, cycle, cycle + duration, delta))

    # -- stepping -------------------------------------------------------------

    def step(self) -> Tuple[List[int], List[int]]:
        """Advance all planes one cycle; returns (fire, accept) words."""
        return self._plan.cycle(self)

    def run(self, cycles: int) -> None:
        """Step all planes a fixed number of cycles."""
        self._plan.run_cycles(self, cycles)

    def run_to_period(self, max_cycles: int = 10_000) \
            -> List[SkeletonResult]:
        """Simulate until every plane is periodic; one result each
        (see :func:`~repro.skeleton.periodicity.detect_period`)."""
        return run_to_period(self, max_cycles, self._fire_history,
                             self._accept_history, self.ambiguous_cycles)

    # -- per-plane extraction ------------------------------------------------

    def fire_count(self, shell: int, plane: int) -> int:
        check_instance(plane, self.batch)
        return self.shell_fired[shell].value(plane)

    def accept_count(self, sink: int, plane: int) -> int:
        check_instance(plane, self.batch)
        return self.sink_accepted[sink].value(plane)

    def accept_history(self, plane: int) -> List[Tuple[bool, ...]]:
        """Per cycle, each sink's acceptance bit in *plane*."""
        check_instance(plane, self.batch)
        return [tuple(bool((word >> plane) & 1) for word in words)
                for words in self._accept_history]

    # -- telemetry ----------------------------------------------------------

    def metrics_snapshot(self, instance: int = 0) -> Dict[str, Dict]:
        """Canonical metrics snapshot for one plane.

        Bit-identical to :meth:`SkeletonSim.metrics_snapshot` with the
        same scripts (the conformance suite asserts this).
        """
        from ..obs import MetricsRegistry

        check_instance(instance, self.batch)
        registry = MetricsRegistry()
        cycles = self.cycle
        registry.counter("skeleton/cycles").inc(cycles)
        for i, name in enumerate(self.shell_names):
            fires = self.shell_fired[i].value(instance)
            registry.counter(f"skeleton/shell/{name}/fires").inc(fires)
            registry.gauge(f"skeleton/shell/{name}/fire_rate").set(
                fires / cycles if cycles else 0.0)
        for i, name in enumerate(self.sink_names):
            registry.counter(f"skeleton/sink/{name}/accepts").inc(
                self.sink_accepted[i].value(instance))
        registry.counter("skeleton/stop/assertions").inc(
            self.stop_assertions.value(instance))
        registry.counter("skeleton/stop/on_voids").inc(
            self.stops_on_voids.value(instance))
        registry.counter("skeleton/stop/on_voids_internal").inc(
            self.internal_stops_on_voids.value(instance))
        registry.counter("skeleton/fixpoint/ambiguous").inc(
            len(self.ambiguous_cycles[instance]))
        if self._metrics_on:
            hop_names = self.lowered.hop_names
            for hop_id in range(self._n_hops):
                registry.counter(
                    f"skeleton/channel/{hop_names[hop_id]}"
                    f"/stall_cycles").inc(
                        self.hop_stall_cycles[hop_id].value(instance))
            histograms = (
                [(f"skeleton/relay/{name}/occupancy", counters)
                 for name, counters in zip(self.lowered.relay_names,
                                           self.rs_occupancy_counts)]
                + [(f"skeleton/bridge/{name}/occupancy", counters)
                   for name, counters in zip(self.bridge_names,
                                             self.bridge_occupancy_counts)])
            for key, counters in histograms:
                hist = registry.histogram(key)
                for level, counter in enumerate(counters):
                    count = counter.value(instance)
                    if count:
                        hist.observe(level, count)
        return registry.snapshot()
